// `pb search`: the paper's skip-connection search (make_bo_problem +
// run_bayes_opt over shared-weight fine-tunes) as a benchmark workload,
// plus the train/core/opt/data layer probes of the traced run.
//
// Set-up (dataset generation + a 2-epoch warm fit of the supernet) runs
// --setups times, identically; setup_s is their median. Then searches
// with a fixed evaluation budget (initial design 2, k = 2 per round,
// --rounds rounds) run one after another on the last set-up, as many as
// fill about --seconds at HEAD. Search i runs with seed (seed * 1000 + i),
// so every proposal follows from --seed. With --trace 1 the same searches
// run again from a fresh set-up with the program's telemetry enabled, and
// must reproduce the first pass's observation sequences bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/adapter.h"
#include "data/dataloader.h"
#include "models/zoo.h"
#include "nn/optimizer.h"
#include "pb.h"
#include "telemetry/retained.h"
#include "telemetry/telemetry.h"
#include "tensor/spike_kernels.h"
#include "train/evaluate.h"

namespace pb {

using namespace snnskip;

namespace {

// The dataset and the supernet's initialization are fixed; the workload
// seed drives the search (run_bayes_opt's seed), so seeds differ only in
// which candidates are proposed.
constexpr std::uint64_t kDataSeed = 42;
constexpr int kInitialDesign = 2;
constexpr int kBatchK = 2;
// Wall time of one 6-evaluation search on the reference host (NOTES.md).
// The number of searches is --seconds / this, a constant, so the work of
// a run never depends on the speed of the code under test.
constexpr double kNominalSearchS = 7.0;

TrainConfig finetune_config() {
  TrainConfig tc;
  tc.epochs = 1;  // the paper's "fine-tune for n epochs", n = 1
  tc.batch_size = 25;
  tc.lr = 0.15f;
  tc.timesteps = 6;
  tc.seed = kDataSeed;
  return tc;
}

struct Setup {
  DatasetBundle data;
  std::unique_ptr<CandidateEvaluator> evaluator;
  EncodingVec default_code;
  double setup_s = 0.0;
};

SyntheticConfig data_config() {
  SyntheticConfig dc;
  dc.height = 12;
  dc.width = 12;
  dc.timesteps = 6;
  dc.train_size = 200;
  dc.val_size = 50;
  dc.test_size = 50;
  dc.seed = kDataSeed;
  return dc;
}

// make_datasets is lazy (samples are synthesized on access), so the data
// layer's cost is timed as make_datasets plus one pass over every sample.
double generate_ms() {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const Timer t0;
    const DatasetBundle data = make_datasets("cifar10-dvs", data_config());
    for (const DatasetPtr& split : {data.train, data.val, data.test}) {
      for (std::size_t k = 0; k < split->size(); ++k) (void)split->get(k);
    }
    ms.push_back(t0.elapsed_ms());
  }
  return median(ms);
}

Setup set_up() {
  const Timer t0;
  Setup s;
  s.data = make_datasets("cifar10-dvs", data_config());

  EvaluatorConfig ecfg;
  ecfg.model = "resnet18s";
  ecfg.model_cfg.width = 4;
  ecfg.model_cfg.seed = kDataSeed;
  ecfg.finetune = finetune_config();
  ecfg.seed = kDataSeed;
  s.evaluator = std::make_unique<CandidateEvaluator>(ecfg, s.data);
  CandidateEvaluator& ev = *s.evaluator;
  s.default_code = ev.space().encode(
      default_adjacencies(ecfg.model, ev.model_config()));
  // Warm fit of the supernet: the vanilla topology trains for 2 epochs
  // and seeds the shared weight store every candidate fine-tunes from.
  Network net = ev.build(s.default_code);
  TrainConfig warm = ecfg.finetune;
  warm.epochs = 2;
  fit(net, NeuronMode::Spiking, s.data.train, nullptr, warm);
  ev.store().store_from(net);
  s.setup_s = t0.elapsed_s();
  return s;
}

struct Search {
  double search_s = 0.0, cpu_s = 0.0;
  std::vector<double> eval_s;
  std::vector<Observation> obs;
};

// One fixed-budget search on `s`, continuing from whatever the shared
// weight store holds.
Search run_one_search(Setup& s, std::uint64_t seed, int rounds) {
  Search out;
  BoProblem problem = make_bo_problem(*s.evaluator);
  const auto observe = problem.observe;
  problem.observe = [&out, observe](const EncodingVec& code) {
    const Timer t0;
    Observation o = observe(code);
    out.eval_s.push_back(t0.elapsed_s());
    return o;
  };
  BoConfig bo;
  bo.initial_design = kInitialDesign;
  bo.batch_k = kBatchK;
  bo.iterations = rounds;
  bo.candidate_pool = 64;
  bo.noise = 1e-2;
  bo.seed = seed;

  const double cpu0 = process_cpu_s(0);
  const Timer t0;
  out.obs = run_bayes_opt(problem, bo).observations;
  out.search_s = t0.elapsed_s();
  out.cpu_s = process_cpu_s(0) - cpu0;
  return out;
}

bool same_observations(const std::vector<Observation>& a,
                       const std::vector<Observation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].code != b[i].code || a[i].failed != b[i].failed ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Train-layer probes on one batch of the set-up's training data, from the
// warm shared weights: train_batch as a whole, then the same batch
// replayed phase by phase through the public Network/Optimizer calls.
void train_probes(Setup& s, Record& r) {
  CandidateEvaluator& ev = *s.evaluator;
  const TrainConfig tc = finetune_config();
  Network net = ev.build(s.default_code);
  ev.store().load_into(net);
  EncodingPlan enc = make_encoding_plan(*s.data.train, NeuronMode::Spiking, tc);
  Sgd opt(net.parameters(), tc.lr, tc.momentum, tc.weight_decay);
  DataLoader loader(*s.data.train, tc.batch_size, false, kDataSeed);
  loader.start_epoch(0);
  Batch batch;
  loader.next(batch);

  constexpr int kReps = 5;
  SparseExec::reset_stats();
  RetainedActivations::reset_high_water();
  std::vector<double> batch_ms;
  for (int i = 0; i < kReps; ++i) {
    const Timer t0;
    train_batch(net, *enc.encoder, batch, enc.timesteps, opt, tc.grad_clip,
                tc.loss);
    batch_ms.push_back(t0.elapsed_ms());
  }
  const SparseExec::Stats fwd = SparseExec::stats();
  const SparseExec::Stats bwd = SparseExec::bwd_stats();
  auto share = [](const SparseExec::Stats& st) {
    const double calls = static_cast<double>(st.sparse_calls + st.dense_calls);
    return calls > 0.0 ? static_cast<double>(st.sparse_calls) / calls : 0.0;
  };
  r.set("train.batch_ms", median(batch_ms));
  r.set("train.sparse_fwd_share", share(fwd));
  r.set("train.sparse_bwd_share", share(bwd));
  r.set("train.retained_mb_hw",
        static_cast<double>(RetainedActivations::high_water()) / (1 << 20));

  std::vector<double> fwd_ms, bwd_ms, optim_ms;
  for (int i = 0; i < kReps; ++i) {
    net.reset_state();
    enc.encoder->reset();
    opt.zero_grad();
    Timer t0;
    Tensor sum;
    for (std::int64_t t = 0; t < enc.timesteps; ++t) {
      Tensor out = net.forward(enc.encoder->encode(batch.x, t), true);
      if (t == 0) {
        sum = std::move(out);
      } else {
        sum.add_(out);
      }
    }
    fwd_ms.push_back(t0.elapsed_ms());
    const StepLoss sl = readout_loss(tc.loss, sum, batch.y, enc.timesteps);
    t0.reset();
    for (std::int64_t t = enc.timesteps; t-- > 0;) {
      (void)net.backward(sl.grad_per_step);
    }
    bwd_ms.push_back(t0.elapsed_ms());
    t0.reset();
    clip_grad_norm(net.parameters(), tc.grad_clip);
    opt.step();
    optim_ms.push_back(t0.elapsed_ms());
    net.reset_state();
  }
  r.set("train.forward_ms", median(fwd_ms));
  r.set("train.backward_ms", median(bwd_ms));
  r.set("train.optim_ms", median(optim_ms));

  std::vector<double> eval_ms;
  for (int i = 0; i < 3; ++i) {
    const Timer t0;
    evaluate(net, NeuronMode::Spiking, *s.data.val, tc);
    eval_ms.push_back(t0.elapsed_ms());
  }
  r.set("train.eval_ms", median(eval_ms));
}

struct Pass {
  std::vector<Search> searches;
  std::vector<double> eval_ms;  // every evaluation of every search
  double search_s = 0.0, cpu_s = 0.0;
  double observe_s = 0.0;
  std::int64_t attempted = 0, failed = 0;
};

// `count` searches with seeds seed*1000 + i, one after another on the
// same set-up.
Pass run_pass(Setup& s, std::uint64_t seed, int rounds, int count) {
  Pass p;
  for (int i = 0; i < count; ++i) {
    p.searches.push_back(
        run_one_search(s, seed * 1000 + static_cast<std::uint64_t>(i), rounds));
    const Search& one = p.searches.back();
    p.search_s += one.search_s;
    p.cpu_s += one.cpu_s;
    for (double e : one.eval_s) {
      p.eval_ms.push_back(1e3 * e);
      p.observe_s += e;
    }
    for (const Observation& o : one.obs) {
      ++p.attempted;
      if (o.failed || !std::isfinite(o.value)) ++p.failed;
    }
  }
  return p;
}

}  // namespace

int run_search(const CliArgs& args) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double seconds = args.get_double("seconds", 10.0);
  const int rounds = args.get_int("rounds", 2);
  const int setups = args.get_int("setups", 3);
  const int count = args.get_int(
      "searches", std::max(1, static_cast<int>(std::lround(seconds / kNominalSearchS))));
  const bool trace = args.get_int("trace", 0) != 0;

  // Identical set-ups (same seed); the median is setup_s and the last
  // one is searched on.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < std::max(1, setups); ++i) {
    s = set_up();
    setup_s.push_back(s.setup_s);
  }
  const Pass timed = run_pass(s, seed, rounds, count);

  Record r;
  const double evals = static_cast<double>(timed.eval_ms.size());
  r.set("attempted", static_cast<double>(timed.attempted));
  r.set("failed", static_cast<double>(timed.failed));
  r.set("searches", static_cast<double>(timed.searches.size()));
  r.set("p50_ms", median(timed.eval_ms));
  r.set("p90_ms", quantile(timed.eval_ms, 0.9));
  r.set("throughput_per_s", evals / timed.search_s);
  r.set("cpu_ms_per_op", 1e3 * timed.cpu_s / evals);
  r.set("rss_mb", process_hwm_mb(0));
  r.set("setup_s", median(setup_s));

  if (trace) {
    // The same searches from a fresh set-up, with the program's telemetry
    // on; seed determinism means identical observation sequences.
    Setup fresh = set_up();
    Telemetry::set_enabled(true);
    const Pass traced = run_pass(fresh, seed, rounds, count);
    Telemetry::set_enabled(false);
    Telemetry::reset();
    bool same = traced.searches.size() == timed.searches.size();
    for (std::size_t i = 0; same && i < traced.searches.size(); ++i) {
      same = same_observations(timed.searches[i].obs, traced.searches[i].obs);
    }
    r.set_bool("reproduced", same);
    r.set("trace.p50_ms", median(traced.eval_ms));
    r.set("core.eval_ms", 1e3 * traced.observe_s /
                              static_cast<double>(traced.eval_ms.size()));
    r.set("core.failed_candidates", static_cast<double>(traced.failed));
    r.set("opt.propose_ms",
          1e3 * (traced.search_s - traced.observe_s) /
              static_cast<double>(std::max(1, rounds) * traced.searches.size()));
    r.set("data.generate_ms", generate_ms());
    train_probes(fresh, r);
  }
  stamp_environment(r);
  std::printf("%s\n", r.json().c_str());
  return 0;
}

}  // namespace pb
