// Property-based tests: invariants that must hold for EVERY admissible
// topology, checked over seeded random samples of the search spaces —
// shapes, gradient flow, spike binarity, firing-rate bounds, MAC
// monotonicity, weight-store round trips, compiled-engine agreement with
// the training graph, and search-trace consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/adapter.h"
#include "core/evaluator.h"
#include "core/search_space.h"
#include "graph/mac_counter.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "infer/quant.h"
#include "models/zoo.h"
#include "nn/loss.h"
#include "tensor/cpu_features.h"
#include "tensor/spike_kernels.h"
#include "train/evaluate.h"
#include "train/trainer.h"
#include "train/weight_store.h"

namespace snnskip {
namespace {

ModelConfig prop_model_cfg(std::uint64_t seed) {
  ModelConfig cfg;
  cfg.width = 4;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 3;
  cfg.seed = seed;
  return cfg;
}

struct PropCase {
  std::string model;
  std::uint64_t seed;
};

void PrintTo(const PropCase& c, std::ostream* os) {
  *os << c.model << "/seed" << c.seed;
}

class RandomTopology : public ::testing::TestWithParam<PropCase> {
 protected:
  // A random admissible candidate for the parameterized model family.
  std::vector<Adjacency> random_adjacencies(const ModelConfig& cfg) {
    const SearchSpace space(model_block_specs(GetParam().model, cfg));
    Rng rng(GetParam().seed);
    return space.decode(space.sample(rng));
  }
};

TEST_P(RandomTopology, ForwardShapeIsAlwaysLogitsShaped) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  Network net =
      build_model(GetParam().model, cfg, random_adjacencies(cfg));
  Rng rng(GetParam().seed + 1);
  Tensor x = Tensor::randn(Shape{2, 2, 16, 16}, rng);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(net.forward(x, false).shape(), (Shape{2, 10}));
  }
  net.reset_state();
}

TEST_P(RandomTopology, BackwardShapeMatchesInputAndGradsFlow) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  Network net =
      build_model(GetParam().model, cfg, random_adjacencies(cfg));
  Rng rng(GetParam().seed + 2);
  Tensor x = Tensor::rand(Shape{2, 2, 16, 16}, rng, 0.f, 2.f);

  auto params = net.parameters();
  for (Parameter* p : params) p->zero_grad();
  net.reset_state();
  // Two unrolled steps, then BPTT.
  net.forward(x, true);
  Tensor out = net.forward(x, true);
  Tensor g = Tensor::randn(out.shape(), rng);
  Tensor gx2 = net.backward(g);
  Tensor gx1 = net.backward(g);
  net.reset_state();
  EXPECT_EQ(gx1.shape(), x.shape());
  EXPECT_EQ(gx2.shape(), x.shape());

  // At least some parameter gradient must be non-zero (gradients flow
  // through the surrogate path).
  double grad_mass = 0.0;
  for (Parameter* p : params) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      grad_mass += std::abs(p->grad[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_GT(grad_mass, 0.0);
}

TEST_P(RandomTopology, SpikingOutputsOfLifLayersAreBinary) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  Network net =
      build_model(GetParam().model, cfg, random_adjacencies(cfg));
  FiringRateRecorder rec;
  net.set_recorder(&rec);
  Rng rng(GetParam().seed + 3);
  Tensor x = Tensor::rand(Shape{2, 2, 16, 16}, rng, 0.f, 2.f);
  for (int t = 0; t < 3; ++t) net.forward(x, false);
  net.reset_state();
  // Firing rate is a probability.
  EXPECT_GE(rec.overall_rate(), 0.0);
  EXPECT_LE(rec.overall_rate(), 1.0);
  for (const auto& [layer, rate] : rec.per_layer_rates()) {
    EXPECT_GE(rate, 0.0) << layer;
    EXPECT_LE(rate, 1.0) << layer;
  }
}

TEST_P(RandomTopology, MacsArePositiveAndShapeConsistent) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  Network net =
      build_model(GetParam().model, cfg, random_adjacencies(cfg));
  const Shape in{1, 2, 16, 16};
  const MacReport report = count_macs(net, in);
  EXPECT_GT(report.total, 0);
  EXPECT_EQ(net.output_shape(in), (Shape{1, 10}));
}

TEST_P(RandomTopology, WeightStoreRoundTripIsExact) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  const auto adjs = random_adjacencies(cfg);
  Network a = build_model(GetParam().model, cfg, adjs);
  WeightStore store(GetParam().seed);
  store.store_from(a);

  ModelConfig cfg2 = cfg;
  cfg2.seed ^= 0xBEEF;
  Network b = build_model(GetParam().model, cfg2, adjs);
  store.load_into(b);
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(pa[i]->value, pb[i]->value), 0.f)
        << pa[i]->name;
  }
}

TEST_P(RandomTopology, TrainStepIsFiniteAndDeterministic) {
  const ModelConfig cfg = prop_model_cfg(GetParam().seed);
  SyntheticConfig dc;
  dc.height = 16;
  dc.width = 16;
  dc.timesteps = 3;
  dc.train_size = 10;
  dc.val_size = 10;
  dc.test_size = 10;
  dc.seed = GetParam().seed;
  const DatasetBundle data = make_datasets("cifar10-dvs", dc);

  auto run_once = [&]() {
    Network net =
        build_model(GetParam().model, cfg, random_adjacencies(cfg));
    DataLoader loader(*data.train, 10, false, 1);
    loader.start_epoch(0);
    Batch batch;
    EXPECT_TRUE(loader.next(batch));
    EventEncoder enc(3, 2);
    auto params = net.parameters();
    Sgd opt(params, 0.05f, 0.9f, 0.f);
    return train_batch(net, enc, batch, 3, opt, 5.f);
  };
  const double l1 = run_once();
  const double l2 = run_once();
  EXPECT_TRUE(std::isfinite(l1));
  EXPECT_EQ(l1, l2);  // full determinism: same seeds, same loss
}

// --- compiled engine vs the training graph (differential) ------------------

/// Restores the process-wide dispatch switches a test forces.
struct DispatchGuard {
  bool sparse = SparseExec::enabled();
  float threshold = SparseExec::threshold();
  SimdLevel simd = active_simd();
  ~DispatchGuard() {
    SparseExec::set_enabled(sparse);
    SparseExec::set_threshold(threshold);
    set_active_simd(simd);
  }
};

std::vector<Tensor> training_eval(Network& net, const std::vector<Tensor>& xs) {
  net.reset_state();
  std::vector<Tensor> outs;
  for (const Tensor& x : xs) outs.push_back(net.forward(x, false));
  net.reset_state();
  return outs;
}

std::vector<Tensor> engine_eval(infer::Engine& eng,
                                const std::vector<Tensor>& xs) {
  eng.reset();
  std::vector<Tensor> outs;
  for (const Tensor& x : xs) outs.push_back(eng.step(x));
  return outs;
}

float max_step_diff(const std::vector<Tensor>& a,
                    const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, Tensor::max_abs_diff(a[i], b[i]));
  }
  return worst;
}

TEST_P(RandomTopology, CompiledEngineMatchesTrainingEval) {
  // Every random topology of every family — DSC gathers, ASC sinking
  // with stride and channel mismatch, depthwise ADD joins — compiled and
  // checked against the training eval forward at every timestep. The
  // 0.5 threshold keeps these width-4 nets firing: at 1.0 resnet18s and
  // densenet121s give all-zero logits on every seed, and a comparison of
  // zeros proves nothing.
  DispatchGuard guard;
  ModelConfig cfg = prop_model_cfg(GetParam().seed);
  cfg.lif.threshold = 0.5f;
  Network net =
      build_model(GetParam().model, cfg, random_adjacencies(cfg));
  const Shape in{2, 2, 16, 16};
  Rng rng(GetParam().seed + 7);
  // A few train-mode steps give BNTT non-trivial running stats.
  net.reset_state();
  for (int t = 0; t < 3; ++t) {
    net.forward(Tensor::bernoulli(in, rng, 0.3f), /*train=*/true);
  }
  std::vector<Tensor> xs;
  for (int t = 0; t < 3; ++t) xs.push_back(Tensor::bernoulli(in, rng, 0.25f));

  // fp32 dense dispatch runs the training graph's dense arithmetic.
  SparseExec::set_enabled(false);
  const auto ref_dense = training_eval(net, xs);
  bool fired = false;
  for (const Tensor& o : ref_dense) {
    for (std::int64_t i = 0; i < o.numel(); ++i) fired |= o.data()[i] != 0.f;
  }
  EXPECT_TRUE(fired) << "all-zero logits: the comparison is vacuous";
  const infer::PlanPtr fplan = infer::compile(net, in);
  infer::Engine dense_eng(fplan, infer::ExecOptions{0.f});
  EXPECT_EQ(max_step_diff(ref_dense, engine_eval(dense_eng, xs)), 0.f);

  // fp32 packed dispatch against the training graph's event path: ADD
  // joins accumulate term by term, so agreement is to rounding.
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(1.f);
  const auto ref_sparse = training_eval(net, xs);
  infer::Engine packed_eng(fplan, infer::ExecOptions{1.f});
  EXPECT_LE(max_step_diff(ref_sparse, engine_eval(packed_eng, xs)), 1e-4f);
  EXPECT_GT(packed_eng.stats().packed_dispatches, 0);

  // Scalar and AVX2 kernel tables agree bit for bit, fp32 and int8, in
  // both dispatch modes.
  if (!simd_avx2_compiled() || !cpu_has_avx2()) {
    GTEST_SKIP() << "AVX2 not compiled in or not supported by host";
  }
  const infer::QuantProfile prof = infer::calibrate_quant(fplan, {xs});
  infer::CompileOptions qopts;
  qopts.precision = infer::Precision::Int8;
  qopts.quant = &prof;
  const infer::PlanPtr qplan = infer::compile(net, in, qopts);
  for (const infer::PlanPtr& plan : {fplan, qplan}) {
    for (const float threshold : {0.f, 1.f}) {
      const SimdLevel levels[2] = {SimdLevel::Scalar, SimdLevel::Avx2};
      std::vector<Tensor> outs[2];
      infer::ExecStats stats[2];
      for (int l = 0; l < 2; ++l) {
        ASSERT_EQ(set_active_simd(levels[l]), levels[l]);
        infer::Engine eng(plan, infer::ExecOptions{threshold});
        outs[l] = engine_eval(eng, xs);
        stats[l] = eng.stats();
      }
      const std::string what = std::string(precision_name(plan->precision)) +
                               " threshold " + std::to_string(threshold);
      ASSERT_EQ(outs[0].size(), outs[1].size());
      for (std::size_t t = 0; t < outs[0].size(); ++t) {
        EXPECT_EQ(std::memcmp(outs[0][t].data(), outs[1][t].data(),
                              static_cast<std::size_t>(outs[0][t].numel()) *
                                  sizeof(float)),
                  0)
            << what << " step " << t;
      }
      EXPECT_EQ(stats[0].spikes, stats[1].spikes) << what;
      EXPECT_EQ(stats[0].synops, stats[1].synops) << what;
    }
  }
}

std::vector<PropCase> prop_cases() {
  std::vector<PropCase> cases;
  for (const auto& model : model_names()) {
    for (std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
      cases.push_back(PropCase{model, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllModelsSeeds, RandomTopology,
                         ::testing::ValuesIn(prop_cases()));

// --- DSC monotonicity (property over the whole slot range) ------------------

TEST(Property, MacsMonotoneInDscEdgeCount) {
  // Adding any DSC edge to any topology can only add MACs.
  const ModelConfig cfg = prop_model_cfg(7);
  const auto specs = single_block_specs(cfg);
  const SearchSpace space(specs);
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    EncodingVec code = space.sample(rng);
    // Find a slot currently not DSC and flip it to DSC.
    for (std::size_t k = 0; k < code.size(); ++k) {
      if (code[k] == 1 || !space.value_allowed(k, 1)) continue;
      EncodingVec denser = code;
      denser[k] = 1;
      Network a = build_model("single_block", cfg, space.decode(code));
      Network b = build_model("single_block", cfg, space.decode(denser));
      const Shape in{1, 2, 16, 16};
      EXPECT_GT(count_macs(b, in).total, count_macs(a, in).total);
      break;
    }
  }
}

TEST(Property, SearchTracesAreInternallyConsistent) {
  // For any trace: best_so_far is the running min of observation values
  // and best_value equals its final entry.
  BoProblem p;
  p.sample = [](Rng& rng) {
    EncodingVec code(5);
    for (auto& v : code) v = static_cast<int>(rng.uniform_int(3ULL));
    return code;
  };
  p.featurize = [](const EncodingVec& c) { return one_hot_features(c); };
  p.objective = [](const EncodingVec& c) {
    double v = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) v += c[i] * (i + 1.0);
    return v;
  };
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    BoConfig cfg;
    cfg.seed = seed;
    cfg.iterations = 5;
    const SearchTrace trace = run_bayes_opt(p, cfg);
    double running = std::numeric_limits<double>::infinity();
    ASSERT_EQ(trace.best_so_far.size(), trace.observations.size());
    for (std::size_t i = 0; i < trace.observations.size(); ++i) {
      running = std::min(running, trace.observations[i].value);
      EXPECT_DOUBLE_EQ(trace.best_so_far[i], running);
    }
    EXPECT_DOUBLE_EQ(trace.best_value, running);
  }
}

TEST(Property, EncodeDecodeIsIdentityOnSamples) {
  for (const auto& model : model_names()) {
    const ModelConfig cfg = prop_model_cfg(9);
    const SearchSpace space(model_block_specs(model, cfg),
                            /*include_recurrent=*/true);
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
      const EncodingVec code = space.sample(rng);
      EXPECT_EQ(space.encode(space.decode(code)), code) << model;
    }
  }
}

}  // namespace
}  // namespace snnskip
