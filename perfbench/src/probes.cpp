// `pb serve-probe`: per-layer probes of serve, registry and infer, each
// timed around calls into the layer's public functions.
//
//   serve.registry  ModelRegistry::load of each manifest, cold.
//   infer           compile time, Engine::step per plan shape and
//                   precision on the workload's own frames, ExecStats.
//   serve.server    the workload's schedule replayed in process through
//                   Server::submit_async (latency, ServeStats).
//   serve.transport the same schedule through an in-process SocketServer;
//                   overhead = socket p50 minus submit_async p50.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "serve/transport.h"
#include "traffic.h"

namespace pb {

using namespace snnskip;

namespace {

const char* precision_tag(const serve::ModelSpec& spec) {
  return spec.compile.precision == infer::Precision::Int8 ? "int8" : "fp32";
}

// Median µs per Engine::step over 3 passes of the pool's sequences, `live`
// images per batch filled with distinct sequences (the rest stay zero, as
// the server pads).
double step_us(const serve::ModelHandle& model, const RequestPool& pool,
               std::size_t m, std::int64_t live) {
  auto engine = model->lease();
  const Shape in = model->plan()->input_shape;
  const std::int64_t per_image = in.numel() / in[0];
  Tensor x(in);
  Tensor out;
  std::vector<double> us;
  const std::vector<std::vector<Tensor>>& seqs = pool.frames[m];
  const std::size_t n = seqs.size() - seqs.size() % static_cast<std::size_t>(live);
  for (std::size_t k = 0; k < 3 * n; k += static_cast<std::size_t>(live)) {
    const std::size_t r = k % n;
    engine->reset();
    x.fill(0.f);
    for (std::size_t t = 0; t < seqs[r].size(); ++t) {
      for (std::int64_t i = 0; i < live; ++i) {
        std::memcpy(x.data() + i * per_image,
                    seqs[r + static_cast<std::size_t>(i)][t].data(),
                    static_cast<std::size_t>(per_image) * sizeof(float));
      }
      const Timer t0;
      engine->step(x, &out);
      us.push_back(1e6 * t0.elapsed_s());
    }
  }
  return median(us);
}

void infer_probes(const RequestPool& pool,
                  const std::vector<serve::ModelHandle>& served, Record& r) {
  for (std::size_t m = 0; m < served.size(); ++m) {
    const std::string tag = precision_tag(pool.specs[m]);
    const double b1 = step_us(pool.ref_models[m], pool, m, 1);
    const double b8_1 = step_us(served[m], pool, m, 1);
    const std::int64_t batch = served[m]->batch_capacity();
    r.set("infer.step_us.b1." + tag, b1);
    r.set("infer.step_us.b8_1live." + tag, b8_1);
    r.set("infer.step_us.b8_full." + tag, step_us(served[m], pool, m, batch));
    r.set("infer.step_ratio.b8_1live_over_b1." + tag, b8_1 / b1);
    r.set("infer.weight_mb." + tag,
          static_cast<double>(served[m]->plan()->weight_bytes()) / (1 << 20));
  }

  // Exact dispatch and event counts of the workload's first model on a
  // batch-1 plan, per served sequence.
  auto engine = pool.ref_models[0]->lease();
  const infer::Plan& plan = engine->plan();
  std::int64_t neurons = 0;
  for (const infer::ValuePlan& v : plan.values) {
    if (v.spiking && v.def >= 0) neurons += v.floats;
  }
  engine->reset_stats();
  Tensor out;
  for (const std::vector<Tensor>& seq : pool.frames[0]) {
    engine->reset();
    for (const Tensor& f : seq) engine->step(f.reshape(plan.input_shape), &out);
  }
  const infer::ExecStats& st = engine->stats();
  const double seqs = static_cast<double>(pool.frames[0].size());
  const double ops = static_cast<double>(st.packed_dispatches +
                                         st.csr_dispatches + st.dense_dispatches);
  r.set("infer.packed_share", static_cast<double>(st.packed_dispatches) / ops);
  r.set("infer.spike_density",
        static_cast<double>(st.spikes) /
            (static_cast<double>(st.steps) * static_cast<double>(neurons)));
  r.set("infer.synops_per_seq", static_cast<double>(st.synops) / seqs);
  r.set("infer.dense_macs_per_seq", static_cast<double>(st.dense_macs) / seqs);
  r.set("infer.energy_pj_per_seq", st.energy_pj() / seqs);
}

}  // namespace

int run_serve_probe(const CliArgs& args) {
  const ServeWorkload w = serve_workload(args.get("workload", ""));
  const double seconds = args.get_double("seconds", 5.0);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::vector<std::string> manifests = split_list(args.get("manifests", ""));
  if (manifests.size() < 2) {
    throw std::invalid_argument("serve-probe needs the fp32 and int8 manifests");
  }
  const RequestPool pool = build_pool(manifests, seed, 64);
  Record r;

  // Registry: cold loads (build, BN warm-up, int8 calibration, compile).
  std::vector<serve::ModelHandle> served;
  for (const serve::ModelSpec& spec : pool.specs) {
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      serve::ModelRegistry registry(1);
      const Timer t0;
      serve::ModelHandle h = registry.load(spec);
      ms.push_back(t0.elapsed_ms());
      if (i == 0) served.push_back(h);
    }
    r.set(std::string("serve.registry.load_ms.") + precision_tag(spec), median(ms));
  }
  {
    const serve::ModelSpec& spec = pool.specs[0];
    Network net = build_model(spec.family, spec.config,
                              default_adjacencies(spec.family, spec.config));
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const Timer t0;
      infer::PlanPtr plan = infer::compile(net, spec.input_shape(), spec.compile);
      ms.push_back(t0.elapsed_ms());
    }
    r.set("infer.compile_ms", median(ms));
  }
  infer_probes(pool, served, r);

  const serve::ServeOptions opts = serve::ServeOptions::from_env();
  double socket_p50 = 0.0;
  {
    serve::ModelRegistry registry;
    serve::Server server(registry, opts);
    for (std::size_t m = 0; m < w.models; ++m) server.add_model(pool.specs[m]);
    serve::SocketServer sock(server, opts);
    auto ch = socket_channel(sock.port(), w.conns);
    const TrafficResult t = run_traffic(w, pool, *ch, 1.0, seconds, 0);
    const serve::SocketServer::TransportStats ts = sock.stats();
    socket_p50 = t.p50_ms;
    r.set("serve.transport.errors",
          static_cast<double>(ts.frames_torn + ts.dropped_responses + ts.timeouts +
                              ts.accept_failures + ts.protocol_errors));
    r.set("probe.socket.gen.lag_ms.p99", quantile(t.lag_ms, 0.99));
    r.set("probe.socket.gen.lag_ms.max", quantile(t.lag_ms, 1.0));
    r.set("probe.socket.encode_us", ch->encode_us());
    r.set("probe.socket.decode_us", ch->decode_us());
    r.set("probe.socket.bytes_per_op", ch->bytes_per_op());
    r.set("probe.socket.not_ok", static_cast<double>(t.attempted - t.ok));
    sock.shutdown();
    server.drain();
  }
  {
    serve::ModelRegistry registry;
    serve::Server server(registry, opts);
    for (std::size_t m = 0; m < w.models; ++m) server.add_model(pool.specs[m]);
    auto ch = inproc_channel(server);
    const TrafficResult t = run_traffic(w, pool, *ch, 1.0, seconds, 0);
    server.drain();
    const serve::ServeStats st = server.stats();
    const double cap = static_cast<double>(
        std::min<std::int64_t>(opts.max_batch, served[0]->batch_capacity()));
    r.set("serve.server.latency_ms.p50", t.p50_ms);
    r.set("serve.server.latency_ms.p90", t.p90_ms);
    r.set("serve.server.batch_occupancy", st.mean_batch_occupancy);
    r.set("serve.server.slot_use", st.mean_batch_occupancy / cap);
    r.set("serve.server.rejected", static_cast<double>(st.rejected));
    r.set("serve.server.expired", static_cast<double>(st.expired));
    r.set("serve.server.failed", static_cast<double>(st.failed));
    r.set("serve.server.queue_depth_hw", static_cast<double>(st.queue_depth_high_water));
    r.set("serve.transport.overhead_ms.p50", socket_p50 - t.p50_ms);
    r.set("probe.inproc.not_ok", static_cast<double>(t.attempted - t.ok));
  }
  stamp_environment(r);
  std::printf("%s\n", r.json().c_str());
  return 0;
}

}  // namespace pb
