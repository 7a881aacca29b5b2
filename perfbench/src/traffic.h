#pragma once
// Serve traffic for the benchmark: the two serve workloads' schedules, the
// seeded request pool with its direct-engine references, and one traffic
// loop that runs a schedule over either the wire protocol (a daemon or an
// in-process SocketServer) or in-process Server::submit_async.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pb.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace pb {

namespace serve = snnskip::serve;

/// A serve workload's traffic shape. Open loop: evenly spaced arrivals at
/// `rate`. Closed loop: `window` requests kept in flight.
struct ServeWorkload {
  bool open_loop = true;
  double rate = 0.0;
  int window = 0;
  int conns = 1;
  std::size_t models = 1;  ///< requests alternate over the first N models
};

/// Throws std::invalid_argument for names other than serve-steady and
/// serve-batch.
ServeWorkload serve_workload(const std::string& name);

/// Paths from a comma-separated --manifests value.
std::vector<std::string> split_list(const std::string& s);

/// Per model: seeded Bernoulli(0.15) sequences and their references, the
/// rate-accumulated output of a direct batch-1 Engine built from the same
/// manifest.
struct RequestPool {
  std::vector<serve::ModelSpec> specs;  ///< as in the manifests
  std::vector<std::vector<std::vector<snnskip::Tensor>>> frames;
  std::vector<std::vector<snnskip::Tensor>> refs;
  std::vector<serve::ModelHandle> ref_models;  ///< batch-1 twins
};

RequestPool build_pool(const std::vector<std::string>& manifests,
                       std::uint64_t seed, std::size_t per_model);

struct Completion {
  std::uint64_t id = 0;
  bool ok = false;  ///< transport/server status Ok (output not yet checked)
  snnskip::Tensor value;
  std::string error;
  Clock::time_point at;
};

/// Where requests go.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual void send(std::uint64_t id, const std::string& model,
                    const std::vector<snnskip::Tensor>& frames) = 0;
  /// Block until `until` or until at least one completion arrived;
  /// appends what arrived.
  virtual void wait(Clock::time_point until, std::vector<Completion>* out) = 0;
  /// Mean µs per wire encode / decode call and bytes per request+response
  /// (0 for in-process channels).
  virtual double encode_us() const { return 0.0; }
  virtual double decode_us() const { return 0.0; }
  virtual double bytes_per_op() const { return 0.0; }
};

/// Pipelined wire-protocol client over `conns` loopback connections,
/// driven from the calling thread.
std::unique_ptr<Channel> socket_channel(int port, int conns);

/// In-process Server::submit_async. Call server.drain() before the
/// channel is destroyed.
std::unique_ptr<Channel> inproc_channel(serve::Server& server);

/// Length of one measurement window. p50 and p90 are the median over the
/// run's windows of each window's percentile, so a host stall shorter than
/// half the run moves them little while a regression in most windows
/// shows. 2 s holds >= 100 requests at serve-steady's rate, enough for a
/// 90th percentile.
constexpr double kWindowS = 2.0;

/// Tolerance of the output check against the batch-1 reference.
constexpr float kOutputTol = 1e-4f;

/// The output check: `got` has as many elements as `ref`, and every one is
/// finite and within kOutputTol of it. NaN fails.
bool matches_reference(const snnskip::Tensor& got, const snnskip::Tensor& ref);

struct TrafficResult {
  std::int64_t attempted = 0;  ///< requests due inside the measured span
  std::int64_t ok = 0;         ///< served and equal to the reference
  std::int64_t wrong = 0;      ///< served, but differing from it
  std::int64_t errors = 0;     ///< non-Ok status or no answer in time
  /// Latency of ok requests from when each was due: median over windows
  /// of the window's p50 / p90.
  double p50_ms = 0.0, p90_ms = 0.0;
  /// Ok answers per second, from the first due time to the last answer.
  double throughput_per_s = 0.0;
  /// CPU time of `cpu_pid` (0 = this process) per answer, from the first
  /// due time until every measured request has answered.
  double cpu_ms_per_op = 0.0;
  std::vector<double> lag_ms;  ///< open loop: send time minus due time
  double gap_ms = 0.0;         ///< open loop inter-arrival gap
};

/// Warm up for `warmup_s`, then measure requests due in the next
/// `seconds` (split into windows of about kWindowS), and wait for every
/// one of them to answer.
TrafficResult run_traffic(const ServeWorkload& w, const RequestPool& pool,
                          Channel& ch, double warmup_s, double seconds,
                          int cpu_pid);

}  // namespace pb
