// pb: the benchmark's load and probe binary. perfbench/run.py spawns it; see
// ../NOTES.md for the workloads and metrics.
//
//   pb serve-gen   --workload serve-steady|serve-batch --port P --pid PID
//                  --manifests a[,b] --seconds S --seed N
//       Load generator against a running snnskip-serve daemon. Checks
//       every response against a direct batch-1 Engine at 1e-4.
//   pb serve-probe --workload W --manifests a,b --seconds S --seed N
//       Per-layer probes of serve (in-process Server/SocketServer replay
//       of the workload's schedule), registry and infer.
//   pb search      --seed N --seconds S [--trace 1]
//                  [--setups 3] [--searches S/7] [--rounds 2]
//       The skip-connection search workload, and with --trace 1 its
//       train/core/opt/data layer probes.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "parallel/thread_pool.h"
#include "pb.h"
#include "tensor/cpu_features.h"
#include "util/json_writer.h"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Record::set(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no NaN/inf; null makes run.py fail loudly on such a value.
  fields_.emplace_back(name, std::isfinite(value) ? buf : "null");
}

void Record::set(const std::string& name, const std::string& value) {
  fields_.emplace_back(name, "\"" + snnskip::json_escape(value) + "\"");
}

void Record::set_bool(const std::string& name, bool value) {
  fields_.emplace_back(name, value ? "true" : "false");
}

std::string Record::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

double process_cpu_s(int pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_hwm_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return -1.0;
}

void stamp_environment(Record& r) {
  r.set("env.simd", snnskip::to_string(snnskip::active_simd()));
  r.set("env.cpu", snnskip::cpu_signature());
  r.set("env.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r.set("env.pool_threads",
        static_cast<double>(snnskip::ThreadPool::threads_from_env()));
}

}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb serve-gen|serve-probe|search [--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const snnskip::CliArgs args(argc, argv);
  try {
    if (cmd == "serve-gen") return pb::run_serve_gen(args);
    if (cmd == "serve-probe") return pb::run_serve_probe(args);
    if (cmd == "search") return pb::run_search(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "pb: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
