#pragma once
// Shared helpers of the benchmark's load and probe binary `pb` (see
// ../NOTES.md).
//
// Every subcommand prints exactly one flat JSON object on its last stdout
// line; perfbench/run.py parses it. Timing uses snnskip::Timer and
// steady_clock time points from the benchmark's own files only — nothing
// here adds tracing inside the program.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/timer.h"

namespace pb {

/// Due, send and answer times of serve requests.
using Clock = std::chrono::steady_clock;

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Flat name -> value record printed as one JSON line.
class Record {
 public:
  void set(const std::string& name, double value);
  void set(const std::string& name, const std::string& value);
  void set_bool(const std::string& name, bool value);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// CPU seconds (user + system, all threads) of process `pid`
/// (/proc/<pid>/stat; 0 = this process via getrusage).
double process_cpu_s(int pid);
/// Peak resident set (VmHWM) of process `pid` in MB (0 = this process).
double process_hwm_mb(int pid);

/// The environment every result is stamped with: SIMD level, CPU
/// signature, nproc, pool size.
void stamp_environment(Record& r);

int run_serve_gen(const snnskip::CliArgs& args);
int run_serve_probe(const snnskip::CliArgs& args);
int run_search(const snnskip::CliArgs& args);

}  // namespace pb
