#pragma once
// Shared types of the perfbench program: run options, the result every
// workload returns, and small timing helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Gate self-test: corrupt one answer before it is checked; the run
  /// must then report correct = false and exit nonzero.
  bool inject_wrong = false;
  /// Working directory for snapshots and the trace file.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  /// Answers that disagree with the reference, and errors. Any makes the
  /// run incorrect (exit status 1).
  std::uint64_t wrong = 0;
  /// Operations refused or given up on: shed or timed-out queries. They
  /// count as failed, but the answers that were given are still right.
  std::uint64_t unserved = 0;
  std::vector<std::string> mismatches;  ///< first few, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra facts for the info line (sample counts, percentiles, rates).
  std::vector<Metric> info;

  void fail(const std::string& why) {
    ++wrong;
    if (mismatches.size() < 8) mismatches.push_back(why);
  }
};

/// Times `build` `reps` times and returns the median in seconds: one
/// sample of set-up time is noisy. `drop` runs untimed before every
/// repetition but the first, so the previous inputs are freed outside the
/// timing. Only the last repetition records spans into `tr`.
double timed_setup(int reps, Tracer& tr,
                   const std::function<void(Tracer&)>& build,
                   const std::function<void()>& drop);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

Result run_elect_advice(const Options& o, Tracer& tr);
Result run_decide_symmetric(const Options& o, Tracer& tr);
Result run_query_mix(const Options& o, Tracer& tr);

}  // namespace perfbench
