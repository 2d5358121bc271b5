#pragma once
// The benchmark's own statistics: medians, the tail-percentile rule,
// quartiles (the same definition as Python's statistics.quantiles), the
// open-loop latency accounting and the max-rate staircase. Header-only so
// tests/stats_test.cpp pins every rule the reported numbers rest on.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The highest percentile with at least `beyond` samples above it: the
/// (n - beyond)-th smallest of n samples, reported as percentile
/// 100 * (n - beyond) / n together with n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  if (v.size() <= beyond)
    throw std::invalid_argument("tail needs more samples than 'beyond'");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return Tail{v[n - beyond - 1],
              100.0 * static_cast<double>(n - beyond) / static_cast<double>(n),
              n};
}

/// Quartiles exactly as Python's statistics.quantiles(data, n=4) (the
/// default 'exclusive' method) computes them.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return Quartiles{out[0], out[1], out[2]};
}

/// One open-loop query as the generator saw it, in ms on one clock.
struct Sent {
  double due_ms = 0.0;   ///< when the schedule said to send it
  double sent_ms = 0.0;  ///< when submit() was called
  double done_ms = 0.0;  ///< when its answer was observed complete
  bool served = false;   ///< exact or degraded (not shed/timeout/failed)
};

/// Latency accounting of one offered rate. Latency runs from the due time
/// (a generator stall is charged to the queries it delayed); a query that
/// was not served counts as an infinite latency, i.e. as missing any limit.
struct RateResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;  ///< how late the generator sent, p99
  std::size_t queries = 0;
  std::size_t unserved = 0;
  bool growing_backlog = false;
  bool meets(double limit_ms) const {
    return p99_ms <= limit_ms && !growing_backlog;
  }
};

inline RateResult account(const std::vector<Sent>& sent, double limit_ms) {
  if (sent.empty()) throw std::invalid_argument("no queries to account");
  RateResult r;
  r.queries = sent.size();
  std::vector<double> lat, late;
  lat.reserve(sent.size());
  late.reserve(sent.size());
  for (const Sent& s : sent) {
    lat.push_back(s.served ? s.done_ms - s.due_ms : kInf);
    late.push_back(std::max(0.0, s.sent_ms - s.due_ms));
    if (!s.served) ++r.unserved;
  }
  r.p50_ms = percentile(lat, 50.0);
  r.p99_ms = percentile(lat, 99.0);
  r.late_p99_ms = percentile(late, 99.0);
  // Backlog growth: the last tenth of the schedule (in due order) waits
  // much longer than the first tenth did, and long against the limit.
  const std::size_t k = std::max<std::size_t>(1, sent.size() / 10);
  std::vector<double> first(lat.begin(), lat.begin() + static_cast<long>(k));
  std::vector<double> last(lat.end() - static_cast<long>(k), lat.end());
  const double f = percentile(first, 50.0), l = percentile(last, 50.0);
  r.growing_backlog = l > std::max(4.0 * f, limit_ms / 4.0);
  return r;
}

/// Staircase (one up, one down) on the log of the rate. From `start`, a
/// probe that meets the limit raises the rate by the factor 1 + step and
/// a miss lowers it by the same factor; the step starts at `first_step`
/// and halves at every reversal until it reaches `min_step`, so the first
/// probes find the capacity's neighbourhood quickly. Near capacity a
/// probe's verdict is noisy (one preemption of the generator can sink
/// it), so the staircase then oscillates around the rate that meets the
/// limit half the time, and the median of the rates it probed at
/// `min_step` estimates that rate (the last rate reached, if the step
/// never shrank that far). Always terminates: it makes exactly `probes`
/// probes.
inline double staircase_rate(double start, double first_step, double min_step,
                             int probes,
                             const std::function<bool(double)>& meets) {
  if (!(start > 0.0) || !(min_step > 0.0) || !(first_step >= min_step) ||
      probes < 1)
    throw std::invalid_argument("bad staircase parameters");
  std::vector<double> settled;
  double rate = start, step = first_step;
  int last = -1;  // verdict of the previous probe, -1 before the first
  for (int i = 0; i < probes; ++i) {
    const bool up = meets(rate);
    if (last >= 0 && up != (last == 1)) step = std::max(min_step, step / 2.0);
    last = up ? 1 : 0;
    if (step == min_step) settled.push_back(rate);
    rate = up ? rate * (1.0 + step) : rate / (1.0 + step);
  }
  return settled.empty() ? rate : median(settled);
}

}  // namespace perfbench
