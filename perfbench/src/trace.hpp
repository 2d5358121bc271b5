#pragma once
// Span recorder for the traced run. The benchmark wraps each call it
// makes into a library layer in a Span; spans live in memory (name,
// start, end, parent, job) and are written once at exit as Chrome
// trace-event JSON. Every per-layer time metric is read back from the
// recorded spans, so what is reported is exactly what the trace shows.
//
// A tracer that is off records nothing and a Span costs one branch. The
// tracer is single-threaded: only the benchmark's own main thread opens
// spans (the library's worker threads are never traced from here).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    const char* name = "";  ///< "<layer>.<call>"; a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int job = -1;     ///< operation this span belongs to, -1 = setup
    [[nodiscard]] double ms() const {
      return static_cast<double>(end_ns - start_ns) / 1e6;
    }
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  /// Whether spans opened now are recorded. The traced run switches
  /// recording off for the untraced half of its overhead comparison.
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Tags spans opened from now on with operation `job` (-1 = setup).
  void set_job(int job) { job_ = job; }

  /// RAII span. No-op while the tracer is off.
  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(&t) {
      if (t.on_) idx_ = t.open(name);
    }
    ~Span() {
      if (idx_ >= 0) t_->close(idx_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  [[nodiscard]] const std::vector<Record>& records() const { return spans_; }

  /// Sum of the durations of spans named `name`, per job, in job order
  /// (jobs with no such span are absent).
  [[nodiscard]] std::vector<double> per_job_ms(const std::string& name) const;
  /// Sum of the durations of spans named `name` with job == `job`.
  [[nodiscard]] double total_ms(const std::string& name, int job) const;

  /// Self time (duration minus direct children) per layer, the layer
  /// being the name up to its first '.': spans of jobs >= 0, summed and
  /// divided by the number of such jobs (a mean per traced operation).
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  int open(const char* name);
  void close(int idx);

  bool on_;
  Clock::time_point origin_;
  int job_ = -1;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
