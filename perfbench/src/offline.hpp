#pragma once
// The closed loop shared by the two offline workloads: one job at a time
// until --seconds have passed, each job's timed part measured on its own.

#include <cstddef>
#include <functional>
#include <vector>

#include "common.hpp"
#include "portgraph/port_graph.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "views/profile.hpp"

namespace perfbench {

/// Fewest jobs a run makes, whatever --seconds says: the tail needs more
/// than 10 samples.
inline constexpr std::size_t kMinJobs = 12;

class OfflineLoop {
 public:
  OfflineLoop(const Options& o, Tracer& tr) : o_(o), tr_(tr) {}

  /// Runs `job(index, traced)` until --seconds have passed (and at least
  /// kMinJobs times in the untraced run); it returns the number of nodes
  /// it answered. The untraced run calls it once per index with tracing
  /// off. The traced run
  /// calls it twice per index on the same input, once with spans and once
  /// without, alternating which goes first, so the two halves measure the
  /// tracing overhead on identical work.
  void run(const std::function<std::size_t(std::size_t, bool)>& job);

  /// Brackets a job's timed part; in a traced call also its "bench.job"
  /// span.
  class Timed {
   public:
    Timed(OfflineLoop& loop, bool traced);
    ~Timed();
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    OfflineLoop& loop_;
    bool traced_;
    Tracer::Span span_;
    Clock::time_point start_;
  };

  /// Operations attempted (job calls).
  [[nodiscard]] std::size_t jobs() const { return calls_; }

  /// End-to-end metrics (untraced run) or the tracing overhead (traced
  /// run), plus sample counts for the info line.
  void report(Result& r, double setup_s) const;

 private:
  const Options& o_;
  Tracer& tr_;
  std::size_t calls_ = 0;
  std::size_t nodes_ = 0;
  std::vector<double> plain_ms_, traced_ms_;
};

/// Drives a views::Refiner over `g` in a fresh repo, level by level, to
/// the depth of `profile` — attach, advance until stable, quotient rounds,
/// one scatter — under spans views.refiner.{attach,advance,quotient,
/// scatter}. Fails `r` unless every level's class count equals the
/// profile's. Returns the number of advance() calls.
std::size_t drive_refiner(const anole::portgraph::PortGraph& g,
                          const anole::views::ViewProfile& profile,
                          anole::util::ThreadPool& pool, Tracer& tr,
                          Result& r);

/// Per-layer medians of the refiner spans, per job.
void report_refiner(const Tracer& tr, Result& r);

}  // namespace perfbench
