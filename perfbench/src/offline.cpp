#include "offline.hpp"

#include <algorithm>

#include "views/refiner.hpp"
#include "views/view_repo.hpp"

namespace perfbench {

using namespace anole;

void OfflineLoop::run(const std::function<std::size_t(std::size_t, bool)>& job) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o_.seconds));
  // The traced run reports no tail, so two jobs are enough there.
  const std::size_t min_jobs = o_.trace ? 2 : kMinJobs;
  for (std::size_t i = 0; i < min_jobs || Clock::now() < end; ++i) {
    tr_.set_job(static_cast<int>(i));
    if (!o_.trace) {
      ++calls_;
      nodes_ += job(i, false);
      continue;
    }
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (i % 2 == 0);
      tr_.set_on(traced);
      ++calls_;
      nodes_ += job(i, traced);
    }
    tr_.set_on(true);
  }
  tr_.set_job(-1);
}

OfflineLoop::Timed::Timed(OfflineLoop& loop, bool traced)
    : loop_(loop), traced_(traced), span_(loop.tr_, "bench.job"),
      start_(Clock::now()) {}

OfflineLoop::Timed::~Timed() {
  const double ms = ms_between(start_, Clock::now());
  (traced_ ? loop_.traced_ms_ : loop_.plain_ms_).push_back(ms);
}

void OfflineLoop::report(Result& r, double setup_s) const {
  r.info.push_back({"samples", static_cast<double>(plain_ms_.size()), "count"});
  if (!o_.trace) {
    const Tail t = tail(plain_ms_);
    double total_ms = 0.0;
    for (double ms : plain_ms_) total_ms += ms;
    const Quartiles q = quartiles(plain_ms_);
    r.info.push_back({"tail_percentile", t.percentile, "%"});
    r.info.push_back({"job_q1_ms", q.q1, "ms"});
    r.info.push_back({"job_q3_ms", q.q3, "ms"});
    r.end_to_end.push_back({"setup_s", setup_s, "s"});
    r.end_to_end.push_back({"latency_p50_ms", median(plain_ms_), "ms"});
    r.end_to_end.push_back({"latency_tail_ms", t.value, "ms"});
    // Nodes answered per second of job time (each job once).
    r.end_to_end.push_back(
        {"throughput_per_s",
         static_cast<double>(nodes_) / (total_ms / 1000.0), "1/s"});
    r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return;
  }
  const double plain = median(plain_ms_), traced = median(traced_ms_);
  r.info.push_back({"traced_p50_ms", traced, "ms"});
  r.info.push_back({"untraced_p50_ms", plain, "ms"});
  r.per_layer.push_back(
      {"trace.overhead_pct", 100.0 * (traced - plain) / plain, "%"});
}

std::size_t drive_refiner(const portgraph::PortGraph& g,
                          const views::ViewProfile& profile,
                          util::ThreadPool& pool, Tracer& tr, Result& r) {
  views::ViewRepo repo;
  views::Refiner ref(repo, &pool);
  std::vector<std::size_t> counts;
  std::vector<views::ViewId> level, next;
  {
    Tracer::Span s(tr, "views.refiner.attach");
    ref.attach(g);
    counts.push_back(ref.init_level(level));
  }
  std::size_t advances = 0;
  const std::size_t depth = profile.class_counts.size();
  while (counts.size() < depth && !ref.stable()) {
    Tracer::Span s(tr, "views.refiner.advance");
    counts.push_back(ref.advance(level, next));
    level.swap(next);
    ++advances;
  }
  if (counts.size() < depth) {
    {
      Tracer::Span s(tr, "views.refiner.quotient");
      while (counts.size() < depth) counts.push_back(ref.advance_quotient());
    }
    Tracer::Span s(tr, "views.refiner.scatter");
    ref.scatter(level);
  }
  if (counts != profile.class_counts)
    r.fail("Refiner class counts differ from compute_profile");
  std::sort(level.begin(), level.end());
  if (static_cast<std::size_t>(std::unique(level.begin(), level.end()) -
                               level.begin()) != counts.back())
    r.fail("Refiner's last level has the wrong class count");
  return advances;
}

void report_refiner(const Tracer& tr, Result& r) {
  for (const char* name : {"attach", "advance", "quotient", "scatter"}) {
    const std::string span = std::string("views.refiner.") + name;
    const std::vector<double> ms = tr.per_job_ms(span);
    r.per_layer.push_back({span + "_ms", ms.empty() ? 0.0 : median(ms), "ms"});
  }
}

}  // namespace perfbench
