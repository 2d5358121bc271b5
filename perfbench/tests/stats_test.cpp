// Tests for the statistics every reported number rests on.

#include <gtest/gtest.h>
#include <cmath>

#include <numeric>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, MedianOddEvenAndUnsorted) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile) {
  const std::vector<double> v = one_to(1000);
  EXPECT_EQ(percentile(v, 50.0), 500.0);
  EXPECT_EQ(percentile(v, 99.0), 990.0);
  EXPECT_EQ(percentile(v, 100.0), 1000.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  // Infinite samples (unserved queries) sort last and surface at p99
  // once more than 1% of them exist.
  std::vector<double> w = one_to(100);
  for (int i = 0; i < 2; ++i) w[static_cast<std::size_t>(i)] = kInf;
  EXPECT_EQ(percentile(w, 99.0), kInf);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  // 100 samples: the 90th smallest has exactly 10 above it -> p90.
  Tail t = tail(one_to(100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);
  // 11 samples: the smallest one with 10 beyond it.
  t = tail(one_to(11));
  EXPECT_EQ(t.value, 1.0);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
  // 1000 samples: p99.
  t = tail(one_to(1000));
  EXPECT_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  // Too few samples for the rule.
  EXPECT_THROW(tail(one_to(10)), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // statistics.quantiles([1, 4, 9, 16, 25], n=4) == [2.5, 9.0, 20.5]
  q = quartiles({25, 1, 16, 4, 9});
  EXPECT_DOUBLE_EQ(q.q1, 2.5);
  EXPECT_DOUBLE_EQ(q.q2, 9.0);
  EXPECT_DOUBLE_EQ(q.q3, 20.5);
}

TEST(Stats, LatencyRunsFromDueTimeAndUnservedMisses) {
  // A generator stall: query 0 was sent 5 ms late and answered 1 ms after
  // sending; its latency is 6 ms, not 1 ms.
  std::vector<Sent> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].due_ms = static_cast<double>(i);
    s[i].sent_ms = s[i].due_ms;
    s[i].done_ms = s[i].sent_ms + 0.5;
    s[i].served = true;
  }
  s[0].sent_ms = 5.0;
  s[0].done_ms = 6.0;
  RateResult r = account(s, 20.0);
  EXPECT_EQ(r.p50_ms, 0.5);
  EXPECT_EQ(r.queries, 1000u);
  EXPECT_EQ(r.unserved, 0u);
  EXPECT_TRUE(r.meets(20.0));
  // Lateness is accounted separately: one sample of 5 ms among 1000 is
  // beyond p99.
  EXPECT_EQ(r.late_p99_ms, 0.0);
  for (std::size_t i = 0; i < 20; ++i) s[i].sent_ms = s[i].due_ms + 3.0;
  EXPECT_EQ(account(s, 20.0).late_p99_ms, 3.0);

  // 11 unserved queries push p99 to infinity: the limit is missed.
  for (std::size_t i = 100; i < 111; ++i) s[i].served = false;
  r = account(s, 20.0);
  EXPECT_EQ(r.unserved, 11u);
  EXPECT_EQ(r.p99_ms, kInf);
  EXPECT_FALSE(r.meets(20.0));
}

TEST(Stats, GrowingBacklogIsDetected) {
  std::vector<Sent> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].due_ms = static_cast<double>(i) * 0.01;
    s[i].sent_ms = s[i].due_ms;
    // Latency grows linearly with the schedule: a queue that never drains.
    s[i].done_ms = s[i].due_ms + 0.01 * static_cast<double>(i);
    s[i].served = true;
  }
  RateResult r = account(s, 20.0);
  EXPECT_TRUE(r.growing_backlog);
  EXPECT_LE(r.p99_ms, 20.0);  // p99 alone would still pass
  EXPECT_FALSE(r.meets(20.0));
}

TEST(Stats, StaircaseSettlesAtTheThresholdAndStops) {
  // Deterministic threshold above the start: the wide first step reaches
  // it in a few probes, the step halves at each reversal down to 2%, and
  // the median of the rates probed at 2% is within one step of it.
  int calls = 0;
  const double est = staircase_rate(4000.0, 0.16, 0.02, 40, [&](double r) {
    ++calls;
    return r <= 5000.0;
  });
  EXPECT_EQ(calls, 40);
  EXPECT_GE(est, 5000.0 / 1.02);
  EXPECT_LE(est, 5000.0 * 1.02);
  // The same from above the threshold.
  const double from_above =
      staircase_rate(9000.0, 0.16, 0.02, 40, [](double r) { return r <= 5000.0; });
  EXPECT_GE(from_above, 5000.0 / 1.02);
  EXPECT_LE(from_above, 5000.0 * 1.02);
  // A verdict that always fails never reverses: it walks down at the
  // first step, stops after its probes and returns the rate it reached.
  calls = 0;
  const double down = staircase_rate(1000.0, 0.16, 0.02, 12, [&](double) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 12);
  EXPECT_NEAR(down, 1000.0 / std::pow(1.16, 12), 1e-9);
  // A verdict that alternates on every probe settles at once and stops.
  int flip = 0;
  calls = 0;
  (void)staircase_rate(1000.0, 0.16, 0.02, 7, [&](double) {
    ++calls;
    return (flip++ % 2) == 0;
  });
  EXPECT_EQ(calls, 7);
  EXPECT_THROW(staircase_rate(1000.0, 0.01, 0.02, 5, [](double) { return true; }),
               std::invalid_argument);
  EXPECT_THROW(staircase_rate(1000.0, 0.16, 0.02, 0, [](double) { return true; }),
               std::invalid_argument);
}

TEST(Trace, SelfTimeAndPerJobSums) {
  Tracer tr(true);
  tr.set_job(0);
  {
    Tracer::Span outer(tr, "bench.job");
    { Tracer::Span inner(tr, "views.profile"); }
    { Tracer::Span inner(tr, "views.profile"); }
  }
  tr.set_job(1);
  { Tracer::Span s(tr, "views.profile"); }
  tr.set_on(false);
  { Tracer::Span s(tr, "views.profile"); }  // not recorded
  ASSERT_EQ(tr.records().size(), 4u);
  EXPECT_EQ(tr.records()[1].parent, 0);
  EXPECT_EQ(tr.per_job_ms("views.profile").size(), 2u);
  const auto self = tr.self_ms_by_layer();
  double profile = 0.0;
  for (const auto& r : tr.records())
    if (std::string(r.name) == "views.profile") profile += r.ms();
  // Two jobs recorded spans: self times are means per job.
  EXPECT_NEAR(self.at("views"), profile / 2.0, 1e-9);
  EXPECT_NEAR(self.at("bench"),
              (tr.records()[0].ms() - tr.records()[1].ms() -
               tr.records()[2].ms()) / 2.0,
              1e-9);
}

}  // namespace
}  // namespace perfbench
