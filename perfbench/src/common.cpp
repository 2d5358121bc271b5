#include "common.hpp"

#include <sys/resource.h>

#include "stats.hpp"

namespace perfbench {

double timed_setup(int reps, Tracer& tr,
                   const std::function<void(Tracer&)>& build,
                   const std::function<void()>& drop) {
  Tracer off(false);
  std::vector<double> s;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) drop();
    Tracer& t = rep + 1 == reps ? tr : off;
    const Clock::time_point start = Clock::now();
    build(t);
    s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  return median(s);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
