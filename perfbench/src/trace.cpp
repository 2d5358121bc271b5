#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

int Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.job = job_;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(r);
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans are scoped objects, so they close in reverse opening order.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::vector<double> Tracer::per_job_ms(const std::string& name) const {
  std::map<int, double> by_job;
  for (const Record& r : spans_)
    if (r.job >= 0 && name == r.name) by_job[r.job] += r.ms();
  std::vector<double> out;
  out.reserve(by_job.size());
  for (const auto& [job, ms] : by_job) out.push_back(ms);
  return out;
}

double Tracer::total_ms(const std::string& name, int job) const {
  double sum = 0.0;
  for (const Record& r : spans_)
    if (r.job == job && name == r.name) sum += r.ms();
  return sum;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Record& r : spans_)
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.ms();
  std::map<std::string, double> out;
  std::set<int> jobs;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].job < 0) continue;
    jobs.insert(spans_[i].job);
    const std::string name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  for (auto& [layer, ms] : out) ms /= static_cast<double>(jobs.size());
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::string name = r.name;
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%d}}",
                  i == 0 ? "" : ",", r.name,
                  name.substr(0, name.find('.')).c_str(),
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, i, r.parent,
                  r.job);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
