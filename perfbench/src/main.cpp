// perfbench: the repo benchmark program. Runs one workload for --seconds,
// checks every answer, and prints the measured metrics as one JSON object
// on its last stdout line (run.py turns it into the reported result).
//
//   perfbench --workload <elect-advice|decide-symmetric|query-mix>
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--source-id ID] [--inject-wrong]
//
// Exit status: 0 when every answer checked out, 1 when one did not (or
// the workload threw), 2 on usage errors or a non-Release build.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(ms[i].name) + "\": {\"value\": " +
           num(ms[i].value) + ", \"unit\": \"" + json_escape(ms[i].unit) +
           "\"}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}; {0, 0} when
/// unavailable. Steal is time the host ran something else while this VM
/// wanted the CPU: a run with much of it measured the neighbours too.
std::pair<double, double> cpu_steal_total() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(f >> cpu) || cpu != "cpu") return {0.0, 0.0};
  double total = 0.0;
  for (double& x : v) {
    if (!(f >> x)) return {0.0, 0.0};
    total += x;
  }
  return {v[7], total};
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "elect-advice|decide-symmetric|query-mix --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source-id ID] "
               "[--inject-wrong]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PB_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report with assertions on\n");
  return 2;
#endif
  Options o;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--inject-wrong") {
      o.inject_wrong = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 120.0)
        return usage("bad --seconds");
    } else if (a == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return usage("bad --trace");
      o.trace = t == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }

  Tracer tr(o.trace);
  Result r;
  const auto [steal0, total0] = cpu_steal_total();
  try {
    if (o.workload == "elect-advice")
      r = run_elect_advice(o, tr);
    else if (o.workload == "decide-symmetric")
      r = run_decide_symmetric(o, tr);
    else if (o.workload == "query-mix")
      r = run_query_mix(o, tr);
    else
      return usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  const auto [steal1, total1] = cpu_steal_total();
  if (total1 > total0)
    r.info.push_back(
        {"host_steal_pct", 100.0 * (steal1 - steal0) / (total1 - total0), "%"});
  for (const std::string& m : r.mismatches)
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", m.c_str());

  std::string trace_file;
  if (o.trace) {
    trace_file = o.work_dir + "/trace-" + o.workload + "-" +
                 std::to_string(o.seed) + ".json";
    if (!tr.write_chrome(trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
    for (const auto& [layer, ms] : tr.self_ms_by_layer())
      r.info.push_back({"self_ms." + layer, ms, "ms"});
  }

  const bool correct = r.wrong == 0;
  const std::uint64_t failed = std::min(r.wrong + r.unserved, r.attempted);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"info\": %s, \"stamp\": {\"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"trace_file\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"flags\": \"%s\", \"anole_no_simd\": %s, "
      "\"source\": \"%s\"}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(failed),
      metrics_json(o.trace ? r.per_layer : r.end_to_end).c_str(),
      metrics_json(r.info).c_str(), json_escape(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), num(o.seconds).c_str(),
      o.trace ? 1 : 0, json_escape(trace_file).c_str(),
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(PB_COMPILER).c_str(), PB_BUILD_TYPE,
      json_escape(PB_CXX_FLAGS).c_str(),
#ifdef ANOLE_NO_SIMD
      "true",
#else
      "false",
#endif
      json_escape(source_id).c_str());
  return correct ? 0 : 1;
}
