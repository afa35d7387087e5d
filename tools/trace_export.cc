// Validates and summarizes a Chrome trace JSON file produced by the obs
// tracer: run any binary with the RTGCN_TRACE=<path> env var, which
// enables tracing and writes the file at exit.
//
//   RTGCN_TRACE=trace.json ./bench/bench_micro --benchmark_filter=BM_MatMul/
//   ./tools/trace_export trace.json
//
// Parses the document with the same parser the obs tests use, then prints
// a per-span-name aggregate table (count, total/mean/max duration) sorted
// by total time. Exit status: 0 on a well-formed trace, 1 on malformed
// JSON or a missing traceEvents array, 2 on usage errors — so CI can use
// it as a trace-well-formedness check.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace {

struct NameStats {
  std::string cat;
  uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::string(argv[1]) == "--help") {
    std::fprintf(stderr,
                 "usage: %s <trace.json>\n"
                 "validates a Chrome trace JSON and prints per-span "
                 "aggregates\n",
                 argv[0]);
    return 2;
  }
  const char* path = argv[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_export: cannot open %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  std::vector<rtgcn::obs::TraceEventRecord> events;
  std::string error;
  if (!rtgcn::obs::ParseChromeTraceJson(json, &events, &error)) {
    std::fprintf(stderr, "trace_export: malformed trace %s: %s\n", path,
                 error.c_str());
    return 1;
  }

  // Aggregate complete ("X") events by span name; metadata events ("M")
  // carry no duration and are skipped.
  std::map<std::string, NameStats> by_name;
  uint64_t spans = 0;
  for (const auto& e : events) {
    if (e.ph != "X") continue;
    NameStats& s = by_name[e.name];
    s.cat = e.cat;
    s.count += 1;
    s.total_us += e.dur;
    s.max_us = std::max(s.max_us, e.dur);
    ++spans;
  }

  std::vector<std::pair<std::string, NameStats>> rows(by_name.begin(),
                                                      by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });

  std::printf("%s: %zu events, %llu spans, %zu distinct names\n", path,
              events.size(), static_cast<unsigned long long>(spans),
              rows.size());
  std::printf("%-28s %-8s %10s %12s %12s %12s\n", "name", "cat", "count",
              "total ms", "mean us", "max us");
  for (const auto& [name, s] : rows) {
    std::printf("%-28s %-8s %10llu %12.3f %12.1f %12.1f\n", name.c_str(),
                s.cat.c_str(), static_cast<unsigned long long>(s.count),
                s.total_us * 1e-3,
                s.count > 0 ? s.total_us / static_cast<double>(s.count) : 0.0,
                s.max_us);
  }
  return 0;
}
