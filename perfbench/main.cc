// Benchmark program: runs one workload in this process and prints a report
// ending in one `RESULT {...}` JSON line, which run.py turns into the
// benchmark's result.
//
//   perfbench --workload train|serve_hot|serve_cold --seed N --seconds S
//             --trace 0|1 --out_dir DIR
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using perfbench::Result;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train|serve_hot|serve_cold --seed N "
               "--seconds S --trace 0|1 --out_dir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out_dir") {
      options.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }
  if (argc % 2 != 1 || options.out_dir.empty() || !(options.seconds > 0)) {
    return Usage(argv[0]);
  }

  const perfbench::Host host = perfbench::ProbeHost();
  Result result;
  if (options.workload == "train") {
    result = perfbench::RunTrain(options, host);
  } else if (options.workload == "serve_hot") {
    result = perfbench::RunServeHot(options, host);
  } else if (options.workload == "serve_cold") {
    result = perfbench::RunServeCold(options, host);
  } else {
    return Usage(argv[0]);
  }

  std::printf("host: nproc %d, cpu \"%s\", isa %s, kernel %s, graph %s, "
              "pool %d\n",
              host.nproc, host.cpu_model.c_str(), host.isa.c_str(),
              host.kernel_backend.c_str(), host.graph_backend.c_str(),
              host.pool);
  std::printf("config: workload %s, seed %llu, seconds %g, trace %d",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : result.config) {
    std::printf(", %s %s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  for (const std::string& e : result.errors) {
    std::printf("error: %s\n", e.c_str());
  }

  std::string json = "{\"workload\": " + JsonString(options.workload) +
                     ", \"correct\": " + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"completed\": " + std::to_string(result.completed) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"in_flight\": " + std::to_string(result.in_flight) +
                     ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    json += (i ? ", " : "") + JsonString(result.errors[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"moves\": " + JsonString(m.moves) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
