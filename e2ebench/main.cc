// End-to-end benchmark binary. Usage:
//
//   e2ebench --workload <fraud_paths|lookup_hosts|server_mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--tiny] [--setups <n>]
//            [--trace-out <file>]
//
// Prints the run's description, then as the last line of standard output
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1. Exits
// non-zero when any output check fails. e2ebench/run.py builds this binary
// and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, e2ebench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--workload" && value(&v)) {
      options->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      options->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && value(&v)) {
      options->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (arg == "--trace" && value(&v)) {
      std::string t = v;
      if (t != "0" && t != "1") return false;
      options->trace = t == "1";
    } else if (arg == "--setups" && value(&v)) {
      options->setups = std::atoi(v);
      if (options->setups < 1) return false;
    } else if (arg == "--trace-out" && value(&v)) {
      options->trace_out = v;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--setups <n>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  return e2ebench::RunBenchmark(options);
}
