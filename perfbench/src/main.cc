// perfbench_runner: runs one benchmark workload and prints its metrics as
// one JSON line, the last line of stdout.
//
//   perfbench_runner --workload=online_scale --seed=1 --seconds=10
//                    --trace=0 --frserve=<path> --run-dir=<dir> [--tiny]
//
// perfbench/run.py builds this binary and frserve, then calls it; see
// perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

bool TakeValue(const std::string& arg, const char* flag, std::string* out) {
  const std::string prefix = std::string("--") + flag + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner "
               "--workload=online_scale|service_at_least_once --seed=N "
               "--seconds=S --trace=0|1 --frserve=PATH --run-dir=DIR "
               "[--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (TakeValue(arg, "workload", &value)) {
      options.workload = value;
    } else if (TakeValue(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (TakeValue(arg, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (TakeValue(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (TakeValue(arg, "frserve", &value)) {
      options.frserve = value;
    } else if (TakeValue(arg, "run-dir", &value)) {
      options.run_dir = value;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      return Usage();
    }
  }
  if (options.run_dir.empty() || !(options.seconds > 0)) {
    return Usage();
  }

  perfbench::RunReport report;
  futurerand::Status status;
  std::printf("workload %s seed %llu%s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? " traced" : "", options.tiny ? " tiny" : "");
  if (options.workload == "online_scale") {
    status = perfbench::RunInProcessWorkload(options, &report);
  } else if (options.workload == "service_at_least_once") {
    if (options.frserve.empty()) {
      return Usage();
    }
    status = perfbench::RunServiceWorkload(options, &report);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
