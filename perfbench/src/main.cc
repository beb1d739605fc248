// banks_perf — the benchmark binary. perfbench/run.py builds and runs it.
//
//   banks_perf --workload search|serve|ingest --seed N --seconds S --trace 0|1
//   banks_perf --selftest        hand each output check a corrupted input
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
int RunSelfTest();
}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: banks_perf --workload search|serve|ingest --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n"
               "       banks_perf --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) return Usage();
  return perfbench::RunWorkload(options);
}
