// The three workloads and the run that measures one of them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< search | serve | ingest
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< epoch files and span dumps
};

/// Runs one workload and prints its result as the last stdout line.
/// Returns the process exit code (0 when the outputs were correct).
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
