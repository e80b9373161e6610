// The benchmark's workloads (see README.md for what each one measures and
// why). One run executes one workload from one seed in this process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;   ///< per-layer traced run instead of the timed run
  std::string out_dir;  ///< where the run writes its artifact and spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed check (empty when `correct`).
  std::vector<std::string> problems;
};

/// Runs one workload. Returns false (with a message on stderr) when the run
/// could not be set up at all; a failed output check only clears
/// `result->correct`.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench
