// ida_perfbench — the repository benchmark's program (see README.md).
//
//   ida_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//     Runs one workload and prints, as its last line, one JSON object with
//     `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//     with --trace 0, the per-layer metrics with --trace 1). Earlier lines
//     describe the inputs and the checks.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: ida_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      Usage();
    }
  }
  if (!have_workload || opt.out_dir.empty()) Usage();

  perfbench::RunResult result;
  if (!perfbench::RunWorkload(opt, &result)) return 1;
  for (const std::string& p : result.problems) {
    std::printf("{\"check_failed\":\"%s\"}\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
