// topkjoin_bench: runs one workload of the repository benchmark and
// prints, as its last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   topkjoin_bench --workload <cold-topk|warm-serve|live-update>
//                  --seed <n> --seconds <n> --trace <0|1>
//   topkjoin_bench --self-test
//   topkjoin_bench --print-reference --seed <n>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload, then the per-layer probes (layers.h), and reports the
// per-layer metrics instead. Every run also runs the checker self-test.
// The exit code is 1 if an output check or the self-test failed or an
// operation returned an error, after the JSON line is printed.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchmark/dataset.h"
#include "benchmark/layers.h"
#include "benchmark/measure.h"
#include "benchmark/reference.h"
#include "benchmark/self_test.h"
#include "benchmark/workloads.h"

namespace topkjoin::bench {
namespace {

int PrintUsage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: topkjoin_bench --workload <cold-topk|warm-serve|"
               "live-update> --seed <n> --seconds <n> --trace <0|1>\n"
               "       topkjoin_bench --self-test\n"
               "       topkjoin_bench --print-reference --seed <n>\n",
               why);
  return 2;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// The reference top-k costs of every request class the workloads issue,
// over the seed's initial instance.
void PrintReference(uint64_t seed) {
  const Dataset data(seed);
  const Reference reference(data);
  const Limits limits = data.RowCounts();
  for (Shape shape : kAllShapes) {
    for (Dioid dioid : {Dioid::kSum, Dioid::kMax, Dioid::kLex}) {
      for (size_t k : {size_t{10}, size_t{100}, size_t{1000}}) {
        const std::vector<Cost> costs =
            reference.TopK(shape, dioid, k, limits);
        std::printf("%s/%s/k=%zu:", ShapeName(shape), DioidName(dioid), k);
        for (const Cost& c : costs) {
          if (dioid == Dioid::kLex) {
            std::printf(" [");
            for (size_t i = 0; i < c.lex.size(); ++i) {
              std::printf(i == 0 ? "%g" : ",%g", c.lex[i]);
            }
            std::printf("]");
          } else {
            std::printf(" %g", c.scalar);
          }
        }
        std::printf("\n");
      }
    }
  }
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  RunConfig config;
  config.process_start = process_start;
  int trace = 0;
  bool self_test_only = false;
  bool print_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test_only = true;
    } else if (arg == "--print-reference") {
      print_reference = true;
    } else if (arg != "--workload" && arg != "--seed" &&
               arg != "--seconds" && arg != "--trace") {
      return PrintUsage(("unknown argument " + arg).c_str());
    } else if (!has_value) {
      return PrintUsage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(argv[++i]);
    } else {
      trace = std::atoi(argv[++i]);
    }
  }
  if (self_test_only) {
    const std::vector<std::string> failures = RunSelfTest();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "self-test: %s\n", f.c_str());
    }
    std::printf("self-test %s\n", failures.empty() ? "passed" : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  if (print_reference) {
    PrintReference(config.seed);
    return 0;
  }
  if (!IsWorkload(config.workload)) {
    return PrintUsage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (config.seconds < 1 || (trace != 0 && trace != 1)) {
    return PrintUsage("--seconds must be >= 1 and --trace 0 or 1");
  }

  const WorkloadReport report = RunWorkload(config);
  std::vector<std::string> errors = report.errors;
  for (const std::string& f : RunSelfTest()) {
    errors.push_back("self-test: " + f);
  }
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "check failed: %s\n", errors[i].c_str());
  }
  std::vector<Metric> metrics = report.end_to_end;
  if (trace == 1) {
    metrics = ProbeLayers(config.seed);
    metrics.insert(metrics.end(), report.layer_counts.begin(),
                   report.layer_counts.end());
  }
  PrintResult(errors.empty(), report.attempted, report.failed, metrics);
  return errors.empty() && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace topkjoin::bench

int main(int argc, char** argv) { return topkjoin::bench::Main(argc, argv); }
