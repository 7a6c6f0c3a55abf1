// The three end-to-end workloads. They reach the program only through
// ServingEngine and Database, and check every stream they receive
// against the benchmark's own reference (reference.h).
#ifndef TOPKJOIN_BENCHMARK_WORKLOADS_H_
#define TOPKJOIN_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/measure.h"

namespace topkjoin::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// When main() started: set-up time runs from here.
  Clock::time_point process_start;
};

struct WorkloadReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  /// This workload's serving-cache counters over the timed phase and
  /// its proc.* figures per request (reported by the traced run).
  std::vector<Metric> layer_counts;
};

bool IsWorkload(const std::string& name);

/// Runs one workload to its end: a fixed number of operations that
/// grows with `seconds`, so two runs with the same arguments do the
/// same work on the same data.
WorkloadReport RunWorkload(const RunConfig& config);

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_WORKLOADS_H_
