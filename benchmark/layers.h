// The traced run's per-layer probes: times calls into each layer's
// public functions from outside the program, on a fresh instance
// generated from the same seed as the workloads.
#ifndef TOPKJOIN_BENCHMARK_LAYERS_H_
#define TOPKJOIN_BENCHMARK_LAYERS_H_

#include <cstdint>
#include <vector>

#include "benchmark/measure.h"

namespace topkjoin::bench {

/// Every per-layer metric except the workload's own serving counters
/// and proc.* figures (WorkloadReport::layer_counts).
std::vector<Metric> ProbeLayers(uint64_t seed);

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_LAYERS_H_
