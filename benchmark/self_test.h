// The checker self-test: every check in reference.h must be able to
// fail. On a small fixed instance it feeds CheckStream real streams
// from the program (which must pass) and corrupted copies of them (two
// results swapped, one cost perturbed, one answer from a later epoch),
// each of which must be rejected. It also checks that the pruned
// reference agrees with full enumeration.
#ifndef TOPKJOIN_BENCHMARK_SELF_TEST_H_
#define TOPKJOIN_BENCHMARK_SELF_TEST_H_

#include <string>
#include <vector>

namespace topkjoin::bench {

/// Returns the self-test's failures; empty when every check behaved.
std::vector<std::string> RunSelfTest();

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_SELF_TEST_H_
