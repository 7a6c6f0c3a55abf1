// The benchmark's independent top-k reference and its output checks.
//
// Nothing here calls into the program: the reference joins the
// benchmark's own copy of the generated tuples (dataset.h) with a
// backtracking nested-loop join over weight-sorted indexes. Acyclic
// shapes prune a branch once its partial cost can no longer beat the
// current k-th best (sound because weights are nonnegative and every
// dioid here is monotone); triangle and cycle4 enumerate every answer.
// An epoch is a row-count prefix of every table (Limits), so one index
// over the final data answers for every epoch a live-update run passes
// through.
#ifndef TOPKJOIN_BENCHMARK_REFERENCE_H_
#define TOPKJOIN_BENCHMARK_REFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "benchmark/dataset.h"
#include "src/anyk/ranked_iterator.h"

namespace topkjoin::bench {

/// A result cost under one dioid. SUM and MAX use `scalar` only; LEX
/// uses the descending-sorted member weights in `lex` (and `scalar` is
/// its first component, as the program reports it).
struct Cost {
  double scalar = 0.0;
  std::vector<double> lex;

  bool operator==(const Cost&) const = default;
};

/// Folds member weights into a cost under `dioid`.
Cost FoldCost(Dioid dioid, std::span<const Weight> weights);
/// Strict "ranks before" under `dioid`.
bool CostLess(Dioid dioid, const Cost& a, const Cost& b);
/// The cost a program result reports, in the same representation.
Cost ReportedCost(Dioid dioid, const RankedResult& result);

class Reference {
 public:
  /// Indexes every row the dataset holds now; later appends are not seen.
  explicit Reference(const Dataset& data);

  /// The k best costs of `shape` under `dioid` over the epoch `limits`,
  /// ascending. `prune` = false enumerates every answer even for the
  /// acyclic shapes (the self-test checks that both modes agree).
  std::vector<Cost> TopK(Shape shape, Dioid dioid, size_t k,
                         const Limits& limits, bool prune) const;
  /// The default mode: pruned for acyclic shapes, exhaustive otherwise.
  std::vector<Cost> TopK(Shape shape, Dioid dioid, size_t k,
                         const Limits& limits) const;

  /// Exact number of answers of `shape` over the epoch `limits`.
  uint64_t Count(Shape shape, const Limits& limits) const;

  /// Row of (a, b) in `table` if it exists below `limit`, else -1.
  int64_t FindRow(int table, Value a, Value b, size_t limit) const;

  const Dataset& data() const { return data_; }

 private:
  struct TableIndex {
    std::vector<uint32_t> by_weight;  // all rows, ascending weight
    std::vector<uint32_t> by_col[2];  // rows by (column value, weight)
    std::vector<uint32_t> by_pair;    // rows by (a, b)
  };

  // Rows of `table` whose column `col` equals `v`, ascending weight.
  std::span<const uint32_t> Matching(int table, int col, Value v) const;

  const Dataset& data_;
  std::vector<TableIndex> index_;
};

/// Checks one request's stream. Returns "" when it passes, else the
/// first failure:
///   * the stream holds exactly k results (it asked for k);
///   * costs are non-decreasing under the dioid;
///   * every result is a distinct genuine answer of the epoch `limits`
///     (each atom's tuple exists below its table's limit) whose cost,
///     recomputed from the benchmark's own weights, equals the reported
///     one;
///   * the costs equal `expected`, the reference top-k of that epoch.
std::string CheckStream(const Reference& reference, Shape shape,
                        Dioid dioid, size_t k, const Limits& limits,
                        std::span<const RankedResult> stream,
                        const std::vector<Cost>& expected);

/// Order-sensitive hash of a stream's answers and costs: two requests
/// for the same (query, dioid, k) at the same epoch with equal
/// fingerprints returned the same stream.
uint64_t Fingerprint(std::span<const RankedResult> stream);

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_REFERENCE_H_
