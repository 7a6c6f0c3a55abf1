// The benchmark's inputs: seeded relations, the four query shapes over
// them, and fresh-tuple deltas for live updates.
//
// The benchmark keeps its own copy of every generated tuple (Table) so
// that its reference top-k and output checks (reference.h) never read
// the program's data structures. Every relation is binary and holds
// each (a, b) pair at most once, so a join answer names exactly one
// tuple per atom and its cost is well defined. Weights are whole
// numbers, so SUM costs are exact in double arithmetic and the checks
// can compare costs bit for bit.
#ifndef TOPKJOIN_BENCHMARK_DATASET_H_
#define TOPKJOIN_BENCHMARK_DATASET_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/data/database.h"
#include "src/query/cq.h"
#include "src/ranking/cost_model.h"

namespace topkjoin::bench {

/// The three ranking dioids the workloads use.
enum class Dioid { kSum, kMax, kLex };
const char* DioidName(Dioid dioid);
CostModelKind ToCostModel(Dioid dioid);

/// The four query shapes. path4 and star3 are acyclic; triangle routes
/// through a bag decomposition and cycle4 through the heavy/light union.
enum class Shape { kPath4, kStar3, kTriangle, kCycle4 };
inline constexpr Shape kAllShapes[] = {Shape::kPath4, Shape::kStar3,
                                       Shape::kTriangle, Shape::kCycle4};
const char* ShapeName(Shape shape);

/// Table ids, equal to the relation ids after Dataset::LoadInto.
enum TableId : int { kR1, kR2, kR3, kS1, kS2, kS3, kEdges, kNumTables };

/// splitmix64: the benchmark's own generator, independent of src/util.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One binary relation as generated. Rows are only ever appended, so a
/// database epoch is a row-count prefix of every table.
struct Table {
  std::string name;
  std::vector<std::array<Value, 2>> rows;
  std::vector<Weight> weights;
};

struct QueryAtom {
  int table;
  std::array<VarId, 2> vars;
};

struct QuerySpec {
  Shape shape;
  std::vector<QueryAtom> atoms;
  int num_vars;
};

const QuerySpec& QueryOf(Shape shape);

/// Sizes and skew of the generated instance (see README.md).
struct DatasetConfig {
  size_t path_rows = 20000;     // R1, R2, R3 each
  Value path_domain = 2000;
  size_t star_rows = 20000;     // S1, S2, S3 each
  Value star_centers = 1000;    // domain of the shared centre variable
  Value star_leaves = 1000000;  // domain of the leaf variables
  double star_zipf = 1.0;       // skew of S1's centre column
  size_t edge_rows = 4000;      // E
  Value nodes = 300;
  Weight max_weight = 10000;    // weights are whole numbers in [0, max)
};

/// Rows per table of one epoch.
using Limits = std::vector<size_t>;

class Dataset {
 public:
  Dataset(uint64_t seed, const DatasetConfig& config = {});

  const Table& table(int id) const { return tables_[id]; }
  /// Current row count of every table.
  Limits RowCounts() const;

  /// Appends `rows` fresh tuples to each of `tables`: each one pairs the
  /// first column of a random existing row with the second column of
  /// another (so every join key is already present and the delta looks
  /// like the data it joins), with a new weight, and is distinct from
  /// every row already in the table.
  void AppendFresh(std::span<const int> tables, size_t rows);

  /// Appends one given tuple; false (and no change) if (a, b) is
  /// already in the table.
  bool AppendRow(int table, Value a, Value b, Weight weight);

  /// Adds rows [0, limits[t]) of every table to `db`, in table order.
  void LoadInto(Database* db, const Limits& limits) const;

  /// The append Delta carrying rows [from[t], to[t]) of every table.
  Delta DeltaBetween(const Limits& from, const Limits& to) const;

 private:
  Weight DrawWeight();

  DatasetConfig config_;
  SplitMix rng_;
  std::vector<Table> tables_;
  std::vector<std::unordered_set<uint64_t>> keys_;
};

/// The query over a database loaded by Dataset::LoadInto.
ConjunctiveQuery ToConjunctiveQuery(Shape shape);

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_DATASET_H_
