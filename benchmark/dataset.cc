#include "benchmark/dataset.h"

#include <algorithm>
#include <cmath>

#include "src/util/common.h"

namespace topkjoin::bench {
namespace {

// Inverse-CDF sampler over ranks [0, n) with P(r) ~ 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  Value Sample(SplitMix& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return static_cast<Value>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

uint64_t PairKey(Value a, Value b) {
  return (static_cast<uint64_t>(a) << 32) ^ static_cast<uint64_t>(b);
}

}  // namespace

const char* DioidName(Dioid dioid) {
  switch (dioid) {
    case Dioid::kSum:
      return "sum";
    case Dioid::kMax:
      return "max";
    case Dioid::kLex:
      return "lex";
  }
  return "?";
}

CostModelKind ToCostModel(Dioid dioid) {
  switch (dioid) {
    case Dioid::kSum:
      return CostModelKind::kSum;
    case Dioid::kMax:
      return CostModelKind::kMax;
    case Dioid::kLex:
      return CostModelKind::kLex;
  }
  return CostModelKind::kSum;
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPath4:
      return "path4";
    case Shape::kStar3:
      return "star3";
    case Shape::kTriangle:
      return "triangle";
    case Shape::kCycle4:
      return "cycle4";
  }
  return "?";
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const QuerySpec& QueryOf(Shape shape) {
  // Atom order is also the reference's join order: every atom after the
  // first shares a variable with an earlier one.
  static const QuerySpec kPath{
      Shape::kPath4, {{kR1, {0, 1}}, {kR2, {1, 2}}, {kR3, {2, 3}}}, 4};
  static const QuerySpec kStar{
      Shape::kStar3, {{kS1, {0, 1}}, {kS2, {0, 2}}, {kS3, {0, 3}}}, 4};
  static const QuerySpec kTriangle{
      Shape::kTriangle,
      {{kEdges, {0, 1}}, {kEdges, {1, 2}}, {kEdges, {2, 0}}},
      3};
  static const QuerySpec kCycle{Shape::kCycle4,
                                {{kEdges, {0, 1}},
                                 {kEdges, {1, 2}},
                                 {kEdges, {2, 3}},
                                 {kEdges, {3, 0}}},
                                4};
  switch (shape) {
    case Shape::kPath4:
      return kPath;
    case Shape::kStar3:
      return kStar;
    case Shape::kTriangle:
      return kTriangle;
    case Shape::kCycle4:
      return kCycle;
  }
  return kPath;
}

ConjunctiveQuery ToConjunctiveQuery(Shape shape) {
  ConjunctiveQuery query;
  for (const QueryAtom& atom : QueryOf(shape).atoms) {
    query.AddAtom(static_cast<RelationId>(atom.table),
                  {atom.vars[0], atom.vars[1]});
  }
  return query;
}

Dataset::Dataset(uint64_t seed, const DatasetConfig& config)
    : config_(config), rng_(seed), tables_(kNumTables), keys_(kNumTables) {
  static const char* const kNames[kNumTables] = {"R1", "R2", "R3", "S1",
                                                 "S2", "S3", "E"};
  for (int t = 0; t < kNumTables; ++t) tables_[t].name = kNames[t];

  const auto fill = [&](int t, size_t rows, auto draw) {
    while (tables_[t].rows.size() < rows) {
      const auto [a, b] = draw();
      AppendRow(t, a, b, DrawWeight());
    }
  };
  const Value pd = config_.path_domain;
  for (int t : {kR1, kR2, kR3}) {
    fill(t, config_.path_rows, [&] {
      return std::array<Value, 2>{static_cast<Value>(rng_.Below(pd)),
                                  static_cast<Value>(rng_.Below(pd))};
    });
  }
  const Zipf centre(static_cast<size_t>(config_.star_centers),
                    config_.star_zipf);
  const auto leaf = [&] {
    return static_cast<Value>(rng_.Below(config_.star_leaves));
  };
  fill(kS1, config_.star_rows, [&] {
    return std::array<Value, 2>{centre.Sample(rng_), leaf()};
  });
  for (int t : {kS2, kS3}) {
    fill(t, config_.star_rows, [&] {
      return std::array<Value, 2>{
          static_cast<Value>(rng_.Below(config_.star_centers)), leaf()};
    });
  }
  fill(kEdges, config_.edge_rows, [&] {
    const Value u = static_cast<Value>(rng_.Below(config_.nodes));
    Value v = static_cast<Value>(rng_.Below(config_.nodes - 1));
    if (v >= u) ++v;  // no self-loops
    return std::array<Value, 2>{u, v};
  });
}

Weight Dataset::DrawWeight() {
  return static_cast<Weight>(
      rng_.Below(static_cast<uint64_t>(config_.max_weight)));
}

bool Dataset::AppendRow(int table, Value a, Value b, Weight weight) {
  if (!keys_[table].insert(PairKey(a, b)).second) return false;
  tables_[table].rows.push_back({a, b});
  tables_[table].weights.push_back(weight);
  return true;
}

Limits Dataset::RowCounts() const {
  Limits out;
  for (const Table& t : tables_) out.push_back(t.rows.size());
  return out;
}

void Dataset::AppendFresh(std::span<const int> tables, size_t rows) {
  for (const int t : tables) {
    const size_t target = tables_[t].rows.size() + rows;
    while (tables_[t].rows.size() < target) {
      const size_t n = tables_[t].rows.size();
      const Value a = tables_[t].rows[rng_.Below(n)][0];
      const Value b = tables_[t].rows[rng_.Below(n)][1];
      AppendRow(t, a, b, DrawWeight());
    }
  }
}

void Dataset::LoadInto(Database* db, const Limits& limits) const {
  for (int t = 0; t < kNumTables; ++t) {
    Relation relation = Relation::WithArity(tables_[t].name, 2);
    for (size_t r = 0; r < limits[t]; ++r) {
      relation.AddTuple({tables_[t].rows[r][0], tables_[t].rows[r][1]},
                        tables_[t].weights[r]);
    }
    const RelationId id = db->Add(std::move(relation));
    TOPKJOIN_CHECK(id == static_cast<RelationId>(t));
  }
}

Delta Dataset::DeltaBetween(const Limits& from, const Limits& to) const {
  Delta delta;
  for (int t = 0; t < kNumTables; ++t) {
    if (to[t] == from[t]) continue;
    RelationDelta& rd = delta.ForRelation(static_cast<RelationId>(t));
    for (size_t r = from[t]; r < to[t]; ++r) {
      rd.AddTuple({tables_[t].rows[r][0], tables_[t].rows[r][1]},
                  tables_[t].weights[r]);
    }
  }
  return delta;
}

}  // namespace topkjoin::bench
