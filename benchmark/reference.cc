#include "benchmark/reference.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <set>

namespace topkjoin::bench {
namespace {

constexpr size_t kMaxAtoms = 4;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::string Describe(Dioid dioid, const Cost& c) {
  if (dioid != Dioid::kLex) return std::to_string(c.scalar);
  std::string out = "[";
  for (size_t i = 0; i < c.lex.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(c.lex[i]);
  }
  return out + "]";
}

}  // namespace

Cost FoldCost(Dioid dioid, std::span<const Weight> weights) {
  Cost c;
  switch (dioid) {
    case Dioid::kSum:
      for (const Weight w : weights) c.scalar += w;
      break;
    case Dioid::kMax:
      c.scalar = -std::numeric_limits<double>::infinity();
      for (const Weight w : weights) c.scalar = std::max(c.scalar, w);
      break;
    case Dioid::kLex:
      c.lex.assign(weights.begin(), weights.end());
      std::sort(c.lex.begin(), c.lex.end(), std::greater<double>());
      c.scalar = c.lex.empty() ? 0.0 : c.lex[0];
      break;
  }
  return c;
}

bool CostLess(Dioid dioid, const Cost& a, const Cost& b) {
  if (dioid == Dioid::kLex) {
    return std::lexicographical_compare(a.lex.begin(), a.lex.end(),
                                        b.lex.begin(), b.lex.end());
  }
  return a.scalar < b.scalar;
}

Cost ReportedCost(Dioid dioid, const RankedResult& result) {
  Cost c;
  c.scalar = result.cost;
  if (dioid == Dioid::kLex) c.lex = result.cost_vector;
  return c;
}

Reference::Reference(const Dataset& data) : data_(data), index_(kNumTables) {
  for (int t = 0; t < kNumTables; ++t) {
    const Table& table = data.table(t);
    TableIndex& idx = index_[t];
    std::vector<uint32_t> rows(table.rows.size());
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
    const auto by_weight = [&](uint32_t x, uint32_t y) {
      return std::tie(table.weights[x], x) < std::tie(table.weights[y], y);
    };
    idx.by_weight = rows;
    std::sort(idx.by_weight.begin(), idx.by_weight.end(), by_weight);
    for (int col = 0; col < 2; ++col) {
      idx.by_col[col] = idx.by_weight;
      std::stable_sort(idx.by_col[col].begin(), idx.by_col[col].end(),
                       [&](uint32_t x, uint32_t y) {
                         return table.rows[x][col] < table.rows[y][col];
                       });
    }
    idx.by_pair = rows;
    std::sort(idx.by_pair.begin(), idx.by_pair.end(),
              [&](uint32_t x, uint32_t y) {
                return table.rows[x] < table.rows[y];
              });
  }
}

std::span<const uint32_t> Reference::Matching(int table, int col,
                                              Value v) const {
  const auto& rows = data_.table(table).rows;
  const std::vector<uint32_t>& sorted = index_[table].by_col[col];
  const auto lo = std::lower_bound(
      sorted.begin(), sorted.end(), v,
      [&](uint32_t r, Value x) { return rows[r][col] < x; });
  const auto hi = std::upper_bound(
      lo, sorted.end(), v,
      [&](Value x, uint32_t r) { return x < rows[r][col]; });
  return {sorted.data() + (lo - sorted.begin()),
          static_cast<size_t>(hi - lo)};
}

int64_t Reference::FindRow(int table, Value a, Value b, size_t limit) const {
  const auto& rows = data_.table(table).rows;
  const std::vector<uint32_t>& sorted = index_[table].by_pair;
  const std::array<Value, 2> key{a, b};
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), key,
      [&](uint32_t r, const std::array<Value, 2>& k) { return rows[r] < k; });
  if (it == sorted.end() || rows[*it] != key || *it >= limit) return -1;
  return *it;
}

namespace {

// Backtracking join over the atoms of one query, in spec order.
// `bound[d][v]` says whether variable v is bound before atom d.
struct JoinWalk {
  const QuerySpec& spec;
  const Limits& limits;
  std::array<std::array<bool, kMaxAtoms>, kMaxAtoms> bound{};
  std::array<Value, kMaxAtoms> vals{};
  std::array<Weight, kMaxAtoms> weights{};

  JoinWalk(const QuerySpec& s, const Limits& l) : spec(s), limits(l) {
    std::array<bool, kMaxAtoms> seen{};
    for (size_t d = 0; d < spec.atoms.size(); ++d) {
      bound[d] = seen;
      for (VarId v : spec.atoms[d].vars) seen[v] = true;
    }
  }
};

}  // namespace

std::vector<Cost> Reference::TopK(Shape shape, Dioid dioid, size_t k,
                                  const Limits& limits) const {
  const bool acyclic = shape == Shape::kPath4 || shape == Shape::kStar3;
  return TopK(shape, dioid, k, limits, acyclic);
}

std::vector<Cost> Reference::TopK(Shape shape, Dioid dioid, size_t k,
                                  const Limits& limits, bool prune) const {
  JoinWalk walk(QueryOf(shape), limits);
  const size_t n = walk.spec.atoms.size();
  const auto less = [dioid](const Cost& a, const Cost& b) {
    return CostLess(dioid, a, b);
  };
  std::vector<Cost> heap;  // max-heap: heap.front() is the k-th best
  if (k == 0) return heap;

  // True when no completion of the partial cost can beat the k-th best.
  const auto cut = [&](const Cost& partial, size_t depth) {
    const Cost& kth = heap.front();
    if (dioid != Dioid::kLex || depth == n) return !less(partial, kth);
    // Appending weights can only raise each order statistic, so a
    // prefix already above the k-th best's prefix stays above it.
    return std::lexicographical_compare(kth.lex.begin(),
                                        kth.lex.begin() + depth,
                                        partial.lex.begin(),
                                        partial.lex.end());
  };

  std::function<void(size_t)> rec = [&](size_t d) {
    if (d == n) {
      Cost c = FoldCost(dioid, {walk.weights.data(), n});
      if (heap.size() < k) {
        heap.push_back(std::move(c));
        std::push_heap(heap.begin(), heap.end(), less);
      } else if (less(c, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), less);
        heap.back() = std::move(c);
        std::push_heap(heap.begin(), heap.end(), less);
      }
      return;
    }
    const QueryAtom& atom = walk.spec.atoms[d];
    const Table& table = data_.table(atom.table);
    const VarId v0 = atom.vars[0];
    const VarId v1 = atom.vars[1];
    const bool b0 = walk.bound[d][v0];
    const bool b1 = walk.bound[d][v1];
    uint32_t single = 0;
    std::span<const uint32_t> rows;
    if (b0 && b1) {
      const int64_t r = FindRow(atom.table, walk.vals[v0], walk.vals[v1],
                                limits[atom.table]);
      if (r < 0) return;
      single = static_cast<uint32_t>(r);
      rows = {&single, 1};
    } else if (b0) {
      rows = Matching(atom.table, 0, walk.vals[v0]);
    } else if (b1) {
      rows = Matching(atom.table, 1, walk.vals[v1]);
    } else {
      rows = index_[atom.table].by_weight;
    }
    for (const uint32_t r : rows) {
      if (r >= limits[atom.table]) continue;
      const Weight w = table.weights[r];
      walk.weights[d] = w;
      if (prune && heap.size() == k &&
          cut(FoldCost(dioid, {walk.weights.data(), d + 1}), d + 1)) {
        // Candidates come in ascending weight: under SUM and MAX every
        // later one is cut too; under LEX only once w alone is too big.
        if (dioid != Dioid::kLex || w > heap.front().lex[0]) break;
        continue;
      }
      walk.vals[v0] = table.rows[r][0];
      walk.vals[v1] = table.rows[r][1];
      rec(d + 1);
    }
  };
  rec(0);
  std::sort_heap(heap.begin(), heap.end(), less);
  return heap;
}

uint64_t Reference::Count(Shape shape, const Limits& limits) const {
  JoinWalk walk(QueryOf(shape), limits);
  const size_t n = walk.spec.atoms.size();
  std::function<uint64_t(size_t)> rec = [&](size_t d) -> uint64_t {
    const QueryAtom& atom = walk.spec.atoms[d];
    const Table& table = data_.table(atom.table);
    const size_t limit = limits[atom.table];
    const VarId v0 = atom.vars[0];
    const VarId v1 = atom.vars[1];
    const bool b0 = walk.bound[d][v0];
    const bool b1 = walk.bound[d][v1];
    if (b0 && b1) {
      if (FindRow(atom.table, walk.vals[v0], walk.vals[v1], limit) < 0) {
        return 0;
      }
      return d + 1 == n ? 1 : rec(d + 1);
    }
    const std::span<const uint32_t> rows =
        b0 ? Matching(atom.table, 0, walk.vals[v0])
        : b1 ? Matching(atom.table, 1, walk.vals[v1])
             : std::span<const uint32_t>(index_[atom.table].by_weight);
    uint64_t total = 0;
    for (const uint32_t r : rows) {
      if (r >= limit) continue;
      if (d + 1 == n) {
        ++total;
        continue;
      }
      walk.vals[v0] = table.rows[r][0];
      walk.vals[v1] = table.rows[r][1];
      total += rec(d + 1);
    }
    return total;
  };
  return rec(0);
}

std::string CheckStream(const Reference& reference, Shape shape,
                        Dioid dioid, size_t k, const Limits& limits,
                        std::span<const RankedResult> stream,
                        const std::vector<Cost>& expected) {
  const std::string where =
      std::string(ShapeName(shape)) + "/" + DioidName(dioid) +
      "/k=" + std::to_string(k) + ": ";
  if (stream.size() != k) {
    return where + "delivered " + std::to_string(stream.size()) +
           " results for k=" + std::to_string(k);
  }
  for (size_t i = 1; i < stream.size(); ++i) {
    if (CostLess(dioid, ReportedCost(dioid, stream[i]),
                 ReportedCost(dioid, stream[i - 1]))) {
      return where + "rank inversion at position " + std::to_string(i);
    }
  }
  const QuerySpec& spec = QueryOf(shape);
  std::set<std::vector<Value>> seen;
  for (size_t i = 0; i < stream.size(); ++i) {
    const RankedResult& result = stream[i];
    if (result.assignment.size() != static_cast<size_t>(spec.num_vars)) {
      return where + "result " + std::to_string(i) + " binds " +
             std::to_string(result.assignment.size()) + " variables";
    }
    std::array<Weight, kMaxAtoms> weights{};
    for (size_t a = 0; a < spec.atoms.size(); ++a) {
      const QueryAtom& atom = spec.atoms[a];
      const int64_t row =
          reference.FindRow(atom.table, result.assignment[atom.vars[0]],
                            result.assignment[atom.vars[1]],
                            limits[atom.table]);
      if (row < 0) {
        return where + "result " + std::to_string(i) +
               " is not an answer at this epoch (atom " + std::to_string(a) +
               " has no tuple)";
      }
      weights[a] = reference.data().table(atom.table).weights[row];
    }
    const Cost recomputed =
        FoldCost(dioid, {weights.data(), spec.atoms.size()});
    const Cost reported = ReportedCost(dioid, result);
    if (!(recomputed == reported)) {
      return where + "result " + std::to_string(i) + " reports cost " +
             Describe(dioid, reported) + " but its tuples weigh " +
             Describe(dioid, recomputed);
    }
    if (!seen.insert(result.assignment).second) {
      return where + "result " + std::to_string(i) + " repeats an answer";
    }
  }
  if (expected.size() != stream.size()) {
    return where + "reference has " + std::to_string(expected.size()) +
           " answers, stream has " + std::to_string(stream.size());
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    const Cost reported = ReportedCost(dioid, stream[i]);
    if (!(reported == expected[i])) {
      return where + "rank " + std::to_string(i) + " has cost " +
             Describe(dioid, reported) + ", reference top-k has " +
             Describe(dioid, expected[i]);
    }
  }
  return "";
}

uint64_t Fingerprint(std::span<const RankedResult> stream) {
  uint64_t h = stream.size();
  for (const RankedResult& r : stream) {
    for (const Value v : r.assignment) h = Mix(h, static_cast<uint64_t>(v));
    h = Mix(h, Bits(r.cost));
    for (const double c : r.cost_vector) h = Mix(h, Bits(c));
  }
  return h;
}

}  // namespace topkjoin::bench
