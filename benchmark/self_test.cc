#include "benchmark/self_test.h"

#include <utility>

#include "benchmark/dataset.h"
#include "benchmark/reference.h"
#include "src/serving/serving_engine.h"

namespace topkjoin::bench {
namespace {

constexpr uint64_t kSeed = 20200614;
constexpr size_t kK = 20;
constexpr Dioid kDioids[] = {Dioid::kSum, Dioid::kMax, Dioid::kLex};

DatasetConfig SmallConfig() {
  DatasetConfig config;
  config.path_rows = 400;
  config.path_domain = 40;
  config.star_rows = 400;
  config.star_centers = 40;
  config.star_leaves = 10000;
  config.edge_rows = 600;
  config.nodes = 60;
  config.max_weight = 1000;
  return config;
}

std::vector<RankedResult> Fetch(ServingEngine& engine, SessionId session,
                                const Database& db, Shape shape,
                                Dioid dioid) {
  ExecutionOptions options;
  options.k = kK;
  auto id = engine.OpenCursor(session, db, ToConjunctiveQuery(shape),
                              RankingSpec{ToCostModel(dioid)}, options);
  if (!id.ok()) return {};
  auto slice = engine.Fetch(id.value(), kK);
  (void)engine.CloseCursor(id.value());
  return slice.ok() ? std::move(slice.value().results)
                    : std::vector<RankedResult>{};
}

}  // namespace

std::vector<std::string> RunSelfTest() {
  std::vector<std::string> failures;
  Dataset data(kSeed, SmallConfig());
  const Limits epoch0 = data.RowCounts();
  // Epoch 1 adds one weight-0 path R1 -> R2 -> R3 over new values: the
  // cheapest path4 answer of epoch 1, absent from epoch 0.
  const Value fresh = 1000000;
  data.AppendRow(kR1, fresh, fresh + 1, 0);
  data.AppendRow(kR2, fresh + 1, fresh + 2, 0);
  data.AppendRow(kR3, fresh + 2, fresh + 3, 0);
  const Limits epoch1 = data.RowCounts();
  const Reference reference(data);

  for (Shape shape : kAllShapes) {
    for (Dioid dioid : kDioids) {
      for (const Limits* limits : {&epoch0, &epoch1}) {
        if (reference.TopK(shape, dioid, kK, *limits, true) !=
            reference.TopK(shape, dioid, kK, *limits, false)) {
          failures.push_back(std::string("pruned reference disagrees with "
                                         "full enumeration on ") +
                             ShapeName(shape) + "/" + DioidName(dioid));
        }
      }
    }
  }

  Database db;
  data.LoadInto(&db, epoch0);
  ServingOptions options;
  options.num_workers = 0;
  ServingEngine engine(options);
  const SessionId session = engine.OpenSession();
  // A cursor pinned to epoch 0 and drained after the delta.
  ExecutionOptions held_options;
  held_options.k = kK;
  auto held = engine.OpenCursor(session, db, ToConjunctiveQuery(Shape::kPath4),
                                RankingSpec{CostModelKind::kSum}, held_options);
  if (!held.ok() || !db.ApplyDelta(data.DeltaBetween(epoch0, epoch1)).ok()) {
    failures.push_back("could not open the held cursor or apply the delta");
    return failures;
  }
  auto held_slice = engine.Fetch(held.value(), kK);
  (void)engine.CloseCursor(held.value());
  const std::vector<RankedResult> before =
      held_slice.ok() ? std::move(held_slice.value().results)
                      : std::vector<RankedResult>{};

  const auto expect = [&](bool pass, const std::string& what, Shape shape,
                          Dioid dioid, const Limits& limits,
                          const std::vector<RankedResult>& stream) {
    const std::string error =
        CheckStream(reference, shape, dioid, kK, limits, stream,
                    reference.TopK(shape, dioid, kK, limits));
    if (pass && !error.empty()) {
      failures.push_back("clean stream rejected (" + what + "): " + error);
    } else if (!pass && error.empty()) {
      failures.push_back("corruption not rejected: " + what + " on " +
                         ShapeName(shape) + "/" + DioidName(dioid));
    }
  };

  for (Shape shape : kAllShapes) {
    for (Dioid dioid : kDioids) {
      const std::vector<RankedResult> clean =
          Fetch(engine, session, db, shape, dioid);
      expect(true, "epoch 1", shape, dioid, epoch1, clean);
      if (clean.size() != kK) continue;

      // Two results of different cost swapped.
      std::vector<RankedResult> swapped = clean;
      size_t j = kK - 1;
      while (j > 0 && !CostLess(dioid, ReportedCost(dioid, swapped[0]),
                                ReportedCost(dioid, swapped[j]))) {
        --j;
      }
      if (j == 0) {
        failures.push_back(std::string("no two distinct costs in ") +
                           ShapeName(shape) + "/" + DioidName(dioid));
      } else {
        std::swap(swapped[0], swapped[j]);
        expect(false, "two results swapped", shape, dioid, epoch1, swapped);
      }

      // One cost perturbed.
      std::vector<RankedResult> perturbed = clean;
      perturbed[kK / 2].cost += 1.0;
      expect(false, "one cost perturbed", shape, dioid, epoch1, perturbed);
    }
  }

  // One answer from a later epoch inside an epoch-0 stream, and a whole
  // epoch-1 stream checked as if its cursor had pinned epoch 0.
  const std::vector<RankedResult> after =
      Fetch(engine, session, db, Shape::kPath4, Dioid::kSum);
  expect(true, "epoch 0 cursor", Shape::kPath4, Dioid::kSum, epoch0, before);
  if (before.size() == kK && after.size() == kK) {
    std::vector<RankedResult> stale = before;
    stale.pop_back();
    stale.insert(stale.begin(), after.front());
    expect(false, "an answer from a later epoch", Shape::kPath4, Dioid::kSum,
           epoch0, stale);
    expect(false, "a stream from a later epoch", Shape::kPath4, Dioid::kSum,
           epoch0, after);
  }
  return failures;
}

}  // namespace topkjoin::bench
