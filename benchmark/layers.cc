#include "benchmark/layers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>

#include "benchmark/dataset.h"
#include "benchmark/reference.h"
#include "src/anyk/artifact.h"
#include "src/cycles/fourcycle.h"
#include "src/engine/executor.h"
#include "src/engine/planner.h"
#include "src/serving/serving_engine.h"
#include "src/stats/cardinality_estimator.h"
#include "src/util/common.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace topkjoin::bench {
namespace {

constexpr int kReps = 5;          // timed repetitions of each build step
constexpr size_t kColdK = 10;     // as in cold-topk
constexpr size_t kLongK = 1000;   // pull and slice probes
constexpr size_t kSlice = 64;     // as in warm-serve
constexpr size_t kPullStreams = 20;
constexpr size_t kSliceCursors = 20;
constexpr size_t kSubmitCursors = 40;
constexpr size_t kSubmitOutstanding = 4;
constexpr size_t kDeltas = 50;
constexpr int kWrittenTables[] = {kR1, kR2, kR3, kS1, kS2, kS3};

// The dioid each shape is ranked by in cold-topk.
Dioid ColdDioid(Shape shape) {
  return shape == Shape::kStar3 ? Dioid::kMax : Dioid::kSum;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsBetween(start, Clock::now()) * 1e3;
}

ExecutionOptions OptionsForK(size_t k) {
  ExecutionOptions options;
  options.k = k;
  return options;
}

QueryPlan MustPlan(const Database& db, const ConjunctiveQuery& query,
                   Dioid dioid, size_t k,
                   const CardinalityEstimator* estimator) {
  auto plan = PlanQuery(db, query, RankingSpec{ToCostModel(dioid)},
                        OptionsForK(k), estimator);
  TOPKJOIN_CHECK(plan.ok());
  return std::move(plan).value();
}

std::shared_ptr<const PreprocessingArtifact> MustBuild(
    const Database& db, const ConjunctiveQuery& query, const QueryPlan& plan,
    JoinStats* stats) {
  auto artifact = BuildArtifact(db, query, plan, stats);
  TOPKJOIN_CHECK(artifact.ok());
  return std::move(artifact).value();
}

// Submit -> callback latency of chained 64-result slices with a few
// cursors outstanding on a 3-worker engine (the warm-serve set-up).
class SubmitProbe {
 public:
  explicit SubmitProbe(ServingEngine* engine) : engine_(engine) {}

  void Run(CursorId id) {
    {
      MutexLock lock(&mu_);
      ++active_;
    }
    Submit(id, 0);
  }
  void WaitIdle() {
    MutexLock lock(&mu_);
    while (active_ > 0) cv_.Wait(&mu_);
  }
  std::vector<double> samples_us() {
    MutexLock lock(&mu_);
    return samples_us_;
  }

 private:
  void Submit(CursorId id, size_t have) {
    const Clock::time_point submitted = Clock::now();
    engine_->SubmitFetch(
        id, kSlice,
        [this, submitted, have](CursorId cursor,
                                StatusOr<FetchOutcome> slice) {
          const double us = SecondsBetween(submitted, Clock::now()) * 1e6;
          const size_t got = slice.ok() ? slice.value().results.size() : 0;
          const bool more = slice.ok() &&
                            slice.value().cursor_state ==
                                CursorState::kActive &&
                            got > 0 && have + got < kLongK;
          {
            MutexLock lock(&mu_);
            samples_us_.push_back(us);
          }
          if (more) {
            Submit(cursor, have + got);
            return;
          }
          MutexLock lock(&mu_);
          --active_;
          cv_.NotifyAll();
        });
  }

  ServingEngine* engine_;
  Mutex mu_;
  CondVar cv_;
  size_t active_ GUARDED_BY(mu_) = 0;
  std::vector<double> samples_us_ GUARDED_BY(mu_);
};

}  // namespace

std::vector<Metric> ProbeLayers(uint64_t seed) {
  std::vector<Metric> out;
  Dataset data(seed);
  Database db;
  data.LoadInto(&db, data.RowCounts());
  const Reference reference(data);
  std::array<ConjunctiveQuery, 4> queries;
  for (Shape shape : kAllShapes) {
    queries[static_cast<size_t>(shape)] = ToConjunctiveQuery(shape);
  }
  const auto query = [&](Shape s) -> const ConjunctiveQuery& {
    return queries[static_cast<size_t>(s)];
  };

  // ---- stats: the sampling estimator every cold plan starts from.
  std::vector<double> estimator_ms;
  std::unique_ptr<CardinalityEstimator> estimator;
  for (int i = 0; i < kReps; ++i) {
    estimator_ms.push_back(TimeMs(
        [&] { estimator = std::make_unique<CardinalityEstimator>(db); }));
  }
  out.push_back({"stats.estimator_build_ms", Quantile(estimator_ms, 0.5),
                 "ms"});

  // ---- engine: plan, build and first pull per cold-topk class.
  std::vector<double> plan_ms;
  std::vector<double> first_pull_us;
  std::vector<Metric> qerror, build_ms, intermediate;
  std::vector<double> layer_sum_ms;
  QueryPlan cycle_plan;
  for (Shape shape : kAllShapes) {
    const std::string name = ShapeName(shape);
    const Dioid dioid = ColdDioid(shape);
    QueryPlan plan;
    std::vector<double> my_plan_ms;
    for (int i = 0; i < kReps; ++i) {
      my_plan_ms.push_back(TimeMs([&] {
        plan = MustPlan(db, query(shape), dioid, kColdK, estimator.get());
      }));
    }
    plan_ms.insert(plan_ms.end(), my_plan_ms.begin(), my_plan_ms.end());
    if (shape == Shape::kCycle4) cycle_plan = plan;
    const double actual =
        static_cast<double>(reference.Count(shape, data.RowCounts()));
    const double estimated = plan.estimated_output;
    qerror.push_back({"engine.qerror." + name,
                      std::max(estimated / actual, actual / estimated),
                      "ratio"});

    std::vector<double> my_build_ms, my_pull_us;
    JoinStats stats;
    std::shared_ptr<const PreprocessingArtifact> artifact;
    for (int i = 0; i < kReps; ++i) {
      JoinStats rep_stats;
      my_build_ms.push_back(TimeMs(
          [&] { artifact = MustBuild(db, query(shape), plan, &rep_stats); }));
      stats = rep_stats;
      my_pull_us.push_back(TimeMs([&] {
                             auto stream = NewEnumeration(*artifact, plan);
                             TOPKJOIN_CHECK(stream->Next().has_value());
                           }) *
                           1e3);
    }
    first_pull_us.insert(first_pull_us.end(), my_pull_us.begin(),
                         my_pull_us.end());
    build_ms.push_back(
        {"engine.build_ms." + name, Quantile(my_build_ms, 0.5), "ms"});
    intermediate.push_back({"engine.intermediate_tuples." + name,
                            static_cast<double>(stats.intermediate_tuples),
                            "count"});
    const double sum = Quantile(estimator_ms, 0.5) +
                       Quantile(my_plan_ms, 0.5) +
                       Quantile(my_build_ms, 0.5) +
                       Quantile(my_pull_us, 0.5) / 1e3;
    std::fprintf(stderr,
                 "layer sum %s: estimator + plan + build + first pull = "
                 "%.3f ms\n",
                 name.c_str(), sum);
  }
  out.push_back({"engine.plan_ms_p50", Quantile(plan_ms, 0.5), "ms"});
  out.insert(out.end(), qerror.begin(), qerror.end());
  out.insert(out.end(), build_ms.begin(), build_ms.end());
  out.insert(out.end(), intermediate.begin(), intermediate.end());
  out.push_back({"engine.first_pull_us", Quantile(first_pull_us, 0.5), "us"});

  // ---- cycles: the heavy/light case plans of the 4-cycle route.
  std::vector<double> case_ms;
  for (int i = 0; i < kReps; ++i) {
    case_ms.push_back(TimeMs([&] {
      JoinStats stats;
      const FourCyclePlans plans = BuildFourCyclePlans(
          db, query(Shape::kCycle4), &stats, cycle_plan.fourcycle_threshold);
      TOPKJOIN_CHECK(!plans.cases.empty());
    }));
  }
  out.push_back({"cycles.case_build_ms", Quantile(case_ms, 0.5), "ms"});

  // ---- anyk: per-Next delay over a prebuilt path4/SUM artifact.
  const QueryPlan path_plan =
      MustPlan(db, query(Shape::kPath4), Dioid::kSum, kLongK, estimator.get());
  const auto path_artifact =
      MustBuild(db, query(Shape::kPath4), path_plan, nullptr);
  std::vector<double> pull_ns;
  for (size_t s = 0; s < kPullStreams; ++s) {
    auto stream = path_artifact->NewStream();
    for (size_t i = 0; i < kLongK; ++i) {
      const Clock::time_point start = Clock::now();
      const bool got = stream->Next().has_value();
      pull_ns.push_back(SecondsBetween(start, Clock::now()) * 1e9);
      TOPKJOIN_CHECK(got);
    }
  }
  const double pull_p50 = Quantile(pull_ns, 0.5);
  out.push_back({"anyk.pull_ns_p50", pull_p50, "ns"});
  out.push_back({"anyk.pull_ns_p99", Quantile(pull_ns, 0.99), "ns"});

  // ---- serving: cold and warm opens, slices, submit -> callback.
  {
    ServingOptions options;
    options.num_workers = 0;
    ServingEngine engine(options);
    const SessionId session = engine.OpenSession();
    const auto open = [&](Shape shape, Dioid dioid, size_t k) {
      auto id = engine.OpenCursor(session, db, query(shape),
                                  RankingSpec{ToCostModel(dioid)},
                                  OptionsForK(k));
      TOPKJOIN_CHECK(id.ok());
      return id.value();
    };
    std::vector<double> cold_ms, warm_us, slice_us;
    for (int i = 0; i < kReps; ++i) {
      for (Shape shape : kAllShapes) {
        engine.InvalidateCachedPlans(db);
        CursorId id = 0;
        cold_ms.push_back(
            TimeMs([&] { id = open(shape, ColdDioid(shape), kColdK); }));
        (void)engine.CloseCursor(id);
      }
    }
    for (int i = 0; i < 50; ++i) {
      for (Shape shape : kAllShapes) {
        CursorId id = 0;
        warm_us.push_back(
            TimeMs([&] { id = open(shape, ColdDioid(shape), kColdK); }) * 1e3);
        (void)engine.CloseCursor(id);
      }
    }
    for (size_t c = 0; c < kSliceCursors; ++c) {
      const CursorId id = open(Shape::kPath4, Dioid::kSum, kLongK);
      for (size_t have = 0; have < kLongK;) {
        size_t got = 0;
        slice_us.push_back(TimeMs([&] {
                             auto slice = engine.Fetch(id, kSlice);
                             TOPKJOIN_CHECK(slice.ok());
                             got = slice.value().results.size();
                           }) *
                           1e3);
        if (got == 0) break;
        have += got;
      }
      (void)engine.CloseCursor(id);
    }
    out.push_back({"serving.open_cold_ms_p50", Quantile(cold_ms, 0.5), "ms"});
    out.push_back(
        {"serving.open_warm_us_p50", Quantile(warm_us, 0.5), "us"});
    const double slice_p50 = Quantile(slice_us, 0.5);
    out.push_back({"serving.fetch_slice_us_p50", slice_p50, "us"});
    std::fprintf(stderr,
                 "fetch slice p50 %.3f us vs 64 x anyk pull p50 %.3f us: "
                 "serving overhead %.3f us per slice\n",
                 slice_p50, 64 * pull_p50 / 1e3,
                 slice_p50 - 64 * pull_p50 / 1e3);
  }
  {
    ServingOptions options;
    options.num_workers = 3;
    ServingEngine engine(options);
    const SessionId session = engine.OpenSession();
    SubmitProbe probe(&engine);
    for (size_t c = 0; c < kSubmitCursors; c += kSubmitOutstanding) {
      std::vector<CursorId> ids;
      for (size_t i = 0; i < kSubmitOutstanding; ++i) {
        auto id = engine.OpenCursor(session, db, query(Shape::kPath4),
                                    RankingSpec{CostModelKind::kSum},
                                    OptionsForK(kLongK));
        TOPKJOIN_CHECK(id.ok());
        ids.push_back(id.value());
      }
      for (const CursorId id : ids) probe.Run(id);
      probe.WaitIdle();
      for (const CursorId id : ids) (void)engine.CloseCursor(id);
    }
    const std::vector<double> samples = probe.samples_us();
    out.push_back({"serving.submit_to_callback_us_p50",
                   Quantile(samples, 0.5), "us"});
    out.push_back({"serving.submit_to_callback_us_p90",
                   Quantile(samples, 0.9), "us"});
  }

  // ---- data / stats / anyk under appends: the live-update writer path.
  {
    std::shared_ptr<const DatabaseSnapshot> snapshot = db.Snapshot();
    CardinalityEstimator live_estimator(snapshot->view());
    std::shared_ptr<const PreprocessingArtifact> artifact =
        MustBuild(snapshot->view(), query(Shape::kPath4), path_plan, nullptr);
    uint64_t built_at = snapshot->epoch();
    std::vector<double> apply_us, snapshot_us, extend_us, patch_us;
    for (size_t i = 0; i < kDeltas; ++i) {
      const Limits before = data.RowCounts();
      data.AppendFresh(kWrittenTables, 2);
      const Delta delta = data.DeltaBetween(before, data.RowCounts());
      apply_us.push_back(
          TimeMs([&] { TOPKJOIN_CHECK(db.ApplyDelta(delta).ok()); }) * 1e3);
      snapshot_us.push_back(TimeMs([&] { snapshot = db.Snapshot(); }) * 1e3);
      extend_us.push_back(
          TimeMs([&] { live_estimator.RetargetAndExtend(snapshot->view()); }) *
          1e3);
      std::vector<AppendDelta> deltas;
      TOPKJOIN_CHECK(db.DeltasSince(built_at, &deltas));
      std::shared_ptr<const PreprocessingArtifact> patched;
      const double us = TimeMs([&] {
                          patched = artifact->TryPatch(snapshot->view(),
                                                       deltas);
                        }) *
                        1e3;
      if (patched != nullptr) {
        patch_us.push_back(us);
        artifact = std::move(patched);
      } else {
        artifact = MustBuild(snapshot->view(), query(Shape::kPath4),
                             path_plan, nullptr);
      }
      built_at = snapshot->epoch();
    }
    out.push_back({"data.apply_delta_us_p50", Quantile(apply_us, 0.5), "us"});
    out.push_back({"data.snapshot_us_p50", Quantile(snapshot_us, 0.5), "us"});
    out.push_back(
        {"stats.estimator_extend_us", Quantile(extend_us, 0.5), "us"});
    out.push_back({"anyk.patch_us", Quantile(patch_us, 0.5), "us"});
    std::fprintf(stderr, "anyk patches: %zu of %zu deltas\n", patch_us.size(),
                 kDeltas);
  }
  return out;
}

}  // namespace topkjoin::bench
