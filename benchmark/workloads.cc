#include "benchmark/workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <utility>

#include "benchmark/dataset.h"
#include "benchmark/reference.h"
#include "src/serving/serving_engine.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace topkjoin::bench {
namespace {

// Operations per second of --seconds. The counts are fixed by
// --seconds alone (never by the clock), calibrated so that one whole
// run, checks included, takes about --seconds on a 4-core x86-64
// machine at its usual speed (up to a third longer when it is slow).
constexpr double kColdRoundsPerSecond = 5.5;  // 10 requests per round
constexpr double kWarmRoundsPerSecond = 50.0;  // 30 requests per round
constexpr double kLiveStepsPerSecond = 110.0;  // 1 delta + 4 requests

// Untimed operations between set-up and the timed phase, counted in
// neither: the first second of work on an idle machine runs measurably
// slower.
constexpr size_t kColdWarmupRounds = 5;
constexpr size_t kWarmWarmupRounds = 60;
constexpr size_t kLiveWarmupSteps = 100;

constexpr size_t kColdK = 10;
constexpr size_t kSliceSize = 64;
constexpr size_t kWarmWorkers = 3;  // + the generator thread = 4 = nproc
constexpr size_t kWarmOutstanding = 4;
constexpr size_t kLiveDeltaRows = 2;  // per written relation per step
constexpr size_t kLiveReopenK = 10;
constexpr size_t kLiveHeldK = 100;
constexpr size_t kWriterBursts = 10;
constexpr size_t kWriterBurstDeltas = 200;
constexpr int kWrittenTables[] = {kR1, kR2, kR3, kS1, kS2, kS3};

size_t OpsFor(double per_second, int seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(per_second * static_cast<double>(seconds) + 0.5));
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

struct RequestSpec {
  Shape shape;
  Dioid dioid;
  size_t k;
};

std::string Label(const RequestSpec& spec) {
  return std::string(ShapeName(spec.shape)) + "/" + DioidName(spec.dioid) +
         "/k=" + std::to_string(spec.k);
}

ExecutionOptions OptionsFor(const RequestSpec& spec) {
  ExecutionOptions options;
  options.k = spec.k;
  return options;
}

template <typename T>
void Shuffle(std::vector<T>* items, SplitMix& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Below(i)]);
  }
}

// Per-request figures of one timed phase.
struct Tally {
  std::vector<double> request_ms;
  std::vector<double> ttf_ms;
  std::vector<double> update_us;
  uint64_t requests = 0;   // completed
  uint64_t results = 0;    // delivered
  uint64_t requested = 0;  // sum of k over completed requests
};

struct ServingCounts {
  PlanCacheStats plan;
  PlanCacheStats artifact;
  uint64_t built = 0;
  uint64_t patched = 0;

  static ServingCounts Of(const ServingEngine& engine) {
    return {engine.GetPlanCacheStats(), engine.GetArtifactCacheStats(),
            engine.NumArtifactsBuilt(), engine.NumArtifactsPatched()};
  }
};

// The instance a workload starts from.
struct Fixture {
  explicit Fixture(uint64_t seed) : data(seed) {
    for (Shape shape : kAllShapes) {
      queries[static_cast<size_t>(shape)] = ToConjunctiveQuery(shape);
    }
  }
  const ConjunctiveQuery& query(Shape shape) const {
    return queries[static_cast<size_t>(shape)];
  }

  Dataset data;
  Database db;
  std::array<ConjunctiveQuery, 4> queries;
};

// One synchronous request: open, pull the first result alone (time to
// first), pull the rest up to k, close.
struct Served {
  Status status;
  double request_ms = 0.0;
  double ttf_ms = 0.0;
  std::vector<RankedResult> results;
};

Status Drain(ServingEngine& engine, CursorId id, size_t k,
             Clock::time_point start, Served* served) {
  for (const size_t want : {size_t{1}, k - 1}) {
    if (want == 0) continue;
    auto slice = engine.Fetch(id, want);
    if (!slice.ok()) return slice.status();
    FetchOutcome& outcome = slice.value();
    if (served->results.empty() && !outcome.results.empty()) {
      served->ttf_ms = MillisBetween(start, Clock::now());
    }
    for (RankedResult& r : outcome.results) {
      served->results.push_back(std::move(r));
    }
    if (outcome.cursor_state != CursorState::kActive) break;
  }
  served->request_ms = MillisBetween(start, Clock::now());
  return Status::Ok();
}

Served Serve(ServingEngine& engine, SessionId session, const Fixture& f,
             const RequestSpec& spec) {
  Served served;
  const Clock::time_point start = Clock::now();
  auto id = engine.OpenCursor(session, f.db, f.query(spec.shape),
                              RankingSpec{ToCostModel(spec.dioid)},
                              OptionsFor(spec));
  if (!id.ok()) {
    served.status = id.status();
    return served;
  }
  served.status = Drain(engine, id.value(), spec.k, start, &served);
  (void)engine.CloseCursor(id.value());
  return served;
}

void NoteFailure(const std::string& what, const Status& status,
                 WorkloadReport* out) {
  ++out->failed;
  if (out->failed <= 5) {
    std::fprintf(stderr, "operation failed: %s: %s\n", what.c_str(),
                 status.message().c_str());
  }
}

void Record(const Served& served, size_t k, Tally* tally) {
  tally->request_ms.push_back(served.request_ms);
  tally->ttf_ms.push_back(served.ttf_ms);
  ++tally->requests;
  tally->results += served.results.size();
  tally->requested += k;
}

void Check(const Reference& reference, const RequestSpec& spec,
           const Limits& limits, const std::vector<RankedResult>& stream,
           const std::vector<Cost>& expected, WorkloadReport* out) {
  std::string error = CheckStream(reference, spec.shape, spec.dioid, spec.k,
                                  limits, stream, expected);
  if (!error.empty()) out->errors.push_back(std::move(error));
}

// cold-topk and warm-serve have no writer of their own, yet report
// update_us_p50 like every workload: they time small appends to a side
// database of the seed's instance, each a fresh delta of the
// live-update size, in kWriterBursts bursts spread evenly over the
// timed phase. So the figure averages the host's state over the run,
// as the phase's own figures do, and the workload's own instance stays
// unchanged. The bursts' time is left out of the phase.
class SideWriter {
 public:
  explicit SideWriter(uint64_t seed) : data_(seed) {
    data_.LoadInto(&db_, data_.RowCounts());
  }

  void Burst(Tally* tally, WorkloadReport* out) {
    for (size_t i = 0; i < kWriterBurstDeltas; ++i) {
      const Limits before = data_.RowCounts();
      data_.AppendFresh(kWrittenTables, kLiveDeltaRows);
      const Delta delta = data_.DeltaBetween(before, data_.RowCounts());
      ++out->attempted;
      const Clock::time_point start = Clock::now();
      const Status applied = db_.ApplyDelta(delta);
      const double us = SecondsBetween(start, Clock::now()) * 1e6;
      if (!applied.ok()) {
        NoteFailure("ApplyDelta", applied, out);
      } else {
        tally->update_us.push_back(us);
      }
    }
  }

 private:
  Dataset data_;
  Database db_;
};

// One end of a timed phase: the clock, resource usage, the benchmark's
// own check time so far (left out of the phase) and the engine's cache
// counters.
struct Mark {
  Clock::time_point at;
  Usage usage;
  CheckTime checks;
  ServingCounts counts;

  static Mark Now(const ServingEngine& engine, const CheckTime& checks) {
    return {Clock::now(), Usage::Now(), checks, ServingCounts::Of(engine)};
  }
};

// setup_s runs from process start to the end of set-up (before any
// warm-up operation), less the benchmark's own work on the way: the
// reference build and `left_out_s` more.
double SetupSeconds(const RunConfig& config, const CheckTime& checks,
                    double left_out_s = 0.0) {
  return SecondsBetween(config.process_start, Clock::now()) -
         checks.wall_s() - left_out_s;
}

void Finish(const Tally& tally, double setup_s, const Mark& start,
            const Mark& end, WorkloadReport* out) {
  const double timed_s = SecondsBetween(start.at, end.at) -
                         (end.checks.wall_s() - start.checks.wall_s());
  const double cpu_ms = end.usage.cpu_ms - start.usage.cpu_ms -
                        (end.checks.cpu_ms() - start.checks.cpu_ms());
  const double minor_faults =
      end.usage.minor_faults - start.usage.minor_faults -
      (end.checks.minor_faults() - start.checks.minor_faults());
  const ServingCounts& before = start.counts;
  const ServingCounts& after = end.counts;
  const double peak_rss_mb = end.usage.peak_rss_mb;
  if (tally.results != tally.requested) {
    out->errors.push_back("delivered " + std::to_string(tally.results) +
                          " results for " + std::to_string(tally.requested) +
                          " requested");
  }
  const double requests =
      static_cast<double>(std::max<uint64_t>(1, tally.requests));
  out->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"requests_per_s", static_cast<double>(tally.requests) / timed_s, "1/s"},
      {"request_ms_p50", Quantile(tally.request_ms, 0.5), "ms"},
      {"request_ms_p90", Quantile(tally.request_ms, 0.9), "ms"},
      {"ttf_ms_p50", Quantile(tally.ttf_ms, 0.5), "ms"},
      {"results_per_s", static_cast<double>(tally.results) / timed_s, "1/s"},
      {"update_us_p50", Quantile(tally.update_us, 0.5), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  out->layer_counts = {
      {"serving.plan_cache_hits", delta(before.plan.hits, after.plan.hits),
       "count"},
      {"serving.plan_cache_misses",
       delta(before.plan.misses, after.plan.misses), "count"},
      {"serving.artifact_cache_hits",
       delta(before.artifact.hits, after.artifact.hits), "count"},
      {"serving.artifact_cache_misses",
       delta(before.artifact.misses, after.artifact.misses), "count"},
      {"serving.artifacts_built", delta(before.built, after.built), "count"},
      {"serving.artifacts_patched", delta(before.patched, after.patched),
       "count"},
      {"proc.minor_faults_per_request", minor_faults / requests, "count"},
      {"proc.cpu_ms_per_request", cpu_ms / requests, "ms"},
  };
  std::fprintf(stderr,
               "%llu requests over %.3f s timed; request_ms p99 %.4f "
               "(%zu samples)\n",
               static_cast<unsigned long long>(tally.requests), timed_s,
               Quantile(tally.request_ms, 0.99), tally.request_ms.size());
}

// ------------------------------------------------------------ cold-topk

WorkloadReport RunColdTopK(const RunConfig& config) {
  WorkloadReport out;
  Tally tally;
  const Clock::time_point writer_start = Clock::now();
  SideWriter writer(config.seed);
  const double writer_s = SecondsBetween(writer_start, Clock::now());
  Fixture f(config.seed);
  const Limits limits = f.data.RowCounts();
  f.data.LoadInto(&f.db, limits);
  ServingOptions options;
  options.num_workers = 0;
  ServingEngine engine(options);
  const SessionId session = engine.OpenSession();

  // 3:3:2:2, so p50 falls inside the acyclic requests and p90 inside
  // the 4-cycle ones.
  const std::vector<RequestSpec> round = {
      {Shape::kPath4, Dioid::kSum, kColdK},
      {Shape::kPath4, Dioid::kSum, kColdK},
      {Shape::kPath4, Dioid::kSum, kColdK},
      {Shape::kStar3, Dioid::kMax, kColdK},
      {Shape::kStar3, Dioid::kMax, kColdK},
      {Shape::kStar3, Dioid::kMax, kColdK},
      {Shape::kTriangle, Dioid::kSum, kColdK},
      {Shape::kTriangle, Dioid::kSum, kColdK},
      {Shape::kCycle4, Dioid::kSum, kColdK},
      {Shape::kCycle4, Dioid::kSum, kColdK},
  };
  SplitMix order(config.seed ^ 0xc01dULL);
  const size_t timed_rounds = OpsFor(kColdRoundsPerSecond, config.seconds);
  const size_t rounds = kColdWarmupRounds + timed_rounds;

  // The data never changes, so each class has one reference top-k.
  CheckTime checks;
  checks.Begin();
  const Reference reference(f.data);
  std::array<std::vector<Cost>, 4> expected;  // by Shape
  for (const RequestSpec& spec : round) {
    expected[static_cast<size_t>(spec.shape)] =
        reference.TopK(spec.shape, spec.dioid, spec.k, limits);
  }
  checks.End();
  const double setup_s = SetupSeconds(config, checks, writer_s);

  // The writer's bursts count with the checks: left out of the phase.
  const size_t rounds_per_burst =
      std::max<size_t>(1, timed_rounds / kWriterBursts);
  size_t bursts = 0;
  const auto burst = [&] {
    checks.Begin();
    writer.Burst(&tally, &out);
    checks.End();
    ++bursts;
  };

  std::array<std::vector<double>, 4> class_ms;  // by Shape
  std::optional<Mark> start;
  for (size_t r = 0; r < rounds; ++r) {
    if (r == kColdWarmupRounds) start = Mark::Now(engine, checks);
    const bool timed = start.has_value();
    if (timed && (r - kColdWarmupRounds) % rounds_per_burst == 0 &&
        bursts < kWriterBursts) {
      burst();
    }
    std::vector<RequestSpec> requests = round;
    Shuffle(&requests, order);
    for (const RequestSpec& spec : requests) {
      // Every request misses the plan, artifact and estimator caches.
      engine.InvalidateCachedPlans(f.db);
      ++out.attempted;
      const Served served = Serve(engine, session, f, spec);
      if (!served.status.ok()) {
        NoteFailure(Label(spec), served.status, &out);
        continue;
      }
      if (timed) {
        Record(served, spec.k, &tally);
        class_ms[static_cast<size_t>(spec.shape)].push_back(
            served.request_ms);
      }
      checks.Begin();
      Check(reference, spec, limits, served.results,
            expected[static_cast<size_t>(spec.shape)], &out);
      checks.End();
    }
  }
  while (bursts < kWriterBursts) burst();
  const Mark end = Mark::Now(engine, checks);

  for (Shape shape : kAllShapes) {
    const std::vector<double>& ms = class_ms[static_cast<size_t>(shape)];
    std::fprintf(stderr, "cold %s: request_ms p50 %.3f over %zu requests\n",
                 ShapeName(shape), Quantile(ms, 0.5), ms.size());
  }
  Finish(tally, setup_s, *start, end, &out);
  return out;
}

// ----------------------------------------------------------- warm-serve

struct WarmRequest {
  size_t combo = 0;
  size_t k = 0;
  CursorId id = 0;
  Status status;
  Clock::time_point start;
  Clock::time_point first;
  Clock::time_point done;
  std::vector<RankedResult> results;
};

// Requests whose last slice has landed, handed from the workers to the
// generator thread.
class Completions {
 public:
  void Push(WarmRequest* request) {
    MutexLock lock(&mu_);
    done_.push_back(request);
    cv_.NotifyOne();
  }
  std::vector<WarmRequest*> WaitAll() {
    MutexLock lock(&mu_);
    while (done_.empty()) cv_.Wait(&mu_);
    return std::exchange(done_, {});
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::vector<WarmRequest*> done_ GUARDED_BY(mu_);
};

// Slice callback (worker thread): appends the slice, then asks for the
// next one, of up to kSliceSize results, until the request has k
// results or its cursor stops. The first slice holds the first result
// alone (time to first).
void OnSlice(ServingEngine* engine, Completions* completions,
             WarmRequest* request, StatusOr<FetchOutcome> slice) {
  const Clock::time_point now = Clock::now();
  if (!slice.ok()) {
    request->status = slice.status();
    request->done = now;
    completions->Push(request);
    return;
  }
  FetchOutcome& outcome = slice.value();
  if (request->results.empty() && !outcome.results.empty()) {
    request->first = now;
  }
  for (RankedResult& r : outcome.results) {
    request->results.push_back(std::move(r));
  }
  const size_t have = request->results.size();
  if (have < request->k && outcome.cursor_state == CursorState::kActive) {
    engine->SubmitFetch(
        request->id, std::min(kSliceSize, request->k - have),
        [engine, completions, request](CursorId, StatusOr<FetchOutcome> next) {
          OnSlice(engine, completions, request, std::move(next));
        });
    return;
  }
  request->done = now;
  completions->Push(request);
}

WorkloadReport RunWarmServe(const RunConfig& config) {
  WorkloadReport out;
  Tally tally;
  const Clock::time_point writer_start = Clock::now();
  SideWriter writer(config.seed);
  const double writer_s = SecondsBetween(writer_start, Clock::now());
  Fixture f(config.seed);
  const Limits limits = f.data.RowCounts();
  f.data.LoadInto(&f.db, limits);
  ServingOptions options;
  options.num_workers = kWarmWorkers;
  ServingEngine engine(options);
  const SessionId session = engine.OpenSession();

  // The hot set: 4 shapes x 3 dioids x k in {10, 100, 1000}, less the
  // cyclic shapes at k = 1000: 30 entries, within the default
  // artifact-cache capacity of 64. (The estimator's triangle and 4-cycle
  // outputs are off by 100-1000x, so at k = 1000 their route flips
  // between batch-sort and any-k from one seed to the next; see
  // README.md.) Priming fills the plan and artifact caches and keeps
  // each combination's first stream, which is checked in full against
  // the reference after the timed phase.
  std::vector<RequestSpec> combos;
  for (Shape shape : kAllShapes) {
    const bool cyclic = shape == Shape::kTriangle || shape == Shape::kCycle4;
    for (Dioid dioid : {Dioid::kSum, Dioid::kMax, Dioid::kLex}) {
      for (size_t k : {size_t{10}, size_t{100}, size_t{1000}}) {
        if (cyclic && k == 1000) continue;
        combos.push_back({shape, dioid, k});
      }
    }
  }
  std::vector<std::vector<RankedResult>> primed(combos.size());
  std::vector<uint64_t> primed_print(combos.size());
  for (size_t c = 0; c < combos.size(); ++c) {
    Served served = Serve(engine, session, f, combos[c]);
    if (!served.status.ok()) {
      out.errors.push_back("priming " + Label(combos[c]) +
                           " failed: " + served.status.message());
      return out;
    }
    primed_print[c] = Fingerprint(served.results);
    primed[c] = std::move(served.results);
  }
  const size_t rounds =
      kWarmWarmupRounds + OpsFor(kWarmRoundsPerSecond, config.seconds);
  std::vector<WarmRequest> requests(rounds * combos.size());
  SplitMix order(config.seed ^ 0x3a73ULL);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<size_t> ids(combos.size());
    for (size_t c = 0; c < ids.size(); ++c) ids[c] = c;
    Shuffle(&ids, order);
    for (size_t c = 0; c < ids.size(); ++c) {
      WarmRequest& request = requests[r * combos.size() + c];
      request.combo = ids[c];
      request.k = combos[ids[c]].k;
    }
  }

  Completions completions;
  // Streams that differ from their combination's primed stream; each is
  // checked in full after the timed phase.
  std::vector<WarmRequest*> differing;
  const auto finish = [&](WarmRequest* request, bool timed) {
    (void)engine.CloseCursor(request->id);
    if (!request->status.ok()) {
      NoteFailure(Label(combos[request->combo]), request->status, &out);
      return;
    }
    if (timed) {
      ++tally.requests;
      tally.results += request->results.size();
      tally.requested += request->k;
      tally.request_ms.push_back(
          MillisBetween(request->start, request->done));
      tally.ttf_ms.push_back(MillisBetween(
          request->start,
          request->results.empty() ? request->done : request->first));
    }
    if (Fingerprint(request->results) != primed_print[request->combo]) {
      differing.push_back(request);
    } else {
      std::vector<RankedResult>().swap(request->results);
    }
  };
  // Closed loop over requests [from, to): at most kWarmOutstanding open
  // at a time, each issued as soon as another completes.
  const auto drive = [&](size_t from, size_t to, bool timed) {
    size_t next = from;
    size_t inflight = 0;
    while (next < to || inflight > 0) {
      while (inflight < kWarmOutstanding && next < to) {
        WarmRequest& request = requests[next++];
        const RequestSpec& spec = combos[request.combo];
        ++out.attempted;
        request.start = Clock::now();
        auto id = engine.OpenCursor(session, f.db, f.query(spec.shape),
                                    RankingSpec{ToCostModel(spec.dioid)},
                                    OptionsFor(spec));
        if (!id.ok()) {
          NoteFailure(Label(spec), id.status(), &out);
          continue;
        }
        request.id = id.value();
        ++inflight;
        WarmRequest* handle = &request;
        engine.SubmitFetch(
            request.id, 1,
            [&engine, &completions, handle](CursorId,
                                            StatusOr<FetchOutcome> slice) {
              OnSlice(&engine, &completions, handle, std::move(slice));
            });
      }
      if (inflight == 0) continue;
      for (WarmRequest* request : completions.WaitAll()) {
        --inflight;
        finish(request, timed);
      }
    }
  };

  // Stream checks run after the timed phase; only the writer's bursts
  // are left out of it.
  CheckTime aside;
  const double setup_s = SetupSeconds(config, aside, writer_s);
  const size_t warmup = kWarmWarmupRounds * combos.size();
  drive(0, warmup, false);
  const Mark start = Mark::Now(engine, aside);
  // The timed requests in kWriterBursts segments, each after a burst
  // (with no request open).
  const size_t timed = requests.size() - warmup;
  for (size_t b = 0; b < kWriterBursts; ++b) {
    aside.Begin();
    writer.Burst(&tally, &out);
    aside.End();
    drive(warmup + timed * b / kWriterBursts,
          warmup + timed * (b + 1) / kWriterBursts, true);
  }
  const Mark end = Mark::Now(engine, aside);

  const Reference reference(f.data);
  for (size_t c = 0; c < combos.size(); ++c) {
    const RequestSpec& spec = combos[c];
    Check(reference, spec, limits, primed[c],
          reference.TopK(spec.shape, spec.dioid, spec.k, limits), &out);
  }
  for (const WarmRequest* request : differing) {
    const RequestSpec& spec = combos[request->combo];
    Check(reference, spec, limits, request->results,
          reference.TopK(spec.shape, spec.dioid, spec.k, limits), &out);
  }
  std::fprintf(stderr,
               "%zu of %zu warm streams differed from the primed one\n",
               differing.size(), requests.size());
  Finish(tally, setup_s, start, end, &out);
  return out;
}

// ---------------------------------------------------------- live-update

WorkloadReport RunLiveUpdate(const RunConfig& config) {
  WorkloadReport out;
  Fixture f(config.seed);
  // Every delta is generated up front: epoch s is the row-count prefix
  // epochs[s], and step s commits rows [epochs[s], epochs[s + 1]).
  const size_t steps =
      kLiveWarmupSteps + OpsFor(kLiveStepsPerSecond, config.seconds);
  std::vector<Limits> epochs = {f.data.RowCounts()};
  for (size_t s = 0; s < steps; ++s) {
    f.data.AppendFresh(kWrittenTables, kLiveDeltaRows);
    epochs.push_back(f.data.RowCounts());
  }
  f.data.LoadInto(&f.db, epochs[0]);
  ServingOptions options;
  options.num_workers = 0;
  ServingEngine engine(options);
  const SessionId session = engine.OpenSession();

  const std::vector<RequestSpec> reopens = {
      {Shape::kPath4, Dioid::kSum, kLiveReopenK},
      {Shape::kPath4, Dioid::kLex, kLiveReopenK},
      {Shape::kStar3, Dioid::kMax, kLiveReopenK},
  };
  const RequestSpec held = {Shape::kPath4, Dioid::kSum, kLiveHeldK};
  for (const RequestSpec& spec : {reopens[0], reopens[1], reopens[2], held}) {
    const Served served = Serve(engine, session, f, spec);
    if (!served.status.ok()) {
      out.errors.push_back("priming " + Label(spec) +
                           " failed: " + served.status.message());
      return out;
    }
  }
  CheckTime checks;
  checks.Begin();
  const Reference reference(f.data);
  checks.End();
  const double setup_s = SetupSeconds(config, checks);
  Tally tally;
  std::optional<Mark> start;
  for (size_t s = 0; s < steps; ++s) {
    if (s == kLiveWarmupSteps) start = Mark::Now(engine, checks);
    const bool timed = start.has_value();
    checks.Begin();
    const Delta delta = f.data.DeltaBetween(epochs[s], epochs[s + 1]);
    checks.End();

    // A cursor pinned to epoch s, drained only after the delta.
    ++out.attempted;
    const Clock::time_point held_start = Clock::now();
    auto held_id = engine.OpenCursor(session, f.db, f.query(held.shape),
                                     RankingSpec{ToCostModel(held.dioid)},
                                     OptionsFor(held));
    if (!held_id.ok()) NoteFailure(Label(held), held_id.status(), &out);

    ++out.attempted;
    const Clock::time_point update_start = Clock::now();
    const Status applied = f.db.ApplyDelta(delta);
    const double update_us =
        SecondsBetween(update_start, Clock::now()) * 1e6;
    if (!applied.ok()) {
      NoteFailure("ApplyDelta", applied, &out);
    } else if (timed) {
      tally.update_us.push_back(update_us);
    }

    std::array<Served, 3> reopened;
    for (size_t i = 0; i < reopens.size(); ++i) {
      ++out.attempted;
      reopened[i] = Serve(engine, session, f, reopens[i]);
      if (!reopened[i].status.ok()) {
        NoteFailure(Label(reopens[i]), reopened[i].status, &out);
        continue;
      }
      if (timed) Record(reopened[i], reopens[i].k, &tally);
    }

    Served drained;
    if (held_id.ok()) {
      drained.status =
          Drain(engine, held_id.value(), held.k, held_start, &drained);
      (void)engine.CloseCursor(held_id.value());
      if (!drained.status.ok()) {
        NoteFailure(Label(held), drained.status, &out);
      } else if (timed) {
        // It spans the delta, so it counts as a request but its
        // open-to-k-th time is not a request latency.
        ++tally.requests;
        tally.results += drained.results.size();
        tally.requested += held.k;
      }
    }

    checks.Begin();
    for (size_t i = 0; i < reopens.size(); ++i) {
      if (!reopened[i].status.ok()) continue;
      const RequestSpec& spec = reopens[i];
      Check(reference, spec, epochs[s + 1], reopened[i].results,
            reference.TopK(spec.shape, spec.dioid, spec.k, epochs[s + 1]),
            &out);
    }
    if (held_id.ok() && drained.status.ok()) {
      Check(reference, held, epochs[s], drained.results,
            reference.TopK(held.shape, held.dioid, held.k, epochs[s]), &out);
    }
    checks.End();
  }
  const Mark end = Mark::Now(engine, checks);
  Finish(tally, setup_s, *start, end, &out);
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "cold-topk" || name == "warm-serve" || name == "live-update";
}

WorkloadReport RunWorkload(const RunConfig& config) {
  if (config.workload == "cold-topk") return RunColdTopK(config);
  if (config.workload == "warm-serve") return RunWarmServe(config);
  return RunLiveUpdate(config);
}

}  // namespace topkjoin::bench
