// Serving-loop benchmark program: one closed loop, one caller, serving
// pre-generated churn + query inputs through SlotServer::ServeSlot and
// timing each slot from outside the program. See perfbench/README.md for
// the workloads, the metrics and how to run it; perfbench/run.py builds
// this binary and is the command the benchmark is run with.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--slots N] [--threads T] [--out-dir DIR]
//
// A run serves S x the workload's nominal slots/sec measured slots (about
// S seconds on the host that defined the benchmark), so every commit
// measured with the same S serves the same slots. --slots N serves exactly
// N instead, and --threads overrides the workload's thread count; both
// exist for the determinism self-test (perfbench/selftest.py).
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregate_query.h"
#include "core/arena.h"
#include "core/multi_query.h"
#include "engine/serving_engine.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/slot_server.h"

namespace psens {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One traffic mix. Each loads a different layer of the loop; the reasons
/// are in README.md.
struct Workload {
  const char* name;
  int sensors;
  bool mobility;
  int points_per_slot;
  int aggregates_per_slot;
  GreedyEngine scheduler;
  int threads;
  /// Slots/sec measured when the benchmark was defined (4-core host,
  /// Release, g++ 12.2). A run serves --seconds times this many slots, so
  /// a run lasts about --seconds there, and two commits compared with the
  /// same --seconds serve the same slots.
  double nominal_slots_per_sec;
};

constexpr Workload kWorkloads[] = {
    {"mixed_100k", 100000, false, 64, 8, GreedyEngine::kLazy, 1, 36.0},
    {"churn_1m", 1000000, true, 64, 0, GreedyEngine::kLazy, 4, 20.0},
    {"sieve_100k", 100000, true, 128, 0, GreedyEngine::kSieve, 1, 200.0},
};

constexpr double kChurnFraction = 0.01;
/// The city (registry and cluster layout) is part of the workload and
/// comes from this fixed seed; --seed drives the traffic, that is the
/// churn deltas and query batches. Utility per slot differs by up to 20%
/// between cities, which would drown any quality change in seed noise.
constexpr uint64_t kCitySeed = 1;
/// Served slots after the slot-0 cold build that count as set-up: the
/// first slots after a build pay one-time turnover and sieve warm-up.
constexpr int kWarmupSlots = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// A timed run serves at least this many slots, so p90 keeps >= 10
/// samples beyond it.
constexpr int kMinMeasuredSlots = 100;
/// Minimum time the serving thread stays on one core (see CoreRotation).
constexpr double kRotateMs = 250.0;
/// Traced runs alternate blocks of this many untraced (ServeSlot) and
/// traced slots, so the tracing overhead compares neighbouring slots.
constexpr int kTraceBlock = 4;
/// A second seed recorded with every result and kept out of tuning, for
/// validating later performance claims.
constexpr uint64_t kHeldOutSeed = 918273;
/// Algorithm 1's payment split is checked to this relative tolerance.
constexpr double kPaymentRelTol = 1e-9;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Everything the program receives, generated before any timing starts.
/// deltas[t - 1] and queries[t - 1] are slot t's inputs.
struct Inputs {
  ChurnScenarioSetup setup;
  std::vector<SensorDelta> deltas;
  std::vector<SlotQueryBatch> queries;
};

void GenerateInputs(const Workload& w, uint64_t seed, int slots,
                    Inputs* in) {
  in->setup =
      MakeChurnScenario(w.sensors, kChurnFraction, kCitySeed, w.mobility);
  in->setup.rng_after_generation = Rng(seed);  // forks 7 and 8: the traffic
  ChurnQueryConfig qcfg;
  qcfg.queries_per_slot = w.points_per_slot;
  qcfg.aggregates_per_slot = w.aggregates_per_slot;
  ChurnWorkload stream(&in->setup, qcfg);
  in->deltas.reserve(static_cast<size_t>(slots));
  in->queries.reserve(static_cast<size_t>(slots));
  for (int t = 1; t <= slots; ++t) {
    in->deltas.push_back(stream.NextDelta());
    in->queries.push_back(stream.NextQueries(t));
  }
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int parent;  // index of the parent span, -1 for a slot root
  int slot;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
};

/// Per-slot work counters recorded at the same boundaries as the spans.
struct SlotCounters {
  int64_t delta_changes = 0;
  int64_t slot_members = 0;
  int64_t valuation_calls = 0;
  int64_t selected_sensors = 0;
  int64_t arena_bytes = 0;
  std::vector<int64_t> aggregate_candidates;
};

class Tracer {
 public:
  int Begin(const char* name, int parent, int slot) {
    spans_.push_back({name, parent, slot, SteadyClock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end = SteadyClock::now(); }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::vector<SlotCounters>& counters() { return counters_; }
  const std::vector<SlotCounters>& counters() const { return counters_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<SlotCounters> counters_;
};

/// A child span of the current slot root; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int root, int slot)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, root, slot) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// The paper's per-slot invariants on a served slot: individual
/// rationality per query, Algorithm 1's payments summing to the selection
/// cost, non-negative utility, and unique in-context selections.
bool SlotChecksPass(const SelectionResult& sel,
                    const std::vector<MultiQuery*>& queries,
                    size_t slot_size) {
  double paid = 0.0;
  for (const MultiQuery* q : queries) {
    if (!(q->TotalPayment() <= q->CurrentValue())) return false;
    paid += q->TotalPayment();
  }
  const double scale = std::max(std::fabs(paid), std::fabs(sel.total_cost));
  if (!(std::fabs(paid - sel.total_cost) <= kPaymentRelTol * scale)) {
    return false;
  }
  if (!(sel.Utility() >= 0.0)) return false;
  std::vector<int> picked = sel.selected_sensors;
  std::sort(picked.begin(), picked.end());
  if (std::adjacent_find(picked.begin(), picked.end()) != picked.end()) {
    return false;
  }
  return picked.empty() ||
         (picked.front() >= 0 && static_cast<size_t>(picked.back()) < slot_size);
}

/// FNV-1a over the deterministic fields of the outcomes (the fields
/// SameOutcome compares): selections, values, costs, payments and
/// valuation calls.
class Digest {
 public:
  void Add(const SlotOutcome& o) {
    Mix(o.time);
    Mix(o.selection.selected_sensors.size());
    for (int s : o.selection.selected_sensors) Mix(s);
    Mix(o.selection.total_value);
    Mix(o.selection.total_cost);
    Mix(o.selection.valuation_calls);
    Mix(o.total_payment);
  }
  uint64_t value() const { return h_; }

 private:
  template <typename T>
  void Mix(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// Moves the calling thread to the next CPU of its original affinity mask
/// when Next() is called kRotateMs or more after the last move, so every
/// run samples all the cores it may use. On a shared host one core can run
/// the loop 20% slower than the others for minutes, and a single-threaded
/// run the scheduler leaves there is slow as a whole. Moving at most every
/// kRotateMs keeps the cache refill after a move a small share of the
/// time. Release() restores the original mask. Threads created while
/// the caller is pinned would inherit the pin, so engines (which start the
/// worker pool) are built only after Release().
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CoreRotation() { Release(); }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    const SteadyClock::time_point now = SteadyClock::now();
    if (pinned_ && MsBetween(moved_, now) < kRotateMs) return;
    moved_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  void Release() {
    if (pinned_) sched_setaffinity(0, sizeof(all_), &all_);
    pinned_ = false;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool pinned_ = false;
  SteadyClock::time_point moved_;
};

/// Serves one slot by issuing ServeSlot's calls itself, in ServeSlot's
/// statement order (trace/slot_server.cc; recording is off, so the trace
/// writer staging is skipped). With a tracer it records a `slot` root span
/// and one span per call; it always runs the slot checks, which need the
/// bound queries ServeSlot keeps to itself. Outcomes are bit-identical to
/// ServeSlot's (perfbench/selftest.py compares digests).
SlotOutcome IssueSlot(ServingEngine* engine, int time,
                      const SensorDelta& delta, const SlotQueryBatch& queries,
                      Tracer* tracer, bool* checks_pass) {
  SlotOutcome out;
  out.time = time;
  const int root = tracer != nullptr ? tracer->Begin("slot", -1, time) : -1;
  const SteadyClock::time_point turnover_start = SteadyClock::now();
  {
    ScopedSpan span(tracer, "engine.apply_delta", root, time);
    engine->ApplyDelta(delta);
  }
  const SlotContext* slot = nullptr;
  {
    ScopedSpan span(tracer, "engine.begin_slot", root, time);
    slot = &engine->BeginSlot(time);
  }
  out.turnover_ms = MsBetween(turnover_start, SteadyClock::now());
  engine->NoteTurnoverMs(out.turnover_ms);

  std::vector<std::unique_ptr<AggregateQuery>> aggregates;
  std::vector<std::unique_ptr<PointMultiQuery>> points;
  std::vector<MultiQuery*> all;
  aggregates.reserve(queries.aggregates.size());
  points.reserve(queries.points.size());
  all.reserve(queries.aggregates.size() + queries.points.size());
  for (const AggregateQuery::Params& params : queries.aggregates) {
    ScopedSpan span(tracer, "core.bind_aggregate", root, time);
    aggregates.push_back(std::make_unique<AggregateQuery>(params, *slot));
    all.push_back(aggregates.back().get());
  }
  {
    ScopedSpan span(tracer, "core.bind_points", root, time);
    for (const PointQuery& spec : queries.points) {
      points.push_back(std::make_unique<PointMultiQuery>(spec, slot));
      all.push_back(points.back().get());
    }
  }
  if (!all.empty()) {
    ScopedSpan span(tracer, "engine.select", root, time);
    const SteadyClock::time_point start = SteadyClock::now();
    out.selection = engine->Select(all, *slot, delta);
    out.selection_ms = MsBetween(start, SteadyClock::now());
  }
  for (const MultiQuery* q : all) out.total_payment += q->TotalPayment();
  const int64_t arena_bytes =
      slot->arena != nullptr
          ? static_cast<int64_t>(slot->arena->bytes_allocated())
          : 0;
  if (engine->config().record_readings) {
    ScopedSpan span(tracer, "engine.record_readings", root, time);
    engine->RecordSlotReadings(out.selection.selected_sensors, time);
  }
  *checks_pass = SlotChecksPass(out.selection, all, slot->sensors.size());
  if (tracer != nullptr) {
    SlotCounters c;
    c.delta_changes = static_cast<int64_t>(
        delta.arrivals.size() + delta.departures.size() + delta.moves.size() +
        delta.price_changes.size());
    c.slot_members = static_cast<int64_t>(slot->sensors.size());
    c.valuation_calls = out.selection.valuation_calls;
    c.selected_sensors =
        static_cast<int64_t>(out.selection.selected_sensors.size());
    c.arena_bytes = arena_bytes;
    for (const auto& q : aggregates) {
      const std::vector<int>* cand = q->CandidateSensors();
      c.aggregate_candidates.push_back(
          cand != nullptr ? static_cast<int64_t>(cand->size()) : 0);
    }
    tracer->counters().push_back(std::move(c));
  }
  {
    // ServeSlot releases its bound queries on return; that is slot time.
    ScopedSpan span(tracer, "core.unbind", root, time);
    all.clear();
    points.clear();
    aggregates.clear();
  }
  if (tracer != nullptr) tracer->End(root);
  return out;
}

ServingConfig MakeConfig(const Workload& w, const Inputs& in, int threads) {
  return ServingConfig()
      .WithRegion(in.setup.field)
      .WithDmax(in.setup.dmax)
      .WithScheduler(w.scheduler)
      .WithThreads(threads);
}

/// One set-up: engine construction, the slot-0 cold build and the warm-up
/// prefix, all through ServeSlot.
struct SetUpResult {
  std::unique_ptr<ServingEngine> engine;
  std::vector<SlotOutcome> outcomes;
  double seconds = 0.0;
};

SetUpResult SetUp(const Inputs& in, const ServingConfig& cfg,
                  CoreRotation* cores) {
  SetUpResult r;
  cores->Release();
  const SteadyClock::time_point start = SteadyClock::now();
  r.engine = MakeServingEngine(in.setup.scenario.sensors, cfg);
  SlotServer server(r.engine.get());
  cores->Next();
  r.outcomes.push_back(server.ServeSlot(0, SensorDelta{}, SlotQueryBatch{}));
  for (int t = 1; t <= kWarmupSlots; ++t) {
    cores->Next();
    r.outcomes.push_back(server.ServeSlot(t, in.deltas[static_cast<size_t>(t - 1)],
                                          in.queries[static_cast<size_t>(t - 1)]));
  }
  r.seconds = MsBetween(start, SteadyClock::now()) / 1000.0;
  return r;
}

/// Re-serves slots 0..recorded.size()-1 on a fresh engine through
/// IssueSlot, untimed, and counts the slots whose checks fail or whose
/// outcome differs from the recorded one.
int64_t VerifyOutcomes(const Inputs& in, const ServingConfig& cfg,
                       const std::vector<SlotOutcome>& recorded) {
  std::unique_ptr<ServingEngine> engine =
      MakeServingEngine(in.setup.scenario.sensors, cfg);
  int64_t failed = 0;
  for (size_t t = 0; t < recorded.size(); ++t) {
    bool pass = false;
    const int time = static_cast<int>(t);
    const SlotOutcome out =
        t == 0 ? IssueSlot(engine.get(), 0, SensorDelta{}, SlotQueryBatch{},
                           nullptr, &pass)
               : IssueSlot(engine.get(), time, in.deltas[t - 1],
                           in.queries[t - 1], nullptr, &pass);
    if (!pass || !SameOutcome(out, recorded[t])) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or definition, human output only
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

/// Per-layer metrics from the traced slots' spans and counters.
std::vector<Metric> LayerMetrics(const Tracer& tracer, double traced_mean_ms,
                                 double untraced_mean_ms, double* coverage) {
  struct SlotSpans {
    double root = 0.0;
    std::map<std::string, double> child;  // summed by span name
  };
  std::vector<SlotSpans> slots;
  std::vector<double> aggregate_bind_ms;
  for (const SpanRecord& s : tracer.spans()) {
    const double ms = MsBetween(s.start, s.end);
    if (s.parent < 0) {
      slots.emplace_back();
      slots.back().root = ms;
    } else {
      slots.back().child[s.name] += ms;
      if (std::strcmp(s.name, "core.bind_aggregate") == 0) {
        aggregate_bind_ms.push_back(ms);
      }
    }
  }
  std::vector<double> apply, begin, turnover_share, bind_point, bind_share,
      select, select_share, record, self;
  double root_total = 0.0;
  double child_total = 0.0;
  for (SlotSpans& s : slots) {
    double children = 0.0;
    for (const auto& [name, ms] : s.child) children += ms;
    const double turnover =
        s.child["engine.apply_delta"] + s.child["engine.begin_slot"];
    const double bind =
        s.child["core.bind_aggregate"] + s.child["core.bind_points"];
    apply.push_back(s.child["engine.apply_delta"]);
    begin.push_back(s.child["engine.begin_slot"]);
    turnover_share.push_back(turnover / s.root);
    bind_point.push_back(s.child["core.bind_points"]);
    bind_share.push_back(bind / s.root);
    select.push_back(s.child["engine.select"]);
    select_share.push_back(s.child["engine.select"] / s.root);
    record.push_back(s.child["engine.record_readings"]);
    self.push_back(s.root - children);
    root_total += s.root;
    child_total += children;
  }
  std::vector<double> changes, members, candidates, calls, selected,
      per_kcall, arena;
  for (const SlotCounters& c : tracer.counters()) {
    changes.push_back(static_cast<double>(c.delta_changes));
    members.push_back(static_cast<double>(c.slot_members));
    for (int64_t n : c.aggregate_candidates) {
      candidates.push_back(static_cast<double>(n));
    }
    calls.push_back(static_cast<double>(c.valuation_calls));
    selected.push_back(static_cast<double>(c.selected_sensors));
    per_kcall.push_back(c.valuation_calls > 0
                            ? 1000.0 * static_cast<double>(c.selected_sensors) /
                                  static_cast<double>(c.valuation_calls)
                            : 0.0);
    arena.push_back(static_cast<double>(c.arena_bytes));
  }
  *coverage = root_total > 0.0 ? child_total / root_total : 0.0;
  const std::string n_slots = "median of " + std::to_string(slots.size()) +
                              " traced slots";
  const std::string n_aggs =
      "median of " + std::to_string(aggregate_bind_ms.size()) + " queries";
  return {
      {"engine.apply_delta_ms", Median(apply), "ms", n_slots},
      {"engine.begin_slot_ms", Median(begin), "ms", n_slots},
      {"engine.turnover_share", Median(turnover_share), "fraction", n_slots},
      {"engine.delta_changes", Median(changes), "count", n_slots},
      {"engine.slot_members", Median(members), "count", n_slots},
      {"core.bind_aggregate_ms", Median(aggregate_bind_ms), "ms", n_aggs},
      {"core.bind_point_ms", Median(bind_point), "ms", n_slots},
      {"core.bind_share", Median(bind_share), "fraction", n_slots},
      {"core.aggregate_candidates", Median(candidates), "count", n_aggs},
      {"engine.select_ms", Median(select), "ms", n_slots},
      {"engine.select_share", Median(select_share), "fraction", n_slots},
      {"core.valuation_calls", Median(calls), "count", n_slots},
      {"core.selected_sensors", Median(selected), "count", n_slots},
      {"core.selected_per_kcall", Median(per_kcall), "1/kcall", n_slots},
      {"core.arena_bytes", Median(arena), "bytes", n_slots},
      {"engine.record_readings_ms", Median(record), "ms", n_slots},
      {"bench.slot_self_ms", Median(self), "ms", n_slots},
      {"bench.span_coverage", *coverage, "fraction",
       "sum of child spans / sum of slot spans"},
      {"bench.tracing_overhead",
       untraced_mean_ms > 0.0 ? traced_mean_ms / untraced_mean_ms - 1.0 : 0.0,
       "fraction", "traced vs untraced mean slot time, interleaved blocks"},
  };
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n", path.c_str());
    return;
  }
  if (tracer.spans().empty()) return;
  const SteadyClock::time_point t0 = tracer.spans().front().start;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%d,\"slot\":%d,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, s.parent, s.slot, s.name, MsBetween(t0, s.start) * 1000.0,
                  MsBetween(t0, s.end) * 1000.0);
    out << line;
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  int slots = 0;    // > 0: serve exactly this many measured slots
  int threads = 0;  // > 0: override the workload's thread count
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      continue;
    }
    if (key == "--out-dir") {
      a->out_dir = val;
      continue;
    }
    if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--slots") {
      a->slots = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--threads") {
      a->threads = static_cast<int>(std::strtol(val, &end, 10));
    } else {
      return false;
    }
    if (end == val || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() &&
         (a->trace == 0 || a->trace == 1) && (a->seconds > 0.0 || a->slots > 0) &&
         a->slots >= 0 && a->slots <= 100000 && a->threads >= 0 &&
         a->threads <= 256;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int threads = args.threads > 0 ? args.threads : w->threads;
  const int measured =
      args.slots > 0
          ? args.slots
          : std::max(kMinMeasuredSlots,
                     static_cast<int>(std::ceil(args.seconds *
                                                w->nominal_slots_per_sec)));

  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE "\", \"seed\": " + std::to_string(args.seed) +
      ", \"held_out_seed\": " + std::to_string(kHeldOutSeed) + "}";
  std::printf("host %s\n", host.c_str());
  std::printf(
      "workload %s: %d sensors, 1%% churn %s mobility, %d point + %d "
      "aggregate queries/slot, %s, threads=%d, closed loop, 1 caller\n",
      w->name, w->sensors, w->mobility ? "with" : "without",
      w->points_per_slot, w->aggregates_per_slot,
      w->scheduler == GreedyEngine::kSieve ? "sieve" : "lazy", threads);
  std::fflush(stdout);

  Inputs in;
  GenerateInputs(*w, args.seed, kWarmupSlots + measured, &in);
  const ServingConfig cfg = MakeConfig(*w, in, threads);

  // Set-up, repeated; the last engine serves the measured slots.
  std::vector<double> setup_seconds;
  CoreRotation cores;
  SetUpResult served;
  std::vector<std::vector<SlotOutcome>> earlier_setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served.engine.reset();  // never hold two engines at once
    if (r > 0) earlier_setups.push_back(std::move(served.outcomes));
    served = SetUp(in, cfg, &cores);
    setup_seconds.push_back(served.seconds);
  }
  std::vector<SlotOutcome>& outcomes = served.outcomes;

  // Measured slots. Untraced: every slot through ServeSlot. Traced:
  // alternating blocks of ServeSlot slots and traced IssueSlot slots.
  SlotServer server(served.engine.get());
  Tracer tracer;
  std::vector<double> slot_ms;      // ServeSlot slots
  std::vector<double> traced_ms;    // IssueSlot slots (traced runs)
  const SteadyClock::time_point loop_start = SteadyClock::now();
  SteadyClock::time_point loop_end = loop_start;
  for (int m = 0; m < measured; ++m) {
    const int t = kWarmupSlots + 1 + m;
    const SensorDelta& delta = in.deltas[static_cast<size_t>(t - 1)];
    const SlotQueryBatch& queries = in.queries[static_cast<size_t>(t - 1)];
    const bool traced = args.trace == 1 && (m / kTraceBlock) % 2 == 1;
    cores.Next();
    const SteadyClock::time_point start = SteadyClock::now();
    if (traced) {
      bool pass = false;  // re-checked below with every other slot
      outcomes.push_back(
          IssueSlot(served.engine.get(), t, delta, queries, &tracer, &pass));
    } else {
      outcomes.push_back(server.ServeSlot(t, delta, queries));
    }
    loop_end = SteadyClock::now();
    (traced ? traced_ms : slot_ms).push_back(MsBetween(start, loop_end));
  }
  const double wall_s = MsBetween(loop_start, loop_end) / 1000.0;
  cores.Release();
  served.engine.reset();

  // Correctness: every slot of the measured engine re-served and checked,
  // and every earlier set-up identical to the last.
  int64_t attempted = static_cast<int64_t>(outcomes.size()) - 1;  // no slot 0
  int64_t failed = VerifyOutcomes(in, cfg, outcomes);
  for (const std::vector<SlotOutcome>& prev : earlier_setups) {
    attempted += static_cast<int64_t>(prev.size()) - 1;
    for (size_t t = 1; t < prev.size(); ++t) {
      if (!SameOutcome(prev[t], outcomes[t])) ++failed;
    }
  }
  Digest digest;
  for (const SlotOutcome& o : outcomes) digest.Add(o);
  double utility = 0.0;
  for (size_t t = kWarmupSlots + 1; t < outcomes.size(); ++t) {
    utility += outcomes[t].selection.Utility();
  }
  utility /= measured;
  const bool correct = failed == 0;

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest.value()));
  std::printf("digest %s over slots 0..%zu (%s)\n", digest_hex,
              outcomes.size() - 1, correct ? "checks pass" : "CHECKS FAILED");
  std::printf("failed_slot_fraction %.6g (%lld of %lld served slots)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));

  const std::string n_slots = "n=" + std::to_string(slot_ms.size()) + " slots";
  const double untraced_mean_ms = Sum(slot_ms) / std::max<size_t>(1, slot_ms.size());
  std::vector<Metric> e2e = {
      {"slots_per_sec",
       args.trace == 0 ? static_cast<double>(measured) / wall_s
                       : 1000.0 / untraced_mean_ms,
       "1/s", "over " + std::to_string(measured) + " measured slots"},
      {"slot_ms_p50", Percentile(slot_ms, 0.50), "ms", n_slots},
      {"slot_ms_p90", Percentile(slot_ms, 0.90), "ms", n_slots},
      {"utility_per_slot", utility, "utility",
       "mean over " + std::to_string(measured) + " measured slots"},
      {"setup_s", Median(setup_seconds), "s",
       "median of " + std::to_string(kSetupRepeats) + " set-ups of " +
           std::to_string(kWarmupSlots) + " warm-up slots"},
      {"peak_rss_mb", PeakRssMb(), "MB", "ru_maxrss"},
  };
  std::vector<Metric> layers;
  if (args.trace == 1) {
    double coverage = 0.0;
    const double traced_mean_ms =
        Sum(traced_ms) / std::max<size_t>(1, traced_ms.size());
    layers = LayerMetrics(tracer, traced_mean_ms, untraced_mean_ms, &coverage);
    PrintTable("end-to-end (untraced slots of this traced run):", e2e);
    PrintTable("per-layer (traced slots):", layers);
    std::printf("span coverage %.4f, tracing overhead %+.4f\n", coverage,
                layers.back().value);
  } else {
    PrintTable("end-to-end:", e2e);
  }

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + w->name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    if (args.trace == 1) WriteSpans(stem + "-spans.jsonl", tracer);
    std::ofstream result(stem + ".json");
    result << "{\"workload\": \"" << w->name << "\", \"host\": " << host
           << ", \"threads\": " << threads << ", \"digest\": \"" << digest_hex
           << "\", \"end_to_end\": " << MetricsJson(e2e)
           << ", \"per_layer\": " << MetricsJson(layers) << "}\n";
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed),
      MetricsJson(args.trace == 1 ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  psens::Args args;
  if (!psens::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--slots N] [--threads T] [--out-dir DIR]\n");
    return 2;
  }
  return psens::Run(args);
}
