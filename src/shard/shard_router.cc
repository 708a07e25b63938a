#include "shard/shard_router.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/stochastic_greedy.h"
#include "engine/membership_merge.h"
#include "index/spatial_index.h"
#include "trace/monitor.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(const SteadyClock::time_point& start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

/// Fan-out view over the shards' id-keyed dynamic indexes. Ownership
/// partitions space and every shard index is exact for its slice, so the
/// union of per-shard results is the global exact result set; translated
/// slot positions are re-sorted ascending to keep the SpatialIndex
/// contract (per-shard lists are ascending, but interleaved across
/// shards). Query scratch is mutable per the BufferedKdTreeIndex
/// precedent: probes run only on the serving thread.
class ShardRouter::ShardedIndexView : public SpatialIndex {
 public:
  /// Pinned to one router buffer: translations go through that buffer's
  /// slot_pos map, so a context handed out at a pipelined flip keeps
  /// resolving through the right membership. raw_dynamic_index() is each
  /// shard's *front* index — immutable between flips (staged repair
  /// mutates only back indexes), and shard flips are synchronized with
  /// the router's, so the view stays consistent while a selection holds
  /// it.
  ShardedIndexView(const ShardRouter* router, const RouterBuffer* buffer)
      : router_(router), buffer_(buffer) {}

  int size() const override {
    int total = 0;
    for (const auto& shard : router_->shards_) {
      total += shard->raw_dynamic_index()->size();
    }
    return total;
  }

  void RangeQuery(const Point& center, double radius,
                  std::vector<int>* out) const override {
    out->clear();
    for (const auto& shard : router_->shards_) {
      shard->raw_dynamic_index()->RangeQuery(center, radius, &scratch_);
      for (int id : scratch_) out->push_back(buffer_->slot_pos[id]);
    }
    std::sort(out->begin(), out->end());
  }

  void RectQuery(const Rect& rect, std::vector<int>* out) const override {
    out->clear();
    for (const auto& shard : router_->shards_) {
      shard->raw_dynamic_index()->RectQuery(rect, &scratch_);
      for (int id : scratch_) out->push_back(buffer_->slot_pos[id]);
    }
    std::sort(out->begin(), out->end());
  }

  int Nearest(const Point& p) const override {
    // Per-shard winners tie-break by lowest id within the shard; across
    // shards, (distance, id) lexicographic min reproduces the global
    // index's lowest-id-on-tie rule. The distance reads the buffer's
    // slot entry, not the registry: the registry may already hold the
    // *staged* slot's position (or be mid-mutation on a graph worker),
    // while the slot entry is exactly the location this buffer's index
    // answered with.
    int best_id = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (const auto& shard : router_->shards_) {
      const int id = shard->raw_dynamic_index()->Nearest(p);
      if (id < 0) continue;
      const int pos = buffer_->slot_pos[id];
      const double d =
          Distance(p, buffer_->ctx.sensors[static_cast<size_t>(pos)].location);
      if (d < best_d || (d == best_d && id < best_id)) {
        best_d = d;
        best_id = id;
      }
    }
    return best_id < 0 ? -1 : buffer_->slot_pos[best_id];
  }

  const char* Name() const override { return "sharded"; }

 private:
  const ShardRouter* router_;
  const RouterBuffer* buffer_;
  mutable std::vector<int> scratch_;
};

ShardRouter::ShardRouter(std::vector<Sensor> sensors,
                         const ServingConfig& config)
    : config_(config) {
  assert(config_.shards >= 2 && "use AcquisitionEngine for shards <= 1");
  assert(config_.incremental && "sharded serving requires incremental mode");
  const int n = static_cast<int>(sensors.size());
  for (int i = 0; i < n; ++i) {
    assert(sensors[i].id() == i && "registry must be id-dense");
    (void)i;
  }
  map_ = ShardMap::Layout(config_.working_region, config_.shards,
                          static_cast<size_t>(n));
  registry_ = std::make_shared<std::vector<Sensor>>(std::move(sensors));
  pipelined_ = config_.pipeline == 2;
  const int nbuf = pipelined_ ? 2 : 1;
  for (int k = 0; k < nbuf; ++k) {
    buf_[k].ctx.dmax = config_.dmax;
    buf_[k].ctx.index_policy = config_.index_policy;
    buf_[k].ctx.index_auto_threshold = config_.index_auto_threshold;
    buf_[k].slot_pos.assign(static_cast<size_t>(n), -1);
  }
  if (config_.threads != 1) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
  if (!config_.trace_path.empty()) {
    // Same header a single engine writes: the trace carries no shard
    // count, so it replays under any.
    TraceHeader header;
    // Adaptive runs record their per-slot engine choices, which needs the
    // version-2 record layout; plain runs keep writing version-1 bytes.
    header.version =
        config_.slo_ms > 0.0 ? kTraceVersionAdaptive : kTraceVersion;
    header.registry_count = static_cast<uint32_t>(n);
    header.registry_checksum = RegistryChecksum(*registry_);
    header.dmax = config_.dmax;
    header.working_region = config_.working_region;
    header.approx_seed = config_.approx.seed;
    header.epsilon = config_.approx.epsilon;
    header.min_sample = config_.approx.min_sample;
    header.sample_hint = config_.approx.sample_hint;
    trace_ = TraceWriter::Open(config_.trace_path, header);
  }
  // Shard engines: same serving knobs (including the pipeline depth, so
  // pipelined shards allocate their double buffers), but no recording
  // (the router records pre-split), no nested pools, and a slice of the
  // shard map. Sharded slices never start their own executor — the
  // router's graph drives their staged repair.
  ServingConfig shard_cfg = config_;
  shard_cfg.trace_path.clear();
  shard_cfg.threads = 1;
  shard_cfg.shards = 1;
  shards_.reserve(static_cast<size_t>(map_.shards));
  for (int s = 0; s < map_.shards; ++s) {
    shards_.push_back(std::make_unique<AcquisitionEngine>(
        registry_, shard_cfg, ShardSlice{map_, s}));
  }
  shard_monitors_.assign(static_cast<size_t>(map_.shards), nullptr);
  shard_turnover_ms_.assign(static_cast<size_t>(map_.shards), 0.0);
  reading_batches_.resize(static_cast<size_t>(map_.shards));
  if (pipelined_) {
    reading_pair_batches_.resize(static_cast<size_t>(map_.shards));
    // Enough workers for the per-shard repair fan-out plus the reconcile
    // tail, bounded by the configured/hardware parallelism; threads == 1
    // still gets one worker (the overlap with the serving thread's
    // selection is the point, not intra-graph parallelism).
    const int workers =
        config_.threads == 1
            ? 1
            : std::min(map_.shards + 1,
                       ThreadPool::ResolveParallelism(config_.threads));
    graph_ = std::make_unique<TaskGraphExecutor>(workers);
  }
}

ShardRouter::~ShardRouter() = default;

void ShardRouter::PinNextSlotSeed(uint64_t slot_seed) {
  pinned_slot_seed_ = slot_seed;
  has_pinned_slot_seed_ = true;
}

bool ShardRouter::FinishTrace() {
  return trace_ != nullptr && trace_->Finish();
}

void ShardRouter::NotifyOwners(int id, const Point& pre, const Point& post,
                               bool cost_dirty) {
  const int a = map_.ShardOf(pre);
  shards_[static_cast<size_t>(a)]->NoteChange(id, cost_dirty);
  const int b = map_.ShardOf(post);
  if (b != a) shards_[static_cast<size_t>(b)]->NoteChange(id, cost_dirty);
}

void ShardRouter::ApplyTrace(const Trace& trace, int slot) {
  std::vector<Sensor>& sensors = *registry_;
  const int n = static_cast<int>(sensors.size());
  const int tn = trace.NumSensors();
  // Mirrors AcquisitionEngine::ApplyTrace, including journaling the
  // mobility slot as its equivalent SensorDelta when recording.
  SensorDelta recorded;
  for (int id = 0; id < n; ++id) {
    Sensor& s = sensors[id];
    const Point p = id < tn ? trace.Position(slot, id) : Point{0, 0};
    const bool present = id < tn && trace.Present(slot, id);
    if (s.present() == present && s.position() == p) continue;
    if (trace_ != nullptr) {
      if (!present) {
        recorded.departures.push_back(id);
      } else if (!s.present()) {
        recorded.arrivals.push_back(SensorDelta::Placement{id, p});
      } else {
        recorded.moves.push_back(SensorDelta::Placement{id, p});
      }
    }
    const Point pre = s.position();
    s.SetPosition(p, present);
    NotifyOwners(id, pre, p, /*cost_dirty=*/false);
  }
  if (trace_ != nullptr && !recorded.empty()) trace_->StageDelta(recorded);
}

void ShardRouter::ApplyDelta(const SensorDelta& delta) {
  if (trace_ != nullptr) trace_->StageDelta(delta);
  ApplyDeltaToRegistry(delta);
}

void ShardRouter::ApplyDeltaToRegistry(const SensorDelta& delta) {
  // Single-writer mutation in the exact field order the single engine
  // uses (arrivals, departures, moves, price changes); each mutation
  // notifies the owner(s) using the live pre-/post-mutation positions,
  // which keeps event chains for one sensor routed correctly.
  std::vector<Sensor>& sensors = *registry_;
  for (const SensorDelta::Placement& a : delta.arrivals) {
    Sensor& s = sensors[a.sensor_id];
    const Point pre = s.position();
    s.SetPosition(a.position, true);
    NotifyOwners(a.sensor_id, pre, a.position, /*cost_dirty=*/false);
  }
  for (int id : delta.departures) {
    Sensor& s = sensors[id];
    s.SetPosition(s.position(), false);
    NotifyOwners(id, s.position(), s.position(), /*cost_dirty=*/false);
  }
  for (const SensorDelta::Placement& m : delta.moves) {
    Sensor& s = sensors[m.sensor_id];
    const Point pre = s.position();
    s.SetPosition(m.position, true);
    NotifyOwners(m.sensor_id, pre, m.position, /*cost_dirty=*/false);
  }
  for (const SensorDelta::PriceChange& pc : delta.price_changes) {
    Sensor& s = sensors[pc.sensor_id];
    s.SetBasePrice(pc.base_price);
    NotifyOwners(pc.sensor_id, s.position(), s.position(),
                 /*cost_dirty=*/true);
  }
}

const SlotContext& ShardRouter::BeginSlot(int time) {
  RouterBuffer& b = buf_[front_];
  arena_.Reset();
  b.ctx.time = time;
  b.ctx.arena = &arena_;
  b.ctx.pool = pool_.get();
  b.ctx.approx = config_.approx;
  b.ctx.approx.slot_seed = ApproxSlotSeed(config_.approx, time);
  if (has_pinned_slot_seed_) {
    b.ctx.approx.slot_seed = pinned_slot_seed_;
    has_pinned_slot_seed_ = false;
  }
  if (trace_ != nullptr) trace_->BeginSlot(time, b.ctx.approx.slot_seed);
  // Fan the per-shard turnover out. Safe concurrently: each shard engine
  // writes only its own state and reads the shared registry through
  // const accessors (Sensor::Cost/PrivacyLoss cache nothing), and the
  // router mutates the registry only between slots.
  const int ns = map_.shards;
  const auto turnover = [&](int s) {
    const SteadyClock::time_point start = SteadyClock::now();
    shards_[static_cast<size_t>(s)]->BeginSlot(time);
    shard_turnover_ms_[static_cast<size_t>(s)] = MsSince(start);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(ns, turnover);
  } else {
    for (int s = 0; s < ns; ++s) turnover(s);
  }
  for (int s = 0; s < ns; ++s) {
    MonitorSet* monitors = shard_monitors_[static_cast<size_t>(s)];
    if (monitors == nullptr) continue;
    const double ms = shard_turnover_ms_[static_cast<size_t>(s)];
    monitors->NotifyTurnover(time, ms);
    monitors->NotifySlotEnd(time, ms);
  }
  Reconcile();
  AttachIndex(b);
  return b.ctx;
}

void ShardRouter::Reconcile() {
  RouterBuffer& b = buf_[front_];
  // 1. Payload patches for continuing members. Journal `patched` entries
  // are continuing members of their shard, hence continuing global
  // members: their merged-context positions are valid before the merge.
  const auto patch_from = [&](int shard, int id) {
    const int pos = b.slot_pos[id];
    assert(pos >= 0 && "patched sensors are continuing global members");
    const SlotSensor* e = shards_[static_cast<size_t>(shard)]->MemberEntry(id);
    SlotSensor& g = b.ctx.sensors[static_cast<size_t>(pos)];
    g.location = e->location;
    g.cost = e->cost;
    g.inaccuracy = e->inaccuracy;
    g.trust = e->trust;
    // Keep the merged context's SoA columns in lockstep with the patch.
    b.ctx.slabs.SetRow(static_cast<size_t>(pos), g);
  };
  journal_ins_.clear();
  journal_rem_.clear();
  for (int s = 0; s < map_.shards; ++s) {
    const AcquisitionEngine::SlotRepairs& r =
        shards_[static_cast<size_t>(s)]->last_repairs();
    for (int id : r.patched) patch_from(s, id);
    for (int id : r.inserted) journal_ins_.emplace_back(id, s);
    for (int id : r.removed) journal_rem_.emplace_back(id, s);
  }
  if (journal_ins_.empty() && journal_rem_.empty()) return;
  // 2. Net cross-shard migrations into payload patches.
  journal_patch_.clear();
  NetMigrations();
  for (const std::pair<int, int>& p : journal_patch_) {
    patch_from(p.second, p.first);
  }
  if (net_inserts_.empty() && net_removes_.empty()) return;
  // 3. One ascending-id membership merge — the same implementation the
  // single engine's RebuildMembership runs. Fresh inserts copy their
  // payload from the owning shard's context entry; `fill` is invoked in
  // ascending id order, so a single cursor tracks the owner list.
  size_t cursor = 0;
  MergeSortedMembership(
      &b.ctx.sensors, &merge_scratch_, &b.slot_pos, net_inserts_,
      net_removes_,
      [&](SlotSensor& ss, int id) {
        while (net_inserts_[cursor] != id) ++cursor;
        const SlotSensor* e =
            shards_[static_cast<size_t>(net_insert_shard_[cursor])]
                ->MemberEntry(id);
        ss.location = e->location;
        ss.cost = e->cost;
        ss.inaccuracy = e->inaccuracy;
        ss.trust = e->trust;
      },
      &b.ctx.slabs, &slab_scratch_, /*pool=*/nullptr, [] {});
}

void ShardRouter::NetMigrations() {
  std::sort(journal_ins_.begin(), journal_ins_.end());
  std::sort(journal_rem_.begin(), journal_rem_.end());
  net_inserts_.clear();
  net_insert_shard_.clear();
  net_removes_.clear();
  size_t ii = 0;
  size_t ri = 0;
  while (ii < journal_ins_.size() || ri < journal_rem_.size()) {
    if (ri >= journal_rem_.size() ||
        (ii < journal_ins_.size() &&
         journal_ins_[ii].first < journal_rem_[ri].first)) {
      net_inserts_.push_back(journal_ins_[ii].first);
      net_insert_shard_.push_back(journal_ins_[ii].second);
      ++ii;
    } else if (ii >= journal_ins_.size() ||
               journal_rem_[ri].first < journal_ins_[ii].first) {
      net_removes_.push_back(journal_rem_[ri].first);
      ++ri;
    } else {
      journal_patch_.push_back(journal_ins_[ii]);
      ++ii;
      ++ri;
    }
  }
}

void ShardRouter::AttachIndex(RouterBuffer& b) {
  // Mirrors the single engine's attach condition over the *global*
  // member count, so the indexed/unindexed decision — and therefore the
  // query evaluation order — matches the unsharded run exactly.
  const int n = static_cast<int>(b.ctx.sensors.size());
  const bool want =
      config_.index_policy != SlotIndexPolicy::kNone && n > 0 &&
      !(config_.index_policy == SlotIndexPolicy::kAuto &&
        n < config_.index_auto_threshold);
  if (!want) {
    b.ctx.index.reset();
    return;
  }
  if (b.view == nullptr) {
    b.view = std::make_shared<ShardedIndexView>(this, &b);
  }
  b.ctx.index = b.view;
}

// --- Pipelined slot lifecycle ----------------------------------------------

void ShardRouter::StageNextSlot(int time, const SensorDelta& delta) {
  if (!pipelined_) {
    // Sequential degradation: exactly the ApplyDelta + (deferred)
    // BeginSlot path, so drivers can call Stage/Activate unconditionally.
    ApplyDelta(delta);
    staged_time_ = time;
    return;
  }
  // Trace staging stays on the serving thread, preserving the recorded
  // stream order (slot t's queries were staged before this call).
  if (trace_ != nullptr) trace_->StageDelta(delta);
  staged_time_ = time;
  staged_delta_ = delta;
  // Delta application first (single writer), then every shard's staged
  // repair concurrently, then one reconcile tail folding the staged
  // journals into the merged back context.
  const TaskGraphExecutor::TaskId d =
      graph_->AddTask([this] { ApplyDeltaToRegistry(staged_delta_); });
  std::vector<TaskGraphExecutor::TaskId> repairs;
  repairs.reserve(static_cast<size_t>(map_.shards));
  for (int s = 0; s < map_.shards; ++s) {
    repairs.push_back(graph_->AddTask(
        [this, s] {
          const SteadyClock::time_point start = SteadyClock::now();
          shards_[static_cast<size_t>(s)]->EarlyRepairStaged(staged_time_);
          shard_turnover_ms_[static_cast<size_t>(s)] = MsSince(start);
        },
        {d}));
  }
  graph_->AddTask([this] { StagedReconcile(); }, repairs);
  graph_->Launch();
}

void ShardRouter::StagedReconcile() {
  RouterBuffer& f = buf_[front_];
  RouterBuffer& b = buf_[front_ ^ 1];
  b.ctx.time = staged_time_;
  journal_ins_.clear();
  journal_rem_.clear();
  journal_patch_.clear();
  for (int s = 0; s < map_.shards; ++s) {
    const AcquisitionEngine::SlotRepairs& r =
        shards_[static_cast<size_t>(s)]->last_repairs();
    for (int id : r.patched) journal_patch_.emplace_back(id, s);
    for (int id : r.inserted) journal_ins_.emplace_back(id, s);
    for (int id : r.removed) journal_rem_.emplace_back(id, s);
  }
  NetMigrations();
  // Cross-buffer membership merge: always runs (zero events degenerate
  // to a straight copy) — the back buffer's member array and slot_pos
  // map are two slots stale, so unlike Reconcile there is no
  // nothing-changed early-out.
  size_t cursor = 0;
  MergeSortedMembershipInto(
      f.ctx.sensors, f.ctx.slabs, f.slot_pos, &b.ctx.sensors, &b.ctx.slabs,
      &b.slot_pos, net_inserts_, net_removes_,
      [&](SlotSensor& ss, int id) {
        while (net_inserts_[cursor] != id) ++cursor;
        const SlotSensor* e =
            shards_[static_cast<size_t>(net_insert_shard_[cursor])]
                ->StagedMemberEntry(id);
        ss.location = e->location;
        ss.cost = e->cost;
        ss.inaccuracy = e->inaccuracy;
        ss.trust = e->trust;
      });
  // Payload patches for continuing members, deferred to post-merge back
  // positions (patched ids are disjoint, so application order between
  // shard journals and netted migrations is immaterial).
  for (const std::pair<int, int>& p : journal_patch_) {
    const int pos = b.slot_pos[p.first];
    assert(pos >= 0 && "patched sensors are continuing global members");
    const SlotSensor* e =
        shards_[static_cast<size_t>(p.second)]->StagedMemberEntry(p.first);
    SlotSensor& g = b.ctx.sensors[static_cast<size_t>(pos)];
    g.location = e->location;
    g.cost = e->cost;
    g.inaccuracy = e->inaccuracy;
    g.trust = e->trust;
    b.ctx.slabs.SetRow(static_cast<size_t>(pos), g);
  }
  AttachIndex(b);
}

const SlotContext& ShardRouter::ActivateStagedSlot() {
  if (!pipelined_) return BeginSlot(staged_time_);
  graph_->Join();  // commit barrier; rethrows staged-task errors
  // Serial monitor dispatch with the staged repair timings (monitors are
  // not thread-safe; the graph tasks only record durations).
  for (int s = 0; s < map_.shards; ++s) {
    MonitorSet* monitors = shard_monitors_[static_cast<size_t>(s)];
    if (monitors == nullptr) continue;
    const double ms = shard_turnover_ms_[static_cast<size_t>(s)];
    monitors->NotifyTurnover(staged_time_, ms);
    monitors->NotifySlotEnd(staged_time_, ms);
  }
  RouterBuffer& b = buf_[front_ ^ 1];
  if (!pending_readings_.empty()) {
    // Deferred readings feedback, grouped by the *current* (post-delta)
    // owner so the charging shard is the one whose staged membership
    // carries the sensor — per-sensor state is independent, so the
    // regrouping is order-safe and outcome-neutral.
    for (std::vector<std::pair<int, int>>& batch : reading_pair_batches_) {
      batch.clear();
    }
    const std::vector<Sensor>& sensors = *registry_;
    for (const std::pair<int, int>& r : pending_readings_) {
      const int owner =
          map_.ShardOf(sensors[static_cast<size_t>(r.first)].position());
      reading_pair_batches_[static_cast<size_t>(owner)].push_back(r);
    }
    for (int s = 0; s < map_.shards; ++s) {
      const std::vector<std::pair<int, int>>& batch =
          reading_pair_batches_[static_cast<size_t>(s)];
      if (!batch.empty()) {
        shards_[static_cast<size_t>(s)]->LateFeedbackStaged(batch,
                                                            staged_time_);
      }
    }
    // Mirror the shards' re-costed announcements into the merged back
    // rows (the reconcile ran before the feedback landed).
    for (const std::pair<int, int>& r : pending_readings_) {
      const int pos = b.slot_pos[r.first];
      if (pos < 0) continue;
      const Sensor& s = sensors[static_cast<size_t>(r.first)];
      SlotSensor& g = b.ctx.sensors[static_cast<size_t>(pos)];
      g.cost = s.Cost(staged_time_);
      b.ctx.slabs.cost[static_cast<size_t>(pos)] = g.cost;
    }
    pending_readings_.clear();
  }
  arena_.Reset();
  b.ctx.time = staged_time_;
  b.ctx.arena = &arena_;
  b.ctx.pool = pool_.get();
  b.ctx.approx = config_.approx;
  b.ctx.approx.slot_seed = ApproxSlotSeed(config_.approx, staged_time_);
  if (has_pinned_slot_seed_) {
    b.ctx.approx.slot_seed = pinned_slot_seed_;
    has_pinned_slot_seed_ = false;
  }
  if (trace_ != nullptr) {
    trace_->BeginSlot(staged_time_, b.ctx.approx.slot_seed);
  }
  // Flip every shard in lockstep with the router's buffers.
  for (const std::unique_ptr<AcquisitionEngine>& shard : shards_) {
    shard->FlipStaged();
  }
  front_ ^= 1;
  return buf_[front_].ctx;
}

// ---------------------------------------------------------------------------

void ShardRouter::RecordReadings(const std::vector<int>& sensor_ids,
                                 int time) {
  if (pipelined_) {
    // A staging may be in flight: defer — ActivateStagedSlot applies the
    // queue at the commit barrier.
    for (int id : sensor_ids) pending_readings_.emplace_back(id, time);
    return;
  }
  // Group by owning shard (the member shard: positions are unchanged
  // since BeginSlot) and let each owner charge its own sensors, so
  // reading bookkeeping and privacy-decay enrollment land exactly where
  // the next turnover needs them. Per-sensor state is independent, so
  // regrouping the ids is order-safe.
  for (std::vector<int>& batch : reading_batches_) batch.clear();
  const std::vector<Sensor>& sensors = *registry_;
  for (int id : sensor_ids) {
    const int owner = map_.ShardOf(sensors[static_cast<size_t>(id)].position());
    reading_batches_[static_cast<size_t>(owner)].push_back(id);
  }
  for (int s = 0; s < map_.shards; ++s) {
    const std::vector<int>& batch = reading_batches_[static_cast<size_t>(s)];
    if (!batch.empty()) {
      shards_[static_cast<size_t>(s)]->RecordReadings(batch, time);
    }
  }
}

void ShardRouter::RecordSlotReadings(const std::vector<int>& slot_indices,
                                     int time) {
  const SlotContext& ctx = buf_[front_].ctx;
  if (pipelined_) {
    for (int si : slot_indices) {
      pending_readings_.emplace_back(
          ctx.sensors[static_cast<size_t>(si)].sensor_id, time);
    }
    return;
  }
  reading_ids_.clear();
  for (int si : slot_indices) {
    reading_ids_.push_back(ctx.sensors[static_cast<size_t>(si)].sensor_id);
  }
  RecordReadings(reading_ids_, time);
}

const char* ShardRouter::IndexBackendName() const {
  const SlotContext& ctx = buf_[front_].ctx;
  return ctx.index == nullptr ? "none" : ctx.index->Name();
}

std::unique_ptr<ServingEngine> MakeServingEngine(std::vector<Sensor> sensors,
                                                 const ServingConfig& config) {
  const std::string problem = config.Validate();
  if (!problem.empty()) {
    std::fprintf(stderr, "MakeServingEngine: invalid config: %s\n",
                 problem.c_str());
    std::abort();
  }
  if (config.shards <= 1) {
    return std::make_unique<AcquisitionEngine>(std::move(sensors), config);
  }
  return std::make_unique<ShardRouter>(std::move(sensors), config);
}

}  // namespace psens
