#ifndef PSENS_SHARD_SHARD_ROUTER_H_
#define PSENS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "core/sensor.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "engine/serving_config.h"
#include "engine/serving_engine.h"
#include "shard/shard_map.h"

namespace psens {

class MonitorSet;

/// Sharded serving front end: one ServingEngine built from N
/// geo-partitioned AcquisitionEngine shards (ShardMap, cell % N). The
/// serving layer cannot tell it from a single engine — MakeServingEngine
/// picks the implementation from ServingConfig::shards, so sharding is a
/// config choice, not a new call site.
///
/// Division of labor per slot:
///   * The router is the single writer of the shared registry: it applies
///     each delta event-by-event in recorded order and notifies the
///     shard(s) owning the sensor's pre-/post-mutation position
///     (AcquisitionEngine::NoteChange). Event chains (move + re-move,
///     depart + re-arrive) route correctly because each notification uses
///     the live positions at mutation time.
///   * BeginSlot fans per-shard slot turnover (membership repair, cost
///     refresh, dynamic-index maintenance — the O(churn) work) out across
///     the thread pool, then reconciles the shards' repair journals into
///     one merged global slot context in a deterministic ascending-id
///     merge (engine/membership_merge.h — the same merge the single
///     engine runs, so the two paths cannot drift).
///   * Selection then runs ONCE over the merged global context
///     (ServingEngine::Select), exactly as the single engine's would.
///     Per-shard selection with post-hoc budget stitching cannot
///     reproduce the global greedy order (a query's best sensor may sit
///     in any shard, and the stochastic samplers draw from one global
///     stream), so the router parallelizes the turnover and keeps
///     selection global — which is what makes every outcome bit-identical
///     to the unsharded engine for any shard count, the property the
///     shard-invariance suite and bench/fig15_shard_sweep's fatal
///     equality gate enforce.
///
/// The merged context's spatial index is a fan-out view over the shards'
/// dynamic indexes: each shard's index answers exactly for its slice and
/// ownership partitions space, so the union of per-shard exact results is
/// the global exact result set (re-sorted ascending to keep the
/// SpatialIndex contract).
///
/// Trace recording happens at the router (pre-split) level with the same
/// header a single engine writes, so a trace recorded sharded replays
/// under any shard count and vice versa.
class ShardRouter : public ServingEngine {
 public:
  /// Builds config.shards shard engines over the registry. Requires
  /// config.shards >= 2 and config.incremental (see
  /// ServingConfig::Validate; MakeServingEngine routes shards == 1 to a
  /// plain AcquisitionEngine).
  ShardRouter(std::vector<Sensor> sensors, const ServingConfig& config);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  ShardRouter(ShardRouter&&) = delete;
  ShardRouter& operator=(ShardRouter&&) = delete;

  void ApplyTrace(const Trace& trace, int slot) override;
  void ApplyDelta(const SensorDelta& delta) override;
  const SlotContext& BeginSlot(int time) override;

  /// Pipelined slot lifecycle (see ServingEngine). With
  /// ServingConfig::pipeline == 2 the router drives the overlap from its
  /// own work-stealing task graph: StageNextSlot launches one
  /// delta-application task, then every shard's EarlyRepairStaged as
  /// concurrent dependents, then a reconcile task that folds the staged
  /// shard journals into the merged *back* context — all overlapping the
  /// caller's in-flight selection over the *front* context.
  /// ActivateStagedSlot joins the graph, applies deferred readings
  /// feedback, stamps the slot, and flips the router and every shard in
  /// lockstep. With pipeline < 2 both degrade to the sequential path.
  void StageNextSlot(int time, const SensorDelta& delta) override;
  const SlotContext& ActivateStagedSlot() override;

  void RecordReadings(const std::vector<int>& sensor_ids, int time) override;
  void RecordSlotReadings(const std::vector<int>& slot_indices,
                          int time) override;

  const std::vector<Sensor>& sensors() const override { return *registry_; }
  const ServingConfig& config() const override { return config_; }
  /// "sharded" when the merged context carries the fan-out index view,
  /// "none" when unindexed (policy kNone or below the auto threshold).
  const char* IndexBackendName() const override;
  int shard_count() const override { return map_.shards; }
  const ShardMap* shard_map_ptr() const override { return &map_; }

  void PinNextSlotSeed(uint64_t slot_seed) override;
  TraceWriter* trace_writer() override { return trace_.get(); }
  bool FinishTrace() override;

  const ShardMap& shard_map() const { return map_; }
  const AcquisitionEngine& shard(int s) const { return *shards_[s]; }

  /// Attaches a per-shard monitor set (non-owning; null detaches). After
  /// every BeginSlot the router reports shard `s`'s own turnover latency
  /// to set `s` via NotifyTurnover and NotifySlotEnd — a shard's "slot"
  /// is its turnover; binding, selection, and commit are global and
  /// observed by the serving loop's global monitor set instead. Dispatch
  /// is serial after the fan-out join (monitors are not thread-safe).
  void set_shard_monitors(int s, MonitorSet* monitors) {
    shard_monitors_[static_cast<size_t>(s)] = monitors;
  }

 private:
  /// Fan-out SpatialIndex over the shards' dynamic indexes, translating
  /// sensor ids to merged-context slot positions.
  class ShardedIndexView;

  /// One copy of the merged global slot state. Sequential serving uses
  /// buf_[0] only; pipelined serving double-buffers so the staged
  /// reconcile of slot t+1 writes the back buffer while slot t's
  /// selection reads the front one. Each buffer's fan-out view is pinned
  /// to that buffer's slot_pos map.
  struct RouterBuffer {
    /// Merged global slot context selection runs against.
    SlotContext ctx;
    /// id -> position in ctx.sensors, or -1 (global membership).
    std::vector<int> slot_pos;
    std::shared_ptr<ShardedIndexView> view;
  };

  /// Routes one registry mutation: notifies the shard owning the
  /// pre-mutation position and, if different, the post-mutation owner.
  void NotifyOwners(int id, const Point& pre, const Point& post,
                    bool cost_dirty);
  /// Single-writer registry mutation + owner notification (the delta
  /// application minus trace staging; shared by the sequential
  /// ApplyDelta and the staged graph's delta task).
  void ApplyDeltaToRegistry(const SensorDelta& delta);
  /// Folds the shards' repair journals into the merged global context:
  /// payload patches for continuing members first (positions are
  /// pre-merge), cross-shard migrations netted into patches, then one
  /// ascending-id membership merge.
  void Reconcile();
  /// Staged counterpart: folds the shards' *staged* journals and back
  /// entries into the router's back buffer with a cross-buffer merge
  /// (always runs — the back buffer is two slots stale), patching
  /// continuing members at post-merge positions.
  void StagedReconcile();
  /// Sorts journal_ins_/journal_rem_ and nets them into net_inserts_ (with
  /// net_insert_shard_) and net_removes_. An id inserted by one shard and
  /// removed by another in the same slot only changed owner: it stays a
  /// global member and is appended to journal_patch_ as (id, inserting
  /// shard) instead. Ownership is a function of position, so each id
  /// appears at most once per list.
  void NetMigrations();
  void AttachIndex(RouterBuffer& b);

  ServingConfig config_;
  ShardMap map_;
  /// Shared sensor registry; the router is its single writer.
  std::shared_ptr<std::vector<Sensor>> registry_;
  std::vector<std::unique_ptr<AcquisitionEngine>> shards_;
  /// Double-buffered merged slot state; front_ indexes the active buffer
  /// (always 0 in sequential mode).
  RouterBuffer buf_[2];
  int front_ = 0;
  std::vector<SlotSensor> merge_scratch_;
  /// Slab-column merge target for the merged context (lockstep with
  /// merge_scratch_; engine/membership_merge.h).
  SlotSlabs slab_scratch_;
  /// Slot-lifetime scratch arena for the merged context's selection run;
  /// reset at every BeginSlot (or, pipelined, at each ActivateStagedSlot
  /// — by which point the previous selection's scratch is dead). One
  /// arena serves both buffers.
  SlotArena arena_;
  /// Fans per-shard turnover out, then serves intra-slot selection
  /// through SlotContext::pool (phases are sequential, never nested).
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TraceWriter> trace_;
  uint64_t pinned_slot_seed_ = 0;
  bool has_pinned_slot_seed_ = false;
  std::vector<MonitorSet*> shard_monitors_;
  std::vector<double> shard_turnover_ms_;
  // Reconcile/readings scratch (persisted capacity).
  std::vector<std::pair<int, int>> journal_ins_;  // (id, shard)
  std::vector<std::pair<int, int>> journal_rem_;
  std::vector<std::pair<int, int>> journal_patch_;
  std::vector<int> net_inserts_;
  std::vector<int> net_insert_shard_;
  std::vector<int> net_removes_;
  std::vector<std::vector<int>> reading_batches_;
  std::vector<int> reading_ids_;

  // --- Pipelined serving state (ServingConfig::pipeline == 2) ------------
  /// Double buffers allocated; Stage/Activate run the overlapped path.
  bool pipelined_ = false;
  /// Work-stealing executor the staged graph (delta task -> per-shard
  /// repairs -> reconcile) runs on.
  std::unique_ptr<TaskGraphExecutor> graph_;
  int staged_time_ = 0;
  /// Router-owned copy of the staged slot's delta (the caller's delta
  /// may die before the graph's delta task consumes it).
  SensorDelta staged_delta_;
  /// Deferred readings feedback: (sensor id, reading slot) pairs queued
  /// while a staging is in flight, applied at ActivateStagedSlot.
  std::vector<std::pair<int, int>> pending_readings_;
  /// Per-shard late-feedback batches (persisted capacity).
  std::vector<std::vector<std::pair<int, int>>> reading_pair_batches_;
};

}  // namespace psens

#endif  // PSENS_SHARD_SHARD_ROUTER_H_
