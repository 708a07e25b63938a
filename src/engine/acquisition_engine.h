#ifndef PSENS_ENGINE_ACQUISITION_ENGINE_H_
#define PSENS_ENGINE_ACQUISITION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <utility>

#include "common/geometry.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "core/arena.h"
#include "core/sensor.h"
#include "core/sensor_delta.h"
#include "core/slot.h"
#include "engine/serving_config.h"
#include "engine/serving_engine.h"
#include "index/dynamic_index.h"
#include "mobility/trace.h"
#include "shard/shard_map.h"

namespace psens {

class TraceWriter;

/// Long-running acquisition service state: owns the sensor registry, the
/// current slot context, and a *dynamic* spatial index, carrying all three
/// across time slots. Callers stream in population changes (a mobility
/// trace slot or a churn delta), call BeginSlot to get the slot context
/// schedulers consume, and report the slot's purchased readings back:
///
///   AcquisitionEngine engine(std::move(sensors), config);
///   for (int t = 0; t < slots; ++t) {
///     engine.ApplyTrace(trace, t);            // or engine.ApplyDelta(...)
///     const SlotContext& slot = engine.BeginSlot(t);
///     ... schedule queries against `slot` ...
///     engine.RecordSlotReadings(result.selected_sensors, t);
///   }
///
/// In incremental mode BeginSlot only touches what the delta invalidated:
/// membership changes merge into the sorted slot-sensor array, moved
/// sensors patch their location in place and in the index, and announced
/// costs are recomputed only for sensors whose cost can actually have
/// changed (price re-announcements, readings taken, and the privacy decay
/// set — see below). The resulting context is bit-identical to a from-
/// scratch BuildSlotContext over the same registry.
///
/// As a shard (the ShardSlice constructor, used by shard/shard_router.h):
/// the registry is shared across all shard engines, slot membership is
/// additionally filtered by shard ownership (ShardSlice::Owns), and the
/// engine journals its per-slot context repairs (last_repairs) so the
/// router can patch its merged global context in O(churn). Shard engines
/// never mutate the shared registry — the router applies deltas and
/// notifies owners through NoteChange.
///
/// The registry must be id-dense: sensors_[i].id() == i (what
/// GenerateSensors produces). Asserted at construction.
class AcquisitionEngine : public ServingEngine {
 public:
  AcquisitionEngine(std::vector<Sensor> sensors, const ServingConfig& config);
  /// Shard-engine constructor: a shared registry plus this engine's slice
  /// of the shard map. Requires config.incremental when the slice is
  /// actually sharded. Repair journaling (last_repairs) is enabled.
  AcquisitionEngine(std::shared_ptr<std::vector<Sensor>> registry,
                    const ServingConfig& config, const ShardSlice& slice);
  ~AcquisitionEngine() override;

  // Pinned: the slot context's index view holds pointers into this
  // object (slot_pos_, the dynamic index), so a moved-from or copied
  // engine would hand schedulers dangling state.
  AcquisitionEngine(const AcquisitionEngine&) = delete;
  AcquisitionEngine& operator=(const AcquisitionEngine&) = delete;
  AcquisitionEngine(AcquisitionEngine&&) = delete;
  AcquisitionEngine& operator=(AcquisitionEngine&&) = delete;

  /// Streams one mobility-trace slot in as a delta: only sensors whose
  /// position or presence actually changed are touched. Sensors beyond the
  /// trace width are marked absent (same convention as ApplyTraceSlot).
  void ApplyTrace(const Trace& trace, int slot) override;

  /// Applies a churn delta (arrivals/departures/moves/price changes).
  void ApplyDelta(const SensorDelta& delta) override;

  /// Finalizes announcements for slot `time` and returns the context.
  /// Valid until the next BeginSlot call or engine destruction.
  const SlotContext& BeginSlot(int time) override;

  /// Pipelined slot lifecycle (see ServingEngine). With
  /// ServingConfig::pipeline == 2, StageNextSlot journals the delta,
  /// copies it, and launches the *back* buffer's repair (delta
  /// application, membership merge, announced-cost refresh, dynamic-index
  /// maintenance) on the engine's task-graph executor, overlapping the
  /// caller's in-flight selection over the *front* buffer.
  /// ActivateStagedSlot joins that work, applies the deferred readings
  /// feedback, stamps the slot, and flips buffers. With pipeline < 2 both
  /// degrade to the sequential ApplyDelta + BeginSlot path.
  void StageNextSlot(int time, const SensorDelta& delta) override;
  const SlotContext& ActivateStagedSlot() override;

  /// Charges one reading each to the given *global sensor ids* at slot
  /// `time` (energy + privacy history), flagging their announcements for
  /// refresh at the next BeginSlot.
  void RecordReadings(const std::vector<int>& sensor_ids, int time) override;

  /// Same, addressed by the current context's slot-sensor indices (the
  /// form scheduler results use).
  void RecordSlotReadings(const std::vector<int>& slot_indices,
                          int time) override;

  const std::vector<Sensor>& sensors() const override { return sensors_; }
  const ServingConfig& config() const override { return config_; }
  /// Name of the live dynamic-index backend ("dynamic-grid",
  /// "kd-buffered", "rebuild" in reference mode, "none" when unindexed).
  const char* IndexBackendName() const override;

  /// Pins the approx slot seed the *next* BeginSlot stamps, overriding
  /// the (approx.seed, time) derivation for that one slot. The trace
  /// replayer uses this to impose each recorded slot's seed, which is
  /// what lets a replayed stochastic run reproduce the live run's
  /// selections without knowing the original base seed.
  void PinNextSlotSeed(uint64_t slot_seed) override;

  /// The live trace recorder, or null when ServingConfig::trace_path is
  /// empty (or the file could not be created). The serving layer stages
  /// each slot's query batch here after BeginSlot.
  TraceWriter* trace_writer() override { return trace_.get(); }

  /// Finalizes the trace (patches the slot count, closes the file).
  /// Called automatically on destruction; call it explicitly to read the
  /// trace back while the engine lives. Returns false if recording was
  /// off or any write failed.
  bool FinishTrace() override;

  // --- Shard-engine surface (shard/shard_router.h) -----------------------

  /// The per-slot context repairs the last BeginSlot performed, journaled
  /// only for shard engines (the ShardSlice constructor): the membership
  /// inserts/removes (sorted ascending by id) and the continuing members
  /// whose announcement payload was rewritten in place.
  struct SlotRepairs {
    std::vector<int> inserted;
    std::vector<int> removed;
    std::vector<int> patched;
  };
  const SlotRepairs& last_repairs() const { return repairs_; }

  /// Router-side registry mutation hook: the router applies deltas to the
  /// shared registry itself (once, in recorded order) and notifies the
  /// owning engine(s) here so the next BeginSlot re-evaluates the sensor.
  void NoteChange(int id, bool cost_dirty) { MarkChanged(id, cost_dirty); }

  /// The raw id-keyed dynamic index of the *front* (active) buffer (null
  /// when unindexed or in rebuild mode) — the router's sharded index view
  /// fans queries out to these. In pipelined mode the front index is
  /// immutable between flips, so the view may probe it while the back
  /// buffer's repair is in flight.
  const SpatialIndex* raw_dynamic_index() const {
    return buf_[front_].index.get();
  }

  /// This engine's current slot entry for global sensor `id`, or null
  /// when the sensor is not a member here. Valid until the next
  /// BeginSlot. The router copies announcement payloads from here when
  /// reconciling its merged context.
  const SlotSensor* MemberEntry(int id) const {
    const SlotBuffer& b = buf_[front_];
    const int pos = b.slot_pos[id];
    return pos < 0 ? nullptr : &b.ctx.sensors[static_cast<size_t>(pos)];
  }

  // --- Staged shard surface (router-driven pipelining) -------------------
  //
  // A ShardRouter with pipeline == 2 drives its shard engines' staged
  // repair from its own task graph instead of letting each shard run one:
  // per slot it calls EarlyRepairStaged on every shard (concurrent graph
  // tasks, after the router applied the delta), reconciles the staged
  // journals/entries into its merged back context, then at its commit
  // barrier applies readings feedback through LateFeedbackStaged and
  // flips every shard with FlipStaged in lockstep with its own buffers.

  /// Repairs this engine's *back* buffer for slot `time` from the marks
  /// accumulated since the last flip (the early, overlappable phase of a
  /// pipelined slot). Requires double-buffered construction
  /// (ServingConfig::pipeline == 2). Journals repairs for shard engines.
  void EarlyRepairStaged(int time);

  /// Applies the previous slot's readings feedback to the registry and
  /// the *back* buffer: each (sensor id, reading slot) pair is charged
  /// via Sensor::RecordReading, then the sensor's staged announcement is
  /// re-costed at `slot_time` and enrolled for privacy refresh — the
  /// deferred equivalent of the sequential NoteReading + RefreshMember
  /// sequence. Serving-thread only, after the staged repair joined.
  void LateFeedbackStaged(const std::vector<std::pair<int, int>>& readings,
                          int slot_time);

  /// Promotes the back buffer to front (and queues the staged index ops
  /// for replay onto the new back buffer's index at the next staging).
  void FlipStaged();

  /// The *back* buffer's slot entry for `id` after EarlyRepairStaged, or
  /// null when not a staged member. The router's staged reconcile copies
  /// announcement payloads from here.
  const SlotSensor* StagedMemberEntry(int id) const {
    const SlotBuffer& b = buf_[front_ ^ 1];
    const int pos = b.slot_pos[id];
    return pos < 0 ? nullptr : &b.ctx.sensors[static_cast<size_t>(pos)];
  }

 private:
  /// Adapter presenting the engine's id-keyed dynamic index as the
  /// slot-indexed SpatialIndex schedulers expect. Sensor ids ascend with
  /// slot indices, so translated results stay ascending.
  class SlotIndexView;

  /// One copy of the per-slot serving state. Sequential serving uses
  /// buf_[0] only; pipelined serving (ServingConfig::pipeline == 2)
  /// double-buffers so the staged repair of slot t+1 writes the back
  /// buffer while slot t's selection reads the front one. Each buffer's
  /// index view is pinned to that buffer's index and slot_pos, so a
  /// context handed out at a flip keeps translating through the right
  /// map.
  struct SlotBuffer {
    SlotContext ctx;
    /// id -> position in ctx.sensors, or -1 when not a member.
    std::vector<int> slot_pos;
    std::unique_ptr<DynamicSpatialIndex> index;
    std::shared_ptr<SlotIndexView> view;
  };

  /// One dynamic-index mutation. Sequential turnover batches a slot's ops
  /// so they apply while the pool copies the membership merge; a staged
  /// repair journals them so the identical op sequence can be replayed
  /// onto the other buffer's index at the next staging — both indexes
  /// then share the exact op history (including kAuto rechoice
  /// counters), which keeps their query behavior, and therefore
  /// selection outcomes, bitwise in lockstep with a sequential
  /// single-index run.
  struct IndexOp {
    enum Kind { kInsert, kRemove, kMove };
    Kind kind;
    int id;
    Point p;
  };
  /// Applies `ops` to `index` in order (no-op on a null index).
  static void ApplyIndexOps(SpatialIndex* index, std::span<const IndexOp> ops);

  /// A continuing member whose staged announcement needs patching after
  /// the cross-buffer membership merge lands (positions are only known
  /// post-merge).
  struct StagedPatch {
    int id;
    bool loc;
    bool cost;
  };

  void Init();
  void MarkChanged(int id, bool cost_dirty);
  /// Sorts changed_ ascending by sensor id (radix sort; same order as
  /// std::sort over the distinct ids).
  void SortChanged();
  void NoteReading(int id, int time);
  void ApplyDeltaToRegistry(const SensorDelta& delta);
  /// Re-evaluates `id` against buffer `b`, appending its index op (if
  /// any) to index_ops_.
  void RefreshMember(SlotBuffer& b, int id, int time);
  /// The merge's `fill` for an inserted member: its announcement at `time`.
  void FillInserted(SlotSensor& ss, int id, int time);
  /// Merges pending_insert_/pending_remove_ into `b`, applying index_ops_
  /// on this thread while the pool copies.
  void RebuildMembership(SlotBuffer& b, int time);
  void AttachIndex(SlotBuffer& b);
  /// Classification half of RefreshMember for the staged path: reads the
  /// *front* buffer's membership, journals index ops for the *back* index
  /// in op_log_, and defers context patches to staged_patches_.
  void StageRefreshMember(int id);

  ServingConfig config_;
  /// The sensor registry. Exclusively owned by a standalone engine;
  /// shared across all shard engines of one router (each mutating it only
  /// through the router's single-writer delta application).
  std::shared_ptr<std::vector<Sensor>> registry_;
  /// Alias of *registry_ (the engine is pinned, so the reference is safe).
  std::vector<Sensor>& sensors_;
  /// This engine's slice of the shard map; default slice owns everything.
  ShardSlice slice_;
  /// Journal context repairs into repairs_ (shard engines only).
  bool journal_repairs_ = false;
  SlotRepairs repairs_;
  /// Double-buffered slot state; front_ indexes the active buffer (always
  /// 0 in sequential mode).
  SlotBuffer buf_[2];
  int front_ = 0;
  /// Sensors touched since the last BeginSlot (dedup by flag).
  std::vector<int> changed_;
  std::vector<char> changed_flag_;
  /// SortChanged's radix scratch, capacity kept across slots.
  std::vector<int> changed_scratch_;
  /// Subset of changed_ whose announced cost must be recomputed.
  std::vector<char> cost_dirty_;
  /// Sensors whose privacy cost decays with wall-clock time (privacy
  /// multiplier > 0 and non-empty report history): refreshed every slot.
  std::vector<int> privacy_refresh_;
  std::vector<char> privacy_flag_;
  /// Membership changes discovered by BeginSlot, merged in one pass.
  std::vector<int> pending_insert_;
  std::vector<int> pending_remove_;
  /// The slot's index ops in refresh order (sequential turnover), applied
  /// on the serving thread as the merge's `overlap` — while the pool
  /// copies, when it does — or after the refresh loop if no merge runs.
  std::vector<IndexOp> index_ops_;
  /// Merge target whose capacity persists across slots (swapped with
  /// ctx_.sensors after each membership rebuild).
  std::vector<SlotSensor> merge_scratch_;
  /// Slab-column merge target, swapped with ctx_.slabs in lockstep with
  /// merge_scratch_ (engine/membership_merge.h).
  SlotSlabs slab_scratch_;
  /// Slot-lifetime scratch arena handed to schedulers through
  /// SlotContext::arena; reset at every BeginSlot (or, pipelined, at each
  /// ActivateStagedSlot — by which point the previous selection's scratch
  /// is dead). One arena serves both buffers.
  SlotArena arena_;
  /// Intra-slot selection pool (ServingConfig::threads), handed to
  /// schedulers through SlotContext::pool. Null when threads == 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Live trace recorder (ServingConfig::trace_path); null when off.
  std::unique_ptr<TraceWriter> trace_;
  /// One-shot approx-seed override for the next BeginSlot (replay).
  uint64_t pinned_slot_seed_ = 0;
  bool has_pinned_slot_seed_ = false;

  // --- Pipelined serving state (ServingConfig::pipeline == 2) ------------
  /// Double buffers allocated; Stage/Activate run the overlapped path.
  bool pipelined_ = false;
  /// Work-stealing executor the staged repair runs on. Standalone engines
  /// own one; shard engines leave it null (the router's graph drives them
  /// through EarlyRepairStaged).
  std::unique_ptr<TaskGraphExecutor> graph_;
  int staged_time_ = 0;
  /// Engine-owned copy of the staged slot's delta (the caller's delta may
  /// die before the early task consumes it).
  SensorDelta staged_delta_;
  std::vector<StagedPatch> staged_patches_;
  /// Index ops journaled by the in-flight staging (op_log_) and the ops
  /// of the previous staging awaiting replay onto the new back index
  /// (replay_log_); swapped at each flip.
  std::vector<IndexOp> op_log_;
  std::vector<IndexOp> replay_log_;
  /// Deferred readings feedback: (sensor id, reading slot) pairs queued
  /// by RecordReadings while a staging is in flight, applied at the next
  /// ActivateStagedSlot.
  std::vector<std::pair<int, int>> pending_readings_;
};

}  // namespace psens

#endif  // PSENS_ENGINE_ACQUISITION_ENGINE_H_
