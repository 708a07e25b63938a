#ifndef PSENS_ENGINE_MEMBERSHIP_MERGE_H_
#define PSENS_ENGINE_MEMBERSHIP_MERGE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/slot.h"

namespace psens {

/// Old-array position where a new member with `id` slots into a member
/// array sorted ascending by sensor id: the position of the next live
/// member above it. Registries are near-fully live, so a forward scan of
/// slot_pos (4 bytes/step, sequential) almost always hits on the first
/// probe — and unlike a binary search of the member array, it stays
/// valid mid-merge: entries for ids above the one being inserted are
/// untouched old positions (the event walk only rewrites entries at or
/// below the current event id, and the run moves run after the walk).
inline size_t MemberInsertPosition(const std::vector<int>& slot_pos, int id,
                                   size_t old_size) {
  // Cold build (slot 0): nothing is live yet, and without this early-out
  // every insert would scan to the registry end — O(n^2) over a fresh
  // million-sensor registry.
  if (old_size == 0) return 0;
  const int registry = static_cast<int>(slot_pos.size());
  for (int j = id + 1; j < registry; ++j) {
    if (slot_pos[j] >= 0) return static_cast<size_t>(slot_pos[j]);
  }
  return old_size;
}

namespace merge_detail {

/// Unchanged old rows [src, src + len) move to [dst, dst + len), src !=
/// dst; `rows_before` is the total length of the runs ahead of this one.
struct MoveRun {
  size_t src;
  size_t dst;
  size_t len;
  size_t rows_before;
};

/// Moves below this many rows stay on the calling thread: the pool's
/// wake/wait handshake would cost more than the moves save. Purely a
/// performance constant — the result is bit-identical either way.
constexpr size_t kMinParallelCopyRows = size_t{1} << 15;

/// The SlotSlabs columns, each moved alongside the AoS rows.
inline constexpr std::vector<double> SlotSlabs::*kSlabColumns[] = {
    &SlotSlabs::x, &SlotSlabs::y, &SlotSlabs::cost, &SlotSlabs::inaccuracy,
    &SlotSlabs::trust};

/// Waits for `pool` on scope exit, so no exit path — an exception from the
/// overlapped work included — leaves move tasks reading a dead frame.
struct PoolWait {
  ThreadPool* pool;
  ~PoolWait() { pool->Wait(); }
};

/// Moved rows [begin, end) of the concatenated run sequence, and the
/// source rows it reads from a snapshot: those outside its own
/// destination span but inside the span some chunk writes. Only another
/// chunk can overwrite them; inside its own span a chunk orders its moves
/// like the serial merge. Ordered lo_begin <= lo_end <= hi_begin <=
/// hi_end, so the two ranges cut every source run into at most five
/// segments.
struct MoveChunk {
  size_t begin = 0;
  size_t end = 0;
  size_t lo_begin = 0, lo_end = 0;  // snapshotted source rows below the span
  size_t hi_begin = 0, hi_end = 0;  // snapshotted source rows above the span
  size_t snap = 0;  // offset of this chunk's rows in the snapshot

  size_t SnapRows() const { return (lo_end - lo_begin) + (hi_end - hi_begin); }
};

/// Moves a merge's unchanged runs in place inside a context's member
/// array and slab columns, renumbering the moved rows (.index and
/// slot_pos). Runs that shift left move in ascending order, runs that
/// shift right in descending order: a run's destination can only overlap
/// the source of a neighbour that shifts the same way and has already
/// moved. Runs never write inserted rows, so those are filled afterwards.
///
/// The moved rows split into contiguous chunks, which may run on
/// different threads once every chunk has taken its snapshot. One chunk
/// covering every row snapshots nothing.
class RunMover {
 public:
  RunMover(SlotContext* slot, const std::vector<MoveRun>* runs, int chunks)
      : slot_(slot), runs_(*runs) {
    size_t rows = 0;
    if (!runs_.empty()) {
      span_lo_ = runs_.front().dst;
      span_hi_ = runs_.back().dst + runs_.back().len;
      rows = runs_.back().rows_before + runs_.back().len;
    }
    size_t snap = 0;
    for (int c = 0; c < chunks; ++c) {
      chunks_.push_back(Plan(rows * static_cast<size_t>(c) / chunks,
                             rows * static_cast<size_t>(c + 1) / chunks));
      chunks_.back().snap = snap;
      snap += chunks_.back().SnapRows();
    }
    snap_.sensors.resize(snap);
    snap_.slabs.Resize(snap);
  }

  // Pinned: pool tasks hold its address.
  RunMover(const RunMover&) = delete;
  RunMover& operator=(const RunMover&) = delete;

  int chunks() const { return static_cast<int>(chunks_.size()); }

  /// Copies chunk `c`'s snapshotted source rows into the snapshot.
  void Snapshot(int c) {
    const MoveChunk& chunk = chunks_[static_cast<size_t>(c)];
    size_t at = chunk.snap;
    for (const auto& [b, e] : {std::pair{chunk.lo_begin, chunk.lo_end},
                               std::pair{chunk.hi_begin, chunk.hi_end}}) {
      std::memcpy(snap_.sensors.data() + at, slot_->sensors.data() + b,
                  (e - b) * sizeof(SlotSensor));
      for (std::vector<double> SlotSlabs::*col : kSlabColumns) {
        std::memcpy((snap_.slabs.*col).data() + at,
                    (slot_->slabs.*col).data() + b, (e - b) * sizeof(double));
      }
      at += e - b;
    }
  }

  /// Moves chunk `c`'s rows; every chunk must have taken its snapshot.
  void Move(int c) const {
    const MoveChunk& chunk = chunks_[static_cast<size_t>(c)];
    if (chunk.begin == chunk.end) return;
    const size_t first = RunOf(chunk.begin);
    size_t last = first;
    while (last + 1 < runs_.size() && runs_[last + 1].rows_before < chunk.end) {
      ++last;
    }
    for (size_t r = first; r <= last; ++r) {
      if (runs_[r].dst < runs_[r].src) MovePart(chunk, runs_[r]);
    }
    for (size_t r = last + 1; r-- > first;) {
      if (runs_[r].dst > runs_[r].src) MovePart(chunk, runs_[r]);
    }
  }

 private:
  /// Rows [begin, end) of the run sequence as one chunk.
  MoveChunk Plan(size_t begin, size_t end) const {
    MoveChunk c;
    c.begin = begin;
    c.end = end;
    if (begin == end) return c;
    const auto [src_lo, dst_lo] = At(begin);
    const auto [src_last, dst_last] = At(end - 1);
    const size_t src_hi = src_last + 1;
    const size_t dst_hi = dst_last + 1;
    c.lo_begin = std::max(src_lo, span_lo_);
    c.lo_end = std::min({src_hi, dst_lo, span_hi_});
    if (c.lo_begin >= c.lo_end) c.lo_begin = c.lo_end = src_lo;
    c.hi_begin = std::max({src_lo, dst_hi, span_lo_});
    c.hi_end = std::min(src_hi, span_hi_);
    if (c.hi_begin >= c.hi_end) c.hi_begin = c.hi_end = src_hi;
    return c;
  }

  /// (source row, destination row) of moved row `k`.
  std::pair<size_t, size_t> At(size_t k) const {
    const MoveRun& run = runs_[RunOf(k)];
    return {run.src + (k - run.rows_before), run.dst + (k - run.rows_before)};
  }

  size_t RunOf(size_t k) const {
    return static_cast<size_t>(
        std::upper_bound(runs_.begin(), runs_.end(), k,
                         [](size_t row, const MoveRun& run) {
                           return row < run.rows_before;
                         }) -
        runs_.begin() - 1);
  }

  /// Moves the part of `run` inside chunk `c`, segment by segment in the
  /// run's direction, then renumbers its rows while they are hot.
  void MovePart(const MoveChunk& c, const MoveRun& run) const {
    const size_t lo = std::max(c.begin, run.rows_before) - run.rows_before;
    const size_t hi =
        std::min(c.end, run.rows_before + run.len) - run.rows_before;
    const size_t s = run.src + lo;
    const size_t len = hi - lo;
    const auto clamp = [&](size_t v) { return std::clamp(v, s, s + len); };
    const size_t cuts[6] = {s,          clamp(c.lo_begin), clamp(c.lo_end),
                            clamp(c.hi_begin), clamp(c.hi_end), s + len};
    const auto segment = [&](int k) {
      const size_t b = cuts[k];
      const size_t n = cuts[k + 1] - b;
      if (n == 0) return;
      const size_t to = run.dst + (b - run.src);
      // Segments 1 and 3 are the snapshotted ranges; the rest read live
      // rows, possibly overlapping their destination.
      const SlotContext& from_rows = k == 1 || k == 3 ? snap_ : *slot_;
      const size_t from =
          k == 1   ? c.snap + (b - c.lo_begin)
          : k == 3 ? c.snap + (c.lo_end - c.lo_begin) + (b - c.hi_begin)
                   : b;
      std::memmove(slot_->sensors.data() + to, from_rows.sensors.data() + from,
                   n * sizeof(SlotSensor));
      for (std::vector<double> SlotSlabs::*col : kSlabColumns) {
        std::memmove((slot_->slabs.*col).data() + to,
                     (from_rows.slabs.*col).data() + from, n * sizeof(double));
      }
    };
    if (run.dst < run.src) {
      for (int k = 0; k < 5; ++k) segment(k);
    } else {
      for (int k = 5; k-- > 0;) segment(k);
    }
    const size_t d = run.dst + lo;
    for (size_t k = d; k < d + len; ++k) {
      SlotSensor& ss = slot_->sensors[k];
      ss.index = static_cast<int>(k);
      slot_->slot_pos[static_cast<size_t>(ss.sensor_id)] = static_cast<int>(k);
    }
  }

  SlotContext* slot_;
  const std::vector<MoveRun>& runs_;
  size_t span_lo_ = 0;  // rows some run writes: [span_lo_, span_hi_)
  size_t span_hi_ = 0;
  std::vector<MoveChunk> chunks_;
  /// The chunks' snapshotted rows (sensors and slabs only), chunk by chunk.
  SlotContext snap_;
};

}  // namespace merge_detail

/// Applies a sorted batch of membership events to `slot`'s member array,
/// sorted ascending by sensor id, in place — the merge behind the
/// engine's slot turnover (AcquisitionEngine::RebuildMembership).
/// `slot->sensors`, its slab columns and its `slot_pos` map (sized to the
/// registry, -1 = non-member) are kept consistent.
///
/// Phase 1 walks the sorted events serially in ascending id order — O(k)
/// for k events: it places inserts (their slot_pos entries), retires
/// removals, and records the at most k+1 unchanged runs between events
/// that shift. Phase 2 moves those runs inside the arrays — the O(n)
/// part (merge_detail::RunMover). On `pool`, when one is given and the
/// merge is large enough, the moved rows split into contiguous chunks:
/// each chunk first snapshots the few source rows another chunk may
/// overwrite, and after one barrier moves its rows. Every row and
/// slot_pos entry is written by exactly one chunk, so any pool, or none,
/// yields the same bytes. Phase 3 writes the inserted rows, which no run
/// writes.
///
/// `inserts` and `removes` must be sorted ascending and disjoint.
/// `fill(ss, id)` populates a freshly inserted entry's payload
/// (location/cost/inaccuracy/trust); .index and .sensor_id are set by the
/// merge, and so is the inserted slab row. `overlap()` is independent
/// work (`[] {}` for none). Both run on the calling thread, `fill` in
/// ascending id order; with pooled moves they run while the pool moves
/// (`fill` into a staging buffer scattered after the wait), otherwise
/// after the moves. Neither may touch the slot's rows.
///
/// Growth needs no reallocation when the caller reserves the member
/// capacity (the engine reserves the registry size).
template <typename FillFn, typename OverlapFn>
void MergeSortedMembership(SlotContext* slot, const std::vector<int>& inserts,
                           const std::vector<int>& removes, FillFn&& fill,
                           ThreadPool* pool, OverlapFn&& overlap) {
  using merge_detail::MoveRun;
  std::vector<int>& pos = slot->slot_pos;
  const size_t old_size = slot->sensors.size();
  std::vector<MoveRun> runs;
  runs.reserve(inserts.size() + removes.size() + 1);
  size_t si = 0;     // source cursor (old array)
  size_t di = 0;     // destination cursor
  size_t moved = 0;  // rows in `runs` so far
  const auto end_run = [&](size_t src_end) {
    const size_t len = src_end - si;
    if (len > 0 && si != di) {
      runs.push_back(MoveRun{si, di, len, moved});
      moved += len;
    }
    si = src_end;
    di += len;
  };
  size_t ii = 0;  // inserts cursor
  size_t ri = 0;  // removes cursor
  // Events ascend by sensor id, and the old array is sorted by sensor id,
  // so event positions ascend too: removals resolve their position through
  // slot_pos, insertions land before the first larger id.
  while (ii < inserts.size() || ri < removes.size()) {
    const bool take_insert =
        ri >= removes.size() ||
        (ii < inserts.size() && inserts[ii] < removes[ri]);
    if (take_insert) {
      const int id = inserts[ii++];
      end_run(MemberInsertPosition(pos, id, old_size));
      pos[id] = static_cast<int>(di);
      ++di;
    } else {
      const int id = removes[ri++];
      end_run(static_cast<size_t>(pos[id]));
      pos[id] = -1;
      ++si;  // skip the removed element
    }
  }
  end_run(old_size);
  const size_t new_size = di;
  slot->sensors.resize(std::max(old_size, new_size));
  slot->slabs.Resize(std::max(old_size, new_size));

  // Inserted rows are the ones no run writes; slot_pos locates them.
  const auto put_insert = [&](const SlotSensor& ss) {
    slot->sensors[static_cast<size_t>(ss.index)] = ss;
    slot->slabs.SetRow(static_cast<size_t>(ss.index), ss);
  };
  const auto make_insert = [&](int id) {
    SlotSensor ss;
    ss.index = pos[id];
    ss.sensor_id = id;
    fill(ss, id);
    return ss;
  };
  const bool pooled = pool != nullptr && pool->size() > 1 &&
                      moved >= merge_detail::kMinParallelCopyRows;
  // A few chunks per worker: workers claim them dynamically, so one
  // preempted worker delays the moves by a chunk, not by a quarter of
  // them.
  merge_detail::RunMover mover(slot, &runs, pooled ? pool->size() * 4 : 1);
  if (pooled) {
    const int chunks = mover.chunks();
    std::atomic<int> next_snap{0};
    std::atomic<int> snapped{0};
    std::atomic<int> next_move{0};
    const auto claim_chunks = [&] {
      for (int c = next_snap++; c < chunks; c = next_snap++) {
        mover.Snapshot(c);
        ++snapped;
      }
      // Every chunk is claimed by a running thread, so the barrier always
      // opens; it is short, as snapshots are a few hundred rows.
      while (snapped < chunks) {
        std::this_thread::yield();
      }
      for (int c = next_move++; c < chunks; c = next_move++) mover.Move(c);
    };
    // The calling thread fills and overlaps first, then claims what is
    // left.
    std::vector<SlotSensor> staged;
    staged.reserve(inserts.size());
    {
      const merge_detail::PoolWait wait{pool};
      for (int w = 0; w < pool->size(); ++w) pool->Submit(claim_chunks);
      for (int id : inserts) staged.push_back(make_insert(id));
      overlap();
      claim_chunks();
    }
    for (const SlotSensor& ss : staged) put_insert(ss);
  } else {
    mover.Move(0);
    for (int id : inserts) put_insert(make_insert(id));
    overlap();
  }
  slot->sensors.resize(new_size);
  slot->slabs.Resize(new_size);
}

}  // namespace psens

#endif  // PSENS_ENGINE_MEMBERSHIP_MERGE_H_
