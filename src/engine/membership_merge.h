#ifndef PSENS_ENGINE_MEMBERSHIP_MERGE_H_
#define PSENS_ENGINE_MEMBERSHIP_MERGE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
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
/// below the current event id, and the run copy runs after the walk).
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

/// Unchanged old rows [src, src + len) land at [dst, dst + len);
/// `rows_before` is the total length of the runs ahead of this one.
struct CopyRun {
  size_t src;
  size_t dst;
  size_t len;
  size_t rows_before;
};

/// Copies below this many rows stay on the calling thread: the pool's
/// wake/wait handshake would cost more than the copy saves. Purely a
/// performance constant — the result is bit-identical either way.
constexpr size_t kMinParallelCopyRows = size_t{1} << 15;

/// The SlotSlabs columns, each copied alongside the AoS rows.
inline constexpr std::vector<double> SlotSlabs::*kSlabColumns[] = {
    &SlotSlabs::x, &SlotSlabs::y, &SlotSlabs::cost, &SlotSlabs::inaccuracy,
    &SlotSlabs::trust};

/// Waits for `pool` on scope exit, so no exit path — an exception from the
/// overlapped work included — leaves copy tasks reading a dead frame.
struct PoolWait {
  ThreadPool* pool;
  ~PoolWait() { pool->Wait(); }
};

}  // namespace merge_detail

/// Applies a sorted batch of membership events to a member array sorted
/// ascending by sensor id — the merge behind the engine's slot turnover
/// (AcquisitionEngine::RebuildMembership).
///
/// Segment merge into a scratch buffer whose capacity persists across
/// slots. Phase 1 walks the sorted events serially in ascending id order —
/// O(k) for k events: it places inserts (their slot_pos entries), retires
/// removals, and records the at most k+1 unchanged runs between events.
/// Phase 2 copies those runs — the O(n) part — as contiguous row chunks
/// spread over `pool` when one is given and the merge is large enough:
/// each chunk memcpys its AoS rows and the 5 slab columns, then shifts
/// .index and rewrites slot_pos for its rows while they are cache-hot.
/// Every row and slot_pos entry is written by exactly one chunk, so any
/// pool, or none, yields the same bytes. The walk reads slot_pos only
/// above the current event id, which it has not written yet.
///
/// `inserts` and `removes` must be sorted ascending and disjoint;
/// `slot_pos` maps sensor id -> position in `members` (-1 = non-member)
/// and is kept consistent. `fill(ss, id)` populates a freshly inserted
/// entry's payload (location/cost/inaccuracy/trust); .index and
/// .sensor_id are set by the merge, and so is the inserted slab row.
/// `overlap()` is independent work (`[] {}` for none). Both run on the
/// calling thread, `fill` in ascending id order, while the pool copies;
/// neither may touch the copied rows. Without a pooled copy, both run
/// after the copy. `members`/`scratch` and the slab pairs are swapped on
/// return.
template <typename FillFn, typename OverlapFn>
void MergeSortedMembership(std::vector<SlotSensor>* members,
                           std::vector<SlotSensor>* scratch,
                           std::vector<int>* slot_pos,
                           const std::vector<int>& inserts,
                           const std::vector<int>& removes, FillFn&& fill,
                           SlotSlabs* slabs, SlotSlabs* slab_scratch,
                           ThreadPool* pool, OverlapFn&& overlap) {
  using merge_detail::CopyRun;
  const std::vector<SlotSensor>& src = *members;
  const SlotSlabs& src_slabs = *slabs;
  std::vector<SlotSensor>* dst = scratch;
  SlotSlabs* dst_slabs = slab_scratch;
  std::vector<int>& pos = *slot_pos;
  const size_t old_size = src.size();
  dst->resize(old_size + inserts.size());
  dst_slabs->Resize(old_size + inserts.size());
  std::vector<CopyRun> runs;
  runs.reserve(inserts.size() + removes.size() + 1);
  size_t si = 0;      // source cursor (old array)
  size_t di = 0;      // destination cursor
  size_t copied = 0;  // rows in `runs` so far
  const auto end_run = [&](size_t src_end) {
    const size_t len = src_end - si;
    if (len > 0) runs.push_back(CopyRun{si, di, len, copied});
    copied += len;
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
  // Inserted rows are the ones no copy run writes; slot_pos locates them.
  const auto fill_inserts = [&] {
    for (int id : inserts) {
      const size_t row = static_cast<size_t>(pos[id]);
      SlotSensor& ss = (*dst)[row];
      ss.index = static_cast<int>(row);
      ss.sensor_id = id;
      fill(ss, id);
      dst_slabs->SetRow(row, ss);
    }
  };

  // Copies rows [begin, end) of the concatenated run sequence.
  const auto copy_rows = [&](size_t begin, size_t end) {
    size_t r = static_cast<size_t>(
        std::upper_bound(runs.begin(), runs.end(), begin,
                         [](size_t row, const CopyRun& run) {
                           return row < run.rows_before;
                         }) -
        runs.begin() - 1);
    for (; r < runs.size() && runs[r].rows_before < end; ++r) {
      const CopyRun& run = runs[r];
      const size_t lo = std::max(begin, run.rows_before) - run.rows_before;
      const size_t hi =
          std::min(end, run.rows_before + run.len) - run.rows_before;
      const size_t s = run.src + lo;
      const size_t d = run.dst + lo;
      const size_t len = hi - lo;
      std::memcpy(dst->data() + d, src.data() + s, len * sizeof(SlotSensor));
      for (std::vector<double> SlotSlabs::*col : merge_detail::kSlabColumns) {
        std::memcpy((dst_slabs->*col).data() + d, (src_slabs.*col).data() + s,
                    len * sizeof(double));
      }
      const int shift = static_cast<int>(run.dst) - static_cast<int>(run.src);
      if (shift == 0) continue;
      for (size_t k = d; k < d + len; ++k) {
        SlotSensor& ss = (*dst)[k];
        ss.index += shift;
        pos[ss.sensor_id] = static_cast<int>(k);
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 &&
      copied >= merge_detail::kMinParallelCopyRows) {
    // A few chunks per worker: workers claim them dynamically, so one
    // preempted worker delays the copy by a chunk, not by a quarter of it.
    // The calling thread fills and overlaps first, then claims what is
    // left.
    const int chunks = pool->size() * 4;
    std::atomic<int> next{0};
    const auto claim_chunks = [&] {
      for (int c = next++; c < chunks; c = next++) {
        copy_rows(copied * static_cast<size_t>(c) / chunks,
                  copied * static_cast<size_t>(c + 1) / chunks);
      }
    };
    const merge_detail::PoolWait wait{pool};
    for (int w = 0; w < pool->size(); ++w) pool->Submit(claim_chunks);
    fill_inserts();
    overlap();
    claim_chunks();
  } else {
    copy_rows(0, copied);
    fill_inserts();
    overlap();
  }
  dst->resize(di);
  dst_slabs->Resize(di);
  std::swap(*slabs, *slab_scratch);
  std::swap(*members, *scratch);
}

}  // namespace psens

#endif  // PSENS_ENGINE_MEMBERSHIP_MERGE_H_
