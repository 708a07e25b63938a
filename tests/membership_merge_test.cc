// The in-place sorted membership merge (engine/membership_merge.h)
// against a naive rebuild: the serial merge and the pooled run moves at
// several pool sizes must produce the same members, .index fields,
// slot_pos map and slab columns, bit for bit.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/slot.h"
#include "engine/membership_merge.h"

namespace psens {
namespace {

/// Large enough that a merge moving most of the registry takes the
/// pooled path.
constexpr int kRegistry = 4 * static_cast<int>(merge_detail::kMinParallelCopyRows);

/// A member array with its slot_pos map and slabs, as the engine keeps it.
SlotContext EmptyMembership() {
  SlotContext m;
  m.slot_pos.assign(kRegistry, -1);
  return m;
}

/// A batch of sorted, disjoint membership events stamped with the
/// generation that fills the inserted payloads (set by Script).
struct Batch {
  std::vector<int> inserts;
  std::vector<int> removes;
  int generation = 0;
};

/// Payload of `id` inserted at `generation`: every field distinct, so a
/// misplaced row cannot compare equal.
void FillPayload(SlotSensor& ss, int id, int generation) {
  ss.location = Point{id * 0.5, generation * 0.25};
  ss.cost = id + generation * 1e-3;
  ss.inaccuracy = id * 1e-6;
  ss.trust = 1.0 - generation * 1e-4;
}

void Merge(SlotContext* m, const Batch& b, ThreadPool* pool) {
  MergeSortedMembership(
      m, b.inserts, b.removes,
      [&](SlotSensor& ss, int id) { FillPayload(ss, id, b.generation); },
      pool, [] {});
}

/// The naive reference: the ascending member list rebuilt from scratch,
/// each member carrying the payload of the generation that inserted it.
class NaiveMembership {
 public:
  void Apply(const Batch& b) {
    for (int id : b.removes) born_[static_cast<size_t>(id)] = -1;
    for (int id : b.inserts) born_[static_cast<size_t>(id)] = b.generation;
  }
  bool IsMember(int id) const { return born_[static_cast<size_t>(id)] >= 0; }

  SlotContext Build() const {
    SlotContext m;
    for (int id = 0; id < kRegistry; ++id) {
      const int gen = born_[static_cast<size_t>(id)];
      if (gen < 0) continue;
      SlotSensor ss;
      ss.index = static_cast<int>(m.sensors.size());
      ss.sensor_id = id;
      FillPayload(ss, id, gen);
      m.sensors.push_back(ss);
    }
    m.slabs.Resize(m.sensors.size());
    for (const SlotSensor& ss : m.sensors) {
      m.slabs.SetRow(static_cast<size_t>(ss.index), ss);
    }
    MapSlotIds(m, kRegistry);
    return m;
  }

 private:
  std::vector<int> born_ = std::vector<int>(kRegistry, -1);
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSame(const SlotContext& want, const SlotContext& got) {
  ASSERT_EQ(want.sensors.size(), got.sensors.size());
  for (size_t k = 0; k < want.sensors.size(); ++k) {
    const SlotSensor& a = want.sensors[k];
    const SlotSensor& b = got.sensors[k];
    ASSERT_EQ(a.index, b.index) << "row " << k;
    ASSERT_EQ(a.sensor_id, b.sensor_id) << "row " << k;
    ASSERT_EQ(a.location.x, b.location.x) << "row " << k;
    ASSERT_EQ(a.location.y, b.location.y) << "row " << k;
    ASSERT_EQ(a.cost, b.cost) << "row " << k;
    ASSERT_EQ(a.inaccuracy, b.inaccuracy) << "row " << k;
    ASSERT_EQ(a.trust, b.trust) << "row " << k;
  }
  EXPECT_EQ(want.slot_pos, got.slot_pos);
  EXPECT_TRUE(SameBits(want.slabs.x, got.slabs.x));
  EXPECT_TRUE(SameBits(want.slabs.y, got.slabs.y));
  EXPECT_TRUE(SameBits(want.slabs.cost, got.slabs.cost));
  EXPECT_TRUE(SameBits(want.slabs.inaccuracy, got.slabs.inaccuracy));
  EXPECT_TRUE(SameBits(want.slabs.trust, got.slabs.trust));
}

/// Random batch: each member leaves with probability `p_remove`, each
/// non-member joins with probability `p_insert`.
Batch RandomBatch(const NaiveMembership& naive, double p_insert,
                  double p_remove, Rng& rng) {
  Batch b;
  for (int id = 0; id < kRegistry; ++id) {
    if (naive.IsMember(id)) {
      if (rng.Uniform(0.0, 1.0) < p_remove) b.removes.push_back(id);
    } else if (rng.Uniform(0.0, 1.0) < p_insert) {
      b.inserts.push_back(id);
    }
  }
  return b;
}

/// The scripted batch sequence: a cold build, then every edge case, then
/// random churn with short and long runs.
std::vector<Batch> Script(uint64_t seed) {
  Rng rng(seed);
  NaiveMembership naive;
  std::vector<Batch> batches;
  const auto push = [&](Batch b) {
    b.generation = static_cast<int>(batches.size()) + 1;
    naive.Apply(b);
    batches.push_back(std::move(b));
  };
  // Cold build (old_size == 0): most of the registry joins at once, but
  // not id 0 or the last id, which join later.
  {
    Batch b = RandomBatch(naive, 0.8, 0.0, rng);
    std::erase(b.inserts, 0);
    std::erase(b.inserts, kRegistry - 1);
    push(std::move(b));
  }
  // Removes whichever of `ids` are members, so every batch is valid.
  const auto removal = [&](std::vector<int> ids) {
    std::erase_if(ids, [&](int id) { return !naive.IsMember(id); });
    return Batch{{}, std::move(ids), 0};
  };
  int middle = kRegistry / 2;
  while (!naive.IsMember(middle)) ++middle;
  push(Batch{});                                     // empty batch
  push(Batch{{0, kRegistry - 1}, {}, 0});            // inserts at both ends
  push(removal({middle}));                           // two long runs
  push(RandomBatch(naive, 0.05, 0.05, rng));         // many short runs
  push(RandomBatch(naive, 0.0001, 0.0001, rng));     // few, chunk-crossing
  push(removal({0, kRegistry - 1}));                 // removes at both ends
  push(RandomBatch(naive, 0.5, 0.5, rng));           // runs of a row or two
  {
    Batch all;  // remove-all
    for (int id = 0; id < kRegistry; ++id) {
      if (naive.IsMember(id)) all.removes.push_back(id);
    }
    push(std::move(all));
  }
  push(RandomBatch(naive, 0.6, 0.0, rng));  // cold build again
  push(RandomBatch(naive, 0.01, 0.02, rng));
  // Shifts larger than a chunk: every insert lies below every remove, so
  // the rows between them shift right by thousands; then the mirror
  // image, a long left shift.
  const int band = kRegistry / 5;
  const auto shift_batch = [&](int insert_lo, int remove_lo) {
    Batch b;
    for (int id = insert_lo; id < insert_lo + band; ++id) {
      if (!naive.IsMember(id)) b.inserts.push_back(id);
    }
    for (int id = remove_lo; id < remove_lo + band; ++id) {
      if (naive.IsMember(id)) b.removes.push_back(id);
    }
    return b;
  };
  push(shift_batch(0, kRegistry - band));
  push(shift_batch(kRegistry - band, 0));
  push(RandomBatch(naive, 0.3, 0.01, rng));   // growth
  push(RandomBatch(naive, 0.01, 0.3, rng));   // shrink
  return batches;
}

TEST(MembershipMergeTest, SerialMergeMatchesNaiveRebuild) {
  NaiveMembership naive;
  SlotContext merged = EmptyMembership();
  for (const Batch& b : Script(11)) {
    naive.Apply(b);
    Merge(&merged, b, nullptr);
    ExpectSame(naive.Build(), merged);
  }
}

TEST(MembershipMergeTest, PooledMergeMatchesSerialForEveryPoolSize) {
  const std::vector<Batch> script = Script(12);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    SlotContext serial = EmptyMembership();
    SlotContext pooled = EmptyMembership();
    NaiveMembership naive;
    for (const Batch& b : script) {
      naive.Apply(b);
      Merge(&serial, b, nullptr);
      Merge(&pooled, b, &pool);
      ExpectSame(serial, pooled);
      ExpectSame(naive.Build(), pooled);
    }
  }
}

// `fill` runs on the calling thread in ascending id order, and `overlap`
// exactly once per merge, whether the moves are pooled, serial, or absent
// (a merge with nothing to move).
TEST(MembershipMergeTest, FillAndOverlapRunOnTheCallingThread) {
  const std::vector<Batch> script = Script(14);
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SlotContext merged = EmptyMembership();
    for (const Batch& b : script) {
      int calls = 0;
      std::vector<int> filled;
      MergeSortedMembership(
          &merged, b.inserts, b.removes,
          [&](SlotSensor& ss, int id) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            filled.push_back(id);
            FillPayload(ss, id, b.generation);
          },
          p, [&] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++calls;
          });
      EXPECT_EQ(calls, 1);
      EXPECT_EQ(filled, b.inserts);
    }
  }
}

// An overlap that throws must not unwind while pooled move tasks still
// read the merge's state (under ASan, a missing wait shows as a
// heap-use-after-free of the run list or the snapshot); the pool stays
// usable and the next merge is exact.
TEST(MembershipMergeTest, ThrowingOverlapWaitsForPooledMoves) {
  const std::vector<Batch> script = Script(15);
  ThreadPool pool(4);
  SlotContext merged = EmptyMembership();
  NaiveMembership naive;
  naive.Apply(script[0]);
  Merge(&merged, script[0], nullptr);
  SlotContext copy = merged;
  Rng rng(16);
  const Batch churn = RandomBatch(naive, 0.05, 0.05, rng);  // pooled moves
  EXPECT_THROW(
      MergeSortedMembership(
          &copy, churn.inserts, churn.removes,
          [&](SlotSensor& ss, int id) { FillPayload(ss, id, 99); },
          &pool, [] { throw std::runtime_error("overlap failed"); }),
      std::runtime_error);
  for (size_t k = 1; k < script.size(); ++k) {
    naive.Apply(script[k]);
    Merge(&merged, script[k], &pool);
    ExpectSame(naive.Build(), merged);
  }
}

}  // namespace
}  // namespace psens
