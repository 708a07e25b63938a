#include "core/candidate_pruning.h"

#include <cassert>
#include <numeric>

#include "common/radix_sort.h"

namespace psens {
namespace {

/// Inverted index when some query is dense: that query attaches to every
/// sensor, so every sensor is a plan row and row r is sensor r. Counting
/// pass, prefix sums, then a fill in ascending query order, so each
/// sensor's query run stays ascending.
void BuildDenseIndex(const std::vector<MultiQuery*>& queries, int num_sensors,
                     SlotArena* arena, CandidatePlan* plan) {
  const size_t n = static_cast<size_t>(num_sensors);
  plan->qs_offsets.Acquire(arena, n + 1);
  std::fill(plan->qs_offsets.begin(), plan->qs_offsets.end(), int64_t{0});
  int64_t num_dense = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (queries[qi]->CandidateSensors() == nullptr) {
      ++num_dense;
      continue;
    }
    for (int s : plan->SensorsOf(static_cast<int>(qi))) {
      ++plan->qs_offsets[static_cast<size_t>(s) + 1];
    }
  }
  int64_t total = 0;
  for (size_t s = 0; s < n; ++s) {
    plan->qs_offsets[s + 1] = total += plan->qs_offsets[s + 1] + num_dense;
  }
  plan->qs_data.Acquire(arena, static_cast<size_t>(total));
  // cursor[s] tracks the next free slot of sensor s's run.
  ArenaBuffer<int64_t> cursor;
  cursor.Acquire(arena, n);
  std::copy(plan->qs_offsets.begin(), plan->qs_offsets.end() - 1,
            cursor.begin());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // Dense queries resolve SensorsOf to every sensor.
    for (int s : plan->SensorsOf(static_cast<int>(qi))) {
      plan->qs_data[static_cast<size_t>(cursor[static_cast<size_t>(s)]++)] =
          static_cast<int>(qi);
    }
  }
}

/// Inverted index when every query lists its candidates: built from the
/// (sensor, query) pairs alone. Pairs are laid out query-major (pair p of
/// query q sits at query_row_offsets[q] + its position in SensorsOf(q)),
/// then stably radix-sorted by sensor — each sensor's run keeps ascending
/// query order, the reference accumulation order. O(pairs) time and
/// space; nothing is sized by the population.
void BuildSparseIndex(const std::vector<MultiQuery*>& queries, int num_sensors,
                      SlotArena* arena, CandidatePlan* plan) {
  const size_t nq = queries.size();
  plan->dense_rows = false;
  plan->query_row_offsets.Acquire(arena, nq + 1);
  plan->query_row_offsets[0] = 0;
  for (size_t qi = 0; qi < nq; ++qi) {
    plan->query_row_offsets[qi + 1] =
        plan->query_row_offsets[qi] +
        static_cast<int64_t>(plan->SensorsOf(static_cast<int>(qi)).size());
  }
  const size_t num_pairs = static_cast<size_t>(plan->query_row_offsets[nq]);
  // key = sensor << 32 | pair index; query_of[p] = the pair's query.
  ArenaBuffer<uint64_t> keys;
  ArenaBuffer<uint64_t> scratch;
  ArenaBuffer<int> query_of;
  keys.Acquire(arena, num_pairs);
  scratch.Acquire(arena, num_pairs);
  query_of.Acquire(arena, num_pairs);
  size_t p = 0;
  for (size_t qi = 0; qi < nq; ++qi) {
    for (int s : plan->SensorsOf(static_cast<int>(qi))) {
      keys[p] = static_cast<uint64_t>(s) << 32 | p;
      query_of[p++] = static_cast<int>(qi);
    }
  }
  RadixSortByKey(keys.data(), scratch.data(), num_pairs,
                 static_cast<uint32_t>(num_sensors),
                 [](uint64_t key) { return static_cast<uint32_t>(key >> 32); });
  size_t num_rows = 0;
  for (size_t k = 0; k < num_pairs; ++k) {
    if (k == 0 || keys[k] >> 32 != keys[k - 1] >> 32) ++num_rows;
  }
  plan->sensors.Acquire(arena, num_rows);
  plan->qs_offsets.Acquire(arena, num_rows + 1);
  plan->qs_data.Acquire(arena, num_pairs);
  plan->query_rows.Acquire(arena, num_pairs);
  plan->qs_offsets[0] = 0;
  int row = -1;
  for (size_t k = 0; k < num_pairs; ++k) {
    const int sensor = static_cast<int>(keys[k] >> 32);
    const size_t pair = static_cast<size_t>(keys[k] & 0xffffffffu);
    if (k == 0 || keys[k] >> 32 != keys[k - 1] >> 32) {
      plan->sensors[static_cast<size_t>(++row)] = sensor;
    }
    plan->qs_data[k] = query_of[pair];
    plan->qs_offsets[static_cast<size_t>(row) + 1] = static_cast<int64_t>(k) + 1;
    plan->query_rows[pair] = row;
  }
}

}  // namespace

CandidatePlan BuildCandidatePlan(const std::vector<MultiQuery*>& queries,
                                 int num_sensors, SlotArena* arena) {
  CandidatePlan plan;
  // Default-constructed refs resolve to the dense fallback.
  plan.query_candidates.assign(queries.size(), CandidatePlan::QueryCandidateRef{});
  bool any_dense = false;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<int>* candidates = queries[qi]->CandidateSensors();
    if (candidates == nullptr) {
      any_dense = true;
      continue;
    }
    plan.active = true;
    bool in_range = true;
    for (int s : *candidates) in_range &= s >= 0 && s < num_sensors;
    if (in_range) {
      plan.query_candidates[qi].external = candidates;
      continue;
    }
    // Rare defensive path: a plan-owned copy of the in-range ids, so the
    // query-major view and the inverted index see exactly the same pairs.
    plan.query_candidates[qi].sanitized_index =
        static_cast<int>(plan.sanitized.size());
    std::vector<int>& copy = plan.sanitized.emplace_back();
    for (int s : *candidates) {
      if (s >= 0 && s < num_sensors) copy.push_back(s);
    }
  }
  if (!plan.active || any_dense) {
    plan.sensors.Acquire(arena, static_cast<size_t>(num_sensors));
    std::iota(plan.sensors.begin(), plan.sensors.end(), 0);
  }
  if (!plan.active) {
    plan.all_queries.Acquire(arena, queries.size());
    std::iota(plan.all_queries.begin(), plan.all_queries.end(), 0);
  } else if (any_dense) {
    BuildDenseIndex(queries, num_sensors, arena, &plan);
  } else {
    BuildSparseIndex(queries, num_sensors, arena, &plan);
  }
  return plan;
}

void CheckPrunedMarginals(const std::vector<MultiQuery*>& queries,
                          const CandidatePlan& plan, int sensor) {
#ifdef NDEBUG
  (void)queries;
  (void)plan;
  (void)sensor;
#else
  if (!plan.active) return;
  std::vector<char> interested(queries.size(), 0);
  for (int qi : plan.QueriesOf(sensor)) {
    interested[static_cast<size_t>(qi)] = 1;
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (interested[qi]) continue;
    // The pruning contract: a sensor outside a query's candidate list can
    // never carry positive marginal value for it. Uncounted, so the probe
    // leaves the valuation-call totals alone.
    double delta = 0.0;
    queries[qi]->MarginalValuesUncounted(std::span<const int>(&sensor, 1),
                                         std::span<double>(&delta, 1));
    assert(delta <= 1e-12 &&
           "candidate pruning dropped a sensor with positive marginal value");
  }
#endif
}

}  // namespace psens
