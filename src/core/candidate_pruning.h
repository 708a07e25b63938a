#ifndef PSENS_CORE_CANDIDATE_PRUNING_H_
#define PSENS_CORE_CANDIDATE_PRUNING_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/multi_query.h"

namespace psens {

/// Inverted candidate index for one joint selection run: which queries can
/// possibly assign positive marginal value to which sensor. Built from the
/// queries' CandidateSensors() hooks; a query exposing no candidate list
/// ("dense") is attached to every sensor.
///
/// The plan is exact, not heuristic: CandidateSensors() is contractually
/// conservative (a sensor outside the list has marginal value <= 0 against
/// every possible selection state), so a sensor with no interested query
/// has net gain <= -cost and can never be picked by Algorithm 1's
/// positive-net rule. Scanning `sensors` (ascending) instead of all slot
/// sensors, and summing marginals over `QueriesOf(s)` (ascending
/// query order) instead of all queries, therefore reproduces the dense
/// scan's selections, payments, and tie-breaks bit for bit.
struct CandidatePlan {
  /// False when no query exposed a candidate list; engines then run the
  /// reference dense loops (identical behaviour *and* identical
  /// valuation-call counts to the pre-index code).
  bool active = false;
  /// True when plan row r is sensor r: no query exposed a candidate list,
  /// or some query is dense (attached to every sensor). Otherwise the plan
  /// is sparse and holds only the sensors some query lists.
  bool dense_rows = true;
  /// Sensors (ascending) with at least one interested query; row r of the
  /// plan is sensors[r]. Dense plans hold every sensor 0..n-1.
  ArenaBuffer<int> sensors;
  /// CSR inverted index by plan row: row r's interested queries, ascending
  /// by query position, are qs_data[qs_offsets[r] .. qs_offsets[r+1]).
  /// One flat slab (arena-backed when the slot carries an arena); a
  /// sparse plan sizes it by (sensor, query) pairs, never by population.
  ArenaBuffer<int64_t> qs_offsets;
  ArenaBuffer<int> qs_data;
  /// Every query 0..Q-1, filled only when !active.
  ArenaBuffer<int> all_queries;
  /// Sparse plans only: query q's plan rows, parallel to SensorsOf(q), are
  /// query_rows[query_row_offsets[q] .. query_row_offsets[q+1]).
  ArenaBuffer<int64_t> query_row_offsets;
  ArenaBuffer<int> query_rows;

  /// Per query: where its candidate sensor list (ascending) lives — the
  /// query-major mirror of the inverted index, used by the batched round
  /// evaluator (core/batch_eval.h) to sweep each query's sensors in one
  /// MarginalValues call. `external` points into the query object's own
  /// CandidateSensors() storage (stable during a selection run and across
  /// plan moves); `sanitized_index` selects a plan-owned copy when a hook
  /// returned out-of-range ids; neither set means the dense fallback.
  struct QueryCandidateRef {
    const std::vector<int>* external = nullptr;
    int sanitized_index = -1;
  };
  std::vector<QueryCandidateRef> query_candidates;
  /// Backing storage for sanitized query_candidates entries.
  std::vector<std::vector<int>> sanitized;

  /// Sensors an engine must scan (every sensor for dense plans).
  std::span<const int> ScanSensors() const {
    return {sensors.data(), sensors.size()};
  }
  /// Plan row of `sensor`, or -1 when the sensor is outside the plan (no
  /// query values it). Binary search over `sensors` for sparse plans.
  int RowOf(int sensor) const {
    const int rows = static_cast<int>(sensors.size());
    if (dense_rows) return sensor >= 0 && sensor < rows ? sensor : -1;
    const int* end = sensors.data() + rows;
    const int* it = std::lower_bound(sensors.data(), end, sensor);
    return it != end && *it == sensor ? static_cast<int>(it - sensors.data())
                                      : -1;
  }
  /// Queries that may value plan row `row` (sensor ScanSensors()[row]),
  /// ascending, resolving the dense fallback.
  std::span<const int> QueriesOfRow(int row) const {
    if (!active) return {all_queries.data(), all_queries.size()};
    const size_t b = static_cast<size_t>(qs_offsets[static_cast<size_t>(row)]);
    const size_t e =
        static_cast<size_t>(qs_offsets[static_cast<size_t>(row) + 1]);
    return {qs_data.data() + b, e - b};
  }
  /// Queries that may value `sensor`, resolving the dense fallback; empty
  /// for a sensor outside the plan.
  std::span<const int> QueriesOf(int sensor) const {
    const int row = RowOf(sensor);
    if (row < 0) return {};
    return QueriesOfRow(row);
  }
  /// Sensors query `query` may value (ascending), resolving the dense
  /// fallback. Scanning these per query and summing into per-sensor
  /// accumulators in ascending query order visits exactly the (sensor,
  /// query) pairs of the sensor-major reference loops, with the identical
  /// per-sensor accumulation order.
  std::span<const int> SensorsOf(int query) const {
    const QueryCandidateRef& ref = query_candidates[static_cast<size_t>(query)];
    if (ref.external != nullptr) return {ref.external->data(), ref.external->size()};
    if (ref.sanitized_index >= 0) {
      const std::vector<int>& s = sanitized[static_cast<size_t>(ref.sanitized_index)];
      return {s.data(), s.size()};
    }
    return ScanSensors();
  }
  /// Plan rows of SensorsOf(query), element for element.
  std::span<const int> RowsOf(int query) const {
    if (dense_rows) return SensorsOf(query);
    const size_t b =
        static_cast<size_t>(query_row_offsets[static_cast<size_t>(query)]);
    const size_t e =
        static_cast<size_t>(query_row_offsets[static_cast<size_t>(query) + 1]);
    return {query_rows.data() + b, e - b};
  }
};

/// Builds the plan for one selection run. `arena` (usually
/// SlotContext::arena, may be null) backs the plan's flat index storage;
/// the plan must then not outlive the arena's next Reset — engines build
/// it per selection inside one slot, which satisfies this by construction.
/// When every query exposes a candidate list the plan is built from the
/// (sensor, query) pairs alone — a stable radix sort by sensor, so the
/// cost is O(pairs) with no pass over the population; a dense query
/// attaches to every sensor and takes the O(n) dense path.
CandidatePlan BuildCandidatePlan(const std::vector<MultiQuery*>& queries,
                                 int num_sensors,
                                 SlotArena* arena = nullptr);

/// Debug cross-check of the pruning contract for one committed sensor:
/// asserts that every query *not* in the plan's list for `sensor` indeed
/// reports a non-positive marginal value. The probes are uncounted, so
/// Debug and Release builds report the same valuation calls. Compiled to a
/// no-op in NDEBUG builds (the extra probes would undo the asymptotics
/// pruning exists to fix).
void CheckPrunedMarginals(const std::vector<MultiQuery*>& queries,
                          const CandidatePlan& plan, int sensor);

}  // namespace psens

#endif  // PSENS_CORE_CANDIDATE_PRUNING_H_
