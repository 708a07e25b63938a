#ifndef PSENS_CORE_AGGREGATE_QUERY_H_
#define PSENS_CORE_AGGREGATE_QUERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/multi_query.h"

namespace psens {

/// Shared machinery of the two coverage valuations of Eq. (5):
///
///   v_q(S) = B_q * G_q(S) * (sum_{s in S} theta_s) / |S|,
///
/// where G_q is the fraction of the query's cells covered by the selected
/// sensors' sensing disks and theta_s = (1 - gamma_s) * tau_s is the
/// sensor's location-independent reading quality. The mean-quality factor
/// makes the valuation non-submodular and non-monotone (Section 3.2),
/// which is why the paper schedules these queries with greedy Algorithm 1
/// rather than the local-search approximation.
///
/// Binding rasterizes the query's area into a CoverageGrid and gives each
/// candidate sensor a coverage bitset over its cells (Bind). The query
/// types differ only in which grid cells they keep: every cell of the
/// region (AggregateQuery) or the cells near a polyline (TrajectoryQuery).
class CoverageQuery : public MultiQueryBase {
 public:
  double MarginalValue(int sensor) const override;
  /// Tight sweep over the probed sensors' precomputed coverage bitsets —
  /// one virtual call per batch instead of per sensor.
  void MarginalValuesUncounted(std::span<const int> sensors,
                               std::span<double> out) const override;
  bool ThreadSafeBatchValuation() const override { return true; }
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return budget_; }

  /// Sensors whose sensing disk covers at least one query cell (marginal
  /// value is exactly zero for all others). Exposed only when the slot was
  /// indexed at bind time, so unindexed slots keep the reference scan.
  const std::vector<int>* CandidateSensors() const override;

  void ResetSelection() override;

  /// Coverage G(S) in [0, 1] for the current selection.
  double CurrentCoverage() const;

  /// Value of an arbitrary sensor set (non-incremental; used by the
  /// baseline and tests).
  double ValueOf(const std::vector<int>& sensors) const;

 protected:
  /// An nx x ny grid of square cells; cell (cx, cy) is centred at
  /// (x0 + (cx + 0.5) * cell, y0 + (cy + 0.5) * cell). A one-cell grid
  /// with cell 0 is centred exactly at (x0, y0).
  struct CoverageGrid {
    double x0 = 0.0;
    double y0 = 0.0;
    double cell = 1.0;
    int nx = 1;
    int ny = 1;
    /// Grid cell cy * nx + cx -> its bit in the coverage mask, or -1 when
    /// the cell is not one of the query's. Empty means every grid cell is
    /// a query cell, and its bit is its grid index.
    std::vector<int> bits;
    /// Number of query cells (mask bits).
    int cells = 1;
  };

  CoverageQuery(int id, double budget) : MultiQueryBase(id), budget_(budget) {}

  /// Binds the query to the slot: for each coarse survivor (ascending
  /// slot indices that may reach a query cell), sets the bits of the
  /// cells whose centre lies within `range` of the sensor. Only the cells
  /// inside the sensing disk's bounding box are tested, so a bind costs
  /// O(coarse survivors x disk-box cells) whatever the grid's size.
  /// Sensors that cover no cell are not candidates.
  void Bind(const SlotContext& slot, const std::vector<int>& coarse,
            const CoverageGrid& grid, double range);

 private:
  int NumWords() const { return static_cast<int>((num_cells_ + 63) / 64); }
  double ValueFrom(int covered_cells, double theta_sum, int count) const;
  const uint64_t* MaskOf(int ord) const {
    return mask_words_.data() +
           static_cast<size_t>(ord) * static_cast<size_t>(NumWords());
  }

  double budget_;
  int num_cells_ = 0;
  /// Per slot-sensor: candidate ordinal into mask_words_ and theta_, or -1
  /// when the sensor covers no cell. One flat word slab (NumWords() words
  /// per ordinal) so the probe kernel does one int load + one contiguous
  /// word run per sensor. This is the only per-slot-sensor array; every
  /// other bound array is per candidate.
  std::vector<int> mask_slot_;
  std::vector<uint64_t> mask_words_;
  /// Per candidate ordinal: theta_s.
  std::vector<double> theta_;
  /// Sensors with non-empty masks, ascending; valid when slot_indexed_.
  std::vector<int> candidates_;
  bool slot_indexed_ = false;

  // Incremental selection state.
  std::vector<uint64_t> acc_mask_;
  int covered_cells_ = 0;
  double theta_sum_ = 0.0;

  /// Per-candidate round-delta memo, armed only on slab-synced binds
  /// (SlotContext::SlabsSynced — the SoA ablation switch, so the AoS
  /// reference path recomputes every probe). `state_version_` names the
  /// current selection state; a memo entry stamped with it replays the
  /// identical double the sweep kernel computed under the same inputs.
  /// Written from at most one worker at a time (each query's batch slice
  /// belongs to one NetEvaluator worker, with a join between rounds).
  bool soa_ = false;
  uint64_t state_version_ = 1;
  mutable std::vector<uint64_t> cached_at_;
  mutable std::vector<double> cached_delta_;
};

/// Spatial-aggregate query (Section 2.2.2) with the example valuation of
/// Eq. (5) over the cells of a rectangular region.
///
/// Queries over trajectories (Section 2.2.3) are the same valuation with
/// the coverage computed over cells near the trajectory; see
/// `TrajectoryQuery`.
class AggregateQuery : public CoverageQuery {
 public:
  struct Params {
    int id = 0;
    Rect region;
    double budget = 0.0;
    /// Sensing range of a sensor (disk radius), Section 4.4 sets 10 units.
    double sensing_range = 10.0;
    /// Rasterization cell size for the coverage function.
    double cell_size = 2.0;

    /// Empty when the params describe a bindable query; otherwise why not:
    /// a non-finite or inverted region, a non-finite or negative range, a
    /// non-finite or non-positive cell size, or a grid of more than
    /// INT_MAX cells. The constructor requires valid params; the trace
    /// decoder rejects records that fail this check.
    std::string Validate() const;
  };

  /// Binds the query to the slot: precomputes each candidate sensor's
  /// covered-cell bitset. Sensors whose disk misses the region entirely
  /// are not candidates.
  AggregateQuery(const Params& params, const SlotContext& slot);

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// Query over a trajectory (Section 2.2.3): treated as a spatial-aggregate
/// query whose cells are those within `corridor` of the polyline.
class TrajectoryQuery : public CoverageQuery {
 public:
  struct Params {
    int id = 0;
    Trajectory trajectory;
    double budget = 0.0;
    double sensing_range = 10.0;
    double cell_size = 2.0;
    /// Half-width of the corridor of interest around the trajectory.
    double corridor = 2.0;
  };

  TrajectoryQuery(const Params& params, const SlotContext& slot);
};

}  // namespace psens

#endif  // PSENS_CORE_AGGREGATE_QUERY_H_
