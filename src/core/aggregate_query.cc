#include "core/aggregate_query.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <span>

#include "index/spatial_index.h"

namespace psens {
namespace {

int PopCount(const std::vector<uint64_t>& mask) {
  int count = 0;
  for (uint64_t word : mask) count += std::popcount(word);
  return count;
}

int PopCountOr(const std::vector<uint64_t>& a, const uint64_t* b) {
  int count = 0;
  for (size_t i = 0; i < a.size(); ++i) count += std::popcount(a[i] | b[i]);
  return count;
}

void OrInto(std::vector<uint64_t>& acc, const uint64_t* mask) {
  for (size_t i = 0; i < acc.size(); ++i) acc[i] |= mask[i];
}

/// Location-independent sensor quality used by the aggregate valuation.
double SensorTheta(double inaccuracy, double trust) {
  return (1.0 - inaccuracy) * trust;
}

/// Cells along one grid axis of `extent` at `cell` spacing, in double so
/// hostile extents cannot overflow an int before they are checked.
double AxisCells(double extent, double cell) {
  return std::max(1.0, std::ceil(extent / cell));
}

/// Index span [*lo, *hi] of the cells along one grid axis (centres
/// origin + (i + 0.5) * cell) whose centre can lie within `range` of
/// coordinate `p`. Returns false when no cell can.
///
/// Why the span is a superset of the cells Distance(centre, loc) <= range
/// accepts: Distance adds the non-negative cross-axis square before a
/// monotone sqrt, so an accepted centre has |centre - p| <= range up to
/// an ulp. Solving origin + (i + 0.5) * cell = p -/+ range for i gives
/// the span's exact ends. Evaluating those ends (with a rounded 1 / cell),
/// and the centres themselves, in floating point moves them by a few ulps
/// of the largest magnitude involved; `pad` widens each end by one cell
/// plus 2^8 times that rounding relative to the cell. The ends stay in
/// double until they are clamped to [0, n - 1], and NaN ends clamp to the
/// whole axis, so no out-of-range value is ever cast.
///
/// The padded span is then trimmed exactly: an end cell whose axis
/// distance alone fails, sqrt(d * d) > range, fails Distance for every
/// cross-axis offset (rounding is monotone and the cross term is >= 0).
/// The centres are monotone in i, so the failing cells sit at the ends.
bool CellSpan(double p, double range, double origin, double cell, int n,
              int* lo, int* hi) {
  if (n == 1) {  // also the pinned one-cell grid, whose cell is 0
    *lo = *hi = 0;
    return true;
  }
  const double inv = 1.0 / cell;
  const double magnitude =
      std::abs(p) + std::abs(range) + std::abs(origin) + n * cell;
  const double pad = 1.0 + magnitude * 0x1p-45 * inv;
  double a = (p - range - origin) * inv - 0.5 - pad;
  double b = (p + range - origin) * inv - 0.5 + pad;
  if (!(a > 0.0)) a = 0.0;
  if (!(b < n - 1.0)) b = n - 1.0;
  if (a > b) return false;
  int i = static_cast<int>(a);
  int j = static_cast<int>(b);
  const auto misses = [&](int k) {
    const double d = origin + (k + 0.5) * cell - p;
    return std::sqrt(d * d) > range;
  };
  while (i <= j && misses(i)) ++i;
  while (j >= i && misses(j)) --j;
  *lo = i;
  *hi = j;
  return i <= j;
}

}  // namespace

// ---------------------------------------------------------------------------
// CoverageQuery
// ---------------------------------------------------------------------------

void CoverageQuery::Bind(const SlotContext& slot,
                         const std::vector<int>& coarse,
                         const CoverageGrid& grid, double range) {
  num_cells_ = grid.cells;
  slot_indexed_ = slot.index != nullptr;
  const int words = NumWords();
  const int* bits = grid.bits.empty() ? nullptr : grid.bits.data();
  mask_slot_.assign(slot.sensors.size(), -1);
  // On a slab-synced slot the location and quality inputs stream from the
  // SoA columns (identical bits, contiguous loads); hand-built contexts
  // read the AoS records.
  const bool slabs = slot.SlabsSynced();
  for (int si : coarse) {
    const Point loc = slabs ? Point{slot.slabs.x[si], slot.slabs.y[si]}
                            : slot.sensors[si].location;
    int x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
    if (!CellSpan(loc.x, range, grid.x0, grid.cell, grid.nx, &x_lo, &x_hi) ||
        !CellSpan(loc.y, range, grid.y0, grid.cell, grid.ny, &y_lo, &y_hi)) {
      continue;
    }
    const size_t base = mask_words_.size();
    mask_words_.resize(base + static_cast<size_t>(words), 0);
    uint64_t* mask = mask_words_.data() + base;
    uint64_t any = 0;
    for (int cy = y_lo; cy <= y_hi; ++cy) {
      const double center_y = grid.y0 + (cy + 0.5) * grid.cell;
      for (int cx = x_lo; cx <= x_hi; ++cx) {
        const int c = cy * grid.nx + cx;
        const int bit = bits != nullptr ? bits[c] : c;
        if (bit < 0) continue;
        const Point center{grid.x0 + (cx + 0.5) * grid.cell, center_y};
        // Branch-free: whether a cell near the disk's rim is in reach is
        // a coin flip the predictor cannot learn.
        const uint64_t hit = Distance(center, loc) <= range ? 1 : 0;
        mask[bit / 64] |= hit << (bit % 64);
        any |= hit;
      }
    }
    if (any == 0) {
      mask_words_.resize(base);
      continue;
    }
    mask_slot_[si] = static_cast<int>(candidates_.size());
    theta_.push_back(slabs ? SensorTheta(slot.slabs.inaccuracy[si],
                                         slot.slabs.trust[si])
                           : SensorTheta(slot.sensors[si].inaccuracy,
                                         slot.sensors[si].trust));
    candidates_.push_back(si);
  }
  acc_mask_.assign(words, 0);
  soa_ = slabs;
  if (soa_) {
    cached_at_.assign(candidates_.size(), 0);
    cached_delta_.resize(candidates_.size());
  }
}

const std::vector<int>* CoverageQuery::CandidateSensors() const {
  return slot_indexed_ ? &candidates_ : nullptr;
}

double CoverageQuery::ValueFrom(int covered_cells, double theta_sum,
                                int count) const {
  if (count == 0) return 0.0;
  const double coverage = static_cast<double>(covered_cells) / num_cells_;
  return budget_ * coverage * (theta_sum / count);
}

double CoverageQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const int ord = mask_slot_[sensor];
  if (ord < 0) return 0.0;  // not a candidate: no change
  const int new_covered = PopCountOr(acc_mask_, MaskOf(ord));
  const double new_value =
      ValueFrom(new_covered, theta_sum_ + theta_[ord],
                static_cast<int>(selected_.size()) + 1);
  return new_value - current_value_;
}

/// The batched sweep: out[i] = marginal of probing sensors[i] against
/// the accumulated coverage state.
///
/// On slab-synced binds the sweep memoizes each candidate's delta under
/// `state_version_`, which every Commit/ResetSelection bumps. A hit
/// replays the exact double this sweep computed under identical inputs
/// (acc_mask_, theta_sum_, |S| and current_value_ are all unchanged since
/// the stamp), so served values are bit-identical to recomputation;
/// valuation-call accounting is external (NetEvaluator stage 4) and does
/// not observe hits. In a joint greedy round only the queries the last
/// commit touched recompute — everyone else's sweep becomes two loads.
void CoverageQuery::MarginalValuesUncounted(std::span<const int> sensors,
                                            std::span<double> out) const {
  const int count = static_cast<int>(selected_.size()) + 1;
  for (size_t i = 0; i < sensors.size(); ++i) {
    const int ord = mask_slot_[sensors[i]];
    if (ord < 0) {
      out[i] = 0.0;
      continue;
    }
    if (soa_ && cached_at_[ord] == state_version_) {
      out[i] = cached_delta_[ord];
      continue;
    }
    const int new_covered = PopCountOr(acc_mask_, MaskOf(ord));
    out[i] = ValueFrom(new_covered, theta_sum_ + theta_[ord], count) -
             current_value_;
    if (soa_) {
      cached_at_[ord] = state_version_;
      cached_delta_[ord] = out[i];
    }
  }
}

void CoverageQuery::Commit(int sensor, double payment) {
  const int ord = mask_slot_[sensor];
  if (ord >= 0) {
    OrInto(acc_mask_, MaskOf(ord));
    covered_cells_ = PopCount(acc_mask_);
    theta_sum_ += theta_[ord];
  }
  selected_.push_back(sensor);
  current_value_ = ValueFrom(covered_cells_, theta_sum_,
                             static_cast<int>(selected_.size()));
  total_payment_ += payment;
  ++state_version_;  // |S| changed even when ord < 0: every memo is stale
}

void CoverageQuery::ResetSelection() {
  MultiQueryBase::ResetSelection();
  acc_mask_.assign(NumWords(), 0);
  covered_cells_ = 0;
  theta_sum_ = 0.0;
  ++state_version_;
}

double CoverageQuery::CurrentCoverage() const {
  return num_cells_ > 0 ? static_cast<double>(covered_cells_) / num_cells_
                         : 0.0;
}

double CoverageQuery::ValueOf(const std::vector<int>& sensors) const {
  std::vector<uint64_t> acc(NumWords(), 0);
  double theta_sum = 0.0;
  int count = 0;
  for (int s : sensors) {
    const int ord = mask_slot_[s];
    if (ord >= 0) {
      OrInto(acc, MaskOf(ord));
      theta_sum += theta_[ord];
    }
    ++count;
  }
  return ValueFrom(PopCount(acc), theta_sum, count);
}

// ---------------------------------------------------------------------------
// AggregateQuery
// ---------------------------------------------------------------------------

std::string AggregateQuery::Params::Validate() const {
  if (!std::isfinite(region.x_min) || !std::isfinite(region.y_min) ||
      !std::isfinite(region.x_max) || !std::isfinite(region.y_max)) {
    return "region has a non-finite coordinate";
  }
  if (region.x_min > region.x_max || region.y_min > region.y_max) {
    return "region is inverted";
  }
  if (!std::isfinite(sensing_range) || sensing_range < 0.0) {
    return "sensing range must be finite and non-negative";
  }
  if (!std::isfinite(cell_size) || cell_size <= 0.0) {
    return "cell size must be finite and positive";
  }
  const double cell = std::max(1e-9, cell_size);
  if (AxisCells(region.Width(), cell) * AxisCells(region.Height(), cell) >
      static_cast<double>(INT_MAX)) {
    return "coverage grid exceeds INT_MAX cells";
  }
  return "";
}

AggregateQuery::AggregateQuery(const Params& params, const SlotContext& slot)
    : CoverageQuery(params.id, params.budget), params_(params) {
  CoverageGrid grid;
  grid.x0 = params_.region.x_min;
  grid.y0 = params_.region.y_min;
  grid.cell = std::max(1e-9, params_.cell_size);
  grid.nx = static_cast<int>(AxisCells(params_.region.Width(), grid.cell));
  grid.ny = static_cast<int>(AxisCells(params_.region.Height(), grid.cell));
  grid.cells = grid.nx * grid.ny;

  const double range = params_.sensing_range;
  // Quick reject: a sensing disk touching the region requires the sensor
  // inside the region grown by the range. With a slot index this is one
  // rect probe instead of a full population scan; the probe returns
  // exactly the sensors the brute-force Contains test accepts, ascending.
  const Rect grown{params_.region.x_min - range, params_.region.y_min - range,
                   params_.region.x_max + range, params_.region.y_max + range};
  std::vector<int> coarse;
  if (slot.index != nullptr) {
    slot.index->RectQuery(grown, &coarse);
  } else {
    for (const SlotSensor& s : slot.sensors) {
      if (grown.Contains(s.location)) coarse.push_back(s.index);
    }
  }
  Bind(slot, coarse, grid, range);
}

// ---------------------------------------------------------------------------
// TrajectoryQuery
// ---------------------------------------------------------------------------

TrajectoryQuery::TrajectoryQuery(const Params& params, const SlotContext& slot)
    : CoverageQuery(params.id, params.budget) {
  // Cells of interest: cells of a grid over the trajectory's bounding box
  // grown by the corridor whose center lies within `corridor` of the
  // polyline, numbered in row-major grid order.
  const Rect box = params.trajectory.BoundingBox();
  CoverageGrid grid;
  grid.x0 = box.x_min - params.corridor;
  grid.y0 = box.y_min - params.corridor;
  grid.cell = std::max(1e-9, params.cell_size);
  grid.nx = static_cast<int>(
      AxisCells(box.Width() + 2 * params.corridor, grid.cell));
  grid.ny = static_cast<int>(
      AxisCells(box.Height() + 2 * params.corridor, grid.cell));
  grid.bits.assign(
      static_cast<size_t>(grid.nx) * static_cast<size_t>(grid.ny), -1);
  grid.cells = 0;
  Rect centers;  // bounding box of the cells' centers
  for (int y = 0; y < grid.ny; ++y) {
    for (int x = 0; x < grid.nx; ++x) {
      const Point center{grid.x0 + (x + 0.5) * grid.cell,
                         grid.y0 + (y + 0.5) * grid.cell};
      if (params.trajectory.DistanceTo(center) > params.corridor) continue;
      if (grid.cells == 0) {
        centers = Rect{center.x, center.y, center.x, center.y};
      }
      centers.x_min = std::min(centers.x_min, center.x);
      centers.x_max = std::max(centers.x_max, center.x);
      centers.y_min = std::min(centers.y_min, center.y);
      centers.y_max = std::max(centers.y_max, center.y);
      grid.bits[static_cast<size_t>(y) * grid.nx + x] = grid.cells++;
    }
  }
  if (grid.cells == 0) {
    // Degenerate trajectory: its first waypoint (if any) is the single
    // cell of interest — a one-cell grid of size 0 centered there.
    const Point only = params.trajectory.waypoints.empty()
                           ? Point{0, 0}
                           : params.trajectory.waypoints.front();
    grid = CoverageGrid{only.x, only.y, 0.0, 1, 1, {}, 1};
    centers = Rect{only.x, only.y, only.x, only.y};
  }

  // Coarse pruning: a sensor covering any corridor cell lies inside the
  // cell centers' bounding box grown by the sensing range.
  std::vector<int> coarse;
  if (slot.index != nullptr) {
    // Grow by the range plus a rounding slack: unlike AggregateQuery's
    // quick reject (where both paths test the same grown rect), the
    // unindexed trajectory path has no coarse filter at all, so a
    // boundary sensor lost to the +-range arithmetic's rounding would
    // break bit-equality with the dense scan. The slack dwarfs that
    // rounding while staying far below any cell size.
    const double slack =
        1e-9 * (1.0 + std::abs(centers.x_max) + std::abs(centers.y_max) +
                std::abs(centers.x_min) + std::abs(centers.y_min) +
                params.sensing_range);
    const double grow = params.sensing_range + slack;
    slot.index->RectQuery(Rect{centers.x_min - grow, centers.y_min - grow,
                               centers.x_max + grow, centers.y_max + grow},
                          &coarse);
  } else {
    for (const SlotSensor& s : slot.sensors) coarse.push_back(s.index);
  }
  Bind(slot, coarse, grid, params.sensing_range);
}

}  // namespace psens
