// Generated bind-equivalence suite for the coverage valuations
// (AggregateQuery, TrajectoryQuery). Binding tests each sensor only
// against the cells its sensing disk can reach; the oracle here is the
// dense reference bind, which tests every sensor against every cell of
// the grid. The two must agree bit for bit on everything a scheduler can
// observe: the candidate list, every single-sensor marginal, the value of
// arbitrary sensor sets, and marginals along a commit sequence.
//
// Cases are drawn at random — regions, cell sizes (including cells larger
// than the region and non-integer width/cell ratios), ranges, and
// trajectories with 0, 1 and many waypoints — and each one is bound in
// four slot contexts: SoA slabs or AoS records, indexed or unindexed.
// Sensor placements are adversarial: exactly `range` from a cell centre
// and one ulp either side of it, on the edges of the coarse-reject
// rectangle, and well outside the region.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/slot.h"

namespace psens {
namespace {

/// Dense reference coverage: per slot sensor, its mask over the query's
/// cells (empty when it covers none) and its theta.
struct DenseCoverage {
  int num_cells = 0;
  double budget = 0.0;
  std::vector<std::vector<uint64_t>> masks;
  std::vector<double> theta;
  std::vector<int> candidates;

  bool IsCandidate(int s) const { return !masks[s].empty(); }

  double ValueOf(const std::vector<int>& sensors) const {
    std::vector<uint64_t> acc(static_cast<size_t>((num_cells + 63) / 64), 0);
    double theta_sum = 0.0;
    int count = 0;
    for (int s : sensors) {
      if (IsCandidate(s)) {
        for (size_t w = 0; w < acc.size(); ++w) acc[w] |= masks[s][w];
        theta_sum += theta[s];
      }
      ++count;
    }
    if (count == 0) return 0.0;
    int covered = 0;
    for (uint64_t word : acc) covered += std::popcount(word);
    const double coverage = static_cast<double>(covered) / num_cells;
    return budget * coverage * (theta_sum / count);
  }

  /// Marginal of `s` given the committed sequence `selected`.
  double Marginal(const std::vector<int>& selected, int s) const {
    if (!IsCandidate(s)) return 0.0;
    std::vector<int> with = selected;
    with.push_back(s);
    return ValueOf(with) - ValueOf(selected);
  }
};

/// Tests `loc` against every center, in center order.
void DenseMasks(const SlotContext& slot, const std::vector<Point>& centers,
                double range, const std::vector<char>& coarse,
                DenseCoverage* out) {
  out->num_cells = static_cast<int>(centers.size());
  out->masks.assign(slot.sensors.size(), {});
  out->theta.assign(slot.sensors.size(), 0.0);
  const size_t words = (centers.size() + 63) / 64;
  for (const SlotSensor& s : slot.sensors) {
    if (!coarse[s.index]) continue;
    std::vector<uint64_t> mask(words, 0);
    bool any = false;
    for (size_t c = 0; c < centers.size(); ++c) {
      if (Distance(centers[c], s.location) <= range) {
        mask[c / 64] |= uint64_t{1} << (c % 64);
        any = true;
      }
    }
    if (!any) continue;
    out->masks[s.index] = mask;
    out->theta[s.index] = (1.0 - s.inaccuracy) * s.trust;
    out->candidates.push_back(s.index);
  }
}

DenseCoverage DenseAggregate(const AggregateQuery::Params& p,
                             const SlotContext& slot) {
  const double cell = std::max(1e-9, p.cell_size);
  const int cells_x =
      std::max(1, static_cast<int>(std::ceil(p.region.Width() / cell)));
  const int cells_y =
      std::max(1, static_cast<int>(std::ceil(p.region.Height() / cell)));
  std::vector<Point> centers;
  for (int c = 0; c < cells_x * cells_y; ++c) {
    const int cx = c % cells_x;
    const int cy = c / cells_x;
    centers.push_back(Point{p.region.x_min + (cx + 0.5) * cell,
                            p.region.y_min + (cy + 0.5) * cell});
  }
  const double range = p.sensing_range;
  const Rect grown{p.region.x_min - range, p.region.y_min - range,
                   p.region.x_max + range, p.region.y_max + range};
  std::vector<char> coarse(slot.sensors.size(), 0);
  for (const SlotSensor& s : slot.sensors) {
    coarse[s.index] = grown.Contains(s.location) ? 1 : 0;
  }
  DenseCoverage out;
  out.budget = p.budget;
  DenseMasks(slot, centers, range, coarse, &out);
  return out;
}

std::vector<Point> DenseTrajectoryCenters(const TrajectoryQuery::Params& p) {
  const double cell = std::max(1e-9, p.cell_size);
  const Rect box = p.trajectory.BoundingBox();
  const int nx = std::max(
      1, static_cast<int>(std::ceil((box.Width() + 2 * p.corridor) / cell)));
  const int ny = std::max(
      1, static_cast<int>(std::ceil((box.Height() + 2 * p.corridor) / cell)));
  std::vector<Point> centers;
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const Point center{box.x_min - p.corridor + (x + 0.5) * cell,
                         box.y_min - p.corridor + (y + 0.5) * cell};
      if (p.trajectory.DistanceTo(center) <= p.corridor) {
        centers.push_back(center);
      }
    }
  }
  if (centers.empty()) {
    centers.push_back(p.trajectory.waypoints.empty()
                          ? Point{0, 0}
                          : p.trajectory.waypoints.front());
  }
  return centers;
}

DenseCoverage DenseTrajectory(const TrajectoryQuery::Params& p,
                              const SlotContext& slot) {
  DenseCoverage out;
  out.budget = p.budget;
  DenseMasks(slot, DenseTrajectoryCenters(p), p.sensing_range,
             std::vector<char>(slot.sensors.size(), 1), &out);
  return out;
}

/// The four slot contexts a query can bind in.
struct ContextKind {
  bool soa;
  bool indexed;
};
constexpr ContextKind kContexts[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

std::string Describe(const ContextKind& kind) {
  return std::string(kind.soa ? "slabs" : "AoS") +
         (kind.indexed ? ", indexed" : ", unindexed");
}

SlotContext MakeSlot(const std::vector<Point>& positions, Rng& rng,
                     const ContextKind& kind) {
  SlotContext slot;
  for (size_t i = 0; i < positions.size(); ++i) {
    SlotSensor s;
    s.index = static_cast<int>(i);
    s.sensor_id = static_cast<int>(i);
    s.location = positions[i];
    s.cost = 1.0;
    s.inaccuracy = rng.Uniform(0.0, 0.5);
    s.trust = rng.Uniform(0.5, 1.0);
    slot.sensors.push_back(s);
  }
  slot.slabs.Resize(slot.sensors.size());
  for (size_t i = 0; i < slot.sensors.size(); ++i) {
    slot.slabs.SetRow(i, slot.sensors[i]);
  }
  slot.use_soa = kind.soa;
  slot.index_policy =
      kind.indexed ? SlotIndexPolicy::kGrid : SlotIndexPolicy::kNone;
  AttachSlotIndex(slot);
  return slot;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Adds sensors `range` from the cell centre `c` (along each axis and one
/// random direction), each also one ulp off on either side.
void AddRimSensors(const Point& c, double range, Rng& rng,
                   std::vector<Point>* out) {
  const double inf = std::numeric_limits<double>::infinity();
  const double angle = rng.Uniform(0.0, 6.283185307179586);
  const Point axis_rim{c.x + range, c.y};
  const Point diag_rim{c.x + range * std::cos(angle),
                       c.y + range * std::sin(angle)};
  for (const Point& p : {axis_rim, diag_rim, Point{c.x, c.y - range}}) {
    out->push_back(p);
    out->push_back(Point{std::nextafter(p.x, inf), p.y});
    out->push_back(Point{std::nextafter(p.x, -inf), p.y});
    out->push_back(Point{p.x, std::nextafter(p.y, inf)});
  }
}

/// Adds sensors on the edges and corners of `rect` and one ulp off them.
void AddEdgeSensors(const Rect& rect, Rng& rng, std::vector<Point>* out) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {rect.x_min, rect.x_max}) {
    const double y = rng.Uniform(rect.y_min, rect.y_max);
    for (double dx : {x, std::nextafter(x, inf), std::nextafter(x, -inf)}) {
      out->push_back(Point{dx, y});
    }
  }
  for (double y : {rect.y_min, rect.y_max}) {
    const double x = rng.Uniform(rect.x_min, rect.x_max);
    for (double dy : {y, std::nextafter(y, inf), std::nextafter(y, -inf)}) {
      out->push_back(Point{x, dy});
    }
  }
  out->push_back(Point{rect.x_min, rect.y_min});
  out->push_back(Point{rect.x_max, rect.y_max});
}

/// Compares a bound query with the dense oracle; `what` names the case.
void ExpectSameBind(CoverageQuery& q, const DenseCoverage& dense,
                    const SlotContext& slot, const ContextKind& kind,
                    Rng& rng, const std::string& what) {
  SCOPED_TRACE(what + " [" + Describe(kind) + "]");
  const int n = static_cast<int>(slot.sensors.size());
  const std::vector<int>* candidates = q.CandidateSensors();
  if (kind.indexed) {
    ASSERT_NE(candidates, nullptr);
    EXPECT_EQ(*candidates, dense.candidates);
  } else {
    EXPECT_EQ(candidates, nullptr);
  }
  for (int s = 0; s < n; ++s) {
    const double got = q.MarginalValue(s);
    const double want = dense.Marginal({}, s);
    ASSERT_TRUE(BitEqual(got, want))
        << "sensor " << s << " at (" << slot.sensors[s].location.x << ", "
        << slot.sensors[s].location.y << "): " << got << " vs " << want;
  }
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<int> subset;
    const int size = static_cast<int>(rng.UniformInt(0, std::min(n, 12)));
    for (int k = 0; k < size; ++k) {
      subset.push_back(static_cast<int>(rng.UniformInt(0, n - 1)));
    }
    ASSERT_TRUE(BitEqual(q.ValueOf(subset), dense.ValueOf(subset)))
        << "subset of " << subset.size();
  }
  // Marginals along a commit sequence: candidates first, so the
  // accumulated coverage actually changes, then one non-candidate.
  std::vector<int> order = dense.candidates;
  for (size_t i = order.size(); i > 1; --i) {
    const int64_t j = rng.UniformInt(0, static_cast<int64_t>(i) - 1);
    std::swap(order[i - 1], order[static_cast<size_t>(j)]);
  }
  order.resize(std::min<size_t>(order.size(), 4));
  if (n > 0) order.push_back(static_cast<int>(rng.UniformInt(0, n - 1)));
  std::vector<int> selected;
  for (int pick : order) {
    q.Commit(pick, 0.0);
    selected.push_back(pick);
    for (int s = 0; s < n; ++s) {
      ASSERT_TRUE(BitEqual(q.MarginalValue(s), dense.Marginal(selected, s)))
          << "sensor " << s << " after " << selected.size() << " commits";
    }
  }
}

TEST(CoverageBindTest, AggregateMatchesDenseBind) {
  Rng rng(20260101);
  for (int iter = 0; iter < 150; ++iter) {
    AggregateQuery::Params p;
    p.id = iter;
    p.budget = rng.Uniform(1.0, 200.0);
    const double x0 = rng.Uniform(-60.0, 60.0);
    const double y0 = rng.Uniform(-60.0, 60.0);
    const double w = iter % 10 == 0 ? 0.0 : rng.Uniform(0.5, 60.0);
    const double h = iter % 15 == 0 ? 0.0 : rng.Uniform(0.5, 60.0);
    p.region = Rect{x0, y0, x0 + w, y0 + h};
    switch (iter % 4) {
      case 0:  // cell larger than the region
        p.cell_size = std::max(w, h) * rng.Uniform(1.0, 3.0) + 0.25;
        break;
      case 1:  // integral width/cell ratio where possible
        p.cell_size = w > 0.0 ? w / rng.UniformInt(1, 12) : 2.0;
        break;
      default:  // arbitrary, typically non-integer ratio
        p.cell_size = rng.Uniform(0.3, 9.0);
        break;
    }
    p.sensing_range = iter % 12 == 0 ? 0.0 : rng.Uniform(0.5, 16.0);

    const double r = p.sensing_range;
    const Rect grown{p.region.x_min - r, p.region.y_min - r,
                     p.region.x_max + r, p.region.y_max + r};
    std::vector<Point> positions;
    for (int k = 0; k < 40; ++k) {
      positions.push_back(
          Point{rng.Uniform(grown.x_min - 10, grown.x_max + 10),
                rng.Uniform(grown.y_min - 10, grown.y_max + 10)});
    }
    // Rims of a few cells, edge cells included.
    const double cell = p.cell_size;
    const int nx = std::max(1, static_cast<int>(std::ceil(w / cell)));
    const int ny = std::max(1, static_cast<int>(std::ceil(h / cell)));
    for (int k = 0; k < 4; ++k) {
      // The first two rims are the grid's corner cells.
      const int cx = k == 0   ? 0
                     : k == 1 ? nx - 1
                              : static_cast<int>(rng.UniformInt(0, nx - 1));
      const int cy = k == 0   ? 0
                     : k == 1 ? ny - 1
                              : static_cast<int>(rng.UniformInt(0, ny - 1));
      AddRimSensors(Point{p.region.x_min + (cx + 0.5) * cell,
                          p.region.y_min + (cy + 0.5) * cell},
                    r, rng, &positions);
    }
    AddEdgeSensors(grown, rng, &positions);
    AddEdgeSensors(p.region, rng, &positions);
    positions.push_back(Point{grown.x_max + 1000.0, grown.y_min - 1000.0});

    for (const ContextKind& kind : kContexts) {
      Rng theta_rng(static_cast<uint64_t>(iter) + 1);
      const SlotContext slot = MakeSlot(positions, theta_rng, kind);
      const DenseCoverage dense = DenseAggregate(p, slot);
      AggregateQuery q(p, slot);
      ExpectSameBind(q, dense, slot, kind, rng,
                     "aggregate case " + std::to_string(iter));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CoverageBindTest, TrajectoryMatchesDenseBind) {
  Rng rng(777);
  for (int iter = 0; iter < 120; ++iter) {
    TrajectoryQuery::Params p;
    p.id = iter;
    p.budget = rng.Uniform(1.0, 100.0);
    // 0, 1 or many waypoints.
    int waypoints = iter % 6;
    if (waypoints > 1) waypoints = static_cast<int>(rng.UniformInt(2, 6));
    Point at{rng.Uniform(-40.0, 40.0), rng.Uniform(-40.0, 40.0)};
    for (int k = 0; k < waypoints; ++k) {
      p.trajectory.waypoints.push_back(at);
      at = Point{at.x + rng.Uniform(-15.0, 15.0),
                 at.y + rng.Uniform(-15.0, 15.0)};
    }
    p.cell_size =
        iter % 5 == 0 ? rng.Uniform(10.0, 40.0) : rng.Uniform(0.4, 6.0);
    // A corridor of 0 usually leaves no cell center on the polyline:
    // the degenerate one-cell trajectory.
    p.corridor = iter % 7 == 0 ? 0.0 : rng.Uniform(0.2, 6.0);
    p.sensing_range = rng.Uniform(0.5, 14.0);

    const std::vector<Point> centers = DenseTrajectoryCenters(p);
    std::vector<Point> positions;
    const Rect box = p.trajectory.BoundingBox();
    const double spread = p.corridor + p.sensing_range + 10.0;
    for (int k = 0; k < 40; ++k) {
      positions.push_back(
          Point{rng.Uniform(box.x_min - spread, box.x_max + spread),
                rng.Uniform(box.y_min - spread, box.y_max + spread)});
    }
    for (int k = 0; k < 4; ++k) {
      const Point& c = centers[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(centers.size()) - 1))];
      AddRimSensors(c, p.sensing_range, rng, &positions);
    }
    positions.push_back(Point{box.x_max + 500.0, box.y_max + 500.0});

    for (const ContextKind& kind : kContexts) {
      Rng theta_rng(static_cast<uint64_t>(iter) + 1);
      const SlotContext slot = MakeSlot(positions, theta_rng, kind);
      const DenseCoverage dense = DenseTrajectory(p, slot);
      TrajectoryQuery q(p, slot);
      ExpectSameBind(q, dense, slot, kind, rng,
                     "trajectory case " + std::to_string(iter) + " (" +
                         std::to_string(waypoints) + " waypoints, " +
                         std::to_string(centers.size()) + " cells)");
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace psens
