// The candidate plan (core/candidate_pruning.h) against a copy of the
// dense, sensor-indexed builder it replaced: on generated query sets the
// resolved views — ScanSensors, QueriesOf, SensorsOf — must be identical,
// including out-of-range candidate ids, dense queries, empty candidate
// lists and zero queries. Also pins the net of a sensor outside the plan
// and that a sparse plan's scratch does not scale with the population.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/arena.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/multi_query.h"
#include "core/slot.h"

namespace psens {
namespace {

/// A query with a fixed candidate list (or none: dense). Its marginal
/// value is a deterministic function of (query, sensor) inside the list
/// and non-positive outside, honouring the pruning contract.
class ListQuery : public MultiQueryBase {
 public:
  ListQuery(int id, bool dense, std::vector<int> candidates)
      : MultiQueryBase(id), dense_(dense), candidates_(std::move(candidates)) {}

  double MarginalValue(int sensor) const override {
    ++valuation_calls_;
    bool listed = dense_;
    for (int s : candidates_) listed |= s == sensor;
    if (!listed) return -1.0;
    // Some listed pairs are worthless too, exercising the > 0 filter.
    return ((sensor * 7 + id_ * 13) % 5) - 1.0 + 0.125 * id_;
  }
  void Commit(int sensor, double payment) override {
    selected_.push_back(sensor);
    total_payment_ += payment;
  }
  double MaxValue() const override { return 1.0; }
  const std::vector<int>* CandidateSensors() const override {
    return dense_ ? nullptr : &candidates_;
  }

 private:
  bool dense_;
  std::vector<int> candidates_;
};

/// The dense builder's resolved views, computed the way the pre-sparse
/// BuildCandidatePlan did: per-sensor query lists over every sensor id.
struct ReferencePlan {
  bool active = false;
  std::vector<int> scan;
  std::vector<std::vector<int>> queries_of;  // by sensor id
  std::vector<std::vector<int>> sensors_of;  // by query
};

ReferencePlan BuildReference(const std::vector<MultiQuery*>& queries, int n) {
  ReferencePlan ref;
  ref.queries_of.assign(static_cast<size_t>(n), {});
  std::vector<int> all_sensors(static_cast<size_t>(n));
  std::iota(all_sensors.begin(), all_sensors.end(), 0);
  for (const MultiQuery* q : queries) {
    ref.active |= q->CandidateSensors() != nullptr;
  }
  if (!ref.active) {
    ref.scan = all_sensors;
    std::vector<int> all_queries(queries.size());
    std::iota(all_queries.begin(), all_queries.end(), 0);
    ref.queries_of.assign(static_cast<size_t>(n), all_queries);
    ref.sensors_of.assign(queries.size(), all_sensors);
    return ref;
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<int>* candidates = queries[qi]->CandidateSensors();
    std::vector<int> in_range;
    for (int s : candidates != nullptr ? *candidates : all_sensors) {
      if (s < 0 || s >= n) continue;
      in_range.push_back(s);
      ref.queries_of[static_cast<size_t>(s)].push_back(static_cast<int>(qi));
    }
    ref.sensors_of.push_back(std::move(in_range));
  }
  for (int s = 0; s < n; ++s) {
    if (!ref.queries_of[static_cast<size_t>(s)].empty()) ref.scan.push_back(s);
  }
  return ref;
}

std::vector<int> ToVector(std::span<const int> s) { return {s.begin(), s.end()}; }

SlotContext MakeSlot(int n, Rng& rng) {
  SlotContext slot;
  for (int i = 0; i < n; ++i) {
    SlotSensor s;
    s.index = i;
    s.sensor_id = i;
    s.cost = rng.Uniform(0.5, 2.0);
    slot.sensors.push_back(s);
  }
  return slot;
}

/// Generated query sets: a mix of dense queries, empty and sparse
/// candidate lists, and lists carrying out-of-range ids.
std::vector<std::unique_ptr<ListQuery>> MakeQueries(int n, int count,
                                                    double p_dense, Rng& rng) {
  std::vector<std::unique_ptr<ListQuery>> queries;
  for (int qi = 0; qi < count; ++qi) {
    const double kind = rng.Uniform(0.0, 1.0);
    std::vector<int> candidates;
    const bool dense = kind < p_dense;
    if (!dense && kind < 0.9) {
      const double density = rng.Uniform(0.0, 0.2);
      if (kind > 0.8) candidates.push_back(-3);  // sanitized path
      for (int s = 0; s < n; ++s) {
        if (rng.Uniform(0.0, 1.0) < density) candidates.push_back(s);
      }
      if (kind > 0.8) candidates.push_back(n + 2);
    }  // else: an empty candidate list
    queries.push_back(std::make_unique<ListQuery>(qi, dense, candidates));
  }
  return queries;
}

std::vector<MultiQuery*> Pointers(
    const std::vector<std::unique_ptr<ListQuery>>& queries) {
  std::vector<MultiQuery*> out;
  for (const auto& q : queries) out.push_back(q.get());
  return out;
}

TEST(CandidatePlanTest, ResolvedViewsMatchDenseBuilder) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    const int count = trial % 10 == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 12));
    // A third of the trials may carry dense queries; the rest stay sparse.
    const double p_dense = trial % 3 == 0 ? 0.15 : 0.0;
    const auto owned = MakeQueries(n, count, p_dense, rng);
    const std::vector<MultiQuery*> queries = Pointers(owned);
    SlotArena arena;
    for (SlotArena* a : {static_cast<SlotArena*>(nullptr), &arena}) {
      const CandidatePlan plan = BuildCandidatePlan(queries, n, a);
      const ReferencePlan ref = BuildReference(queries, n);
      EXPECT_EQ(plan.active, ref.active);
      EXPECT_EQ(ToVector(plan.ScanSensors()), ref.scan);
      for (int s = 0; s < n; ++s) {
        ASSERT_EQ(ToVector(plan.QueriesOf(s)), ref.queries_of[static_cast<size_t>(s)])
            << "sensor " << s;
        const int row = plan.RowOf(s);
        if (row >= 0) EXPECT_EQ(plan.ScanSensors()[static_cast<size_t>(row)], s);
      }
      for (int qi = 0; qi < count; ++qi) {
        ASSERT_EQ(ToVector(plan.SensorsOf(qi)), ref.sensors_of[static_cast<size_t>(qi)])
            << "query " << qi;
        const std::span<const int> sensors = plan.SensorsOf(qi);
        const std::span<const int> rows = plan.RowsOf(qi);
        ASSERT_EQ(rows.size(), sensors.size());
        for (size_t j = 0; j < rows.size(); ++j) {
          EXPECT_EQ(rows[j], plan.RowOf(sensors[j]));
        }
      }
    }
  }
}

TEST(CandidatePlanTest, NetsMatchSensorMajorReference) {
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    SlotContext slot = MakeSlot(n, rng);
    const auto owned = MakeQueries(n, static_cast<int>(rng.UniformInt(0, 10)),
                                   trial % 4 == 0 ? 0.2 : 0.0, rng);
    const std::vector<MultiQuery*> queries = Pointers(owned);
    const CandidatePlan plan = BuildCandidatePlan(queries, n);
    NetEvaluator evaluator(queries, plan, slot, nullptr, nullptr);
    // Every sensor, in or out of the plan, in one batch.
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    std::vector<double> nets(all.size());
    evaluator.EvaluateNets(all, nets.data());
    for (int s = 0; s < n; ++s) {
      // The sensor-major reference loop: ascending interested queries.
      double positive_sum = 0.0;
      for (int qi : plan.QueriesOf(s)) {
        const double delta = queries[static_cast<size_t>(qi)]->MarginalValue(s);
        if (delta > 0.0) positive_sum += delta;
      }
      const double cost = slot.sensors[static_cast<size_t>(s)].cost;
      EXPECT_EQ(nets[static_cast<size_t>(s)], positive_sum - cost) << s;
      EXPECT_EQ(evaluator.EvaluateNet(s), positive_sum - cost) << s;
      if (plan.RowOf(s) < 0) {
        // Outside the plan: no query values it, the net is -cost.
        EXPECT_EQ(nets[static_cast<size_t>(s)], -cost);
      } else {
        EXPECT_EQ(evaluator.EvaluateRowNet(plan.RowOf(s)), positive_sum - cost);
      }
    }
  }
}

TEST(CandidatePlanTest, SensorOutsideSparsePlanNetsMinusCost) {
  Rng rng(9);
  SlotContext slot = MakeSlot(10, rng);
  ListQuery q(0, false, {2, 5});
  const std::vector<MultiQuery*> queries = {&q};
  const CandidatePlan plan = BuildCandidatePlan(queries, 10);
  NetEvaluator evaluator(queries, plan, slot, nullptr, nullptr);
  const std::vector<int> outside = {0, 7};
  double nets[2];
  evaluator.EvaluateNets(outside, nets);
  EXPECT_EQ(nets[0], -slot.sensors[0].cost);
  EXPECT_EQ(nets[1], -slot.sensors[7].cost);
  EXPECT_EQ(evaluator.EvaluateNet(7), -slot.sensors[7].cost);
  EXPECT_TRUE(plan.QueriesOf(7).empty());
  EXPECT_EQ(q.ValuationCalls(), 0);
}

TEST(CandidatePlanTest, SparsePlanScratchDoesNotScaleWithPopulation) {
  constexpr int kMembers = 1000000;
  Rng rng(10);
  SlotContext slot;
  slot.sensors.resize(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    slot.sensors[static_cast<size_t>(i)].index = i;
    slot.sensors[static_cast<size_t>(i)].sensor_id = i;
    slot.sensors[static_cast<size_t>(i)].cost = 1.0;
  }
  // 64 small queries, each valuing ~50 sensors spread over the population.
  std::vector<std::unique_ptr<ListQuery>> owned;
  for (int qi = 0; qi < 64; ++qi) {
    std::vector<int> candidates;
    int s = static_cast<int>(rng.UniformInt(0, kMembers / 50));
    for (; s < kMembers && candidates.size() < 50;
         s += static_cast<int>(rng.UniformInt(1, kMembers / 50))) {
      candidates.push_back(s);
    }
    owned.push_back(std::make_unique<ListQuery>(qi, false, candidates));
  }
  const std::vector<MultiQuery*> queries = Pointers(owned);
  SlotArena arena;
  slot.arena = &arena;
  const CandidatePlan plan = BuildCandidatePlan(queries, kMembers, &arena);
  NetEvaluator evaluator(queries, plan, slot, nullptr, nullptr);
  EXPECT_LT(arena.bytes_allocated(), size_t{1} << 20);
  EXPECT_GT(plan.ScanSensors().size(), 0u);
}

}  // namespace
}  // namespace psens
