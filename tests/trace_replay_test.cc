// Replay-based differential suite (the record/replay harness's reason to
// exist): a live closed-loop churn run records itself, the replayer
// re-drives the trace through a fresh engine, and every schedule,
// payment, and valuation-call count must match bit for bit — for all
// three selection engines, for any replayer decode-thread count, and for
// a sieve replay whose base seed differs from the recorded run's (the
// per-slot seeds persisted in the trace carry reproduction). Hostile
// traces — delta ids outside the registry, header values no engine
// accepts — must come back as replay errors, never as a write past the
// registry or an abort (the sanitizer CI jobs run this file).

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

constexpr int kSensors = 400;
constexpr int kSlots = 20;
constexpr uint64_t kSeed = 20260807;

ChurnScenarioSetup MakeSetup(int sensors = kSensors) {
  // Energy + privacy feedback on, so RecordSlotReadings actually changes
  // later slots' announcements and the replayed feedback path is load-
  // bearing, not a no-op.
  SensorPopulationConfig profile;
  profile.linear_energy = true;
  profile.random_privacy = true;
  return MakeChurnScenario(sensors, /*churn_fraction=*/0.05, kSeed,
                           /*with_mobility=*/true, profile);
}

ClosedLoopConfig MakeLoopConfig(GreedyEngine engine,
                                const std::string& trace_path) {
  ClosedLoopConfig config;
  config.slots = kSlots;
  config.serving.scheduler = engine;
  config.queries.queries_per_slot = 24;
  config.queries.aggregates_per_slot = 4;
  config.serving.trace_path = trace_path;
  config.serving.approx.seed = kSeed;
  return config;
}

std::string TracePath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void ExpectSameOutcomes(const std::vector<SlotOutcome>& live,
                        const std::vector<SlotOutcome>& replayed) {
  ASSERT_EQ(live.size(), replayed.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(SameOutcome(live[i], replayed[i]))
        << "slot " << live[i].time << " diverged: live selected "
        << live[i].selection.selected_sensors.size() << " sensors (value "
        << live[i].selection.total_value << ", payment "
        << live[i].total_payment << "), replay selected "
        << replayed[i].selection.selected_sensors.size() << " (value "
        << replayed[i].selection.total_value << ", payment "
        << replayed[i].total_payment << ")";
  }
}

struct EngineCase {
  const char* name;
  GreedyEngine engine;
};

class TraceReplayEngineTest : public testing::TestWithParam<EngineCase> {};

TEST_P(TraceReplayEngineTest, ReplayReproducesLiveRunBitForBit) {
  const EngineCase& c = GetParam();
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath(std::string("replay_") + c.name + ".trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(c.engine, path));
  ASSERT_EQ(static_cast<int>(live.outcomes.size()), kSlots + 1);

  ReplayConfig rcfg;
  rcfg.serving.scheduler = c.engine;
  TraceReplayer replayer(rcfg);
  const ReplayResult replayed = replayer.Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ExpectSameOutcomes(live.outcomes, replayed.outcomes);
  // The run did real work; a trivially empty schedule would vacuously
  // pass the bit-equality above.
  EXPECT_GT(live.total_payment, 0.0);
  EXPECT_GT(live.valuation_calls, 0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, TraceReplayEngineTest,
    testing::Values(EngineCase{"exact", GreedyEngine::kEager},
                    EngineCase{"lazy", GreedyEngine::kLazy},
                    EngineCase{"sieve", GreedyEngine::kSieve}),
    [](const testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

TEST(TraceReplayTest, DecodeThreadCountDoesNotChangeOutcomes) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_threads.trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));

  ReplayConfig serial_cfg;
  serial_cfg.decode_threads = 1;
  ReplayConfig parallel_cfg;
  parallel_cfg.decode_threads = 8;
  const ReplayResult serial =
      TraceReplayer(serial_cfg).Replay(path, setup.scenario.sensors);
  const ReplayResult parallel =
      TraceReplayer(parallel_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(parallel.ok) << parallel.error;
  ExpectSameOutcomes(live.outcomes, serial.outcomes);
  ExpectSameOutcomes(serial.outcomes, parallel.outcomes);
  std::remove(path.c_str());
}

// The ApproxSlotSeed persistence regression: every slot record carries
// the seed the recording engine stamped, and the replayer pins it, so a
// sieve replay — whose refinement draws a seeded exploration sample of
// the candidates — reproduces the live selections even when the
// replaying config's base seed is different. With pinning disabled the
// mismatched base seed must actually show — otherwise this test would
// pass vacuously. So the population must exceed the sieve's exploration
// sample (1536 candidates): at the shared 400-sensor setup the sample
// covers every candidate whatever the seed, and no seed can matter.
TEST(TraceReplayTest, SieveReplayReproducesAcrossBaseSeeds) {
  const ChurnScenarioSetup setup = MakeSetup(/*sensors=*/6000);
  const std::string path = TracePath("replay_seed.trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kSieve, path));

  ReplayConfig pinned_cfg;
  pinned_cfg.serving.scheduler = GreedyEngine::kSieve;
  pinned_cfg.override_approx_seed = true;
  pinned_cfg.serving.approx.seed = kSeed ^ 0xDEADBEEF;
  pinned_cfg.pin_slot_seeds = true;
  const ReplayResult pinned =
      TraceReplayer(pinned_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(pinned.ok) << pinned.error;
  ExpectSameOutcomes(live.outcomes, pinned.outcomes);

  ReplayConfig unpinned_cfg = pinned_cfg;
  unpinned_cfg.pin_slot_seeds = false;
  const ReplayResult unpinned =
      TraceReplayer(unpinned_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(unpinned.ok) << unpinned.error;
  ASSERT_EQ(unpinned.outcomes.size(), live.outcomes.size());
  bool any_diverged = false;
  for (size_t i = 0; i < live.outcomes.size(); ++i) {
    if (!SameOutcome(live.outcomes[i], unpinned.outcomes[i])) {
      any_diverged = true;
      break;
    }
  }
  EXPECT_TRUE(any_diverged)
      << "replay with a different base seed and no per-slot pinning "
         "reproduced the live run anyway — the seed-persistence test has "
         "lost its teeth";
  std::remove(path.c_str());
}

TEST(TraceReplayTest, MismatchedRegistryIsRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_registry.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));

  std::vector<Sensor> tampered = setup.scenario.sensors;
  tampered[7].SetBasePrice(tampered[7].profile().base_price + 1.0);
  const ReplayResult result =
      TraceReplayer(ReplayConfig{}).Replay(path, tampered);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("registry mismatch"), std::string::npos)
      << result.error;

  std::vector<Sensor> short_registry = setup.scenario.sensors;
  short_registry.pop_back();
  const ReplayResult short_result =
      TraceReplayer(ReplayConfig{}).Replay(path, short_registry);
  EXPECT_FALSE(short_result.ok);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, RecordedTraceHasOneRecordPerServedSlot) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_shape.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));
  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(path, &error)) << error;
  EXPECT_EQ(trace.num_slots(), kSlots + 1);
  EXPECT_EQ(trace.header().registry_count,
            static_cast<uint32_t>(setup.scenario.sensors.size()));
  EXPECT_EQ(trace.header().registry_checksum,
            RegistryChecksum(setup.scenario.sensors));
  // Steady-state records carry real churn and the slot's query batch.
  TraceSlotRecord record;
  ASSERT_TRUE(trace.DecodeSlot(1, &record, &error)) << error;
  EXPECT_EQ(record.time, 1);
  EXPECT_EQ(static_cast<int>(record.point_queries.size()), 24);
  EXPECT_EQ(static_cast<int>(record.aggregate_queries.size()), 4);
  EXPECT_FALSE(record.delta.empty());
  std::remove(path.c_str());
}

/// A two-slot trace (empty cold build, then an empty slot 1) that
/// `registry` passes the replayer's registry checks against; the hostile
/// tests below corrupt one field of it.
TraceData ValidTrace(const ChurnScenarioSetup& setup) {
  TraceData data;
  data.header.registry_count =
      static_cast<uint32_t>(setup.scenario.sensors.size());
  data.header.registry_checksum = RegistryChecksum(setup.scenario.sensors);
  data.header.dmax = setup.dmax;
  data.header.working_region = setup.field;
  data.slots.resize(2);
  data.slots[1].time = 1;
  return data;
}

TEST(TraceReplayTest, OutOfRangeDeltaSensorIdIsRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_bad_id.trc");
  {
    // The untouched trace replays: the refusals below come from the id.
    ASSERT_TRUE(WriteTraceFile(path, ValidTrace(setup)));
    const ReplayResult ok =
        TraceReplayer(ReplayConfig{}).Replay(path, setup.scenario.sensors);
    ASSERT_TRUE(ok.ok) << ok.error;
  }
  const Point p{1.0, 1.0};
  using AddId = std::function<void(SensorDelta&, int)>;
  const std::vector<std::pair<const char*, AddId>> kinds = {
      {"arrival",
       [&](SensorDelta& d, int id) { d.arrivals.push_back({id, p}); }},
      {"departure", [](SensorDelta& d, int id) { d.departures.push_back(id); }},
      {"move", [&](SensorDelta& d, int id) { d.moves.push_back({id, p}); }},
      {"price-change",
       [](SensorDelta& d, int id) { d.price_changes.push_back({id, 2.0}); }},
  };
  for (int id : {1000000, kSensors, -5, std::numeric_limits<int>::min()}) {
    for (const auto& [kind, add] : kinds) {
      SCOPED_TRACE(testing::Message() << kind << " id " << id);
      TraceData data = ValidTrace(setup);
      add(data.slots[1].delta, 3);  // a valid id ahead of the bad one
      add(data.slots[1].delta, id);
      ASSERT_TRUE(WriteTraceFile(path, data));
      const ReplayResult r =
          TraceReplayer(ReplayConfig{}).Replay(path, setup.scenario.sensors);
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("corrupt slot record: " + std::string(kind) +
                             " sensor id " + std::to_string(id)),
                std::string::npos)
          << r.error;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceReplayTest, InvalidHeaderConfigIsAnErrorNotAnAbort) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_bad_header.trc");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(TraceHeader&)>>>
      cases = {
          {"negative dmax", [](TraceHeader& h) { h.dmax = -1.0; }},
          {"zero dmax", [](TraceHeader& h) { h.dmax = 0.0; }},
          {"NaN dmax", [&](TraceHeader& h) { h.dmax = nan; }},
          {"infinite dmax", [&](TraceHeader& h) { h.dmax = inf; }},
          {"NaN region", [&](TraceHeader& h) { h.working_region.x_min = nan; }},
          {"infinite region",
           [&](TraceHeader& h) { h.working_region.y_max = inf; }},
          {"inverted region",
           [](TraceHeader& h) {
             std::swap(h.working_region.x_min, h.working_region.x_max);
           }},
          {"zero epsilon", [](TraceHeader& h) { h.epsilon = 0.0; }},
          {"negative epsilon", [](TraceHeader& h) { h.epsilon = -0.5; }},
      };
  for (const auto& [what, corrupt] : cases) {
    SCOPED_TRACE(what);
    TraceData data = ValidTrace(setup);
    corrupt(data.header);
    ASSERT_TRUE(WriteTraceFile(path, data));
    const ReplayResult r =
        TraceReplayer(ReplayConfig{}).Replay(path, setup.scenario.sensors);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("invalid serving config"), std::string::npos)
        << r.error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psens
