// Pinned outcome digests of the closed serving loop. The first case is a
// realistic aggregate shape: 10k clustered sensors, 1% churn, 64 point +
// 8 aggregate queries per slot, lazy greedy, one thread, 12 served slots.
// The second pins the pooled turnover path: 50k sensors with mobility,
// the sieve scheduler and four threads, so every slot's membership merge
// moves enough rows to run on the engine's pool.
// The FNV-1a digest covers every deterministic outcome field (the ones
// SameOutcome compares): selections, values, costs, valuation calls and
// payments. Any change to binding, selection or payment arithmetic that
// moves a single bit of any slot moves the digest.
//
// The pinned values were computed before cell-bounded coverage binding
// replaced the dense per-cell scan, so this test also pins that rewrite
// to the dense scan's outcomes. Only change them together with a
// deliberate, documented change to the served outcomes.

#include <cstdint>
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "sim/workload.h"
#include "trace/closed_loop.h"

namespace psens {
namespace {

// One digest for every build flavour: the candidate-pruning cross-check
// that Debug builds arm (core/candidate_pruning.cc) probes without
// counting, so valuation calls agree with Release.
constexpr uint64_t kPinnedDigest = 0x97207d3ee90e359fULL;
constexpr uint64_t kPinnedPooledSieveDigest = 0xa1ca0ed744c8e685ULL;

/// FNV-1a over the deterministic fields of the outcomes, in the field
/// order of perfbench's outcome digest.
class OutcomeDigest {
 public:
  void Add(const SlotOutcome& o) {
    Mix(o.time);
    Mix(o.selection.selected_sensors.size());
    for (int s : o.selection.selected_sensors) Mix(s);
    Mix(o.selection.total_value);
    Mix(o.selection.total_cost);
    Mix(o.selection.valuation_calls);
    Mix(o.total_payment);
  }
  uint64_t value() const { return h_; }

 private:
  template <typename T>
  void Mix(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t h_ = 1469598103934665603ULL;
};

/// Runs the closed loop and checks its outcome digest against `pinned`.
void ExpectPinnedDigest(const ChurnScenarioSetup& setup,
                        const ClosedLoopConfig& config, uint64_t pinned) {
  const ClosedLoopResult result = RunChurnClosedLoop(setup, config);
  ASSERT_EQ(result.outcomes.size(), static_cast<size_t>(config.slots) + 1);
  size_t selected = 0;
  OutcomeDigest digest;
  for (const SlotOutcome& o : result.outcomes) {
    digest.Add(o);
    selected += o.selection.selected_sensors.size();
  }
  EXPECT_GT(selected, 0u);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), pinned) << "digest " << hex;
}

TEST(ClosedLoopDigestTest, MixedWorkloadOutcomesArePinned) {
  const ChurnScenarioSetup setup =
      MakeChurnScenario(10000, /*churn_fraction=*/0.01, /*seed=*/1,
                        /*with_mobility=*/false);
  ClosedLoopConfig config;
  config.slots = 12;
  config.queries.queries_per_slot = 64;
  config.queries.aggregates_per_slot = 8;
  config.serving.scheduler = GreedyEngine::kLazy;
  config.serving.threads = 1;
  ExpectPinnedDigest(setup, config, kPinnedDigest);
}

TEST(ClosedLoopDigestTest, PooledSieveTurnoverOutcomesArePinned) {
  const ChurnScenarioSetup setup =
      MakeChurnScenario(50000, /*churn_fraction=*/0.01, /*seed=*/1,
                        /*with_mobility=*/true);
  ClosedLoopConfig config;
  config.slots = 12;
  config.queries.queries_per_slot = 64;
  config.queries.aggregates_per_slot = 8;
  config.serving.scheduler = GreedyEngine::kSieve;
  config.serving.threads = 4;
  ExpectPinnedDigest(setup, config, kPinnedPooledSieveDigest);
}

}  // namespace
}  // namespace psens
