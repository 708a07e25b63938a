// Fig. 17 (beyond the paper): the serving threads sweep — sustained
// closed-loop slots/sec at 1 and 4 threads, with a fatal bit-equality
// column.
//
// ServingConfig::threads sizes the engine's pool, which the greedy
// engines use to split each round's valuation batch and slot turnover
// uses for the membership-merge row moves. Outcomes are bit-identical for
// every thread count by construction; the pool only buys throughput.
// This sweep measures that buy: closed-loop slots/sec over the churn
// scenario (1% churn) at 100k (and, full mode, 1M) sensors.
//
// The 4-thread row's outcomes are compared slot-by-slot against the
// 1-thread row via SameOutcome(); a single diverging field prints
// identical=NO and exits 1 — scripts/check_bench_regression.py treats
// any non-identical row as fatal regardless of host. The JSON carries
// hardware_threads, so the wall-time comparison skips rows the host
// could not run at full width.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/slot_server.h"

namespace psens {
namespace {

struct ThreadsRow {
  int sensors = 0;
  int slots = 0;
  int queries_per_slot = 0;
  int aggregates_per_slot = 0;
  double churn_fraction = 0.0;
  int threads = 1;
  int hardware_threads = 0;
  double wall_ms = 0.0;
  double slots_per_sec = 0.0;
  double speedup_vs_1thread = 0.0;
  bool identical = false;
};

/// One closed-loop pass. When `reference` is null this is the 1-thread
/// reference pass and `out_reference` receives the outcomes; otherwise
/// every slot is compared against it.
ThreadsRow RunOne(const ChurnScenarioSetup& setup, int n, int slots,
                  double churn_fraction, int threads,
                  const ChurnQueryConfig& queries, uint64_t seed,
                  const std::vector<SlotOutcome>* reference,
                  std::vector<SlotOutcome>* out_reference) {
  ThreadsRow row;
  row.sensors = n;
  row.slots = slots;
  row.queries_per_slot = queries.queries_per_slot;
  row.aggregates_per_slot = queries.aggregates_per_slot;
  row.churn_fraction = churn_fraction;
  row.threads = threads;
  row.hardware_threads = ThreadPool::ResolveParallelism(0);

  ClosedLoopConfig config;
  config.slots = slots;
  config.queries = queries;
  config.serving = ServingConfig().WithThreads(threads).WithApproxSeed(seed);
  const ClosedLoopResult result = RunChurnClosedLoop(setup, config);
  row.wall_ms = result.wall_ms;
  row.slots_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * slots / result.wall_ms : 0.0;

  row.identical = true;
  if (reference != nullptr) {
    if (result.outcomes.size() != reference->size()) {
      row.identical = false;
    } else {
      for (size_t i = 0; i < result.outcomes.size(); ++i) {
        if (!SameOutcome((*reference)[i], result.outcomes[i])) {
          row.identical = false;
          std::fprintf(stderr,
                       "fig17 n=%d threads=%d: slot %d diverged from the "
                       "1-thread reference\n",
                       n, threads, result.outcomes[i].time);
          break;
        }
      }
    }
  }
  if (out_reference != nullptr) *out_reference = result.outcomes;
  return row;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<ThreadsRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig17_threads_throughput\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadsRow& r = rows[i];
    std::fprintf(f,
                 "    {\"sensors\": %d, \"slots\": %d, \"queries\": %d, "
                 "\"aggregates\": %d, \"churn\": %.4f, "
                 "\"threads\": %d, \"hardware_threads\": %d, "
                 "\"wall_ms\": %.4f, \"slots_per_sec\": %.3f, "
                 "\"speedup_vs_1thread\": %.3f, \"identical\": %s}%s\n",
                 r.sensors, r.slots, r.queries_per_slot,
                 r.aggregates_per_slot, r.churn_fraction, r.threads,
                 r.hardware_threads, r.wall_ms, r.slots_per_sec,
                 r.speedup_vs_1thread, r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int slots = std::max(args.slots, 3);
  const double churn_fraction = 0.01;

  std::vector<int> populations = args.quick
                                     ? std::vector<int>{100'000}
                                     : std::vector<int>{100'000, 1'000'000};
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }
  const std::vector<int> thread_counts{1, 4};

  ChurnQueryConfig queries;
  queries.queries_per_slot = args.quick ? 32 : 64;
  queries.aggregates_per_slot = args.quick ? 4 : 8;

  bench::PrintHeader("fig17: serving threads sweep, closed-loop slots/sec");
  std::printf("%9s %6s %7s %10s %12s %9s %s\n", "sensors", "slots", "threads",
              "wall_ms", "slots/sec", "speedup", "identical");

  const double cal_ms = bench::CalibrationMs();
  std::vector<ThreadsRow> rows;
  bool all_identical = true;
  for (int n : populations) {
    const ChurnScenarioSetup setup = MakeChurnScenario(
        n, churn_fraction, args.seed, /*with_mobility=*/false);
    // The first thread count is the reference every other row must match
    // bit for bit.
    std::vector<SlotOutcome> reference;
    double one_thread_slots_per_sec = 0.0;
    for (int threads : thread_counts) {
      const bool first = threads == thread_counts.front();
      ThreadsRow row =
          RunOne(setup, n, slots, churn_fraction, threads, queries, args.seed,
                 first ? nullptr : &reference, first ? &reference : nullptr);
      if (first) one_thread_slots_per_sec = row.slots_per_sec;
      row.speedup_vs_1thread =
          one_thread_slots_per_sec > 0.0
              ? row.slots_per_sec / one_thread_slots_per_sec
              : 0.0;
      all_identical = all_identical && row.identical;
      std::printf("%9d %6d %7d %10.1f %12.2f %8.2fx %s\n", row.sensors,
                  row.slots, row.threads, row.wall_ms, row.slots_per_sec,
                  row.speedup_vs_1thread, row.identical ? "yes" : "NO");
      rows.push_back(row);
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, rows);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a multi-thread run diverged from the 1-thread run "
                 "(bit-equality is a fatal gate)\n");
    return 1;
  }
  std::printf("all outcomes bit-identical across thread counts\n");
  return 0;
}
