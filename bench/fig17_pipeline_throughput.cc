// Fig. 17 (beyond the paper): pipelined slot execution — sustained
// closed-loop slots/sec, sequential vs pipelined, with a fatal
// bit-equality column.
//
// ServingConfig::pipeline == 2 double-buffers the per-slot cycle: slot
// t+1's staged turnover — delta ingestion, membership repair, SlotSlabs
// refresh, dynamic-index maintenance — runs on the engine's staging
// worker thread while the serving thread binds, selects, and commits
// slot t. The commit barrier (ActivateStagedSlot) sequences cross-slot
// feedback exactly as the sequential schedule, so outcomes are
// bit-identical by construction; the overlap only buys sustained
// throughput. This sweep measures that buy: closed-loop slots/sec over
// the churn scenario (1% churn) at 100k (and, full mode, 1M) sensors,
// sequential vs pipelined, at 1 and 4 threads — the 4-thread pair shows
// whether the overlap still pays once the sequential turnover copies its
// membership merge on the pool.
//
// Every pipelined row's outcomes are compared slot-by-slot against its
// sequential twin via SameOutcome(); a single diverging field prints
// identical=NO and exits 1 — scripts/check_bench_regression.py treats
// any non-identical row as fatal regardless of host. The throughput
// shape (pipelined >= 1.3x sequential at 100k, 1 thread) only means
// anything when the host has a core for the staging worker to overlap
// onto, so the JSON carries hardware_threads and the gate arms itself
// accordingly.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/slot_server.h"

namespace psens {
namespace {

struct PipelineRow {
  int sensors = 0;
  int slots = 0;
  int queries_per_slot = 0;
  int aggregates_per_slot = 0;
  double churn_fraction = 0.0;
  int pipeline = 0;
  int threads = 1;
  int hardware_threads = 0;
  double wall_ms = 0.0;
  double slots_per_sec = 0.0;
  double speedup_vs_sequential = 0.0;
  bool identical = false;
};

/// One closed-loop pass. When `reference` is null this is the sequential
/// reference pass and `out_reference` receives the outcomes; otherwise
/// every slot is compared against it.
PipelineRow RunOne(const ChurnScenarioSetup& setup, int n, int slots,
                   double churn_fraction, int pipeline, int threads,
                   const ChurnQueryConfig& queries, uint64_t seed,
                   const std::vector<SlotOutcome>* reference,
                   std::vector<SlotOutcome>* out_reference) {
  PipelineRow row;
  row.sensors = n;
  row.slots = slots;
  row.queries_per_slot = queries.queries_per_slot;
  row.aggregates_per_slot = queries.aggregates_per_slot;
  row.churn_fraction = churn_fraction;
  row.pipeline = pipeline;
  row.threads = threads;
  row.hardware_threads = ThreadPool::ResolveParallelism(0);

  ClosedLoopConfig config;
  config.slots = slots;
  config.queries = queries;
  config.serving = ServingConfig()
                       .WithThreads(threads)
                       .WithPipeline(pipeline)
                       .WithApproxSeed(seed);
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
                       "fig17 n=%d pipeline=%d threads=%d: slot %d diverged "
                       "from the sequential reference\n",
                       n, pipeline, threads, result.outcomes[i].time);
          break;
        }
      }
    }
  }
  if (out_reference != nullptr) *out_reference = result.outcomes;
  return row;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<PipelineRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig17_pipeline_throughput\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const PipelineRow& r = rows[i];
    std::fprintf(f,
                 "    {\"sensors\": %d, \"slots\": %d, \"queries\": %d, "
                 "\"aggregates\": %d, \"churn\": %.4f, \"pipeline\": %d, "
                 "\"threads\": %d, \"hardware_threads\": %d, "
                 "\"wall_ms\": %.4f, \"slots_per_sec\": %.3f, "
                 "\"speedup_vs_sequential\": %.3f, \"identical\": %s}%s\n",
                 r.sensors, r.slots, r.queries_per_slot,
                 r.aggregates_per_slot, r.churn_fraction, r.pipeline,
                 r.threads, r.hardware_threads, r.wall_ms, r.slots_per_sec,
                 r.speedup_vs_sequential, r.identical ? "true" : "false",
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
  // (pipeline, threads): sequential/pipelined twins at 1 and 4 threads.
  const std::vector<std::pair<int, int>> variants{
      {0, 1}, {2, 1}, {0, 4}, {2, 4}};

  ChurnQueryConfig queries;
  queries.queries_per_slot = args.quick ? 32 : 64;
  queries.aggregates_per_slot = args.quick ? 4 : 8;

  bench::PrintHeader(
      "fig17: pipelined slot execution, sequential vs pipelined slots/sec");
  std::printf("%9s %6s %9s %7s %10s %12s %9s %s\n", "sensors", "slots",
              "pipeline", "threads", "wall_ms", "slots/sec", "speedup",
              "identical");

  const double cal_ms = bench::CalibrationMs();
  std::vector<PipelineRow> rows;
  bool all_identical = true;
  for (int n : populations) {
    const ChurnScenarioSetup setup = MakeChurnScenario(
        n, churn_fraction, args.seed, /*with_mobility=*/false);
    // One reference per thread count: the pipelined row must match its
    // sequential twin bit for bit.
    std::vector<SlotOutcome> reference;
    double sequential_slots_per_sec = 0.0;
    for (const auto& [pipeline, threads] : variants) {
      PipelineRow row =
          pipeline == 0
              ? RunOne(setup, n, slots, churn_fraction, pipeline, threads,
                       queries, args.seed, nullptr, &reference)
              : RunOne(setup, n, slots, churn_fraction, pipeline, threads,
                       queries, args.seed, &reference, nullptr);
      if (pipeline == 0) sequential_slots_per_sec = row.slots_per_sec;
      row.speedup_vs_sequential =
          sequential_slots_per_sec > 0.0
              ? row.slots_per_sec / sequential_slots_per_sec
              : 0.0;
      all_identical = all_identical && row.identical;
      std::printf("%9d %6d %9s %7d %10.1f %12.2f %8.2fx %s\n", row.sensors,
                  row.slots, row.pipeline == 2 ? "yes" : "no", row.threads,
                  row.wall_ms, row.slots_per_sec, row.speedup_vs_sequential,
                  row.identical ? "yes" : "NO");
      rows.push_back(row);
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, rows);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a pipelined run diverged from its sequential twin "
                 "(bit-equality is a fatal gate)\n");
    return 1;
  }
  std::printf(
      "all pipelined outcomes bit-identical to the sequential schedule\n");
  return 0;
}
