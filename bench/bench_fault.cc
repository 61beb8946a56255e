// bench_fault: crash recovery vs steady-state freshness — the recovery
// crossover of the fault-injection subsystem.
//
// Runs the cooperative engine on one partitioned multi-cache workload while
// sweeping the fault axes (exp/fault_sweep.h): crash count x consistency
// protocol x relay depth, with both recovery policies at every regime.
// Every crash hits leaf cache 0, so "warm divergence" — the summed
// divergence of the caches that never crash — cleanly prices what recovery
// aggressiveness costs the rest of the tree, while time_to_resync_p95
// prices how long the cold cache stays unsynchronized. The interesting
// output is the recovery summary: the dedicated recovery channel
// (policy=priority) should beat naive re-enqueueing on time-to-resync
// without losing warm-cache freshness in at least one regime — the
// acceptance criterion tools/record_bench.py --check enforces on
// BENCH_fault.json.
//
// Defaults finish in seconds; --full runs a larger shape. Like the other
// runner benches, --threads=N parallelizes the grid and --json output is
// byte-identical at any thread count.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/fault_sweep.h"

namespace besync {
namespace {

/// Summed time-averaged divergence of the caches that never crash
/// (everything but leaf 0) — what recovery aggressiveness costs.
double WarmDivergence(const RunResult& result) {
  double sum = 0.0;
  for (size_t c = 1; c < result.per_cache_weighted.size(); ++c) {
    sum += result.per_cache_weighted[c];
  }
  return sum;
}

int Run(const BenchOptions& options) {
  FaultSweepConfig config;
  config.base.scheduler = SchedulerKind::kCooperative;
  config.base.metric = MetricKind::kValueDeviation;
  config.base.workload.num_sources =
      static_cast<int>(options.flags.GetInt("sources", options.full ? 16 : 8));
  config.base.workload.objects_per_source =
      static_cast<int>(options.flags.GetInt("objects", options.full ? 25 : 12));
  const int num_caches =
      static_cast<int>(options.flags.GetInt("caches", options.full ? 4 : 3));
  config.base.workload.num_caches = num_caches;
  config.base.workload.interest_pattern =
      num_caches == 1 ? InterestPattern::kSingleCache
                      : InterestPattern::kPartitionedBySource;
  config.base.workload.rate_lo = 0.0;
  config.base.workload.rate_hi = 1.0;
  config.base.workload.seed = options.seed;
  config.base.workload.relay_bandwidth_factor =
      options.flags.GetDouble("relay_factor", 1.0);
  config.base.harness.warmup = options.flags.GetDouble("warmup", 50.0);
  config.base.harness.measure =
      options.flags.GetDouble("measure", options.full ? 2000.0 : 600.0);
  config.base.cache_bandwidth_avg = options.flags.GetDouble("cache_bw", 6.0);
  // A finite source uplink makes recovery a real allocation decision: the
  // resync traffic and the fresh updates compete for the same budget.
  config.base.source_bandwidth_avg = options.flags.GetDouble("source_bw", 3.0);
  // Observability outputs (--timeseries_out / --trace_out; bench_common.h).
  // The fault sweep is cooperative-only, so the config applies to every job
  // — this is the bench that shows a crash -> resync timeline in Perfetto.
  const ObsBenchOptions obs = ObsFromFlags(options);
  config.base.obs = obs.config;

  config.read_rate = options.flags.GetDouble("fault_read_rate", 2.0);
  config.crash_duration = options.flags.GetDouble("fault_crash_duration", 25.0);
  config.window_start = options.flags.GetDouble("fault_window_start", 80.0);
  config.window_end = options.flags.GetDouble(
      "fault_window_end", config.base.harness.warmup +
                              config.base.harness.measure * 0.6);
  config.fault_seed =
      static_cast<uint64_t>(options.flags.GetInt("fault_seed", 1234));
  config.relay_failures =
      static_cast<int>(options.flags.GetInt("fault_relay_failures", 1));

  if (options.flags.Has("fault_crashes")) {
    config.crash_counts =
        ParseIntList("fault_crashes", options.flags.GetString("fault_crashes", ""));
  } else {
    config.crash_counts = options.full ? std::vector<int>{1, 3, 6}
                                       : std::vector<int>{1, 3};
  }
  if (options.flags.Has("tiers")) {
    config.relay_tiers = ParseIntList("tiers", options.flags.GetString("tiers", ""));
  } else {
    config.relay_tiers = {0, 2};
  }
  if (options.flags.Has("protocols")) {
    config.protocols.clear();
    for (const std::string& name :
         SplitList(options.flags.GetString("protocols", ""))) {
      config.protocols.push_back(ParseProtocolKind("protocols", name));
    }
  } else {
    config.protocols = {SyncProtocolKind::kPushRefresh,
                        SyncProtocolKind::kInvalidation};
  }

  const std::vector<JobResult> results =
      RunExperiments(JobsOrExit(FaultSweepJobs(config)), options.runner("bench_fault"));
  CheckJobsOk(results);

  TablePrinter table({"crashes", "protocol", "tiers", "policy", "total_div",
                      "warm_div", "resync_p95", "resync_pend", "dropped_pulls",
                      "delivered", "wall_ms"});
  for (const JobResult& job : results) {
    const SchedulerStats& s = job.result.scheduler;
    table.AddRow({TablePrinter::Cell(job.config.workload.fault.cache_crashes),
                  SyncProtocolKindToString(job.config.protocol.kind),
                  TablePrinter::Cell(job.config.workload.relay_tiers),
                  RecoveryPolicyToString(job.config.recovery_policy),
                  TablePrinter::Cell(job.result.total_weighted_divergence),
                  TablePrinter::Cell(WarmDivergence(job.result)),
                  TablePrinter::Cell(s.time_to_resync_p95),
                  TablePrinter::Cell(s.resync_pending),
                  TablePrinter::Cell(s.crash_dropped_pulls),
                  TablePrinter::Cell(s.refreshes_delivered),
                  TablePrinter::Cell(job.wall_seconds * 1e3)});
  }
  EmitTable(table, options);

  // Recovery summary: policies are innermost in the sweep order, so each
  // regime is one consecutive block of |policies| jobs. A regime's row
  // names the policy with the better (lower) resync p95 — treating an
  // unfinished resync (resync_pending > 0) as worse than any finished one —
  // and the warm-divergence cost of choosing it.
  const size_t stride = config.policies.size();
  TablePrinter recovery({"crashes", "protocol", "tiers", "resync_winner",
                         "warm_div_naive", "warm_div_priority"});
  for (size_t base = 0; base + stride <= results.size(); base += stride) {
    size_t best = base;
    auto resync_key = [&results](size_t k) {
      const SchedulerStats& s = results[k].result.scheduler;
      return s.resync_pending > 0 ? std::numeric_limits<double>::infinity()
                                  : s.time_to_resync_p95;
    };
    double warm_naive = 0.0;
    double warm_priority = 0.0;
    for (size_t k = base; k < base + stride; ++k) {
      if (resync_key(k) < resync_key(best)) best = k;
      if (results[k].config.recovery_policy == RecoveryPolicy::kNaiveReenqueue) {
        warm_naive = WarmDivergence(results[k].result);
      } else {
        warm_priority = WarmDivergence(results[k].result);
      }
    }
    const ExperimentConfig& regime = results[base].config;
    recovery.AddRow({TablePrinter::Cell(regime.workload.fault.cache_crashes),
                     SyncProtocolKindToString(regime.protocol.kind),
                     TablePrinter::Cell(regime.workload.relay_tiers),
                     RecoveryPolicyToString(results[best].config.recovery_policy),
                     TablePrinter::Cell(warm_naive),
                     TablePrinter::Cell(warm_priority)});
  }
  std::printf("\nrecovery (better resync p95 per regime):\n");
  recovery.Print(std::cout);

  EmitJson(results, options);
  EmitObsOutputs(results, obs);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  std::vector<std::string> flags{
      "sources", "objects", "caches", "tiers", "protocols", "relay_factor",
      "warmup", "measure", "cache_bw", "source_bw",
      "fault_crashes", "fault_crash_duration", "fault_window_start",
      "fault_window_end", "fault_read_rate", "fault_relay_failures",
      "fault_seed"};
  for (std::string& flag : besync::ObsFlagNames()) flags.push_back(std::move(flag));
  return besync::Run(besync::BenchOptions::Parse(argc, argv, std::move(flags)));
}
