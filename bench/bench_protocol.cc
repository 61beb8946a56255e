// bench_protocol: the consistency-protocol crossover — push refresh vs
// invalidation vs TTL/lease, head-to-head across operating regimes.
//
// Runs the cooperative engine on one partitioned multi-cache workload while
// sweeping the regime axes (exp/protocol_sweep.h): client read rate x
// per-cache bandwidth x relay depth, with all three protocols at every
// regime. Push refresh spends source messages keeping replicas fresh
// whether or not anyone reads them; invalidation spends tiny notifications
// and lets read misses pull data back in; TTL/lease spends nothing at the
// source and lets leases expire. The interesting output is the crossover
// table: which protocol wins total divergence and which wins read-time
// staleness p95 in each regime — push refresh should dominate divergence
// when reads are rare (nothing else refills unread replicas), invalidation
// should win read staleness when reads are frequent and bandwidth tight.
//
// Defaults finish in seconds; --full runs a larger shape. Like the other
// runner benches, --threads=N parallelizes the grid and --json output is
// byte-identical at any thread count (tools/record_bench.py records it as
// the BENCH_protocol.json trajectory baseline).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/protocol_sweep.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  ProtocolSweepConfig config;
  config.base.scheduler = SchedulerKind::kCooperative;
  config.base.metric = MetricKind::kValueDeviation;
  config.base.workload.num_sources =
      static_cast<int>(options.flags.GetInt("sources", options.full ? 16 : 8));
  config.base.workload.objects_per_source =
      static_cast<int>(options.flags.GetInt("objects", options.full ? 25 : 10));
  const int num_caches =
      static_cast<int>(options.flags.GetInt("caches", options.full ? 4 : 2));
  config.base.workload.num_caches = num_caches;
  config.base.workload.interest_pattern =
      num_caches == 1 ? InterestPattern::kSingleCache
                      : InterestPattern::kPartitionedBySource;
  config.base.workload.rate_lo = 0.0;
  config.base.workload.rate_hi = 1.0;
  config.base.workload.seed = options.seed;
  config.base.workload.read.zipf_exponent = options.flags.GetDouble("zipf", 0.8);
  // Constrain relay edges to their subtree's aggregate demand so relay
  // depth is a real regime axis, not a pass-through label.
  config.base.workload.relay_bandwidth_factor =
      options.flags.GetDouble("relay_factor", 1.0);
  config.base.harness.warmup = options.flags.GetDouble("warmup", 100.0);
  config.base.harness.measure =
      options.flags.GetDouble("measure", options.full ? 3000.0 : 600.0);
  // A finite source uplink is what makes the crossover interesting: push
  // refresh competes for it update by update, while invalidation notifies
  // many objects per unit (batching) and refills on demand-priority pulls.
  config.base.source_bandwidth_avg = options.flags.GetDouble("source_bw", 1.0);
  config.base.loss_rate = options.flags.GetDouble("loss", 0.0);
  config.ttl = options.flags.GetDouble("ttl", 50.0);
  config.invalidate_batch =
      static_cast<int>(options.flags.GetInt("invalidate_batch", 4));

  if (options.flags.Has("read_rates")) {
    config.read_rates =
        ParseDoubleList("read_rates", options.flags.GetString("read_rates", ""));
  }
  if (options.flags.Has("bandwidths")) {
    config.bandwidths =
        ParseDoubleList("bandwidths", options.flags.GetString("bandwidths", ""));
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
  }

  const std::vector<JobResult> results = RunExperiments(
      JobsOrExit(ProtocolSweepJobs(config)), options.runner("bench_protocol"));
  CheckJobsOk(results);

  TablePrinter table({"rate", "B_C", "tiers", "protocol", "total_div",
                      "stale_p95", "hit_rate", "refreshes", "invals", "pulls",
                      "wall_ms"});
  for (const JobResult& job : results) {
    const SchedulerStats& s = job.result.scheduler;
    table.AddRow({TablePrinter::Cell(job.config.workload.read.read_rate),
                  TablePrinter::Cell(job.config.cache_bandwidth_avg),
                  TablePrinter::Cell(job.config.workload.relay_tiers),
                  SyncProtocolKindToString(job.config.protocol.kind),
                  TablePrinter::Cell(job.result.total_weighted_divergence),
                  TablePrinter::Cell(s.read_staleness_p95),
                  TablePrinter::Cell(HitRate(s)),
                  TablePrinter::Cell(s.refreshes_delivered),
                  TablePrinter::Cell(s.invalidations_received),
                  TablePrinter::Cell(s.pulls_delivered),
                  TablePrinter::Cell(job.wall_seconds * 1e3)});
  }
  EmitTable(table, options);

  // Crossover summary: protocols are innermost in the sweep order, so each
  // regime is one consecutive block of |protocols| jobs.
  const size_t stride = config.protocols.size();
  TablePrinter crossover(
      {"rate", "B_C", "tiers", "div_winner", "stale_p95_winner"});
  for (size_t base = 0; base + stride <= results.size(); base += stride) {
    size_t best_div = base;
    size_t best_stale = base;
    for (size_t k = base + 1; k < base + stride; ++k) {
      const RunResult& r = results[k].result;
      if (r.total_weighted_divergence <
          results[best_div].result.total_weighted_divergence) {
        best_div = k;
      }
      if (r.scheduler.read_staleness_p95 <
          results[best_stale].result.scheduler.read_staleness_p95) {
        best_stale = k;
      }
    }
    const ExperimentConfig& regime = results[base].config;
    const auto protocol = [&results](size_t k) {
      return SyncProtocolKindToString(results[k].config.protocol.kind);
    };
    crossover.AddRow({TablePrinter::Cell(regime.workload.read.read_rate),
                      TablePrinter::Cell(regime.cache_bandwidth_avg),
                      TablePrinter::Cell(regime.workload.relay_tiers),
                      protocol(best_div), protocol(best_stale)});
  }
  std::printf("\ncrossover (winner per regime):\n");
  crossover.Print(std::cout);

  EmitJson(results, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  return besync::Run(besync::BenchOptions::Parse(
      argc, argv,
      {"sources", "objects", "caches", "bandwidths", "read_rates", "protocols",
       "ttl", "invalidate_batch", "tiers", "relay_factor", "warmup", "measure",
       "loss", "zipf", "source_bw"}));
}
