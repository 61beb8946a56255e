// bench_tree: flat vs multi-tier relay topologies at matched total edge
// bandwidth.
//
// Runs the cooperative protocol on one partitioned multi-cache workload
// under three topologies — flat (the paper's one-hop star), 2-tier (one
// relay tier) and 3-tier (two relay tiers) — while holding the *total*
// edge bandwidth constant: the flat budget N x B_C is redistributed over
// every edge of each tree proportionally to the leaves below it
// (exp/multicache.h, TopologySweepJobs). Deeper topologies therefore trade
// per-hop capacity for aggregation, and the bench reports what that does
// to total weighted divergence, relay queueing delay, and delivery counts,
// under both FIFO and priority-preserving relay forwarding.
//
// Defaults finish in seconds; --full runs the paper-scale shape. Like the
// other runner benches, --threads=N parallelizes the grid and --json
// output is byte-identical at any thread count.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/multicache.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  TopologySweepConfig config;
  config.base.scheduler = SchedulerKind::kCooperative;
  config.base.metric = MetricKind::kValueDeviation;
  config.base.workload.num_sources =
      static_cast<int>(options.flags.GetInt("sources", options.full ? 16 : 8));
  config.base.workload.objects_per_source =
      static_cast<int>(options.flags.GetInt("objects", options.full ? 25 : 10));
  config.base.workload.num_caches =
      static_cast<int>(options.flags.GetInt("caches", options.full ? 16 : 8));
  config.base.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.base.workload.rate_lo = 0.0;
  config.base.workload.rate_hi = 1.0;
  config.base.workload.seed = options.seed;
  config.base.harness.warmup = options.flags.GetDouble("warmup", 100.0);
  config.base.harness.measure =
      options.flags.GetDouble("measure", options.full ? 5000.0 : 1000.0);
  // Per-leaf bandwidth of the flat reference; the sweep redistributes the
  // total N x B over each tree's edges.
  config.base.cache_bandwidth_avg = options.flags.GetDouble("bandwidth", 6.0);
  config.base.source_bandwidth_avg = -1.0;
  config.relay_tier_counts = {0, 1, 2};
  config.fanout = static_cast<int>(options.flags.GetInt("fanout", 2));

  const std::vector<JobResult> results =
      RunExperiments(JobsOrExit(TopologySweepJobs(config)), options.runner("bench_tree"));
  CheckJobsOk(results);

  TablePrinter table({"topology", "forward", "edges", "leaf_B", "total_div",
                      "per_replica", "delivered", "relay_fwd", "transit_s",
                      "max_store", "util", "wall_ms"});
  for (const JobResult& job : results) {
    const RunResult& r = job.result;
    const int relay_tiers = job.config.topology.depth() - 1;
    const double per_replica =
        r.total_replicas > 0
            ? r.total_weighted_divergence / static_cast<double>(r.total_replicas)
            : 0.0;
    table.AddRow({relay_tiers == 0 ? std::string("flat")
                                   : std::to_string(relay_tiers + 1) + "-tier",
                  relay_tiers == 0 ? std::string("-")
                                   : RelayForwardPolicyToString(job.config.relay_forward),
                  TablePrinter::Cell(job.config.topology.num_nodes()),
                  TablePrinter::Cell(job.config.cache_bandwidth_avg),
                  TablePrinter::Cell(r.total_weighted_divergence),
                  TablePrinter::Cell(per_replica),
                  TablePrinter::Cell(r.scheduler.refreshes_delivered),
                  TablePrinter::Cell(r.scheduler.relays_forwarded),
                  TablePrinter::Cell(r.scheduler.relay_transit_delay_mean),
                  TablePrinter::Cell(r.scheduler.max_relay_store),
                  TablePrinter::Cell(r.scheduler.cache_utilization),
                  TablePrinter::Cell(job.wall_seconds * 1e3)});
  }
  EmitTable(table, options);
  EmitJson(results, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  return besync::Run(besync::BenchOptions::Parse(
      argc, argv,
      {"sources", "objects", "caches", "bandwidth", "fanout", "warmup", "measure"}));
}
