// bench_readpath: the client read path under pressure — hit rate,
// read-time staleness percentiles, and push-vs-pull bandwidth contention
// across read rates x cache capacities x eviction policies.
//
// Runs the cooperative protocol on one partitioned multi-cache workload
// while sweeping the read-path axes (exp/read_sweep.h): per-cache Poisson
// read streams over a rotated Zipf popularity law, finite cache capacities
// with LRU / LFU / divergence-aware eviction, and miss-triggered pulls
// that consume the same per-edge link budgets as pushed refreshes. The
// unbounded-capacity rows are the control: every read hits, no pull is
// ever sent, and total divergence matches the write-only engine exactly.
//
// Defaults finish in seconds; --full runs a larger shape. Like the other
// runner benches, --threads=N parallelizes the grid and --json output is
// byte-identical at any thread count (tools/record_bench.py records it as
// the BENCH_readpath.json trajectory baseline).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/read_sweep.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  ReadSweepConfig config;
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
  config.base.harness.warmup = options.flags.GetDouble("warmup", 100.0);
  config.base.harness.measure =
      options.flags.GetDouble("measure", options.full ? 5000.0 : 1000.0);
  config.base.cache_bandwidth_avg = options.flags.GetDouble("bandwidth", 8.0);
  config.base.source_bandwidth_avg = -1.0;

  if (options.flags.Has("read_rates")) {
    config.read_rates =
        ParseDoubleList("read_rates", options.flags.GetString("read_rates", ""));
  }
  if (options.flags.Has("capacities")) {
    config.capacities.clear();
    for (int value :
         ParseIntList("capacities", options.flags.GetString("capacities", ""))) {
      config.capacities.push_back(value);
    }
  } else {
    // Default capacities scale with the per-cache replica count so the
    // pressure regimes (none / mild / hot-set-only) survive reshaping.
    // Clamped to >= 1 and deduplicated: tiny shapes must not degenerate a
    // finite point into a second unbounded row (duplicate grid names).
    const int64_t per_cache =
        static_cast<int64_t>(config.base.workload.num_sources) *
        config.base.workload.objects_per_source / std::max(num_caches, 1);
    config.capacities = {0};
    for (int64_t capacity : {per_cache / 2, per_cache / 8}) {
      capacity = std::max<int64_t>(capacity, 1);
      if (std::find(config.capacities.begin(), config.capacities.end(), capacity) ==
          config.capacities.end()) {
        config.capacities.push_back(capacity);
      }
    }
  }
  if (options.flags.Has("evictions")) {
    config.evictions.clear();
    for (const std::string& name :
         SplitList(options.flags.GetString("evictions", ""))) {
      config.evictions.push_back(ParseEvictionPolicy("evictions", name));
    }
  }

  const std::vector<JobResult> results =
      RunExperiments(JobsOrExit(ReadSweepJobs(config)), options.runner("bench_readpath"));
  CheckJobsOk(results);

  TablePrinter table({"rate", "capacity", "eviction", "reads", "hit_rate",
                      "stale_p50", "stale_p95", "stale_p99", "miss_lat_s",
                      "pull_share", "evictions", "total_div", "wall_ms"});
  for (const JobResult& job : results) {
    const ReadWorkloadConfig& read = job.config.workload.read;
    const SchedulerStats& s = job.result.scheduler;
    table.AddRow({TablePrinter::Cell(read.read_rate),
                  read.capacity <= 0 ? std::string("inf")
                                     : TablePrinter::Cell(read.capacity),
                  read.capacity <= 0 ? std::string("-")
                                     : EvictionPolicyToString(read.eviction),
                  TablePrinter::Cell(s.reads_total),
                  TablePrinter::Cell(HitRate(s)),
                  TablePrinter::Cell(s.read_staleness_p50),
                  TablePrinter::Cell(s.read_staleness_p95),
                  TablePrinter::Cell(s.read_staleness_p99),
                  TablePrinter::Cell(s.read_miss_latency_mean),
                  TablePrinter::Cell(s.pull_bandwidth_share),
                  TablePrinter::Cell(s.cache_evictions),
                  TablePrinter::Cell(job.result.total_weighted_divergence),
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
      {"sources", "objects", "caches", "bandwidth", "zipf", "read_rates",
       "capacities", "evictions", "warmup", "measure"}));
}
