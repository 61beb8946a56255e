// Multi-cache topology sweep: the cooperative protocol over N caches with
// independent cache-side links, under partitioned vs. Zipf-overlap interest
// maps. Reports, per (pattern, N):
//
//   - the summed objective (total weighted divergence over all replicas),
//   - refreshes delivered across all caches,
//   - wall-clock time and microseconds per delivered refresh (the
//     per-refresh cost must not grow superlinearly with N).
//
// Under the partitioned pattern the N caches are disjoint single-cache
// systems over sub-workloads; under Zipf overlap a popular minority of
// objects is replicated at several caches, so sources maintain multiple
// thresholds T_{j,c} and split their bandwidth across cache channels.

#include "bench_common.h"
#include "exp/multicache.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  std::cout << "== Multi-cache topology sweep (cooperative protocol) ==\n"
            << "Partitioned interest = disjoint sub-systems; Zipf overlap =\n"
            << "popular objects replicated at several caches.\n\n";

  MulticacheConfig config;
  config.base.workload.num_sources = options.full ? 64 : 16;
  config.base.workload.objects_per_source = options.full ? 25 : 10;
  config.base.workload.rate_lo = 0.0;
  config.base.workload.rate_hi = 1.0;
  config.base.workload.seed = options.seed;
  config.base.harness.warmup = 100.0;
  config.base.harness.measure = options.full ? 2000.0 : 500.0;
  // Per-cache bandwidth in the contention regime (~30% of the per-cache
  // object population's update volume under partitioned interest).
  config.base.cache_bandwidth_avg =
      options.full ? 200.0 : 24.0;
  config.base.source_bandwidth_avg = options.full ? 12.0 : 6.0;
  config.cache_counts = {1, 2, 4, 8};
  config.patterns = {InterestPattern::kPartitionedBySource,
                     InterestPattern::kZipfOverlap};

  // Per-point wall times below are measured inside worker threads; with
  // --threads > 1 they overlap, so compare them only at --threads=1.
  const std::vector<JobResult> results = RunExperiments(
      JobsOrExit(MulticacheSweepJobs(config)), options.runner("bench_multicache"));
  EmitJson(results, options);
  CheckJobsOk(results);

  TablePrinter table({"pattern", "caches", "replicas", "total_div", "per_replica",
                      "delivered", "wall_ms", "us_per_refresh"});
  // The jobs are pattern-major; walking the same axes recovers the requested
  // pattern, which N=1 jobs map to the canonical single-cache one.
  size_t k = 0;
  for (InterestPattern pattern : config.patterns) {
    for (int num_caches : config.cache_counts) {
      const JobResult& job = results[k++];
      const RunResult& r = job.result;
      const int64_t delivered = r.scheduler.refreshes_delivered;
      const double us_per_refresh =
          delivered > 0 ? job.wall_seconds * 1e6 / static_cast<double>(delivered)
                        : 0.0;
      table.AddRow({TablePrinter::Cell(InterestPatternToString(pattern)),
                    TablePrinter::Cell(num_caches),
                    TablePrinter::Cell(r.total_replicas),
                    TablePrinter::Cell(r.total_weighted_divergence),
                    TablePrinter::Cell(r.total_weighted_divergence /
                                       static_cast<double>(r.total_replicas)),
                    TablePrinter::Cell(delivered),
                    TablePrinter::Cell(job.wall_seconds * 1e3),
                    TablePrinter::Cell(us_per_refresh)});
    }
  }
  EmitTable(table, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  return besync::Run(besync::BenchOptions::Parse(argc, argv));
}
