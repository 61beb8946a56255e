// Per-run scale trajectory: the cooperative protocol on one big workload,
// swept over (sources x objects-per-source x caches) points up to the
// 1M-object x 1k-cache configuration. Reports, per point:
//
//   - the objective (sanity: the protocol still converges at scale),
//   - refreshes delivered, wall seconds, microseconds per delivered
//     refresh, simulation ticks per wall second, and peak RSS.
//
// This is the bench behind BENCH_scale.json (tools/record_bench.py): the
// recorded grid is small and deterministic; the --full trajectory exercises
// the 100k and 1M points.
//
// The table's wall-clock columns are indicative only; hostbench/ is the
// repo's wall-clock instrument (per-layer attribution, repetitions, host
// info).
//
// Points are zipped from --sources_list/--objects_list/--caches_list (equal
// lengths), with per-source object counts: point i runs sources_list[i]
// sources x objects_list[i] objects each over caches_list[i] caches under
// partitioned interest (cache = source mod caches), so per-cache load stays
// constant as the topology grows and the cost of scale is isolated to the
// engine.

#include <string>
#include <vector>

#include "bench_common.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  std::cout << "== Per-run scale trajectory (cooperative protocol) ==\n"
            << "Partitioned interest; per-cache bandwidth fixed, so wall cost\n"
            << "tracks engine overhead, not protocol contention.\n\n";

  std::vector<int> sources_list{8, 32};
  std::vector<int> objects_list{125, 250};
  std::vector<int> caches_list{4, 16};
  if (options.full) {
    // The trajectory: mid-size 100k objects, then 1M objects x 1k caches.
    sources_list = {200, 1000};
    objects_list = {500, 1000};
    caches_list = {100, 1000};
  }
  if (!options.flags.GetString("sources_list", "").empty()) {
    sources_list = ParseIntList("sources_list",
                                options.flags.GetString("sources_list", ""));
  }
  if (!options.flags.GetString("objects_list", "").empty()) {
    objects_list = ParseIntList("objects_list",
                                options.flags.GetString("objects_list", ""));
  }
  if (!options.flags.GetString("caches_list", "").empty()) {
    caches_list = ParseIntList("caches_list",
                               options.flags.GetString("caches_list", ""));
  }
  if (sources_list.size() != objects_list.size() ||
      sources_list.size() != caches_list.size()) {
    std::fprintf(stderr,
                 "--sources_list/--objects_list/--caches_list must be "
                 "equal-length (zipped points)\n");
    return 2;
  }

  const double warmup = options.flags.GetDouble("warmup", 10.0);
  const double measure = options.flags.GetDouble("measure", 60.0);
  // Low per-object update rates: at 1M objects the update-event stream, not
  // the per-object rate, is what exercises the engine.
  const double rate_hi = options.flags.GetDouble("rate_hi", 0.02);
  const double cache_bandwidth = options.flags.GetDouble("bandwidth", 4.0);
  const double source_bandwidth = options.flags.GetDouble("source_bandwidth", 2.0);

  // Observability outputs (--timeseries_out / --trace_out; bench_common.h).
  // The whole grid is cooperative, so the config applies to every job.
  const ObsBenchOptions obs = ObsFromFlags(options);

  std::vector<ExperimentJob> jobs;
  for (size_t i = 0; i < sources_list.size(); ++i) {
    ExperimentJob job;
    const int64_t total_objects =
        static_cast<int64_t>(sources_list[i]) * objects_list[i];
    job.name = std::to_string(total_objects) + "obj," +
               std::to_string(caches_list[i]) + "caches";
    job.config.scheduler = SchedulerKind::kCooperative;
    job.config.workload.num_sources = sources_list[i];
    job.config.workload.objects_per_source = objects_list[i];
    job.config.workload.num_caches = caches_list[i];
    job.config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
    job.config.workload.rate_lo = 0.0;
    job.config.workload.rate_hi = rate_hi;
    job.config.workload.seed = options.seed;
    job.config.harness.warmup = warmup;
    job.config.harness.measure = measure;
    job.config.cache_bandwidth_avg = cache_bandwidth;
    job.config.source_bandwidth_avg = source_bandwidth;
    job.config.obs = obs.config;
    jobs.push_back(std::move(job));
  }
  ValidateJobsOrExit(jobs);

  const std::vector<JobResult> results =
      RunExperiments(jobs, options.runner("bench_scale"));

  EmitJson(results, options);
  EmitObsOutputs(results, obs);
  CheckJobsOk(results);

  const double ticks = (warmup + measure) / 1.0;  // tick_length = 1 s
  TablePrinter table({"point", "total_div", "delivered", "wall_ms",
                      "us_per_refresh", "ticks_per_sec", "peak_rss_mb"});
  for (size_t i = 0; i < results.size(); ++i) {
    const JobResult& job = results[i];
    const int64_t delivered = job.result.scheduler.refreshes_delivered;
    const double us_per_refresh =
        delivered > 0 ? job.wall_seconds * 1e6 / static_cast<double>(delivered) : 0.0;
    const double ticks_per_sec =
        job.wall_seconds > 0.0 ? ticks / job.wall_seconds : 0.0;
    table.AddRow({TablePrinter::Cell(job.name),
                  TablePrinter::Cell(job.result.total_weighted_divergence),
                  TablePrinter::Cell(delivered),
                  TablePrinter::Cell(job.wall_seconds * 1e3),
                  TablePrinter::Cell(us_per_refresh),
                  TablePrinter::Cell(ticks_per_sec),
                  TablePrinter::Cell(static_cast<double>(ReadPeakRssBytes()) /
                                     (1024.0 * 1024.0))});
  }
  EmitTable(table, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  std::vector<std::string> flags{
      "sources_list", "objects_list", "caches_list", "warmup", "measure",
      "rate_hi", "bandwidth", "source_bandwidth"};
  for (std::string& flag : besync::ObsFlagNames()) flags.push_back(std::move(flag));
  return besync::Run(besync::BenchOptions::Parse(argc, argv, std::move(flags)));
}
