// Divergence timeline around a fault window (observability layer demo).
//
// Runs two partitioned caches under the cooperative protocol, crashes cache
// 0 mid-run, and emits the per-tick divergence time series the obs layer
// sampled — total plus each cache — as CSV (argv[1], default stdout):
//
//   t,total,cache0,cache1
//
// The crash is visible as cache 0's divergence ramping while it is down,
// spiking through the resync burst, then rejoining cache 1's band; cache
// 1's curve barely moves, which is the recovery channel's whole point.
// Plot with any CSV tool, or load the same run's --trace_out (see
// `bench_engine --suite=fault`) in Perfetto for the event-level view.

#include <cstdio>
#include <string>

#include "exp/experiment.h"
#include "obs/timeseries.h"

using namespace besync;

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 12;
  config.workload.num_caches = 2;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.harness.warmup = 20.0;
  config.harness.measure = 200.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;

  // One crash/restart on cache 0, 25 s of downtime starting at t=80.
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.crash_duration = 25.0;
  config.workload.fault.window_start = 80.0;
  config.workload.fault.window_end = 0.0;  // fire exactly at window_start

  // Observability: sample every tick, keep every sample (the run is short).
  config.obs.enabled = true;
  config.obs.sample_interval = 1.0;
  config.obs.max_samples = 0;

  const auto result = RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }

  // Column layout (core/system.cc): values[0] is total_weighted_divergence,
  // then one cache_divergence_<c> per cache.
  const TimeSeries& series = result->obs->series;
  std::fprintf(out, "t,total,cache0,cache1\n");
  for (const TimeSeries::Row& row : series.rows()) {
    std::fprintf(out, "%g,%g,%g,%g\n", row.t, row.values[0], row.values[1],
                 row.values[2]);
  }
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "wrote %s (%d samples)\n", argv[1],
                 static_cast<int>(series.rows().size()));
  }
  return 0;
}
