// Figure 4: "Comparison against the idealized scenario". For every
// combination of
//   m in {1,10,100,1000} sources, n in {1,10,100} objects/source,
//   B_S in {10,100}, B_C in {10,100,1000,10000,100000},
//   mB in {0, 0.005, 0.05, 0.25},
// (with fluctuating weights and Poisson random-walk data) the paper plots
// one point per configuration: x = the average divergence theoretically
// attainable by the idealized global scheduler, y = the ratio of our
// algorithm's divergence to that ideal. Three panels: value deviation, lag,
// staleness.
//
// Paper result: the ratio falls toward ~1 as the attainable divergence
// grows (low bandwidth / many fast objects), and stays below ~4 even where
// divergence is tiny and the *absolute* gap is negligible.
//
// Default mode runs a representative subset (capped object counts); --full
// runs the paper-scale cross product.

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/sweep.h"

namespace besync {
namespace {

struct Config {
  int m;
  int n;
  double source_bw;
  double cache_bw;
  double change_rate;
};

int Run(const BenchOptions& options) {
  std::cout << "== Figure 4: ratio of actual to ideal divergence ==\n"
            << "One row per configuration and metric: x = theoretically\n"
            << "achievable divergence (ideal scheduler), ratio = ours/ideal.\n"
            << "Paper shape: ratio -> 1 as x grows; modest (<~4) everywhere.\n\n";

  const std::vector<int> ms =
      options.full ? std::vector<int>{1, 10, 100, 1000} : std::vector<int>{1, 10, 100};
  const std::vector<int> ns =
      options.full ? std::vector<int>{1, 10, 100} : std::vector<int>{1, 10};
  const std::vector<double> source_bws{10.0, 100.0};
  const std::vector<double> cache_bws =
      options.full ? std::vector<double>{10, 100, 1000, 10000, 100000}
                   : std::vector<double>{10, 100, 1000};
  const std::vector<double> change_rates =
      options.full ? std::vector<double>{0.0, 0.005, 0.05, 0.25}
                   : std::vector<double>{0.0, 0.05};
  const double measure = options.full ? 5000.0 : 800.0;
  const int64_t max_objects = options.full ? 100000 : 2000;

  std::vector<Config> configs;
  for (int m : ms) {
    for (int n : ns) {
      if (static_cast<int64_t>(m) * n > max_objects) continue;
      for (double source_bw : source_bws) {
        for (double cache_bw : cache_bws) {
          // Skip configurations where the cache bandwidth dwarfs even the
          // total source capacity many times over AND the object count —
          // they all sit at divergence ~0 (the paper's dense cluster at the
          // origin) and dominate runtime in full mode.
          if (cache_bw > 10.0 * m * n && cache_bw > 10.0 * source_bw * m) continue;
          for (double change_rate : change_rates) {
            configs.push_back(Config{m, n, source_bw, cache_bw, change_rate});
          }
        }
      }
    }
  }

  // Two runner jobs per (metric, configuration): the ideal oracle at 2k and
  // our algorithm at 2k+1. The pair no longer shares one Workload object
  // (jobs may run concurrently — see the hazard note in exp/runner.h); both
  // jobs carry the identical WorkloadConfig instead, which reproduces the
  // same update streams deterministically.
  const MetricKind metrics[] = {MetricKind::kValueDeviation, MetricKind::kLag,
                                MetricKind::kStaleness};
  std::vector<ExperimentJob> jobs;
  for (MetricKind metric : metrics) {
    for (const Config& c : configs) {
      ExperimentConfig config;
      config.metric = metric;
      config.workload.num_sources = c.m;
      config.workload.objects_per_source = c.n;
      config.workload.rate_lo = 0.0;
      config.workload.rate_hi = 1.0;
      config.workload.weight_fluctuation_amplitude = 0.5;
      config.workload.seed = options.seed + static_cast<uint64_t>(c.m * 131 + c.n);
      // Sub-second ticks keep the scheduling-granularity floor small so the
      // low-divergence region (left side of the paper's panels) reflects
      // protocol overheads rather than tick discretization.
      config.harness.tick_length = 0.25;
      config.harness.warmup = 200.0;
      config.harness.measure = measure;
      config.cache_bandwidth_avg = c.cache_bw;
      config.source_bandwidth_avg = c.source_bw;
      config.bandwidth_change_rate = c.change_rate;

      const std::string key = std::string(MetricKindToString(metric)) +
                              ",m=" + std::to_string(c.m) +
                              ",n=" + std::to_string(c.n) +
                              ",B_C=" + TablePrinter::Cell(c.cache_bw) +
                              ",B_S=" + TablePrinter::Cell(c.source_bw) +
                              ",mB=" + TablePrinter::Cell(c.change_rate);
      config.scheduler = SchedulerKind::kIdealCooperative;
      jobs.push_back(ExperimentJob{"ideal," + key, config});
      config.scheduler = SchedulerKind::kCooperative;
      jobs.push_back(ExperimentJob{"ours," + key, config});
    }
  }

  ValidateJobsOrExit(jobs);
  const std::vector<JobResult> results = RunExperiments(jobs, options.runner("fig4"));
  CheckJobsOk(results);
  EmitJson(results, options);

  TablePrinter table({"metric", "m", "n", "B_S", "B_C", "mB", "ideal_divergence",
                      "ours_divergence", "ratio"});
  size_t k = 0;
  for (MetricKind metric : metrics) {
    for (const Config& c : configs) {
      const double x = results[k].result.total_weighted_divergence;
      const double y = results[k + 1].result.total_weighted_divergence;
      k += 2;
      const double ratio = x > 1e-9 ? y / x : (y < 1e-9 ? 1.0 : 99.0);
      table.AddRow({MetricKindToString(metric), TablePrinter::Cell(c.m),
                    TablePrinter::Cell(c.n), TablePrinter::Cell(c.source_bw),
                    TablePrinter::Cell(c.cache_bw),
                    TablePrinter::Cell(c.change_rate), TablePrinter::Cell(x),
                    TablePrinter::Cell(y), TablePrinter::Cell(ratio)});
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
