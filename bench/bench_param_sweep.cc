// Section 6.1: tuning the threshold-setting parameters. The paper sweeps the
// threshold increase factor (alpha) and decrease factor (omega) over
// synthetic random-walk configurations with fluctuating weights and
// bandwidth, and reports that
//   alpha = 1.1, omega = 10
// gave the lowest average divergence under all three metrics, while nearby
// settings (e.g. alpha = 1.2, omega = 20) "gave similar results" — the
// algorithm is not overly sensitive.
//
// This binary reproduces the grid and prints, per (alpha, omega), the
// average divergence normalized to the best cell (1.0 = best).

#include <limits>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "util/stats.h"

namespace besync {
namespace {

struct Cell {
  double alpha;
  double omega;
  double divergence = 0.0;
};

int Run(const BenchOptions& options) {
  std::cout << "== Section 6.1 threshold parameter sweep ==\n"
            << "Paper result: alpha = 1.1, omega = 10 best; algorithm not overly\n"
            << "sensitive (normalized values near 1 across the grid).\n\n";

  const std::vector<double> alphas =
      options.full ? std::vector<double>{1.02, 1.05, 1.1, 1.2, 1.5, 2.0}
                   : std::vector<double>{1.05, 1.1, 1.2, 1.5};
  const std::vector<double> omegas =
      options.full ? std::vector<double>{2.0, 5.0, 10.0, 20.0, 50.0}
                   : std::vector<double>{2.0, 10.0, 50.0};

  // A mid-contention configuration with fluctuating weights and bandwidth —
  // the regime where threshold adaptation actually matters. One runner job
  // per (alpha, omega, metric); each builds its own workload, which is
  // bit-identical across cells sharing a seed (see exp/runner.h).
  auto make_cell_job = [&](double alpha, double omega, MetricKind metric) {
    ExperimentJob job;
    job.name = "alpha=" + TablePrinter::Cell(alpha) +
               ",omega=" + TablePrinter::Cell(omega) + "," +
               MetricKindToString(metric);
    ExperimentConfig& config = job.config;
    config.scheduler = SchedulerKind::kCooperative;
    config.metric = metric;
    config.workload.num_sources = options.full ? 100 : 20;
    config.workload.objects_per_source = 10;
    config.workload.rate_lo = 0.0;
    config.workload.rate_hi = 1.0;
    config.workload.weight_fluctuation_amplitude = 0.5;
    config.workload.seed = options.seed;
    config.harness.warmup = 200.0;
    config.harness.measure = options.full ? 5000.0 : 1200.0;
    config.cache_bandwidth_avg =
        0.3 * config.workload.num_sources * config.workload.objects_per_source;
    config.source_bandwidth_avg = 0.6 * config.workload.objects_per_source;
    config.bandwidth_change_rate = 0.05;
    config.threshold.increase = alpha;
    config.threshold.decrease = omega;
    return job;
  };

  const MetricKind metrics[] = {MetricKind::kStaleness, MetricKind::kLag,
                                MetricKind::kValueDeviation};
  std::vector<ExperimentJob> jobs;
  for (double alpha : alphas) {
    for (double omega : omegas) {
      for (MetricKind metric : metrics) {
        jobs.push_back(make_cell_job(alpha, omega, metric));
      }
    }
  }

  ValidateJobsOrExit(jobs);
  const std::vector<JobResult> results =
      RunExperiments(jobs, options.runner("param sweep"));
  CheckJobsOk(results);
  EmitJson(results, options);

  std::vector<Cell> cells;
  double best = std::numeric_limits<double>::infinity();
  size_t k = 0;
  for (double alpha : alphas) {
    for (double omega : omegas) {
      Cell cell{alpha, omega};
      // Sum across the three metrics (normalized to the best cell later).
      for (size_t metric = 0; metric < 3; ++metric) {
        cell.divergence += results[k++].result.total_weighted_divergence;
      }
      best = std::min(best, cell.divergence);
      cells.push_back(cell);
    }
  }

  TablePrinter table({"alpha", "omega", "divergence_sum", "normalized"});
  for (const Cell& cell : cells) {
    table.AddRow({TablePrinter::Cell(cell.alpha), TablePrinter::Cell(cell.omega),
                  TablePrinter::Cell(cell.divergence),
                  TablePrinter::Cell(cell.divergence / best)});
  }
  EmitTable(table, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  return besync::Run(besync::BenchOptions::Parse(argc, argv));
}
