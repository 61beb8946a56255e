// Figure 6: "Comparison against cache-based synchronization policies".
// m in {10, 100, 1000} sources with n = 10 objects each (Poisson random-walk
// data, unweighted staleness metric); cache-side bandwidth varied between
// 10% and 90% of the total object count; source-side bandwidth
// unconstrained (the CGM polling model assumes none); bandwidth constant
// (mB = 0); 500 s measurement after warm-up. Five curves:
//   ideal cooperative, our algorithm, ideal cache-based, CGM1, CGM2.
//
// Paper result: cooperative scheduling clearly beats cache-based policies —
// "ideal cooperative" < "our algorithm" < "ideal cache-based" < CGM1 < CGM2
// at every bandwidth fraction, with the cooperative advantage largest in
// the mid-bandwidth range.

#include <iterator>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/sweep.h"

namespace besync {
namespace {

int Run(const BenchOptions& options) {
  std::cout << "== Figure 6: cooperative vs cache-based scheduling ==\n"
            << "Average unweighted staleness vs bandwidth fraction of m*n.\n"
            << "Paper order (best to worst): ideal-coop, ours, ideal-cache,\n"
            << "CGM1, CGM2.\n\n";

  const std::vector<int> ms =
      options.full ? std::vector<int>{10, 100, 1000} : std::vector<int>{10, 100};
  const std::vector<double> fractions =
      options.full ? LinSpace(0.1, 0.9, 9) : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
  const double measure = 500.0;  // the paper's (shorter) window for this one
  const int n = 10;

  const SchedulerKind kinds[] = {
      SchedulerKind::kIdealCooperative, SchedulerKind::kCooperative,
      SchedulerKind::kIdealCacheBased, SchedulerKind::kCGM1, SchedulerKind::kCGM2};

  // Five runner jobs per (m, fraction) — one per curve. The five no longer
  // share one Workload object (jobs may run concurrently — see the hazard
  // note in exp/runner.h); they carry the identical WorkloadConfig, which
  // reproduces the same update streams deterministically.
  std::vector<ExperimentJob> jobs;
  for (int m : ms) {
    for (double fraction : fractions) {
      ExperimentConfig config;
      config.metric = MetricKind::kStaleness;
      config.workload.num_sources = m;
      config.workload.objects_per_source = n;
      config.workload.rate_lo = 0.0;
      config.workload.rate_hi = 1.0;
      config.workload.seed = options.seed + static_cast<uint64_t>(m);
      // The paper's sources react to updates immediately; a 1 s scheduling
      // tick would impose a staleness floor of ~lambda/2 per object. A
      // 0.25 s tick keeps the discretization artifact well below the
      // effects being measured.
      config.harness.tick_length = 0.25;
      config.harness.warmup = 200.0;
      config.harness.measure = measure;
      config.cache_bandwidth_avg = fraction * m * n;
      config.source_bandwidth_avg = -1.0;  // unconstrained, per the paper
      config.bandwidth_change_rate = 0.0;

      for (SchedulerKind kind : kinds) {
        config.scheduler = kind;
        jobs.push_back(ExperimentJob{SchedulerKindToString(kind) +
                                         ",m=" + std::to_string(m) + ",frac=" +
                                         TablePrinter::Cell(fraction),
                                     config});
      }
    }
  }

  ValidateJobsOrExit(jobs);
  const std::vector<JobResult> results = RunExperiments(jobs, options.runner("fig6"));
  CheckJobsOk(results);
  EmitJson(results, options);

  TablePrinter table({"m", "bandwidth_fraction", "ideal_cooperative",
                      "our_algorithm", "ideal_cache_based", "cgm1", "cgm2"});
  size_t k = 0;
  for (int m : ms) {
    for (double fraction : fractions) {
      std::vector<std::string> row{TablePrinter::Cell(m),
                                   TablePrinter::Cell(fraction)};
      for (size_t curve = 0; curve < std::size(kinds); ++curve) {
        row.push_back(TablePrinter::Cell(results[k++].result.per_object_unweighted));
      }
      table.AddRow(std::move(row));
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
