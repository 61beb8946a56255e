#ifndef BESYNC_EXP_RUNNER_H_
#define BESYNC_EXP_RUNNER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "util/table_printer.h"

namespace besync {

/// One named experiment: a self-contained ExperimentConfig the runner
/// executes via RunExperiment (which builds the job's private workload) or,
/// for RunExperimentsOnWorkload, against a private clone of a shared base
/// workload (in which case `config.workload` is ignored as a generator and
/// serves only as JSON/tables metadata).
///
/// WORKLOAD-SHARING HAZARD: a `Workload` must never be *shared* between
/// concurrently running jobs. RunExperimentOnWorkload mutates state owned
/// by the workload through `ObjectSpec::process` (`Harness::Run` calls
/// `process->Reset()` on every object), so two jobs running over the same
/// instance race and corrupt both runs. The runner therefore offers two
/// safe paths, each giving every job a workload it exclusively owns:
///
///  1. Config rebuild (RunExperiments): each job builds its own workload
///     from `config.workload`. MakeWorkload is deterministic given its
///     config — including the per-object RNG seeds — so jobs with identical
///     workload configs observe bit-identical update streams. Correct for
///     synthetic workloads; costs O(build) per job, and jobs are only as
///     identical as their configs.
///
///  2. Clone per job (RunExperimentsOnWorkload): each job receives a
///     private CloneWorkload deep copy of one caller-supplied base
///     workload. Correct — and the only option — for trace-derived or
///     hand-constructed workloads that no WorkloadConfig can rebuild
///     (e.g. MakeBuoyWorkload); also cheaper when cloning is cheaper than
///     rebuilding. The clones are exact copies, so every job observes the
///     *same* update stream by construction.
///
/// Both paths preserve the cross-scheduler pairing the figure benches rely
/// on, and both produce results that are pure functions of (job config,
/// base workload) — independent of thread count.
struct ExperimentJob {
  std::string name;
  ExperimentConfig config;
};

/// Outcome of one job. `result` is meaningful iff `status.ok()`.
struct JobResult {
  std::string name;
  ExperimentConfig config;  ///< the config that produced the result
  Status status;
  RunResult result;
  /// Wall-clock seconds this job took (nondeterministic; reported in tables
  /// but deliberately excluded from JSON so fixed grids serialize
  /// byte-identically at any thread count).
  double wall_seconds = 0.0;
};

struct RunnerOptions {
  /// Worker threads; 1 runs inline on the calling thread, <= 0 uses the
  /// hardware concurrency.
  int threads = 1;
  /// When nonempty, prints a thread-safe "label: k/n" progress line.
  std::string progress_label;
};

/// Deterministic per-job seed stream (SplitMix64 over base ^ index): gives
/// every job of a grid its own reproducible seed that is stable across
/// reorderings of *execution* (it depends only on the job's position, never
/// on which worker ran it or when).
uint64_t DeriveJobSeed(uint64_t base, uint64_t index);

/// Runs every job, `options.threads` at a time, on a fixed thread pool.
/// Results are indexed like `jobs` regardless of completion order, and every
/// field except `wall_seconds` is a pure function of the job's config — the
/// same grid produces identical results at threads=1 and threads=N.
/// Per-job failures are reported in JobResult::status, never thrown.
std::vector<JobResult> RunExperiments(const std::vector<ExperimentJob>& jobs,
                                      const RunnerOptions& options = RunnerOptions());

/// Clone-per-job variant: runs every job against a private CloneWorkload
/// deep copy of `base_workload` instead of rebuilding from
/// `config.workload` (hazard path 2 above). Use for trace-derived or
/// hand-constructed workloads. The runner stamps each reported config's
/// `workload.num_caches` from the base workload so JSON/table grid
/// coordinates reflect the actual topology; the remaining
/// `config.workload` generator fields are reported as the caller set them
/// (set `config.workload.seed` to the trace seed for faithful metadata).
/// Determinism guarantee matches RunExperiments: identical results and
/// byte-identical JSON at any thread count.
std::vector<JobResult> RunExperimentsOnWorkload(
    const Workload& base_workload, const std::vector<ExperimentJob>& jobs,
    const RunnerOptions& options = RunnerOptions());

/// Serializes results as JSON:
///   {"schema": "besync.run_results.v1",
///    "results": [{"name": ..., "scheduler": ..., "policy": ..., "metric":
///     ..., "num_caches": ..., "cache_bandwidth_avg": ...,
///     "source_bandwidth_avg": ..., "loss_rate": ..., "workload_seed": ...,
///     "ok": ..., "error": ..., "total_weighted_divergence": ...,
///     "per_cache_weighted": [...], "per_object_weighted": ...,
///     "per_object_unweighted": ..., "total_replicas": ...,
///    "refreshes_sent": ..., "refreshes_delivered": ..., "feedback_sent":
///     ..., "polls_sent": ..., "cache_utilization": ...}, ...]}
/// Jobs with the read path enabled (workload read_rate > 0 or a run that
/// counted reads) additionally carry: "read_rate", "capacity", "eviction",
/// "reads_total", "read_hits", "read_misses", "hit_rate",
/// "pull_requests_sent", "pulls_delivered", "cache_evictions",
/// "read_staleness_mean"/"_p50"/"_p95"/"_p99", "read_miss_latency_mean",
/// "pull_bandwidth_share" — read-free rows keep their historical bytes.
/// Doubles use shortest round-trip formatting; timings are excluded, so the
/// bytes depend only on the job configs (BENCH_*.json trajectory tracking).
void WriteResultsJson(std::ostream& os, const std::vector<JobResult>& results);
Status WriteResultsJson(const std::string& path, const std::vector<JobResult>& results);

/// Fraction of client reads served from a resident replica (0 when the run
/// counted no reads) — the "hit_rate" JSON/CSV field.
double HitRate(const SchedulerStats& stats);

/// Standard summary table over the grid dimensions and headline metrics
/// (benches with bespoke layouts assemble their own from the results).
TablePrinter ResultsTable(const std::vector<JobResult>& results);

/// Machine-readable counterpart of ResultsTable for --csv export: the same
/// per-job rows with every numeric column in shortest round-trip precision
/// (the JSON formatter) and the nondeterministic wall-clock column dropped,
/// so a fixed grid's CSV — like its JSON — is byte-identical at any thread
/// count. Lets sweep consumers skip JSON post-processing entirely.
/// The optional read-path, protocol and fault groups are the JSON rows'
/// fields, in the same order; a grid where any job carries a group gains
/// its columns on every row, and other grids keep the historical column set
/// byte for byte.
TablePrinter ResultsCsv(const std::vector<JobResult>& results);

}  // namespace besync

#endif  // BESYNC_EXP_RUNNER_H_
