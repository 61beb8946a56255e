#ifndef BESYNC_EXP_EXPERIMENT_H_
#define BESYNC_EXP_EXPERIMENT_H_

#include <memory>
#include <string>

#include "baseline/ideal.h"
#include "baseline/ideal_cache.h"
#include "baseline/round_robin.h"
#include "core/system.h"
#include "data/workload.h"
#include "divergence/metric.h"
#include "util/result.h"

namespace besync {

/// The schedulers an experiment can run (the five curves of Figure 6 plus
/// the round-robin sanity baseline).
enum class SchedulerKind {
  kCooperative,       ///< our algorithm (Section 5)
  kIdealCooperative,  ///< idealized oracle (Section 3.3)
  kIdealCacheBased,   ///< CGM with exact rates, no polling cost
  kCGM1,              ///< CGM with last-modified-time estimation + polls
  kCGM2,              ///< CGM with boolean-change estimation + polls
  kRoundRobin,        ///< naive cyclic refresher
};

std::string SchedulerKindToString(SchedulerKind kind);

/// One experiment = one workload + one metric + one scheduler + bandwidth
/// knobs. The bandwidth fields are authoritative here and are copied into
/// whichever scheduler configuration is used.
struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kCooperative;
  MetricKind metric = MetricKind::kValueDeviation;
  WorkloadConfig workload;
  HarnessConfig harness;

  /// Average cache-side bandwidth B_C (messages/second), for every cache.
  double cache_bandwidth_avg = 10.0;
  /// Average source-side bandwidth B_S; <= 0 unconstrained.
  double source_bandwidth_avg = -1.0;
  /// Maximum relative bandwidth change rate mB.
  double bandwidth_change_rate = 0.0;

  /// Relay topology override for the cooperative scheduler. Flat (default)
  /// defers to the workload's topology (e.g. WorkloadConfig::relay_tiers);
  /// a non-flat spec here wins — benches use it to pin absolute per-edge
  /// bandwidths. Baseline schedulers model the one-hop star only: running
  /// them on a non-flat topology is an InvalidArgument.
  TopologySpec topology;
  /// Relay store-drain order (tree topologies): FIFO or priority-preserving.
  RelayForwardPolicy relay_forward = RelayForwardPolicy::kFifo;

  /// Consistency protocol (cooperative scheduler): push refresh (default),
  /// invalidation, or TTL/lease. Non-push protocols require client reads
  /// (something must pull invalid/expired replicas back in) and are an
  /// InvalidArgument on the baseline schedulers.
  SyncProtocolConfig protocol;

  /// Fault-recovery knobs (cooperative scheduler; inert without a fault
  /// schedule on the workload). How sources resync a restarted cache, and
  /// what happens to a failed relay's stored messages.
  RecoveryPolicy recovery_policy = RecoveryPolicy::kNaiveReenqueue;
  RelayStorePolicy relay_store_policy = RelayStorePolicy::kDrop;

  /// Priority policy for the cooperative/ideal schedulers.
  PolicyKind policy = PolicyKind::kArea;
  /// Threshold algorithm parameters (cooperative scheduler).
  ThresholdConfig threshold;
  /// Source monitoring (cooperative scheduler).
  MonitorMode monitor = MonitorMode::kTrigger;
  double sampling_interval = 10.0;
  bool predictive_sampling = false;
  /// Section 10.1 extensions (cooperative/ideal schedulers).
  bool cost_aware_priority = true;
  int max_batch = 1;
  double max_batch_delay = 5.0;
  double loss_rate = 0.0;
  /// The tick is single-threaded (DESIGN.md, "Single-threaded tick"); this
  /// field stays only so callers that pin it to 1 keep compiling. Any other
  /// value is an InvalidArgument (ValidateExperimentConfig).
  int run_threads = 1;
  /// Optional per-phase tick profiler (CooperativeConfig::phase_timer);
  /// not owned, one per run (hostbench attaches it). Wall-clock numbers,
  /// never part of the results.
  PhaseTimer* phase_timer = nullptr;
  /// Observability (CooperativeConfig::obs): off by default; enabling it
  /// never changes run results. A cooperative-engine feature — enabled on a
  /// baseline scheduler it is an InvalidArgument rather than silently
  /// producing no output.
  ObsConfig obs;
};

/// Builds the scheduler named by `config` (bandwidth knobs applied).
std::unique_ptr<Scheduler> MakeScheduler(const ExperimentConfig& config);

/// Rejects the values that would otherwise abort or hang inside the engine
/// (or, for a negative loss rate, silently run lossless): the harness run
/// lengths per ValidateHarnessConfig (finite tick_length and measure > 0,
/// finite warmup >= 0), cache_bandwidth_avg > 0, a source_bandwidth_avg
/// that is not NaN (<= 0 means unconstrained), a one-tick budget
/// (bandwidth x tick_length) of at most kMaxTickBudget on either side,
/// loss_rate in [0, 1), run_threads 1, max_batch >= 1 (and > 1 only
/// with uniform costs), max_batch_delay >= 0, under sampling a finite
/// sampling_interval > 0, protocol.ttl > 0 (infinite allowed: a lease that
/// never expires), protocol.max_invalidate_batch >= 1 and, with
/// observability on, a finite obs.sample_interval > 0; NaN fails every
/// check. InvalidArgument names the field. Relay-edge budgets depend on the
/// workload's topology, so CooperativeScheduler::Validate checks them.
Status ValidateExperimentConfig(const ExperimentConfig& config);

/// Runs the configured scheduler on `workload` (which is Reset and may be
/// reused across calls — update streams are identical across schedulers).
/// Returns ValidateExperimentConfig's error, if any, before running.
Result<RunResult> RunExperimentOnWorkload(const ExperimentConfig& config,
                                          const Workload* workload);

/// Builds the synthetic workload described by `config.workload`, then runs.
Result<RunResult> RunExperiment(const ExperimentConfig& config);

}  // namespace besync

#endif  // BESYNC_EXP_EXPERIMENT_H_
