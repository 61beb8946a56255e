#ifndef BESYNC_EXP_FAULT_SWEEP_H_
#define BESYNC_EXP_FAULT_SWEEP_H_

#include <vector>

#include "exp/experiment.h"
#include "exp/runner.h"

namespace besync {

/// Sweep fault intensity x recovery policy x consistency protocol x relay
/// depth on the cooperative scheduler: every point injects a scripted
/// crash/restart schedule (plus relay failures on tree points) and measures
/// how fast the crashed cache resynchronizes against how much steady-state
/// freshness the warm caches give up — the recovery crossover table
/// bench_fault prints.
struct FaultSweepConfig {
  /// Base experiment: workload shape, harness timing, bandwidth knobs.
  /// The fault / protocol / relay-tier / policy knobs are overridden per
  /// sweep point; the scheduler is always cooperative.
  ExperimentConfig base;
  /// Crash/restart counts to sweep (the fault-intensity axis; 0 = the
  /// fault-free baseline point). Every crash targets leaf cache 0, so
  /// "warm" divergence is cleanly the remaining caches' sum.
  std::vector<int> crash_counts = {1, 3};
  /// Recovery policies compared at every regime (innermost: consecutive
  /// points are the head-to-head competitors of one regime).
  std::vector<RecoveryPolicy> policies = {RecoveryPolicy::kNaiveReenqueue,
                                          RecoveryPolicy::kRecoveryPriority};
  /// Consistency protocols to sweep.
  std::vector<SyncProtocolKind> protocols = {SyncProtocolKind::kPushRefresh};
  /// Relay-tree depths to sweep (0 = the flat one-hop star).
  std::vector<int> relay_tiers = {0};
  /// Relay fail/recover pairs injected at every tree point (tiers > 0);
  /// flat points never inject relay failures.
  int relay_failures = 0;
  /// What a failed relay does with its stored messages.
  RelayStorePolicy relay_store_policy = RelayStorePolicy::kDrain;
  /// Downtime between each crash and its restart (seconds).
  double crash_duration = 20.0;
  /// Crash start times are drawn uniformly in [window_start, window_end)
  /// from the dedicated fault stream.
  double window_start = 60.0;
  double window_end = 200.0;
  /// Seed of the dedicated fault-schedule stream (never the workload's).
  uint64_t fault_seed = 1234;
  /// Client read rate applied at every point when > 0. Must be > 0 when a
  /// pull-based protocol (invalidation / TTL) is swept: without reads
  /// nothing refills invalid replicas — crashed or not.
  double read_rate = 4.0;
};

/// Builds the sweep's runner jobs, regime-major (crashes / protocol /
/// tiers) with the recovery policies innermost, so consecutive jobs are the
/// head-to-head competitors of one regime. Each job rebuilds its private
/// workload; the fault schedule draws from its own seed, so jobs differing
/// only in policy observe bit-identical update streams and fault timings.
/// A job's coordinates are its `workload.fault.cache_crashes`,
/// `protocol.kind`, `workload.relay_tiers` and `recovery_policy`.
Result<std::vector<ExperimentJob>> FaultSweepJobs(const FaultSweepConfig& config);

}  // namespace besync

#endif  // BESYNC_EXP_FAULT_SWEEP_H_
