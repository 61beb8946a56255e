#ifndef BESYNC_EXP_PROTOCOL_SWEEP_H_
#define BESYNC_EXP_PROTOCOL_SWEEP_H_

#include <vector>

#include "exp/experiment.h"
#include "exp/runner.h"

namespace besync {

/// Sweep the consistency protocols (push refresh, invalidation, TTL/lease)
/// against each other across operating regimes: client read rate x cache
/// bandwidth x relay depth, on the cooperative scheduler. Every protocol
/// runs on the exact same workload coordinates, so each regime is a direct
/// head-to-head comparison — the crossover table bench_protocol prints.
struct ProtocolSweepConfig {
  /// Base experiment: workload shape, harness timing, bandwidth knobs.
  /// The protocol / read-rate / bandwidth / relay-tier knobs are overridden
  /// per sweep point; the scheduler is always cooperative.
  ExperimentConfig base;
  /// Protocols compared at every regime.
  std::vector<SyncProtocolKind> protocols = {SyncProtocolKind::kPushRefresh,
                                             SyncProtocolKind::kInvalidation,
                                             SyncProtocolKind::kTtlLease};
  /// Client read rates per cache (reads/second) to sweep. Must be > 0:
  /// the pull-based protocols need reads to refill invalid replicas.
  std::vector<double> read_rates = {0.5, 4.0, 16.0};
  /// Per-cache bandwidth budgets B_C (messages/second) to sweep.
  std::vector<double> bandwidths = {4.0, 12.0};
  /// Relay-tree depths to sweep (0 = the flat one-hop star).
  std::vector<int> relay_tiers = {0};
  /// TTL applied at every ttl-lease point (seconds).
  double ttl = 50.0;
  /// Invalidation batching limit applied at every invalidation point.
  int invalidate_batch = 1;
};

/// Builds the sweep's runner jobs, regime-major (read_rate / bandwidth /
/// tiers) with the protocols innermost, so consecutive jobs are the
/// head-to-head competitors of one regime. Each job rebuilds its private
/// workload — correct because jobs share one workload config and differ
/// only in knobs that consume no generator randomness. A job's coordinates
/// are its `workload.read.read_rate`, `cache_bandwidth_avg`,
/// `workload.relay_tiers` and `protocol.kind`.
Result<std::vector<ExperimentJob>> ProtocolSweepJobs(
    const ProtocolSweepConfig& config);

}  // namespace besync

#endif  // BESYNC_EXP_PROTOCOL_SWEEP_H_
