#include "exp/fault_sweep.h"

namespace besync {

Result<std::vector<ExperimentJob>> FaultSweepJobs(const FaultSweepConfig& config) {
  if (config.crash_counts.empty()) {
    return Status::InvalidArgument("crash_counts must be non-empty");
  }
  if (config.policies.empty()) {
    return Status::InvalidArgument("policies must be non-empty");
  }
  if (config.protocols.empty()) {
    return Status::InvalidArgument("protocols must be non-empty");
  }
  if (config.relay_tiers.empty()) {
    return Status::InvalidArgument("relay_tiers must be non-empty");
  }
  for (int crashes : config.crash_counts) {
    if (crashes < 0) {
      return Status::InvalidArgument("crash counts must be >= 0, got ", crashes);
    }
  }
  if (config.crash_duration <= 0.0) {
    return Status::InvalidArgument("crash_duration must be > 0, got ",
                                   config.crash_duration);
  }
  if (config.relay_failures < 0) {
    return Status::InvalidArgument("relay_failures must be >= 0, got ",
                                   config.relay_failures);
  }
  for (SyncProtocolKind protocol : config.protocols) {
    if (protocol != SyncProtocolKind::kPushRefresh && config.read_rate <= 0.0) {
      return Status::InvalidArgument(
          "protocol ", SyncProtocolKindToString(protocol),
          " requires read_rate > 0: invalid replicas — crashed or not — are "
          "refilled only by read-triggered pulls");
    }
  }

  std::vector<ExperimentJob> jobs;
  for (int crashes : config.crash_counts) {
    for (SyncProtocolKind protocol : config.protocols) {
      for (int tiers : config.relay_tiers) {
        for (RecoveryPolicy policy : config.policies) {
          ExperimentJob job;
          job.config = config.base;
          job.config.scheduler = SchedulerKind::kCooperative;
          job.config.workload.relay_tiers = tiers;
          job.config.protocol.kind = protocol;
          if (config.read_rate > 0.0) {
            job.config.workload.read.read_rate = config.read_rate;
          }
          job.config.recovery_policy = policy;
          job.config.relay_store_policy = config.relay_store_policy;
          FaultScheduleConfig& fault = job.config.workload.fault;
          fault.cache_crashes = crashes;
          // Pin every crash to leaf 0 so "warm" divergence is cleanly the
          // sum over the other caches at every point of the grid.
          fault.crash_cache = 0;
          fault.crash_duration = config.crash_duration;
          // Relay failures only where relays exist; a flat point with
          // relay_failures > 0 would fail schedule validation.
          fault.relay_failures = tiers > 0 ? config.relay_failures : 0;
          fault.window_start = config.window_start;
          fault.window_end = config.window_end;
          fault.seed = config.fault_seed;
          job.name = "crashes=" + std::to_string(crashes) +
                     ",proto=" + SyncProtocolKindToString(protocol) +
                     ",tiers=" + std::to_string(tiers) +
                     ",policy=" + RecoveryPolicyToString(policy);
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

}  // namespace besync
