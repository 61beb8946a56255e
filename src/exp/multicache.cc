#include "exp/multicache.h"

namespace besync {

Result<std::vector<ExperimentJob>> MulticacheSweepJobs(const MulticacheConfig& config) {
  // One runner job per (pattern, cache count), pattern-major. Each job
  // builds its own workload (see the sharing hazard in exp/runner.h), so
  // jobs are safe to run concurrently.
  std::vector<ExperimentJob> jobs;
  for (InterestPattern pattern : config.patterns) {
    for (int num_caches : config.cache_counts) {
      if (num_caches < 1) {
        return Status::InvalidArgument("cache_counts entries must be >= 1");
      }
      ExperimentJob job;
      job.name = InterestPatternToString(pattern) + "/N=" + std::to_string(num_caches);
      job.config = config.base;
      job.config.scheduler = SchedulerKind::kCooperative;
      job.config.workload.num_caches = num_caches;
      job.config.workload.read = config.read;
      // Any pattern degenerates to the paper's topology at one cache; keep
      // the sweep uniform by mapping N=1 onto the canonical single-cache
      // pattern (identical interest map, no generator divergence).
      job.config.workload.interest_pattern =
          num_caches == 1 ? InterestPattern::kSingleCache : pattern;
      if (!config.bandwidth_per_cache) {
        job.config.cache_bandwidth_avg =
            config.base.cache_bandwidth_avg / static_cast<double>(num_caches);
      }
      if (!config.topology.flat()) {
        if (const Status status = config.topology.Validate(num_caches);
            !status.ok()) {
          return status;
        }
        job.config.topology = config.topology;
        job.config.relay_forward = config.relay_forward;
        job.name += "/" + TopologyLabel(config.topology);
      }
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

Result<std::vector<ExperimentJob>> TopologySweepJobs(const TopologySweepConfig& config) {
  const int leaves = config.base.workload.num_caches;
  if (leaves < 1) return Status::InvalidArgument("workload.num_caches must be >= 1");
  if (config.fanout < 1) return Status::InvalidArgument("fanout must be >= 1");
  if (config.forward_policies.empty()) {
    return Status::InvalidArgument("forward_policies must be non-empty");
  }
  // The capacity budget being held constant across depths: the flat
  // topology's total leaf-edge bandwidth.
  const double total_bandwidth =
      config.base.cache_bandwidth_avg * static_cast<double>(leaves);

  std::vector<ExperimentJob> jobs;
  for (int tiers : config.relay_tier_counts) {
    if (tiers < 0) return Status::InvalidArgument("relay tier counts must be >= 0");
    TopologySpec spec = MakeRelayTree(leaves, config.fanout, tiers);
    // Edge e gets the share of the total proportional to the leaves whose
    // traffic crosses it; all leaf edges weigh 1, so they share one value.
    const std::vector<int64_t> weights = spec.SubtreeLeafCounts();
    double weight_sum = 0.0;
    for (int64_t w : weights) weight_sum += static_cast<double>(w);
    const double leaf_bandwidth =
        tiers == 0 ? config.base.cache_bandwidth_avg
                   : total_bandwidth / weight_sum;
    if (tiers > 0) {
      spec.edge_bandwidth.resize(static_cast<size_t>(spec.num_nodes()));
      spec.relay_egress_bandwidth.assign(static_cast<size_t>(spec.num_nodes()), 0.0);
      for (int n = 0; n < spec.num_nodes(); ++n) {
        spec.edge_bandwidth[n] =
            total_bandwidth * static_cast<double>(weights[n]) / weight_sum;
        // Symmetric relay: forwarding capacity == uplink capacity (left at
        // 0 for leaves, which have no egress).
        if (n >= leaves) spec.relay_egress_bandwidth[n] = spec.edge_bandwidth[n];
      }
    }
    // Flat has no store to order, so only the first policy runs there.
    const int num_policies =
        tiers == 0 ? 1 : static_cast<int>(config.forward_policies.size());
    for (int p = 0; p < num_policies; ++p) {
      const RelayForwardPolicy forward = config.forward_policies[p];
      ExperimentJob job;
      job.config = config.base;
      job.config.scheduler = SchedulerKind::kCooperative;
      job.config.topology = spec;
      job.config.relay_forward = forward;
      // Leaf links resolve from the topology's absolute edge bandwidths;
      // keep the scalar consistent for JSON/table grid coordinates.
      job.config.cache_bandwidth_avg = leaf_bandwidth;
      job.name = tiers == 0 ? "flat"
                            : std::to_string(tiers + 1) + "-tier(f=" +
                                  std::to_string(config.fanout) + ")," +
                                  RelayForwardPolicyToString(forward);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace besync
