#ifndef BESYNC_EXP_MULTICACHE_H_
#define BESYNC_EXP_MULTICACHE_H_

#include <vector>

#include "exp/experiment.h"
#include "exp/runner.h"

namespace besync {

/// Sweep over multi-cache topologies: runs the cooperative scheduler on the
/// base workload replicated over varying cache counts and interest
/// patterns. The single-cache point (num_caches == 1) of any pattern
/// reproduces the paper's topology.
struct MulticacheConfig {
  /// Base experiment: workload shape, harness timing and bandwidth knobs.
  /// The workload's num_caches / interest_pattern fields are overridden per
  /// sweep point; the scheduler is always the cooperative protocol.
  ExperimentConfig base;
  /// Cache counts to sweep.
  std::vector<int> cache_counts = {1, 2, 4, 8};
  /// Interest patterns to sweep at each cache count.
  std::vector<InterestPattern> patterns = {InterestPattern::kPartitionedBySource,
                                           InterestPattern::kZipfOverlap};
  /// true: every cache gets the full base.cache_bandwidth_avg (total
  /// capacity grows with the topology); false: the base bandwidth is split
  /// evenly across caches (fixed total capacity).
  bool bandwidth_per_cache = true;
  /// Relay topology applied to every sweep point (data/topology.h). Flat
  /// (default) keeps the historical one-hop sweep; a non-flat spec requires
  /// every swept cache count to equal its leaf count, so combine it with a
  /// single-entry `cache_counts`.
  TopologySpec topology;
  /// Relay store-drain order when `topology` is a tree.
  RelayForwardPolicy relay_forward = RelayForwardPolicy::kFifo;
  /// Client read-path knobs applied to every sweep point's workload
  /// (data/read_process.h). The defaults keep the sweep write-only — the
  /// historical behavior, byte for byte.
  ReadWorkloadConfig read;
};

/// Builds the sweep's runner jobs: one cooperative run per (pattern, cache
/// count) pair, in pattern-major order. Each job rebuilds its private
/// workload from the base config (the runner's config-rebuild path —
/// correct here because every job *varies* the workload topology; a
/// shared-by-clone base workload, RunExperimentsOnWorkload, suits grids
/// that score one fixed workload instead). N=1 jobs carry the canonical
/// kSingleCache pattern, so a caller that reports the requested pattern
/// walks the axes in this order.
Result<std::vector<ExperimentJob>> MulticacheSweepJobs(const MulticacheConfig& config);

/// Sweep over relay-tree depths at matched total edge bandwidth: the flat
/// per-cache budget base.cache_bandwidth_avg x num_caches is redistributed
/// over *all* edges of each tree, each edge weighted by the leaves in its
/// subtree (so deeper topologies trade per-hop capacity for aggregation —
/// the relay-placement question of the CDN literature). Relay egress
/// budgets mirror the relay's ingress edge (symmetric store-and-forward
/// relays).
struct TopologySweepConfig {
  /// Base experiment: workload shape (workload.num_caches leaves; use a
  /// multi-cache interest pattern), harness timing, per-leaf flat bandwidth
  /// (cache_bandwidth_avg). The scheduler is always cooperative.
  ExperimentConfig base;
  /// Relay tier counts to sweep; 0 = the flat one-hop star.
  std::vector<int> relay_tier_counts = {0, 1, 2};
  /// Children per relay in the generated trees.
  int fanout = 2;
  /// Forwarding policies swept at each tree depth (flat runs once — it has
  /// no relays to order).
  std::vector<RelayForwardPolicy> forward_policies = {RelayForwardPolicy::kFifo,
                                                      RelayForwardPolicy::kPriority};
};

/// Builds the sweep's runner jobs, tiers-major / policy-minor. A job's
/// coordinates live in its config: tiers are `topology.depth() - 1`, edges
/// (leaves + relays) are `topology.num_nodes()`, the per-leaf-edge share of
/// the matched total bandwidth is `cache_bandwidth_avg`, and the forwarding
/// policy is `relay_forward`.
Result<std::vector<ExperimentJob>> TopologySweepJobs(const TopologySweepConfig& config);

}  // namespace besync

#endif  // BESYNC_EXP_MULTICACHE_H_
