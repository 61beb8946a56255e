#ifndef BESYNC_DATA_TOPOLOGY_H_
#define BESYNC_DATA_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace besync {

/// Static description of a multi-tier relay topology: the tree of nodes a
/// refresh traverses from its source to a leaf cache. Generalizes the
/// engine's flat source -> cache network (the paper's Figure-1 star and its
/// PR-1 N-cache extension) into CDN-style hierarchies where regional relay
/// caches sit between the sources and the edge caches (paper Section 8
/// outlook; cf. the in-network-caching topology study arXiv:1312.0133 and
/// the cooperative-CDN survey arXiv:1210.0071).
///
/// Node numbering: nodes 0 .. num_leaves-1 are the leaf caches (node id ==
/// cache id); nodes >= num_leaves are relays. Every node has exactly one
/// *ingress edge* — the link its downstream traffic arrives on, fed by its
/// parent relay, or directly by the sources for tier-1 nodes (parent -1).
/// Edges are therefore indexed by their child node. An empty parent map is
/// the **flat** topology: every leaf is tier-1 and the engine behaves
/// exactly as before (one hop, no relays).
///
/// Per-edge knobs follow a "<= 0 / missing means default" convention so a
/// default-constructed tree is *pass-through*: relay edges unconstrained,
/// no loss, no latency — and a pass-through tree reproduces the flat run
/// bitwise (pinned by tests/topology_test.cc).
struct TopologySpec {
  /// Number of leaf caches (must equal the workload's num_caches). Leaves
  /// occupy node ids [0, num_leaves).
  int num_leaves = 0;
  /// Parent node of each node, -1 for tier-1 nodes (fed directly by the
  /// sources). Empty = flat topology (no relays, every leaf tier-1).
  std::vector<int32_t> parent;
  /// Failover parent of each *relay* node: when relay r fails (fault
  /// injection, fault/fault_schedule.h), r's children re-attach to
  /// backup_parent[r]. -1 or a missing entry promotes the children to
  /// tier-1 (source-fed) for the outage. Entries for leaf indexes must be
  /// -1 (leaves never fail over — they crash). Empty = no backups declared.
  std::vector<int32_t> backup_parent;

  /// Ingress-edge average bandwidth of node i (messages/second). <= 0 or
  /// missing = default: leaf edges take the scheduler's per-cache bandwidth
  /// (cache_bandwidth_avg / overrides), relay edges fall back to
  /// `relay_bandwidth_factor` (below).
  std::vector<double> edge_bandwidth;
  /// Ingress-edge loss probability of node i. <= 0 or missing = default:
  /// leaf edges take the scheduler's loss_rate, relay edges are lossless.
  std::vector<double> edge_loss;
  /// Store-and-forward latency (seconds) a relay holds messages that
  /// arrived over node i's ingress edge before they become eligible for
  /// forwarding. Only meaningful for relay nodes; 0 or missing = forward in
  /// the arrival tick (pass-through timing).
  std::vector<double> edge_latency;
  /// Egress budget (messages/second) of relay node i — the forwarding
  /// capacity it spreads over all child edges per tick. <= 0 or missing =
  /// default: the relay's resolved ingress bandwidth (symmetric relay), or
  /// unconstrained when the ingress is unconstrained.
  std::vector<double> relay_egress_bandwidth;

  /// Fallback for relay edges without an explicit `edge_bandwidth`: the
  /// edge of a relay with k leaves below gets
  ///   relay_bandwidth_factor * k * cache_bandwidth_avg
  /// (factor 1 = exactly the aggregate demand of its subtree, < 1 =
  /// oversubscribed). 0 = unconstrained (pass-through relays).
  double relay_bandwidth_factor = 0.0;

  bool flat() const { return parent.empty(); }
  int num_nodes() const {
    return flat() ? num_leaves : static_cast<int>(parent.size());
  }
  int num_relays() const { return num_nodes() - num_leaves; }

  /// Value of a per-edge vector for `node`, or `fallback` when the entry is
  /// missing or <= 0.
  double EdgeValue(const std::vector<double>& values, int node,
                   double fallback) const {
    if (node < static_cast<int>(values.size()) && values[node] > 0.0) {
      return values[node];
    }
    return fallback;
  }

  /// Tier of a node: 1 for source-fed nodes, parent's tier + 1 otherwise.
  /// Flat topologies put every leaf at tier 1.
  int TierOf(int node) const;
  /// Number of link tiers on the deepest source -> leaf path (1 = flat).
  int depth() const;

  /// Leaves in the subtree rooted at each node (1 for leaves themselves).
  std::vector<int64_t> SubtreeLeafCounts() const;

  /// Relay node ids ordered children-before-parents (ascending height above
  /// the leaves, ties by node id).
  std::vector<int32_t> RelaysBottomUp() const;

  /// Relay node ids ordered parents-before-children (descending height,
  /// ties by node id) — the downstream forwarding order.
  std::vector<int32_t> RelaysTopDown() const;

  /// Failover parent of `node`, or -1 when none is declared (promote to
  /// tier-1 on parent failure).
  int32_t BackupParentOf(int node) const {
    if (node < static_cast<int>(backup_parent.size())) return backup_parent[node];
    return -1;
  }

  /// Structural validation against a workload with `num_caches` caches.
  /// Flat specs are always valid.
  Status Validate(int num_caches) const;
};

/// Builds a uniform relay tree over `num_leaves` leaf caches: `relay_tiers`
/// tiers of relays, each grouping up to `fanout` children. relay_tiers == 0
/// returns the flat topology. All edge knobs are left at defaults, so the
/// result is pass-through until the caller (or the scheduler's bandwidth
/// resolution) assigns capacities.
TopologySpec MakeRelayTree(int num_leaves, int fanout, int relay_tiers);

/// MakeRelayTree at matched total edge bandwidth: the flat star's total
/// `leaf_bandwidth` x `num_leaves` is redistributed over *all* edges of the
/// tree, each edge weighted by the leaves in its subtree, so every leaf edge
/// gets the same share and deeper trees trade per-hop capacity for
/// aggregation. Each relay's egress budget mirrors its ingress edge
/// (symmetric store-and-forward relays). relay_tiers == 0 returns the flat
/// topology, whose leaves keep `leaf_bandwidth`.
TopologySpec MakeMatchedBandwidthTree(int num_leaves, int fanout, int relay_tiers,
                                      double leaf_bandwidth);

/// Declares a default failover map on `spec`: each relay's backup is the
/// next relay at the same height (wrapping), or -1 (promote children to
/// tier-1) when it is the only relay of its tier. No-op on flat specs.
void AssignBackupParents(TopologySpec* spec);

}  // namespace besync

#endif  // BESYNC_DATA_TOPOLOGY_H_
