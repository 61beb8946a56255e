#include "data/topology.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

int TopologySpec::TierOf(int node) const {
  BESYNC_CHECK_GE(node, 0);
  BESYNC_CHECK_LT(node, num_nodes());
  if (flat()) return 1;
  int tier = 1;
  int32_t up = parent[node];
  while (up != -1) {
    ++tier;
    BESYNC_CHECK_LE(tier, num_nodes()) << "topology parent map has a cycle";
    up = parent[up];
  }
  return tier;
}

int TopologySpec::depth() const {
  int max_tier = num_leaves > 0 ? 1 : 0;
  for (int leaf = 0; leaf < num_leaves; ++leaf) {
    max_tier = std::max(max_tier, TierOf(leaf));
  }
  return max_tier;
}

std::vector<int64_t> TopologySpec::SubtreeLeafCounts() const {
  std::vector<int64_t> counts(static_cast<size_t>(num_nodes()), 0);
  for (int leaf = 0; leaf < num_leaves; ++leaf) {
    int32_t node = static_cast<int32_t>(leaf);
    while (node != -1) {
      ++counts[node];
      node = flat() ? -1 : parent[node];
    }
  }
  return counts;
}

namespace {

/// Height above the leaves: 0 for leaves, parent strictly higher than any
/// child. Computed by walking up from every leaf with increasing distance.
std::vector<int> NodeHeights(const TopologySpec& spec) {
  std::vector<int> height(static_cast<size_t>(spec.num_nodes()), 0);
  for (int leaf = 0; leaf < spec.num_leaves && !spec.flat(); ++leaf) {
    int distance = 0;
    int32_t node = spec.parent[leaf];
    while (node != -1) {
      ++distance;
      height[node] = std::max(height[node], distance);
      node = spec.parent[node];
    }
  }
  return height;
}

/// Relay ids sorted by height (stable, so ascending node ids break ties).
std::vector<int32_t> RelaysByHeight(const TopologySpec& spec, bool ascending) {
  const std::vector<int> height = NodeHeights(spec);
  std::vector<int32_t> relays;
  relays.reserve(static_cast<size_t>(spec.num_relays()));
  for (int node = spec.num_leaves; node < spec.num_nodes(); ++node) {
    relays.push_back(static_cast<int32_t>(node));
  }
  std::stable_sort(relays.begin(), relays.end(),
                   [&height, ascending](int32_t a, int32_t b) {
                     return ascending ? height[a] < height[b] : height[a] > height[b];
                   });
  return relays;
}

}  // namespace

std::vector<int32_t> TopologySpec::RelaysBottomUp() const {
  return RelaysByHeight(*this, /*ascending=*/true);
}

std::vector<int32_t> TopologySpec::RelaysTopDown() const {
  return RelaysByHeight(*this, /*ascending=*/false);
}

Status TopologySpec::Validate(int num_caches) const {
  if (flat()) return Status::OK();
  if (num_leaves != num_caches) {
    return Status::InvalidArgument("topology has ", num_leaves,
                                   " leaves but the workload has ", num_caches,
                                   " caches");
  }
  const int nodes = num_nodes();
  if (nodes < num_leaves) {
    return Status::InvalidArgument("topology parent map smaller than leaf count");
  }
  std::vector<bool> has_child(static_cast<size_t>(nodes), false);
  for (int n = 0; n < nodes; ++n) {
    const int32_t p = parent[n];
    if (p == -1) continue;
    if (p < num_leaves || p >= nodes) {
      return Status::InvalidArgument("node ", n, " has invalid parent ", p,
                                     " (parents must be relay nodes)");
    }
    if (p == n) return Status::InvalidArgument("node ", n, " is its own parent");
    has_child[p] = true;
  }
  for (int n = num_leaves; n < nodes; ++n) {
    if (!has_child[n]) {
      return Status::InvalidArgument("relay node ", n, " has no children");
    }
  }
  // Acyclicity: every node must reach a tier-1 (-1 parent) ancestor within
  // num_nodes steps.
  for (int n = 0; n < nodes; ++n) {
    int steps = 0;
    int32_t up = parent[n];
    while (up != -1) {
      if (++steps > nodes) {
        return Status::InvalidArgument("topology parent map has a cycle through node ",
                                       n);
      }
      up = parent[up];
    }
  }
  const auto check_edge_vector = [nodes](const std::vector<double>& values,
                                         const char* name) {
    if (static_cast<int>(values.size()) > nodes) {
      return Status::InvalidArgument(name, " has more entries than topology nodes");
    }
    return Status::OK();
  };
  BESYNC_RETURN_IF_ERROR(check_edge_vector(edge_bandwidth, "edge_bandwidth"));
  BESYNC_RETURN_IF_ERROR(check_edge_vector(edge_loss, "edge_loss"));
  BESYNC_RETURN_IF_ERROR(check_edge_vector(edge_latency, "edge_latency"));
  BESYNC_RETURN_IF_ERROR(
      check_edge_vector(relay_egress_bandwidth, "relay_egress_bandwidth"));
  for (double loss : edge_loss) {
    if (loss >= 1.0) return Status::InvalidArgument("edge_loss must be < 1");
  }
  for (double latency : edge_latency) {
    if (latency < 0.0) return Status::InvalidArgument("edge_latency must be >= 0");
  }
  if (relay_bandwidth_factor < 0.0) {
    return Status::InvalidArgument("relay_bandwidth_factor must be >= 0");
  }
  if (static_cast<int>(backup_parent.size()) > nodes) {
    return Status::InvalidArgument("backup_parent has more entries than topology nodes");
  }
  for (int n = 0; n < static_cast<int>(backup_parent.size()); ++n) {
    const int32_t b = backup_parent[n];
    if (b == -1) continue;
    if (n < num_leaves) {
      return Status::InvalidArgument("leaf ", n,
                                     " declares a backup parent (leaves crash, "
                                     "they do not fail over)");
    }
    if (b < num_leaves || b >= nodes) {
      return Status::InvalidArgument("relay ", n, " has invalid backup parent ", b,
                                     " (backups must be relay nodes)");
    }
    if (b == n) {
      return Status::InvalidArgument("relay ", n, " is its own backup parent");
    }
    // The backup must sit outside the failing relay's subtree: re-attaching
    // n's children to a descendant of n would route traffic in a loop once
    // n is gone.
    int32_t up = b;
    int steps = 0;
    while (up != -1) {
      if (up == n) {
        return Status::InvalidArgument("relay ", n, " has backup parent ", b,
                                       " inside its own subtree");
      }
      if (++steps > nodes) break;  // cycles are reported by the walk above
      up = parent[up];
    }
  }
  return Status::OK();
}

TopologySpec MakeRelayTree(int num_leaves, int fanout, int relay_tiers) {
  BESYNC_CHECK_GE(num_leaves, 1);
  BESYNC_CHECK_GE(relay_tiers, 0);
  TopologySpec spec;
  spec.num_leaves = num_leaves;
  if (relay_tiers == 0) return spec;  // flat: empty parent map
  BESYNC_CHECK_GE(fanout, 1);
  spec.parent.assign(static_cast<size_t>(num_leaves), -1);
  std::vector<int32_t> tier(static_cast<size_t>(num_leaves));
  for (int i = 0; i < num_leaves; ++i) tier[i] = static_cast<int32_t>(i);
  for (int t = 0; t < relay_tiers; ++t) {
    const int groups =
        (static_cast<int>(tier.size()) + fanout - 1) / fanout;
    const int32_t first = static_cast<int32_t>(spec.parent.size());
    for (size_t i = 0; i < tier.size(); ++i) {
      spec.parent[tier[i]] = first + static_cast<int32_t>(i) / fanout;
    }
    std::vector<int32_t> next(static_cast<size_t>(groups));
    for (int g = 0; g < groups; ++g) {
      next[g] = first + static_cast<int32_t>(g);
      spec.parent.push_back(-1);
    }
    tier = std::move(next);
  }
  return spec;
}

TopologySpec MakeMatchedBandwidthTree(int num_leaves, int fanout, int relay_tiers,
                                      double leaf_bandwidth) {
  TopologySpec spec = MakeRelayTree(num_leaves, fanout, relay_tiers);
  if (spec.flat()) return spec;
  const double total = leaf_bandwidth * static_cast<double>(num_leaves);
  const std::vector<int64_t> weights = spec.SubtreeLeafCounts();
  double weight_sum = 0.0;
  for (int64_t w : weights) weight_sum += static_cast<double>(w);
  spec.edge_bandwidth.resize(static_cast<size_t>(spec.num_nodes()));
  spec.relay_egress_bandwidth.assign(static_cast<size_t>(spec.num_nodes()), 0.0);
  for (int n = 0; n < spec.num_nodes(); ++n) {
    spec.edge_bandwidth[n] = total * static_cast<double>(weights[n]) / weight_sum;
    // Leaves have no egress; theirs stays 0.
    if (n >= num_leaves) spec.relay_egress_bandwidth[n] = spec.edge_bandwidth[n];
  }
  return spec;
}

void AssignBackupParents(TopologySpec* spec) {
  if (spec->flat()) return;
  const std::vector<int> height = NodeHeights(*spec);
  spec->backup_parent.assign(static_cast<size_t>(spec->num_nodes()), -1);
  for (int r = spec->num_leaves; r < spec->num_nodes(); ++r) {
    // Next relay of the same height, scanning ascending node ids with
    // wrap-around — deterministic and sibling-preferring for the uniform
    // trees MakeRelayTree builds.
    const int relays = spec->num_relays();
    for (int step = 1; step < relays; ++step) {
      const int candidate =
          spec->num_leaves + (r - spec->num_leaves + step) % relays;
      if (height[candidate] == height[r]) {
        spec->backup_parent[r] = static_cast<int32_t>(candidate);
        break;
      }
    }
  }
}

}  // namespace besync
