#include "net/network.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/logging.h"

namespace besync {

namespace {
// Budget used for "unconstrained" links; large enough to never bind while
// staying far from int64 overflow when accumulated.
constexpr double kUnconstrainedBandwidth = 1e12;

/// Stable counting sort of the positions `order` (indices into `mail`) by
/// key(mail[position]), whose values lie in [0, num_keys), into `sorted`
/// (pre-sized like `order`). Sorting 4-byte positions instead of the
/// 40-byte messages leaves one copy per message, made by the caller.
/// `buckets` is reused scratch.
template <typename Key>
void CountingSort(const std::vector<ControlMessage>& mail,
                  const std::vector<int32_t>& order, size_t num_keys, Key key,
                  std::vector<int32_t>* buckets, std::vector<int32_t>* sorted) {
  buckets->assign(num_keys + 1, 0);
  for (const int32_t position : order) ++(*buckets)[key(mail[position]) + 1];
  for (size_t k = 1; k <= num_keys; ++k) (*buckets)[k] += (*buckets)[k - 1];
  for (const int32_t position : order) {
    (*sorted)[(*buckets)[key(mail[position])]++] = position;
  }
}

}  // namespace

EdgeBandwidths ResolveEdgeBandwidths(const NetworkConfig& config) {
  const TopologySpec& topology = config.topology;
  EdgeBandwidths edges;
  edges.leaf.reserve(static_cast<size_t>(config.num_caches));
  for (int c = 0; c < config.num_caches; ++c) {
    double bandwidth = config.cache_bandwidth_avg;
    if (c < static_cast<int>(config.cache_bandwidth_overrides.size()) &&
        config.cache_bandwidth_overrides[c] > 0.0) {
      bandwidth = config.cache_bandwidth_overrides[c];
    }
    edges.leaf.push_back(topology.EdgeValue(topology.edge_bandwidth, c, bandwidth));
  }
  if (topology.flat()) return edges;
  const std::vector<int64_t> leaves_below = topology.SubtreeLeafCounts();
  for (int n = config.num_caches; n < topology.num_nodes(); ++n) {
    // Relay edge default: demand-proportional share (factor x leaves x
    // per-leaf bandwidth), or unconstrained when no factor is set — the
    // pass-through configuration.
    const double fallback =
        topology.relay_bandwidth_factor > 0.0
            ? topology.relay_bandwidth_factor * static_cast<double>(leaves_below[n]) *
                  config.cache_bandwidth_avg
            : kUnconstrainedBandwidth;
    const double ingress = topology.EdgeValue(topology.edge_bandwidth, n, fallback);
    edges.relay_ingress.push_back(ingress);
    // Egress default: mirror the resolved ingress (a symmetric relay).
    edges.relay_egress.push_back(
        topology.EdgeValue(topology.relay_egress_bandwidth, n, ingress));
  }
  return edges;
}

Network::Network(const NetworkConfig& config, Rng* rng) : config_(config) {
  BESYNC_CHECK_GE(config.num_sources, 1);
  BESYNC_CHECK_GE(config.num_caches, 1);
  BESYNC_CHECK_GT(config.cache_bandwidth_avg, 0.0);
  const TopologySpec& topology = config_.topology;
  if (!topology.flat()) {
    const Status status = topology.Validate(config.num_caches);
    BESYNC_CHECK(status.ok()) << status.ToString();
  }

  // Leaf (cache) ingress links first, then source links — the historical
  // construction order, so the flat topology (and a pass-through tree,
  // whose relay links draw no randomness) consumes `rng` identically to
  // the pre-relay engine.
  const EdgeBandwidths edges = ResolveEdgeBandwidths(config);
  cache_links_.reserve(config.num_caches);
  for (int c = 0; c < config.num_caches; ++c) {
    cache_links_.push_back(std::make_unique<Link>(
        config.num_caches == 1 ? "cache" : "cache-" + std::to_string(c),
        std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
            edges.leaf[c], config.bandwidth_change_rate, rng)),
        &pool_));
  }
  source_links_.reserve(config.num_sources);
  const double source_bw = config.source_bandwidth_avg > 0.0
                               ? config.source_bandwidth_avg
                               : kUnconstrainedBandwidth;
  const double source_change_rate =
      config.source_bandwidth_avg > 0.0 ? config.bandwidth_change_rate : 0.0;
  for (int j = 0; j < config.num_sources; ++j) {
    source_links_.push_back(std::make_unique<Link>(
        "source-" + std::to_string(j),
        std::make_unique<BandwidthModel>(
            MakeBandwidthFluctuation(source_bw, source_change_rate, rng)),
        &pool_));
  }

  // Relay ingress/egress links (tree topologies only), then the routing
  // tables; flat, every leaf is its own tier-1 node.
  if (!topology.flat()) {
    relay_links_.reserve(static_cast<size_t>(topology.num_relays()));
    relay_egress_.reserve(static_cast<size_t>(topology.num_relays()));
    for (int n = config.num_caches; n < topology.num_nodes(); ++n) {
      const double ingress_bw = edges.relay_ingress[n - config.num_caches];
      const bool ingress_unconstrained = ingress_bw >= kUnconstrainedBandwidth;
      relay_links_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n),
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              ingress_bw,
              ingress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng)),
          &pool_));
      // Unconstrained ingress means unconstrained egress.
      const double egress_bw = edges.relay_egress[n - config.num_caches];
      const bool egress_unconstrained = egress_bw >= kUnconstrainedBandwidth;
      relay_egress_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n) + "-egress",
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              egress_bw,
              egress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng)),
          &pool_));
    }

  }
  next_hop_.assign(static_cast<size_t>(topology.num_relays()),
                   std::vector<int32_t>(static_cast<size_t>(config.num_caches), -1));
  effective_parent_ =
      topology.flat() ? std::vector<int32_t>(static_cast<size_t>(num_caches()), -1)
                      : topology.parent;
  relay_alive_.assign(static_cast<size_t>(topology.num_relays()), 1);
  children_.resize(static_cast<size_t>(num_nodes()));
  first_hop_.resize(static_cast<size_t>(config.num_caches));
  pump_rank_.resize(static_cast<size_t>(config.num_caches));
  tier1_position_.resize(static_cast<size_t>(config.num_caches));
  control_hops_.resize(static_cast<size_t>(config.num_caches));
  BuildRouting();

  all_links_.reserve(cache_links_.size() + source_links_.size() +
                     relay_links_.size() + relay_egress_.size());
  for (auto& link : cache_links_) all_links_.push_back(link.get());
  for (auto& link : source_links_) all_links_.push_back(link.get());
  for (auto& link : relay_links_) all_links_.push_back(link.get());
  for (auto& link : relay_egress_) all_links_.push_back(link.get());
}

void Network::BeginTick(double tick_start, double tick_len) {
  for (Link* link : all_links_) link->BeginTick(tick_start, tick_len);
  // Last tick's deposits become this tick's inbox, in drain order: a stable
  // counting sort by leaf pump rank, then one by (tier-1 node, source).
  // Flat, a leaf is its own tier-1 node and the first pass is the identity.
  // So is it whenever the outbox is already in pump-rank order (a stable
  // sort of an ordered sequence moves nothing), which one linear scan
  // detects.
  control_inbox_.clear();
  control_mail_hops_ = 0;
  if (control_outbox_.empty()) return;
  mail_order_.resize(control_outbox_.size());
  mail_sorted_.resize(control_outbox_.size());
  std::iota(mail_order_.begin(), mail_order_.end(), 0);
  const auto rank_order = [this](const ControlMessage& a, const ControlMessage& b) {
    return pump_rank_[a.cache_id] < pump_rank_[b.cache_id];
  };
  if (has_relays() &&
      !std::is_sorted(control_outbox_.begin(), control_outbox_.end(), rank_order)) {
    CountingSort(
        control_outbox_, mail_order_, static_cast<size_t>(num_caches()),
        [this](const ControlMessage& message) { return pump_rank_[message.cache_id]; },
        &mail_buckets_, &mail_sorted_);
    mail_order_.swap(mail_sorted_);
  }
  const int sources = num_sources();
  CountingSort(
      control_outbox_, mail_order_, tier1_nodes_.size() * static_cast<size_t>(sources),
      [this, sources](const ControlMessage& message) {
        return tier1_position_[message.cache_id] * sources + message.source_index;
      },
      &mail_buckets_, &mail_sorted_);
  // Copy each message once, straight into its drain position: no
  // default-constructed inbox for the sort to overwrite.
  for (const int32_t position : mail_sorted_) {
    const ControlMessage& message = control_outbox_[position];
    control_inbox_.push_back(message);
    control_mail_hops_ += control_hops_[message.cache_id];
  }
  control_outbox_.clear();
}

Link& Network::cache_link(int cache_id) {
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return *cache_links_[cache_id];
}

const Link& Network::cache_link(int cache_id) const {
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return *cache_links_[cache_id];
}

Link& Network::source_link(int source_index) {
  BESYNC_CHECK_GE(source_index, 0);
  BESYNC_CHECK_LT(source_index, num_sources());
  return *source_links_[source_index];
}

Link& Network::edge_link(int node) {
  if (node < num_caches()) return cache_link(node);
  return relay_ingress(node);
}

Link& Network::relay_ingress(int node) {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  return *relay_links_[node - num_caches()];
}

Link& Network::relay_egress(int node) {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  return *relay_egress_[node - num_caches()];
}

const std::vector<int32_t>& Network::children(int node) const {
  BESYNC_CHECK_GE(node, 0);
  BESYNC_CHECK_LT(node, num_nodes());
  return children_[node];
}

int32_t Network::NextHop(int node, int cache_id) const {
  const int32_t hop = TryNextHop(node, cache_id);
  BESYNC_CHECK_GE(hop, 0) << "cache " << cache_id << " is not below relay " << node;
  return hop;
}

int32_t Network::TryNextHop(int node, int cache_id) const {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return next_hop_[node - num_caches()][cache_id];
}

void Network::RecomputeEffectiveParents() {
  const TopologySpec& topology = config_.topology;
  const int leaves = num_caches();
  for (int n = 0; n < num_nodes(); ++n) {
    int32_t p = topology.parent[n];
    if (p != -1 && relay_alive_[p - leaves] == 0) {
      const int32_t backup = topology.BackupParentOf(p);
      p = (backup != -1 && relay_alive_[backup - leaves] != 0) ? backup : -1;
    }
    effective_parent_[n] = p;
  }
}

void Network::BuildRouting() {
  const int nodes = num_nodes();
  const int leaves = num_caches();
  for (auto& list : children_) list.clear();
  for (int n = 0; n < nodes; ++n) {
    if (n >= leaves && relay_alive_[n - leaves] == 0) continue;
    const int32_t p = effective_parent_[n];
    if (p != -1) children_[p].push_back(static_cast<int32_t>(n));
  }
  for (auto& row : next_hop_) std::fill(row.begin(), row.end(), -1);
  for (int leaf = 0; leaf < leaves; ++leaf) {
    int32_t below = static_cast<int32_t>(leaf);
    int32_t node = effective_parent_[leaf];
    int steps = 0;
    while (node != -1) {
      BESYNC_CHECK_LE(++steps, nodes) << "failover routing created a cycle";
      next_hop_[node - leaves][leaf] = below;
      below = node;
      node = effective_parent_[node];
    }
    first_hop_[leaf] = below;
    control_hops_[leaf] = steps;
  }
  // Forward order over the surviving relays, by height above the leaves
  // under the *effective* parent map (stable, so ascending node ids break
  // ties — the same order construction uses when nothing has failed).
  std::vector<int> height(static_cast<size_t>(nodes), 0);
  for (int leaf = 0; leaf < leaves; ++leaf) {
    int distance = 0;
    int32_t node = effective_parent_[leaf];
    while (node != -1) {
      ++distance;
      height[node] = std::max(height[node], distance);
      node = effective_parent_[node];
    }
  }
  downstream_relays_.clear();
  for (int n = leaves; n < nodes; ++n) {
    if (relay_alive_[n - leaves] == 0) continue;
    downstream_relays_.push_back(static_cast<int32_t>(n));
  }
  std::stable_sort(downstream_relays_.begin(), downstream_relays_.end(),
                   [&height](int32_t a, int32_t b) { return height[a] > height[b]; });
  tier1_nodes_.clear();
  for (int n = 0; n < nodes; ++n) {
    if (n >= leaves && relay_alive_[n - leaves] == 0) continue;
    if (effective_parent_[n] == -1) tier1_nodes_.push_back(static_cast<int32_t>(n));
  }
  // Control-mail ranks: a depth-first walk from each tier-1 node, children
  // in ascending order, numbers the leaves in the order an edge-by-edge
  // pump (children drained in ascending order, lower relays first) stacks
  // their mail on the tier-1 edge.
  int32_t rank = 0;
  std::vector<int32_t> stack;
  for (size_t position = 0; position < tier1_nodes_.size(); ++position) {
    stack.assign(1, tier1_nodes_[position]);
    while (!stack.empty()) {
      const int32_t node = stack.back();
      stack.pop_back();
      if (node < leaves) {
        pump_rank_[node] = rank++;
        tier1_position_[node] = static_cast<int32_t>(position);
      } else {
        stack.insert(stack.end(), children_[node].rbegin(), children_[node].rend());
      }
    }
  }
  BESYNC_CHECK_EQ(rank, leaves) << "a leaf is unreachable from the tier-1 nodes";
}

void Network::FailRelay(int node) {
  BESYNC_CHECK(has_relays());
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  const int idx = node - num_caches();
  BESYNC_CHECK(relay_alive_[idx] != 0) << "relay " << node << " already failed";
  relay_alive_[idx] = 0;
  RecomputeEffectiveParents();
  BuildRouting();
}

void Network::RecoverRelay(int node) {
  BESYNC_CHECK(has_relays());
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  const int idx = node - num_caches();
  BESYNC_CHECK(relay_alive_[idx] == 0) << "relay " << node << " is not failed";
  relay_alive_[idx] = 1;
  RecomputeEffectiveParents();
  BuildRouting();
}

void Network::SendToSource(const ControlMessage& message) {
  BESYNC_CHECK_GE(message.cache_id, 0);
  BESYNC_CHECK_LT(message.cache_id, num_caches());
  BESYNC_CHECK_GE(message.source_index, 0);
  BESYNC_CHECK_LT(message.source_index, num_sources());
  control_outbox_.push_back(message);
}

void Network::FinishTick() {
  for (Link* link : all_links_) link->FinishTick();
}

size_t Network::queued_messages() const {
  size_t queued = 0;
  for (const Link* link : all_links_) queued += link->queue_size();
  return queued;
}

void Network::ResetStats() {
  for (Link* link : all_links_) link->ResetStats();
}

}  // namespace besync
