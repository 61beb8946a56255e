#include "net/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace besync {

namespace {
// Budget used for "unconstrained" links; large enough to never bind while
// staying far from int64 overflow when accumulated.
constexpr double kUnconstrainedBandwidth = 1e12;
}  // namespace

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
  cache_links_.reserve(config.num_caches);
  for (int c = 0; c < config.num_caches; ++c) {
    double bandwidth = config.cache_bandwidth_avg;
    if (c < static_cast<int>(config.cache_bandwidth_overrides.size()) &&
        config.cache_bandwidth_overrides[c] > 0.0) {
      bandwidth = config.cache_bandwidth_overrides[c];
    }
    bandwidth = topology.EdgeValue(topology.edge_bandwidth, c, bandwidth);
    cache_links_.push_back(std::make_unique<Link>(
        config.num_caches == 1 ? "cache" : "cache-" + std::to_string(c),
        std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
            bandwidth, config.bandwidth_change_rate, rng))));
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
            MakeBandwidthFluctuation(source_bw, source_change_rate, rng))));
  }

  // Relay ingress/egress links and routing tables (tree topologies only).
  first_hop_.resize(static_cast<size_t>(config.num_caches));
  for (int c = 0; c < config.num_caches; ++c) first_hop_[c] = c;
  children_.resize(static_cast<size_t>(
      topology.flat() ? config.num_caches : topology.num_nodes()));
  if (!topology.flat()) {
    const int nodes = topology.num_nodes();
    const std::vector<int64_t> leaves_below = topology.SubtreeLeafCounts();
    relay_links_.reserve(static_cast<size_t>(topology.num_relays()));
    relay_egress_.reserve(static_cast<size_t>(topology.num_relays()));
    for (int n = config.num_caches; n < nodes; ++n) {
      // Relay edge default: demand-proportional share (factor x leaves x
      // per-leaf bandwidth), or unconstrained when no factor is set — the
      // pass-through configuration.
      double fallback =
          topology.relay_bandwidth_factor > 0.0
              ? topology.relay_bandwidth_factor *
                    static_cast<double>(leaves_below[n]) * config.cache_bandwidth_avg
              : kUnconstrainedBandwidth;
      const double ingress_bw =
          topology.EdgeValue(topology.edge_bandwidth, n, fallback);
      const bool ingress_unconstrained = ingress_bw >= kUnconstrainedBandwidth;
      relay_links_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n),
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              ingress_bw,
              ingress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng))));
      // Egress default: mirror the resolved ingress (a symmetric relay);
      // unconstrained ingress means unconstrained egress.
      const double egress_bw =
          topology.EdgeValue(topology.relay_egress_bandwidth, n, ingress_bw);
      const bool egress_unconstrained = egress_bw >= kUnconstrainedBandwidth;
      relay_egress_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n) + "-egress",
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              egress_bw,
              egress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng))));
    }

    next_hop_.assign(static_cast<size_t>(topology.num_relays()),
                     std::vector<int32_t>(static_cast<size_t>(config.num_caches), -1));
    effective_parent_ = topology.parent;
    relay_alive_.assign(static_cast<size_t>(topology.num_relays()), 1);
    BuildRouting();
  } else {
    tier1_nodes_.resize(static_cast<size_t>(config.num_caches));
    for (int c = 0; c < config.num_caches; ++c) tier1_nodes_[c] = c;
  }

  const size_t slots =
      static_cast<size_t>(num_nodes()) * static_cast<size_t>(config.num_sources);
  mail_incoming_.resize(slots);
  mail_deliverable_.resize(slots);

  all_links_.reserve(cache_links_.size() + source_links_.size() +
                     relay_links_.size() + relay_egress_.size());
  for (auto& link : cache_links_) all_links_.push_back(link.get());
  for (auto& link : source_links_) all_links_.push_back(link.get());
  for (auto& link : relay_links_) all_links_.push_back(link.get());
  for (auto& link : relay_egress_) all_links_.push_back(link.get());
}

size_t Network::MailSlot(int node, int source_index) const {
  BESYNC_CHECK_GE(node, 0);
  BESYNC_CHECK_LT(node, num_nodes());
  BESYNC_CHECK_GE(source_index, 0);
  BESYNC_CHECK_LT(source_index, num_sources());
  return static_cast<size_t>(node) * static_cast<size_t>(num_sources()) +
         static_cast<size_t>(source_index);
}

void Network::BeginTick(double tick_start, double tick_len) {
  for (Link* link : all_links_) link->BeginTick(tick_start, tick_len);
  for (size_t slot : dirty_incoming_) {
    for (auto& message : mail_incoming_[slot]) {
      mail_deliverable_[slot].push_back(std::move(message));
    }
    mail_incoming_[slot].clear();
  }
  dirty_incoming_.clear();
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
  }
  // Pump/forward orders over the surviving relays, by height above the
  // leaves under the *effective* parent map (stable, so ascending node ids
  // break ties — the same order construction uses when nothing has failed).
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
  std::vector<int32_t> alive;
  alive.reserve(relay_links_.size());
  for (int n = leaves; n < nodes; ++n) {
    if (relay_alive_[n - leaves] != 0) alive.push_back(static_cast<int32_t>(n));
  }
  upstream_relays_ = alive;
  std::stable_sort(upstream_relays_.begin(), upstream_relays_.end(),
                   [&height](int32_t a, int32_t b) { return height[a] < height[b]; });
  downstream_relays_ = alive;
  std::stable_sort(downstream_relays_.begin(), downstream_relays_.end(),
                   [&height](int32_t a, int32_t b) { return height[a] > height[b]; });
  tier1_nodes_.clear();
  for (int n = 0; n < nodes; ++n) {
    if (n >= leaves && relay_alive_[n - leaves] == 0) continue;
    if (effective_parent_[n] == -1) tier1_nodes_.push_back(static_cast<int32_t>(n));
  }
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
  // Re-deposit control mail held at the failed relay at each message's
  // originating leaf, preserving order: the next PumpControlUpstream walks
  // it up the rebuilt tree, so feedback survives the failover. (Mail
  // normally drains every tick, so these buffers are almost always empty.)
  for (int j = 0; j < num_sources(); ++j) {
    BESYNC_DCHECK(mail_incoming_[MailSlot(node, j)].empty())
        << "control mail is only ever deposited at leaf edges";
    auto held = std::exchange(mail_deliverable_[MailSlot(node, j)], {});
    for (auto& message : held) {
      mail_deliverable_[MailSlot(message.cache_id, j)].push_back(std::move(message));
    }
  }
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

void Network::SendToSource(int cache_id, int source_index, Message message) {
  BESYNC_CHECK_LT(cache_id, num_caches());
  message.cache_id = cache_id;
  const size_t slot = MailSlot(cache_id, source_index);
  if (mail_incoming_[slot].empty()) dirty_incoming_.push_back(slot);
  mail_incoming_[slot].push_back(std::move(message));
}

void Network::SendToSource(int source_index, Message message) {
  SendToSource(/*cache_id=*/0, source_index, std::move(message));
}

int64_t Network::PumpControlUpstream() {
  int64_t moved = 0;
  // Children before parents: a relay drains its children's edges after any
  // lower relay has already pushed mail onto them, so every message reaches
  // its tier-1 edge within one pump.
  for (int32_t relay : upstream_relays_) {
    for (int32_t child : children_[relay]) {
      for (int j = 0; j < num_sources(); ++j) {
        auto& from = mail_deliverable_[MailSlot(child, j)];
        if (from.empty()) continue;
        auto& to = mail_deliverable_[MailSlot(relay, j)];
        moved += static_cast<int64_t>(from.size());
        for (auto& message : from) to.push_back(std::move(message));
        from.clear();
      }
    }
  }
  return moved;
}

std::vector<Message> Network::TakeSourceMail(int node, int source_index) {
  return std::exchange(mail_deliverable_[MailSlot(node, source_index)], {});
}

std::vector<Message> Network::TakeSourceMail(int source_index) {
  return TakeSourceMail(/*node=*/0, source_index);
}

void Network::FinishTick() {
  for (auto& link : cache_links_) link->FinishTick();
  for (auto& link : source_links_) link->FinishTick();
  for (auto& link : relay_links_) link->FinishTick();
  for (auto& link : relay_egress_) link->FinishTick();
}

void Network::ResetStats() {
  for (auto& link : cache_links_) link->ResetStats();
  for (auto& link : source_links_) link->ResetStats();
  for (auto& link : relay_links_) link->ResetStats();
  for (auto& link : relay_egress_) link->ResetStats();
}

}  // namespace besync
