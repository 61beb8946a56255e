#ifndef BESYNC_NET_NETWORK_H_
#define BESYNC_NET_NETWORK_H_

#include <memory>
#include <vector>

#include "data/topology.h"
#include "net/link.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "util/random.h"

namespace besync {

/// Network topology parameters (paper Section 6: average cache-side
/// bandwidth B_C, average source-side bandwidth B_S, maximum relative
/// bandwidth change rate mB), generalized to `num_caches` caches — and,
/// when `topology` is non-flat, to a multi-tier relay tree whose edges
/// each carry their own Link (data/topology.h).
struct NetworkConfig {
  int num_sources = 1;
  /// Number of (leaf) caches, each with its own ingress link. 1 reproduces
  /// the paper's Figure-1 star topology.
  int num_caches = 1;
  /// Average cache-side bandwidth C(t), messages/second, applied to every
  /// cache link not covered by `cache_bandwidth_overrides`.
  double cache_bandwidth_avg = 10.0;
  /// Optional per-cache average bandwidth; entry c overrides
  /// cache_bandwidth_avg for cache c (values <= 0 fall back to the average).
  std::vector<double> cache_bandwidth_overrides;
  /// Average source-side bandwidth B_j(t), messages/second. <= 0 means
  /// unconstrained (the CGM polling model assumes no source-side limits).
  double source_bandwidth_avg = -1.0;
  /// Maximum relative rate of bandwidth change (mB). 0 = constant bandwidth.
  double bandwidth_change_rate = 0.0;
  /// Relay topology. Flat (default) reproduces the one-hop star exactly; a
  /// tree adds per-relay ingress/egress links and multi-hop routing. Leaf
  /// count must equal num_caches when non-flat.
  TopologySpec topology;
};

/// Average bandwidth (messages/second) of every edge link a Network built
/// from a config gets, resolved as its constructor resolves it: per leaf,
/// the cache override or the average, then the topology's explicit edge
/// value; per relay, the explicit edge value or `relay_bandwidth_factor` x
/// subtree leaves x cache_bandwidth_avg (unconstrained without a factor),
/// and its egress, the explicit egress value or the ingress. Relay vectors
/// are indexed by node - num_caches and empty on a flat topology.
struct EdgeBandwidths {
  std::vector<double> leaf;
  std::vector<double> relay_ingress;
  std::vector<double> relay_egress;
};
/// Requires a valid (or flat) topology.
EdgeBandwidths ResolveEdgeBandwidths(const NetworkConfig& config);

/// The refresh/control fabric between sources and caches. Flat topology: m
/// source-side links feeding `num_caches` independent cache-side links
/// (Figure 1 is the num_caches == 1 case). Tree topology: every node's
/// ingress edge is its own Link — leaf edges are the cache links, relay
/// edges sit above them — and refreshes are routed hop by hop toward the
/// `Message::cache_id` leaf (the relay agents in core/relay.h do the
/// forwarding between edges). Every queued refresh lives in the network's
/// one MessagePool; the links and relay agents move handles into it.
///
/// Also carries the upstream control channel (feedback / pull requests) as
/// ControlMessage records. Mail deposited by leaf c during tick t is
/// delivered to its source at tick t+1 at any depth: relays forward control
/// mail promptly (see DESIGN.md), so it never rests at a relay between
/// ticks, and BeginTick hands the whole tick's mail over in one inbox.
class Network {
 public:
  Network(const NetworkConfig& config, Rng* rng);
  /// The links point into message_pool(), so a Network stays where it was
  /// built.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances all links (leaf, source, relay ingress/egress) into the tick
  /// [tick_start, tick_start+tick_len) and turns the control mail deposited
  /// during the previous tick into this tick's control_mail().
  void BeginTick(double tick_start, double tick_len);

  /// Flushes the final tick's usage into every link's utilization stat
  /// (call once at end of run — see Link::FinishTick).
  void FinishTick();

  Link& cache_link(int cache_id);
  const Link& cache_link(int cache_id) const;
  /// Single-cache convenience (the paper's topology).
  Link& cache_link() { return *cache_links_[0]; }
  const Link& cache_link() const { return *cache_links_[0]; }
  Link& source_link(int source_index);
  int num_sources() const { return static_cast<int>(source_links_.size()); }
  int num_caches() const { return static_cast<int>(cache_links_.size()); }

  // --- topology / routing ---

  const TopologySpec& topology() const { return config_.topology; }
  bool has_relays() const { return !relay_links_.empty(); }
  /// Total node count (caches + relays); equals num_caches() when flat.
  int num_nodes() const { return num_caches() + static_cast<int>(relay_links_.size()); }
  /// Ingress-edge link of any node: cache_link for leaves, the relay
  /// ingress link for relay nodes.
  Link& edge_link(int node);
  /// Egress (forwarding-budget) link of a relay node.
  Link& relay_egress(int node);
  /// Tier-1 ancestor of `cache_id` — where the sources inject refreshes for
  /// that cache (the leaf itself when flat).
  int32_t first_hop(int cache_id) const { return first_hop_[cache_id]; }
  Link& first_hop_link(int cache_id) { return edge_link(first_hop_[cache_id]); }
  /// Child of relay `node` on the path toward leaf `cache_id` (checked:
  /// the leaf must lie below the relay).
  int32_t NextHop(int node, int cache_id) const;
  /// Like NextHop, but returns -1 when the leaf is not below the relay —
  /// a message can outlive its routing when a failover re-homes its leaf
  /// while it sits in a relay store, and the forwarder must detect that.
  int32_t TryNextHop(int node, int cache_id) const;
  /// Relay node ids in downstream processing order (parents before
  /// children), so one tick cascades a pass-through tree end to end.
  const std::vector<int32_t>& downstream_relays() const { return downstream_relays_; }
  /// Nodes fed directly by the sources (ascending). All leaves when flat.
  const std::vector<int32_t>& tier1_nodes() const { return tier1_nodes_; }
  /// Children of `node` in ascending node order (empty for leaves).
  const std::vector<int32_t>& children(int node) const;

  // --- control mail (cache -> source) ---

  /// Deposits a control message from leaf `message.cache_id` to source
  /// `message.source_index`; it is delivered at the next BeginTick.
  void SendToSource(const ControlMessage& message);

  /// This tick's control mail: everything deposited during the previous
  /// tick, in the order the sources drain it — by the origin leaf's tier-1
  /// ancestor (ascending node id), then by target source (ascending), then
  /// by the leaf's pump rank below that ancestor, then in deposit order.
  /// That is the order an edge-by-edge pump up the tree (children drained
  /// in ascending node order) delivers per tier-1 edge and source, and it
  /// preserves per-leaf FIFO. Replaced wholesale at the next BeginTick.
  const std::vector<ControlMessage>& control_mail() const { return control_inbox_; }
  /// Relay hops this tick's control mail traveled to reach the tier-1
  /// edges: the sum of each message's leaf-to-tier-1 hop count (0 when
  /// flat) — the relay "feedback aggregation" traffic.
  int64_t control_mail_hops() const { return control_mail_hops_; }
  /// Control mail deposited so far this tick, in deposit order.
  const std::vector<ControlMessage>& pending_control_mail() const {
    return control_outbox_;
  }

  // --- fault injection: relay failover ---

  /// Whether a relay node is currently forwarding (always true for leaves).
  bool relay_alive(int node) const {
    return node < num_caches() || relay_alive_[node - num_caches()] != 0;
  }

  /// Fails relay `node`: its children re-attach to the topology's backup
  /// parent (or become tier-1 when the backup is missing or also dead) and
  /// first_hop/next-hop routing, the forward order, the control-mail ranks
  /// and the tier-1 set are rebuilt from the surviving nodes. Control mail
  /// never rests at a relay, so none is lost: mail deposited before the
  /// failure drains along the rebuilt tree. Data messages queued on the
  /// relay's ingress link are *not* touched; the caller decides their fate
  /// (drop or drain) via Link::TakeQueue.
  void FailRelay(int node);

  /// Restores the original parent map for the recovered relay's subtree and
  /// rebuilds routing. The relay comes back with whatever queue its links
  /// kept (empty if the caller drained them at failure).
  void RecoverRelay(int node);

  /// Resets link statistics (end of warm-up).
  void ResetStats();

  /// The pool holding every message in flight on this network.
  MessagePool& message_pool() { return pool_; }
  const MessagePool& message_pool() const { return pool_; }
  /// Messages waiting in link queues, over every link.
  size_t queued_messages() const;

  const NetworkConfig& config() const { return config_; }

 private:
  Link& relay_ingress(int node);
  /// Recomputes effective_parent_ from the alive set: a node whose parent
  /// died re-attaches to the parent's backup (when declared and alive),
  /// otherwise becomes tier-1 for the outage.
  void RecomputeEffectiveParents();
  /// Rebuilds children_, next_hop_, first_hop_, downstream_relays_,
  /// tier1_nodes_ and the control-mail ranks and hops from
  /// effective_parent_, skipping dead relays. With every relay alive this
  /// reproduces the construction-time tables exactly.
  void BuildRouting();

  NetworkConfig config_;
  /// Declared before the links, so it outlives them.
  MessagePool pool_;
  std::vector<std::unique_ptr<Link>> cache_links_;
  std::vector<std::unique_ptr<Link>> source_links_;
  /// Relay ingress-edge links, indexed by node - num_caches. Constructed
  /// after the cache and source links so a pass-through tree consumes the
  /// scheduler RNG identically to the flat network (bitwise equivalence).
  std::vector<std::unique_ptr<Link>> relay_links_;
  /// Relay egress-budget links, indexed by node - num_caches.
  std::vector<std::unique_ptr<Link>> relay_egress_;
  /// Parent map under the current alive set (== topology.parent until a
  /// relay fails; all -1 when flat). Sized num_nodes.
  std::vector<int32_t> effective_parent_;
  /// 1 while the relay forwards, 0 between FailRelay and RecoverRelay.
  /// Indexed by node - num_caches.
  std::vector<uint8_t> relay_alive_;
  /// Tier-1 ancestor of each leaf (the leaf itself when flat).
  std::vector<int32_t> first_hop_;
  /// next_hop_[node - num_caches][leaf]: child of the relay on the path to
  /// the leaf, or -1 when the leaf is not below it.
  std::vector<std::vector<int32_t>> next_hop_;
  std::vector<int32_t> downstream_relays_;
  /// Children of each node in ascending order (empty for leaves).
  std::vector<std::vector<int32_t>> children_;
  std::vector<int32_t> tier1_nodes_;
  /// Per leaf: its pump rank (position in a depth-first walk from each
  /// tier-1 node in ascending order, children in ascending order), the
  /// position of its tier-1 ancestor in tier1_nodes_, and its hop count up
  /// to that ancestor. Together they give control_mail()'s order.
  std::vector<int32_t> pump_rank_;
  std::vector<int32_t> tier1_position_;
  std::vector<int32_t> control_hops_;
  /// Control mail: this tick's deposits (deposit order), the inbox
  /// delivered by the last BeginTick (drain order), its hop sum, and the
  /// scratch BeginTick reuses: counting-sort buckets and two arrays of
  /// outbox positions, before and after a sort pass.
  std::vector<ControlMessage> control_outbox_;
  std::vector<ControlMessage> control_inbox_;
  int64_t control_mail_hops_ = 0;
  std::vector<int32_t> mail_buckets_;
  std::vector<int32_t> mail_order_;
  std::vector<int32_t> mail_sorted_;
  /// Every link (cache, source, relay ingress, relay egress), flattened for
  /// the walks over all of them (BeginTick, FinishTick, ResetStats). Built
  /// once; link sets never change after construction.
  std::vector<Link*> all_links_;
};

}  // namespace besync

#endif  // BESYNC_NET_NETWORK_H_
