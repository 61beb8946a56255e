// Multi-tier relay topology tests.
//
// The load-bearing anchor: a tree of *pass-through* relays (unconstrained
// ingress/egress, zero latency, no loss) must reproduce the flat topology
// bitwise — including against the historical single-cache goldens of
// tests/golden_test.cc — so the flat engine is exactly the degenerate case
// of the relay engine. The remaining tests cover the TopologySpec
// structure, the Network routing tables, the RelayAgent store-and-forward
// semantics, and the matched-bandwidth topology sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/relay.h"
#include "core/system.h"
#include "data/topology.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "net/network.h"
#include "util/random.h"

namespace besync {
namespace {

// -------------------------------------------------------- source channels

TEST(SourceChannelsTest, MembersAndReplicaSlotsMatchReplicaSlotScan) {
  // BuildChannels merges each member's ascending cache list against the
  // ascending channel order; the reference here is the per-(channel,
  // member) replica_slot() search it replaced. kZipfOverlap gives random
  // degrees whose cache lists wrap around the cache ids.
  for (InterestPattern pattern :
       {InterestPattern::kFullReplication, InterestPattern::kPartitionedBySource,
        InterestPattern::kZipfOverlap}) {
    SCOPED_TRACE(InterestPatternToString(pattern));
    WorkloadConfig workload_config;
    workload_config.num_sources = 5;
    workload_config.objects_per_source = 30;
    workload_config.num_caches = 7;
    workload_config.interest_pattern = pattern;
    workload_config.seed = 23;
    const Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();
    HarnessConfig harness_config;
    harness_config.warmup = 1.0;
    harness_config.measure = 2.0;
    CooperativeConfig coop;
    coop.cache_bandwidth_avg = 10.0;
    CooperativeScheduler scheduler(coop);
    const auto metric = MakeMetric(MetricKind::kValueDeviation);
    // The channels live in the harness's run arena: inspect them while the
    // harness is alive.
    Harness harness(&workload, metric.get(), harness_config);
    ASSERT_TRUE(harness.Run(&scheduler).ok());

    for (int j = 0; j < scheduler.num_sources(); ++j) {
      const SourceAgent& source = scheduler.source(j);
      int64_t replicas = 0;
      for (int k = 0; k < source.num_channels(); ++k) {
        const int32_t cache_id = source.channel_cache_id(k);
        std::vector<ObjectIndex> expected_members;
        std::vector<int32_t> expected_slots;
        for (const ObjectSpec& spec : workload.objects) {
          if (spec.source_index != j) continue;
          const int slot = spec.replica_slot(cache_id);
          if (slot < 0) continue;
          expected_members.push_back(spec.index);
          expected_slots.push_back(slot);
        }
        const size_t n = source.channel_num_objects(k);
        EXPECT_EQ(std::vector<ObjectIndex>(source.channel_members(k),
                                           source.channel_members(k) + n),
                  expected_members)
            << "source " << j << " cache " << cache_id;
        EXPECT_EQ(std::vector<int32_t>(source.channel_replica_slots(k),
                                       source.channel_replica_slots(k) + n),
                  expected_slots)
            << "source " << j << " cache " << cache_id;
        replicas += static_cast<int64_t>(n);
      }
      // Every replica of the source's objects sits in exactly one channel.
      int64_t total = 0;
      for (const ObjectSpec& spec : workload.objects) {
        if (spec.source_index == j) total += spec.num_replicas();
      }
      EXPECT_EQ(replicas, total) << "source " << j;
    }
  }
}

// ------------------------------------------------------------ TopologySpec

TEST(TopologySpecTest, MakeRelayTreeShapes) {
  // 8 leaves, fanout 2, one relay tier: 4 relays (nodes 8..11), all tier-1.
  TopologySpec one = MakeRelayTree(8, 2, 1);
  EXPECT_EQ(one.num_leaves, 8);
  EXPECT_EQ(one.num_nodes(), 12);
  EXPECT_EQ(one.num_relays(), 4);
  EXPECT_EQ(one.depth(), 2);
  for (int leaf = 0; leaf < 8; ++leaf) EXPECT_EQ(one.parent[leaf], 8 + leaf / 2);
  for (int relay = 8; relay < 12; ++relay) EXPECT_EQ(one.parent[relay], -1);
  EXPECT_TRUE(one.Validate(8).ok());

  // Two relay tiers: 4 + 2 relays, leaves at tier 3.
  TopologySpec two = MakeRelayTree(8, 2, 2);
  EXPECT_EQ(two.num_nodes(), 14);
  EXPECT_EQ(two.num_relays(), 6);
  EXPECT_EQ(two.depth(), 3);
  EXPECT_EQ(two.parent[8], 12);
  EXPECT_EQ(two.parent[11], 13);
  EXPECT_EQ(two.parent[12], -1);
  EXPECT_EQ(two.TierOf(0), 3);
  EXPECT_EQ(two.TierOf(8), 2);
  EXPECT_EQ(two.TierOf(12), 1);
  EXPECT_TRUE(two.Validate(8).ok());

  // Zero tiers is the flat topology.
  TopologySpec flat = MakeRelayTree(8, 2, 0);
  EXPECT_TRUE(flat.flat());
  EXPECT_TRUE(flat.Validate(8).ok());
  EXPECT_EQ(flat.depth(), 1);
}

TEST(TopologySpecTest, SubtreeLeafCountsAndOrder) {
  TopologySpec spec = MakeRelayTree(8, 2, 2);
  const std::vector<int64_t> counts = spec.SubtreeLeafCounts();
  for (int leaf = 0; leaf < 8; ++leaf) EXPECT_EQ(counts[leaf], 1);
  for (int relay = 8; relay < 12; ++relay) EXPECT_EQ(counts[relay], 2);
  for (int relay = 12; relay < 14; ++relay) EXPECT_EQ(counts[relay], 4);
  // Bottom-up: the tier just above the leaves before the top tier.
  const std::vector<int32_t> bottom_up = spec.RelaysBottomUp();
  ASSERT_EQ(bottom_up.size(), 6u);
  EXPECT_EQ(bottom_up[0], 8);
  EXPECT_EQ(bottom_up[3], 11);
  EXPECT_EQ(bottom_up[4], 12);
  EXPECT_EQ(bottom_up[5], 13);
}

TEST(TopologySpecTest, ValidateRejectsMalformedTrees) {
  TopologySpec spec = MakeRelayTree(4, 2, 1);
  EXPECT_FALSE(spec.Validate(3).ok());  // leaf count mismatch

  TopologySpec leaf_parent = spec;
  leaf_parent.parent[0] = 1;  // a leaf cannot be a parent
  EXPECT_FALSE(leaf_parent.Validate(4).ok());

  TopologySpec cycle = spec;
  cycle.parent.push_back(-1);  // node 6
  cycle.parent[4] = 6;
  cycle.parent[6] = 4;  // 4 <-> 6
  EXPECT_FALSE(cycle.Validate(4).ok());

  TopologySpec childless = spec;
  childless.parent.push_back(-1);  // relay 6 with no children
  EXPECT_FALSE(childless.Validate(4).ok());

  TopologySpec bad_loss = spec;
  bad_loss.edge_loss = {0.0, 0.0, 0.0, 0.0, 1.5};
  EXPECT_FALSE(bad_loss.Validate(4).ok());
}

// ----------------------------------------------------------- Network routing

TEST(NetworkTopologyTest, RoutingTables) {
  NetworkConfig config;
  config.num_sources = 2;
  config.num_caches = 8;
  config.topology = MakeRelayTree(8, 2, 2);
  Rng rng(1);
  Network network(config, &rng);
  EXPECT_TRUE(network.has_relays());
  EXPECT_EQ(network.num_nodes(), 14);
  // Leaf 5's path: 5 -> 10 -> 13; refreshes enter at the tier-1 ancestor.
  EXPECT_EQ(network.first_hop(5), 13);
  EXPECT_EQ(network.NextHop(13, 5), 10);
  EXPECT_EQ(network.NextHop(10, 5), 5);
  // Leaf 0 lives under the other top relay.
  EXPECT_EQ(network.first_hop(0), 12);
  EXPECT_EQ(network.NextHop(12, 0), 8);
  // Downstream order visits parents before children.
  const std::vector<int32_t>& down = network.downstream_relays();
  ASSERT_EQ(down.size(), 6u);
  EXPECT_EQ(down[0], 12);
  EXPECT_EQ(down[1], 13);
  // Only the top relays are source-fed.
  EXPECT_EQ(network.tier1_nodes(), (std::vector<int32_t>{12, 13}));
}

TEST(NetworkTopologyTest, ControlMailPumpsToTierOne) {
  NetworkConfig config;
  config.num_sources = 1;
  config.num_caches = 4;
  config.topology = MakeRelayTree(4, 2, 1);  // relays 4, 5
  Rng rng(1);
  Network network(config, &rng);
  ControlMessage feedback;
  feedback.kind = MessageKind::kFeedback;
  feedback.source_index = 0;
  feedback.cache_id = 3;
  network.SendToSource(feedback);
  feedback.cache_id = 0;
  network.SendToSource(feedback);
  EXPECT_TRUE(network.control_mail().empty());
  // Deliverable at the next tick, exactly like the flat channel, after one
  // relay hop each.
  network.BeginTick(0.0, 1.0);
  EXPECT_EQ(network.control_mail_hops(), 2);
  EXPECT_EQ(network.first_hop(0), 4);
  EXPECT_EQ(network.first_hop(3), 5);
  // Drained per tier-1 edge in ascending node order: relay 4's mail (leaf
  // 0) before relay 5's (leaf 3), whatever the deposit order. The
  // originating leaf survives the hops.
  const std::vector<ControlMessage>& mail = network.control_mail();
  ASSERT_EQ(mail.size(), 2u);
  EXPECT_EQ(mail[0].cache_id, 0);
  EXPECT_EQ(mail[1].cache_id, 3);
}

/// Reference for control_mail(): the edge-by-edge pump it replaced. Mail
/// sits in per-(node, source) FIFO buffers. Relays are visited children
/// before parents (ascending height above the leaves, ties by node id), and
/// each moves its children's buffers (children in ascending order) onto its
/// own, one hop per message. Each tier-1 node's buffers are then drained
/// source by source. Returns the drain order; `hops` gets the moves.
std::vector<ControlMessage> ReferencePump(const Network& network,
                                          const std::vector<ControlMessage>& deposits,
                                          int64_t* hops) {
  const int sources = network.num_sources();
  std::vector<std::vector<ControlMessage>> mail(
      static_cast<size_t>(network.num_nodes() * sources));
  const auto box = [&](int node, int j) -> std::vector<ControlMessage>& {
    return mail[static_cast<size_t>(node * sources + j)];
  };
  for (const ControlMessage& message : deposits) {
    box(message.cache_id, message.source_index).push_back(message);
  }
  const std::function<int(int32_t)> height = [&](int32_t node) {
    int h = 0;
    for (int32_t child : network.children(node)) h = std::max(h, height(child) + 1);
    return h;
  };
  std::vector<int32_t> upstream = network.downstream_relays();  // the live relays
  std::sort(upstream.begin(), upstream.end(), [&height](int32_t a, int32_t b) {
    return height(a) != height(b) ? height(a) < height(b) : a < b;
  });
  *hops = 0;
  for (int32_t relay : upstream) {
    for (int32_t child : network.children(relay)) {
      for (int j = 0; j < sources; ++j) {
        std::vector<ControlMessage>& from = box(child, j);
        *hops += static_cast<int64_t>(from.size());
        box(relay, j).insert(box(relay, j).end(), from.begin(), from.end());
        from.clear();
      }
    }
  }
  std::vector<ControlMessage> drained;
  for (int32_t node : network.tier1_nodes()) {
    for (int j = 0; j < sources; ++j) {
      drained.insert(drained.end(), box(node, j).begin(), box(node, j).end());
    }
  }
  return drained;
}

/// Object indices double as unique message tags in the differential test.
std::vector<int64_t> Tags(const std::vector<ControlMessage>& mail) {
  std::vector<int64_t> tags;
  for (const ControlMessage& message : mail) tags.push_back(message.object_index);
  return tags;
}

TEST(NetworkTopologyTest, ControlMailMatchesEdgeByEdgePumpUnderFailover) {
  // An irregular tree: unequal fanout (relay 9 has three leaves, relay 10
  // two), leaves 5 and 6 hanging directly off tier-2 relays next to relay
  // subtrees, and leaves 7 and 8 directly off the tier-1 relays. Leaf ids
  // do not follow the drain order, so a sort by leaf id would fail.
  //
  //        13            14          tier 1
  //      /    \        /    \        .
  //     7      11     8      12      tier 2
  //           /  \          /  \     .
  //          5    9        6    10   tier 3
  //             / | \          /  \  .
  //            0  1  2        3    4
  TopologySpec spec;
  spec.num_leaves = 9;
  spec.parent = {9, 9, 9, 10, 10, 11, 12, 13, 14, 11, 12, 13, 14, -1, -1};
  spec.backup_parent.assign(spec.parent.size(), -1);
  spec.backup_parent[9] = 10;
  spec.backup_parent[11] = 12;
  spec.backup_parent[13] = 14;
  ASSERT_TRUE(spec.Validate(9).ok());
  NetworkConfig config;
  config.num_sources = 3;
  config.num_caches = 9;
  config.topology = spec;
  Rng net_rng(1);
  Network network(config, &net_rng);

  // Failures with a live backup (9 -> 10, 13 -> 14, 11 -> 12) and without
  // one (10 and 14 have none; 13's backup is down at tick 14): the orphans
  // become tier-1. Outages overlap, and relays come back mid-outage.
  struct Fault {
    int tick;
    int32_t relay;
    bool fail;
  };
  const std::vector<Fault> faults = {
      {3, 9, true},   {5, 10, true},  {7, 13, true},  {8, 11, true},
      {9, 13, false}, {10, 9, false}, {11, 14, true}, {12, 11, false},
      {13, 10, false}, {14, 13, true}, {15, 14, false}, {16, 13, false},
      {17, 9, true}};
  Rng rng(7);
  int64_t tag = 0;
  int64_t total_hops = 0;
  for (int tick = 0; tick < 20; ++tick) {
    for (const Fault& fault : faults) {
      if (fault.tick != tick) continue;
      if (fault.fail) {
        network.FailRelay(fault.relay);
      } else {
        network.RecoverRelay(fault.relay);
      }
    }
    const std::vector<ControlMessage> deposits = network.pending_control_mail();
    network.BeginTick(tick, 1.0);
    int64_t hops = 0;
    const std::vector<ControlMessage> expected = ReferencePump(network, deposits, &hops);
    ASSERT_EQ(expected.size(), deposits.size()) << "tick " << tick;
    EXPECT_EQ(Tags(network.control_mail()), Tags(expected)) << "tick " << tick;
    EXPECT_EQ(network.control_mail_hops(), hops) << "tick " << tick;
    total_hops += hops;

    const int64_t count = rng.UniformInt(0, 30);
    for (int64_t k = 0; k < count; ++k) {
      ControlMessage message;
      message.kind =
          rng.Bernoulli(0.5) ? MessageKind::kFeedback : MessageKind::kPullRequest;
      message.cache_id = static_cast<int32_t>(rng.UniformInt(0, 8));
      message.source_index = static_cast<int32_t>(rng.UniformInt(0, 2));
      message.object_index = tag++;
      message.send_time = tick;
      network.SendToSource(message);
    }
  }
  EXPECT_GT(tag, 200);
  EXPECT_GT(total_hops, tag);  // most mail crossed several relays
}

// -------------------------------------------------------------- RelayAgent

Message MakeRefresh(int32_t cache_id, double priority, double send_time,
                    int64_t cost = 1) {
  Message message;
  message.kind = MessageKind::kRefresh;
  message.cache_id = cache_id;
  message.forward_priority = priority;
  message.send_time = send_time;
  message.cost = cost;
  return message;
}

/// A relay over its own pool, with a forward sink that records each
/// forwarded message's cache id and releases its slot.
struct RelayFixture {
  explicit RelayFixture(RelayForwardPolicy policy, double ingress_latency = 0.0)
      : relay(4, policy, ingress_latency, &pool) {}

  void Arrive(const Message& message, double t) {
    relay.OnArrival(pool.Acquire(Message(message)), t);
  }
  template <typename TryConsume>
  int64_t Forward(double now, TryConsume&& try_consume) {
    return relay.Forward(now, try_consume, [this](MessageHandle handle) {
      order.push_back(pool[handle].cache_id);
      pool.Release(handle);
    });
  }
  int64_t ForwardAll(double now) {
    return Forward(now, [](int64_t) { return true; });
  }

  MessagePool pool;
  RelayAgent relay;
  std::vector<int32_t> order;
};

TEST(RelayAgentTest, FifoPreservesArrivalOrder) {
  RelayFixture f(RelayForwardPolicy::kFifo);
  f.Arrive(MakeRefresh(0, 1.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(1, 9.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(2, 5.0, 0.0), 1.0);
  EXPECT_EQ(f.ForwardAll(1.0), 3);
  EXPECT_EQ(f.order, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(f.pool.live(), 0u);
}

TEST(RelayAgentTest, PriorityDrainsHighestFirstWithFifoTies) {
  RelayFixture f(RelayForwardPolicy::kPriority);
  f.Arrive(MakeRefresh(0, 1.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(1, 9.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(2, 9.0, 0.0), 1.0);  // tie with cache 1
  f.Arrive(MakeRefresh(3, 5.0, 0.0), 1.0);
  f.ForwardAll(1.0);
  EXPECT_EQ(f.order, (std::vector<int32_t>{1, 2, 3, 0}));
}

TEST(RelayAgentTest, PriorityPicksFromTheMiddleOfAWrappedStore) {
  // Cycle the store so its ring wraps, then let the highest priority sit
  // mid-store behind an ineligible tail: only the eligible prefix competes.
  RelayFixture f(RelayForwardPolicy::kPriority, /*ingress_latency=*/1.0);
  for (int i = 0; i < 6; ++i) f.Arrive(MakeRefresh(90 + i, 1.0, 0.0), 0.0);
  EXPECT_EQ(f.ForwardAll(1.0), 6);
  f.order.clear();
  for (int i = 0; i < 5; ++i) {
    f.Arrive(MakeRefresh(i, i == 2 ? 8.0 : static_cast<double>(i), 0.0), 2.0);
  }
  f.Arrive(MakeRefresh(5, 99.0, 0.0), 5.0);  // eligible only from t = 6
  int64_t budget = 2;
  f.Forward(3.0, [&budget](int64_t cost) {
    if (budget <= 0) return false;
    budget -= cost;
    return true;
  });
  EXPECT_EQ(f.order, (std::vector<int32_t>{2, 4}));
  EXPECT_EQ(f.relay.store_size(), 4u);
  f.ForwardAll(6.0);
  EXPECT_EQ(f.order, (std::vector<int32_t>{2, 4, 5, 3, 1, 0}));
  EXPECT_EQ(f.pool.live(), 0u);
}

TEST(RelayAgentTest, EgressBudgetBoundsForwarding) {
  RelayFixture f(RelayForwardPolicy::kFifo);
  for (int i = 0; i < 5; ++i) f.Arrive(MakeRefresh(i, 1.0, 0.0), 1.0);
  int64_t budget = 2;
  const int64_t sent = f.Forward(1.0, [&budget](int64_t cost) {
    if (budget <= 0) return false;
    budget -= cost;
    return true;
  });
  EXPECT_EQ(sent, 2);
  EXPECT_EQ(f.relay.store_size(), 3u);
  // Denied messages are forwarded first (FIFO) next time, and their store
  // wait is accounted.
  const int64_t rest = f.ForwardAll(3.0);
  EXPECT_EQ(f.order, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sent + rest, 5);
  // Messages 2..4 waited 2 s each in the store.
  EXPECT_DOUBLE_EQ(f.relay.total_queue_delay(), 6.0);
  EXPECT_DOUBLE_EQ(f.relay.total_transit_delay(), 2.0 * 1.0 + 3.0 * 3.0);
}

TEST(RelayAgentTest, IngressLatencyDelaysEligibility) {
  RelayFixture f(RelayForwardPolicy::kFifo, /*ingress_latency=*/5.0);
  f.Arrive(MakeRefresh(0, 1.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(1, 1.0, 0.0), 3.0);
  EXPECT_EQ(f.ForwardAll(4.0), 0);
  EXPECT_EQ(f.ForwardAll(6.0), 1);
  EXPECT_EQ(f.ForwardAll(8.0), 1);
  EXPECT_EQ(f.order, (std::vector<int32_t>{0, 1}));
}

TEST(RelayAgentTest, TakeStoredReturnsArrivalOrder) {
  RelayFixture f(RelayForwardPolicy::kPriority, /*ingress_latency=*/2.0);
  f.Arrive(MakeRefresh(0, 1.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(1, 5.0, 0.0), 1.0);
  f.Arrive(MakeRefresh(2, 9.0, 0.0), 4.0);  // still pending at t = 3
  EXPECT_EQ(f.relay.Forward(3.0, [](int64_t) { return false; },
                            [](MessageHandle) {}),
            0);
  std::vector<int32_t> taken;
  for (const MessageHandle handle : f.relay.TakeStored()) {
    taken.push_back(f.pool[handle].cache_id);
    f.pool.Release(handle);
  }
  EXPECT_EQ(taken, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(f.relay.store_size(), 0u);
  EXPECT_EQ(f.pool.live(), 0u);
}

// ------------------------------------- degenerate pass-through equivalence

/// The historical CooperativeTrigger golden (tests/golden_test.cc), with a
/// configurable relay-tree depth layered on the single cache. Pass-through
/// relays must not move a single bit of it.
ExperimentConfig GoldenTriggerConfig(int relay_tiers) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.workload.relay_tiers = relay_tiers;
  config.workload.relay_fanout = 2;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

TEST(DegenerateTreeTest, PassThroughTreeReproducesGoldenRun) {
  for (int tiers : {1, 2, 3}) {
    const auto result = RunExperiment(GoldenTriggerConfig(tiers));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The exact pre-relay golden values — equality, not tolerance.
    EXPECT_EQ(result->total_weighted_divergence, 226.69154803746471)
        << "relay_tiers=" << tiers;
    EXPECT_EQ(result->scheduler.refreshes_sent, 3150);
    EXPECT_EQ(result->scheduler.feedback_sent, 436);
    // The relays did real work (every delivered refresh crossed each tier)
    // without perturbing the outcome.
    EXPECT_GT(result->scheduler.relays_forwarded, 0);
    EXPECT_EQ(result->scheduler.relay_queue_delay_mean, 0.0);
  }
}

/// Runs a multi-cache grid point flat and as a pass-through tree; every
/// reported number must match exactly (bitwise doubles).
void ExpectTreeEqualsFlat(ExperimentConfig flat_config, int relay_tiers,
                          int fanout) {
  const auto flat = RunExperiment(flat_config);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ExperimentConfig tree_config = flat_config;
  tree_config.workload.relay_tiers = relay_tiers;
  tree_config.workload.relay_fanout = fanout;
  const auto tree = RunExperiment(tree_config);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  EXPECT_EQ(tree->total_weighted_divergence, flat->total_weighted_divergence);
  ASSERT_EQ(tree->per_cache_weighted.size(), flat->per_cache_weighted.size());
  for (size_t c = 0; c < flat->per_cache_weighted.size(); ++c) {
    EXPECT_EQ(tree->per_cache_weighted[c], flat->per_cache_weighted[c]) << c;
  }
  EXPECT_EQ(tree->per_object_weighted, flat->per_object_weighted);
  EXPECT_EQ(tree->per_object_unweighted, flat->per_object_unweighted);
  EXPECT_EQ(tree->scheduler.refreshes_sent, flat->scheduler.refreshes_sent);
  EXPECT_EQ(tree->scheduler.refreshes_delivered,
            flat->scheduler.refreshes_delivered);
  EXPECT_EQ(tree->scheduler.feedback_sent, flat->scheduler.feedback_sent);
  EXPECT_EQ(tree->scheduler.mean_threshold, flat->scheduler.mean_threshold);
}

TEST(DegenerateTreeTest, MultiCachePartitionedTreeEqualsFlat) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 5;
  config.harness.warmup = 40.0;
  config.harness.measure = 300.0;
  config.cache_bandwidth_avg = 6.0;
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/1, /*fanout=*/2);
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/2, /*fanout=*/2);
}

TEST(DegenerateTreeTest, EquivalenceHoldsWithLossAndFluctuatingBandwidth) {
  // Loss consumes the scheduler RNG per leaf and fluctuating bandwidth
  // consumes it per link — the exact draws the relay construction must not
  // disturb.
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kZipfOverlap;
  config.workload.seed = 77;
  config.harness.warmup = 30.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 8.0;
  config.bandwidth_change_rate = 0.05;
  config.loss_rate = 0.1;
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/1, /*fanout=*/2);
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/2, /*fanout=*/3);
}

// ----------------------------------------- constrained-tree behavior

TEST(RelayTreeTest, OversubscribedRelaysIncreaseDivergence) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 5;
  config.workload.relay_tiers = 1;
  config.workload.relay_fanout = 2;
  config.harness.warmup = 40.0;
  config.harness.measure = 300.0;
  config.cache_bandwidth_avg = 6.0;

  // Pass-through tree == flat baseline.
  const auto pass_through = RunExperiment(config);
  ASSERT_TRUE(pass_through.ok());
  // Relay edges at half their subtree demand throttle the tree.
  config.workload.relay_bandwidth_factor = 0.5;
  const auto throttled = RunExperiment(config);
  ASSERT_TRUE(throttled.ok());
  EXPECT_GT(throttled->total_weighted_divergence,
            pass_through->total_weighted_divergence);
  EXPECT_LT(throttled->scheduler.refreshes_delivered,
            pass_through->scheduler.refreshes_delivered);
  EXPECT_GT(throttled->scheduler.relay_transit_delay_mean, 0.0);
  // Control mail kept flowing upstream through the relays.
  EXPECT_GT(throttled->scheduler.relay_control_moved, 0);
  EXPECT_GT(throttled->scheduler.feedback_sent, 0);
}

TEST(RelayTreeTest, BaselineSchedulersRejectTrees) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCGM1;
  config.workload.num_sources = 2;
  config.workload.objects_per_source = 5;
  config.workload.relay_tiers = 1;
  config.harness.warmup = 10.0;
  config.harness.measure = 50.0;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

/// RunScheduler returns the scheduler's own validation: a malformed
/// topology or a fault aimed at a node the topology lacks, handed straight
/// to RunScheduler (as examples/ and bench_paper do), is an InvalidArgument
/// instead of a CHECK in Initialize.
TEST(RelayTreeTest, RunSchedulerRejectsBadTopologyAndFaults) {
  WorkloadConfig workload_config;
  workload_config.num_sources = 2;
  workload_config.objects_per_source = 5;
  workload_config.num_caches = 4;
  workload_config.interest_pattern = InterestPattern::kFullReplication;
  Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();
  HarnessConfig harness_config;
  harness_config.warmup = 1.0;
  harness_config.measure = 5.0;
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig coop;
  coop.num_caches = 4;

  CooperativeConfig cycle = coop;
  cycle.topology = MakeRelayTree(4, 2, 1);
  cycle.topology.parent[0] = 1;  // a leaf cannot be a parent
  CooperativeScheduler bad_tree(cycle);
  EXPECT_FALSE(bad_tree.Validate(workload).ok());
  const auto tree_result =
      RunScheduler(&workload, metric.get(), harness_config, &bad_tree);
  ASSERT_FALSE(tree_result.ok());
  EXPECT_TRUE(tree_result.status().IsInvalidArgument())
      << tree_result.status().ToString();

  FaultEvent fail;
  fail.time = 2.0;
  fail.kind = FaultEventKind::kRelayFail;
  fail.node = 2;  // a leaf on the flat star: no relay to fail
  workload.faults.events.push_back(fail);
  CooperativeScheduler bad_fault(coop);
  const auto fault_result =
      RunScheduler(&workload, metric.get(), harness_config, &bad_fault);
  ASSERT_FALSE(fault_result.ok());
  EXPECT_TRUE(fault_result.status().IsInvalidArgument())
      << fault_result.status().ToString();
}

TEST(RelayTreeTest, TopologySweepMatchesTotalBandwidth) {
  // Zero tiers is the flat star: no edge vectors, the leaves keep B.
  const TopologySpec flat = MakeMatchedBandwidthTree(8, 4, 0, 4.0);
  EXPECT_TRUE(flat.flat());
  EXPECT_EQ(flat.num_nodes(), 8);
  EXPECT_TRUE(flat.edge_bandwidth.empty());
  // One tier: 8 leaf edges (weight 1) + 2 relay edges (weight 4) share
  // 8 x 4 = 32 over total weight 16 -> leaf edges get 2.0 each, relay
  // edges 8.0, and each relay forwards at its ingress rate.
  const TopologySpec tree = MakeMatchedBandwidthTree(8, 4, 1, 4.0);
  EXPECT_EQ(tree.depth() - 1, 1);
  ASSERT_EQ(tree.num_nodes(), 10);
  ASSERT_EQ(tree.edge_bandwidth.size(), 10u);
  ASSERT_EQ(tree.relay_egress_bandwidth.size(), 10u);
  for (int n = 0; n < 8; ++n) {
    EXPECT_DOUBLE_EQ(tree.edge_bandwidth[n], 2.0);
    EXPECT_EQ(tree.relay_egress_bandwidth[n], 0.0);
  }
  for (int n = 8; n < 10; ++n) {
    EXPECT_DOUBLE_EQ(tree.edge_bandwidth[n], 8.0);
    EXPECT_DOUBLE_EQ(tree.relay_egress_bandwidth[n], 8.0);
  }
  double total = 0.0;
  for (double bandwidth : tree.edge_bandwidth) total += bandwidth;
  EXPECT_DOUBLE_EQ(total, 32.0);
  EXPECT_TRUE(tree.Validate(8).ok());

  // Every forwarding policy on the tree, and the flat star, produce a real
  // run on identical workloads.
  ExperimentConfig base;
  base.workload.num_sources = 8;
  base.workload.objects_per_source = 5;
  base.workload.num_caches = 8;
  base.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  base.workload.seed = 3;
  base.harness.warmup = 20.0;
  base.harness.measure = 100.0;
  base.cache_bandwidth_avg = 4.0;
  std::vector<ExperimentJob> jobs(3);
  for (ExperimentJob& job : jobs) job.config = base;
  jobs[0].config.topology = flat;
  for (int k = 1; k < 3; ++k) {
    jobs[k].config.topology = tree;
    jobs[k].config.cache_bandwidth_avg = tree.edge_bandwidth[0];
  }
  jobs[2].config.relay_forward = RelayForwardPolicy::kPriority;
  for (const JobResult& job : RunExperiments(jobs)) {
    ASSERT_TRUE(job.status.ok()) << job.status.ToString();
    EXPECT_GT(job.result.scheduler.refreshes_delivered, 0);
  }
}

}  // namespace
}  // namespace besync
