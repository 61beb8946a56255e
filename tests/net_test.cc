#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/bandwidth.h"
#include "net/link.h"
#include "net/message_pool.h"
#include "net/network.h"

namespace besync {
namespace {

std::unique_ptr<BandwidthModel> ConstantBandwidth(double rate) {
  return std::make_unique<BandwidthModel>(std::make_unique<ConstantFluctuation>(rate));
}

TEST(BandwidthModelTest, IntegerRateYieldsExactBudget) {
  BandwidthModel model(std::make_unique<ConstantFluctuation>(5.0));
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(model.BudgetForTick(t, 1.0), 5);
  }
}

TEST(BandwidthModelTest, FractionalRateAccumulatesCredit) {
  BandwidthModel model(std::make_unique<ConstantFluctuation>(0.5));
  int64_t total = 0;
  for (int t = 0; t < 100; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_EQ(total, 50);  // 0.5 msg/s over 100 s
}

TEST(BandwidthModelTest, SineAveragesOut) {
  Rng rng(4);
  BandwidthModel model(MakeBandwidthFluctuation(10.0, 0.25, &rng));
  int64_t total = 0;
  const int kTicks = 1000;
  for (int t = 0; t < kTicks; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 10.0, 0.5);
}

TEST(LinkTest, DeliversUpToBudget) {
  Link link("test", ConstantBandwidth(3.0));
  link.BeginTick(0.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    link.Emplace([i](Message& message) { message.object_index = i; });
  }
  std::vector<int64_t> delivered;
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2}));  // FIFO, 3 of 5
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.remaining_budget(), 0);

  link.BeginTick(1.0, 1.0);
  delivered.clear();
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(link.remaining_budget(), 1);
}

TEST(LinkTest, ConsumeBudgetGrantsPartial) {
  Link link("test", ConstantBandwidth(2.0));
  link.BeginTick(0.0, 1.0);
  EXPECT_EQ(link.ConsumeBudget(5), 2);
  EXPECT_EQ(link.ConsumeBudget(1), 0);
}

TEST(LinkTest, UtilizationTracksUsedOverOffered) {
  Link link("test", ConstantBandwidth(4.0));
  link.BeginTick(0.0, 1.0);
  link.ConsumeBudget(2);
  link.BeginTick(1.0, 1.0);  // closes previous tick's accounting
  EXPECT_DOUBLE_EQ(link.utilization().utilization(), 0.5);
}

TEST(LinkTest, QueueGrowsWhenOverloaded) {
  Link link("test", ConstantBandwidth(1.0));
  for (int tick = 0; tick < 10; ++tick) {
    link.BeginTick(tick, 1.0);
    for (int i = 0; i < 3; ++i) link.Emplace([](Message&) {});
    link.DeliverQueued([](const Message&) {});
  }
  // 30 enqueued, 10 delivered.
  EXPECT_EQ(link.queue_size(), 20u);
  EXPECT_GE(link.max_queue_size(), 20u);
}

TEST(LinkTest, ResetStatsPreservesQueue) {
  Link link("test", ConstantBandwidth(1.0));
  link.BeginTick(0.0, 1.0);
  link.Emplace([](Message&) {});
  link.Emplace([](Message&) {});
  link.ResetStats();
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.messages_delivered(), 0);
}

// ----------------------------------------------------------- MessagePool

Message Tagged(int64_t object_index) {
  Message message;
  message.object_index = object_index;
  return message;
}

TEST(MessagePoolTest, ReusesReleasedSlotsLastInFirstOut) {
  MessagePool pool;
  const MessageHandle a = pool.Acquire(Tagged(1));
  const MessageHandle b = pool.Acquire(Tagged(2));
  const MessageHandle c = pool.Acquire(Tagged(3));
  EXPECT_EQ(pool.live(), 3u);
  pool.Release(a);
  pool.Release(c);
  EXPECT_EQ(pool.live(), 1u);
  // The slot released last is written next; no new slot is handed out.
  EXPECT_EQ(pool.Acquire(Tagged(4)), c);
  EXPECT_EQ(pool.Acquire(Tagged(5)), a);
  EXPECT_EQ(pool.slots(), 3u);
  EXPECT_EQ(pool[b].object_index, 2);
  EXPECT_EQ(pool[c].object_index, 4);
  EXPECT_EQ(pool[a].object_index, 5);
}

TEST(MessagePoolTest, ReferencesStayValidAcrossGrowth) {
  MessagePool pool;
  const MessageHandle first = pool.Acquire(Tagged(7));
  const Message* held = &pool[first];
  // A delivery sink holds a reference while it enqueues: thousands of
  // acquisitions add chunks but move no slot.
  for (int i = 0; i < 5000; ++i) pool.Acquire(Tagged(100 + i));
  EXPECT_EQ(&pool[first], held);
  EXPECT_EQ(held->object_index, 7);
  EXPECT_EQ(pool[4000].object_index, 100 + 3999);
  EXPECT_EQ(pool.live(), 5001u);
}

#ifndef NDEBUG
TEST(MessagePoolDeathTest, FreeSlotAccessAndDoubleReleaseAbort) {
  MessagePool pool;
  const MessageHandle handle = pool.Acquire(Tagged(1));
  pool.Release(handle);
  EXPECT_DEATH(pool[handle], "not live");
  EXPECT_DEATH(pool.Release(handle), "not live");
  EXPECT_DEATH(pool[handle + 1], "not live");
}
#endif

TEST(LinkTest, SharedPoolHoldsExactlyTheQueuedMessages) {
  MessagePool pool;
  Link upstream("up", ConstantBandwidth(3.0), &pool);
  Link downstream("down", ConstantBandwidth(1.0), &pool);
  upstream.BeginTick(0.0, 1.0);
  downstream.BeginTick(0.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    upstream.Emplace([i](Message& message) { message.object_index = i; });
  }
  EXPECT_EQ(pool.live(), 5u);
  // A hop moves handles: the pool keeps its count, the body its slot.
  upstream.DeliverHandles([&](MessageHandle h) { downstream.EnqueueHandle(h); });
  EXPECT_EQ(pool.live(), 5u);
  EXPECT_EQ(upstream.queue_size() + downstream.queue_size(), 5u);
  std::vector<int64_t> delivered;
  downstream.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{0}));
  EXPECT_EQ(pool.live(), 4u);  // released after the sink
  // A down link blackholes a handed-over message and releases its slot.
  downstream.SetDown(true);
  upstream.BeginTick(1.0, 1.0);
  upstream.DeliverHandles([&](MessageHandle h) { downstream.EnqueueHandle(h); });
  EXPECT_EQ(downstream.messages_blackholed(), 2);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.live(), upstream.queue_size() + downstream.queue_size());
  for (const MessageHandle h : downstream.TakeQueue()) pool.Release(h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(NetworkTest, ConstructsStarTopology) {
  NetworkConfig config;
  config.num_sources = 4;
  config.cache_bandwidth_avg = 10.0;
  config.source_bandwidth_avg = 2.0;
  Rng rng(1);
  Network network(config, &rng);
  EXPECT_EQ(network.num_sources(), 4);
  network.BeginTick(0.0, 1.0);
  EXPECT_EQ(network.cache_link().tick_budget(), 10);
  EXPECT_EQ(network.source_link(0).tick_budget(), 2);
}

TEST(NetworkTest, UnconstrainedSourceBandwidth) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  config.source_bandwidth_avg = -1.0;  // unconstrained
  Rng rng(1);
  Network network(config, &rng);
  network.BeginTick(0.0, 1.0);
  EXPECT_GT(network.source_link(0).tick_budget(), 1000000);
}

TEST(NetworkTest, ControlMailDeliveredNextTick) {
  NetworkConfig config;
  config.num_sources = 2;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  ControlMessage request;
  request.source_index = 1;
  request.object_index = 7;
  network.SendToSource(request);
  // Not deliverable within the same tick.
  EXPECT_TRUE(network.control_mail().empty());

  network.BeginTick(1.0, 1.0);
  const std::vector<ControlMessage>& mail = network.control_mail();
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].object_index, 7);
  // Addressed to source 1 only; the other source got nothing.
  EXPECT_EQ(mail[0].source_index, 1);
  EXPECT_EQ(mail[0].cache_id, 0);
  // Flat: the cache edge is the tier-1 edge, no relay hops.
  EXPECT_EQ(network.control_mail_hops(), 0);
  // Delivered once: the next tick's mail no longer holds it.
  network.BeginTick(2.0, 1.0);
  EXPECT_TRUE(network.control_mail().empty());
}

TEST(NetworkTest, ControlMailInvisibleUntilNextTickAndDrainedOnce) {
  // The one-tick contract in one place: a deposit during tick t is
  // invisible for the whole of tick t (even across multiple reads), becomes
  // deliverable exactly at tick t+1, is delivered exactly once, and does not
  // reappear at tick t+2.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  ControlMessage request;
  request.source_index = 0;
  network.SendToSource(request);
  network.SendToSource(request);  // two deposits in the same tick
  EXPECT_TRUE(network.control_mail().empty());
  EXPECT_TRUE(network.control_mail().empty());  // still invisible
  EXPECT_EQ(network.pending_control_mail().size(), 2u);

  network.BeginTick(1.0, 1.0);
  EXPECT_EQ(network.control_mail().size(), 2u);  // both, exactly once
  EXPECT_TRUE(network.pending_control_mail().empty());

  network.BeginTick(2.0, 1.0);
  EXPECT_TRUE(network.control_mail().empty());  // gone for good
}

TEST(NetworkTest, EachTickDeliversExactlyThePreviousTicksMail) {
  // The inbox is replaced at every BeginTick: a tick's mail holds the
  // previous tick's deposits and nothing older, in deposit order per leaf.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  ControlMessage request;
  request.source_index = 0;
  request.send_time = 0.0;
  network.SendToSource(request);
  network.BeginTick(1.0, 1.0);
  ASSERT_EQ(network.control_mail().size(), 1u);
  request.send_time = 1.0;
  network.SendToSource(request);
  request.send_time = 1.5;
  network.SendToSource(request);
  network.BeginTick(2.0, 1.0);
  const std::vector<ControlMessage>& mail = network.control_mail();
  ASSERT_EQ(mail.size(), 2u);
  EXPECT_EQ(mail[0].send_time, 1.0);
  EXPECT_EQ(mail[1].send_time, 1.5);
}

TEST(NetworkTest, FluctuatingBandwidthAverages) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 20.0;
  config.bandwidth_change_rate = 0.05;
  Rng rng(7);
  Network network(config, &rng);
  int64_t total = 0;
  const int kTicks = 2000;
  for (int t = 0; t < kTicks; ++t) {
    network.BeginTick(t, 1.0);
    total += network.cache_link().tick_budget();
  }
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 20.0, 1.0);
}

/// The leaves in control-mail pump order: a depth-first walk from each
/// tier-1 node in turn, children in ascending order. `tier1` gets each
/// leaf's tier-1 position.
std::vector<int32_t> PumpOrder(const Network& network, std::vector<int32_t>* tier1) {
  std::vector<int32_t> leaves;
  tier1->assign(static_cast<size_t>(network.num_caches()), -1);
  const std::vector<int32_t>& roots = network.tier1_nodes();
  for (size_t position = 0; position < roots.size(); ++position) {
    std::vector<int32_t> stack = {roots[position]};
    while (!stack.empty()) {
      const int32_t node = stack.back();
      stack.pop_back();
      if (node < network.num_caches()) {
        leaves.push_back(node);
        (*tier1)[node] = static_cast<int32_t>(position);
      } else {
        const std::vector<int32_t>& children = network.children(node);
        stack.insert(stack.end(), children.rbegin(), children.rend());
      }
    }
  }
  return leaves;
}

/// control_mail()'s order the long way, as two stable sorts of the
/// deposits: by the origin leaf's pump rank, then by (tier-1 node, source).
/// Returns the messages' object indices (unique tags).
std::vector<int64_t> TwoPassOrder(const Network& network,
                                  std::vector<ControlMessage> mail) {
  std::vector<int32_t> tier1;
  const std::vector<int32_t> order = PumpOrder(network, &tier1);
  std::vector<int32_t> rank(order.size());
  for (size_t r = 0; r < order.size(); ++r) rank[order[r]] = static_cast<int32_t>(r);
  std::stable_sort(mail.begin(), mail.end(),
                   [&rank](const ControlMessage& a, const ControlMessage& b) {
                     return rank[a.cache_id] < rank[b.cache_id];
                   });
  std::stable_sort(mail.begin(), mail.end(),
                   [&tier1](const ControlMessage& a, const ControlMessage& b) {
                     return std::make_tuple(tier1[a.cache_id], a.source_index) <
                            std::make_tuple(tier1[b.cache_id], b.source_index);
                   });
  std::vector<int64_t> tags;
  for (const ControlMessage& message : mail) tags.push_back(message.object_index);
  return tags;
}

TEST(NetworkTest, ControlMailMatchesTwoPassOrderWithOrWithoutThePumpSort) {
  // An irregular tree whose leaf ids do not follow the pump order:
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
  spec.backup_parent[11] = 12;
  ASSERT_TRUE(spec.Validate(9).ok());
  NetworkConfig config;
  config.num_sources = 3;
  config.num_caches = 9;
  config.topology = spec;
  Rng rng(1);
  Network network(config, &rng);
  network.BeginTick(0.0, 1.0);

  std::vector<int32_t> tier1;
  const std::vector<int32_t> pump_order = PumpOrder(network, &tier1);
  // Each leaf mails every source, sources descending (the second pass must
  // regroup them).
  int64_t tag = 0;
  const auto deposit = [&](const std::vector<int32_t>& leaves) {
    for (const int32_t leaf : leaves) {
      for (int32_t j = 2; j >= 0; --j) {
        ControlMessage message;
        message.cache_id = leaf;
        message.source_index = j;
        message.object_index = tag++;
        network.SendToSource(message);
      }
    }
  };
  const auto expect_two_pass_order = [&](const char* what, double t) {
    const std::vector<ControlMessage> deposits = network.pending_control_mail();
    network.BeginTick(t, 1.0);
    std::vector<int64_t> delivered;
    for (const ControlMessage& message : network.control_mail()) {
      delivered.push_back(message.object_index);
    }
    EXPECT_EQ(delivered.size(), deposits.size()) << what;
    EXPECT_EQ(delivered, TwoPassOrder(network, deposits)) << what;
  };

  // Already in pump-rank order: the first pass is skipped.
  deposit(pump_order);
  expect_two_pass_order("in pump order", 1.0);
  // Reversed: the first pass has to run.
  deposit(std::vector<int32_t>(pump_order.rbegin(), pump_order.rend()));
  expect_two_pass_order("reversed", 2.0);
  // Deposited in the old pump order, drained after relay 11 failed over
  // to 12: the ranks were rebuilt under the deposits.
  deposit(pump_order);
  network.FailRelay(11);
  std::vector<int32_t> new_tier1;
  EXPECT_NE(PumpOrder(network, &new_tier1), pump_order);
  expect_two_pass_order("after FailRelay", 3.0);
}

}  // namespace
}  // namespace besync
