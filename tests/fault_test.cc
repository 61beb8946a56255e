// Fault-injection subsystem tests: schedule construction/validation, the
// bitwise inertness pin (an empty schedule reproduces the seed goldens and
// draws no randomness even when the generator knobs are armed), cache
// crash/restart semantics end to end under both recovery policies, relay
// failover, link partitions, slowdowns, the crashed-pull regression, and
// determinism of faulted runs across repeat runs and sweep threads.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "data/topology.h"
#include "divergence/metric.h"
#include "exp/experiment.h"
#include "fault/fault_schedule.h"
#include "read/cache_store.h"
#include "util/random.h"

namespace besync {
namespace {

constexpr double kTolerance = 1e-9;

/// The GoldenTest.CooperativeTrigger configuration (tests/golden_test.cc):
/// the seed-era single-cache constants the fault layer must not disturb.
ExperimentConfig GoldenConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

constexpr double kGoldenDivergence = 226.69154803746471;
constexpr int64_t kGoldenRefreshes = 3150;
constexpr int64_t kGoldenFeedback = 436;

/// Small multi-cache configuration shared by the crash/recovery tests:
/// partitioned interest so each cache's divergence is cleanly attributable.
ExperimentConfig MultiCacheConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 15;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  return config;
}

FaultEvent Event(double time, FaultEventKind kind, int32_t node,
                 double factor = 1.0) {
  FaultEvent event;
  event.time = time;
  event.kind = kind;
  event.node = node;
  event.factor = factor;
  return event;
}

// ------------------------------------------------------- schedule basics

TEST(FaultScheduleTest, SortedIsStableOnTies) {
  FaultSchedule schedule;
  schedule.events.push_back(Event(30.0, FaultEventKind::kLinkDown, 2));
  schedule.events.push_back(Event(10.0, FaultEventKind::kCacheCrash, 0));
  schedule.events.push_back(Event(10.0, FaultEventKind::kCacheCrash, 1));
  const std::vector<FaultEvent> sorted = schedule.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].node, 0);  // insertion order preserved on the tie
  EXPECT_EQ(sorted[1].node, 1);
  EXPECT_EQ(sorted[2].node, 2);
}

TEST(FaultScheduleTest, LabelSummarizesEventClasses) {
  FaultSchedule schedule;
  EXPECT_EQ(schedule.Label(), "none");
  schedule.events.push_back(Event(10.0, FaultEventKind::kCacheCrash, 0));
  schedule.events.push_back(Event(30.0, FaultEventKind::kCacheRestart, 0));
  schedule.events.push_back(Event(40.0, FaultEventKind::kLinkDown, 1));
  EXPECT_EQ(schedule.Label(), "faults(crash=1,relay=0,flap=1,slow=0)");
}

TEST(FaultScheduleTest, ValidateRejectsBadTargets) {
  const TopologySpec flat;
  FaultSchedule schedule;
  schedule.events.push_back(Event(10.0, FaultEventKind::kCacheCrash, 5));
  EXPECT_FALSE(schedule.Validate(flat, 3).ok());  // cache id out of range

  schedule.events.clear();
  schedule.events.push_back(Event(-1.0, FaultEventKind::kCacheCrash, 0));
  EXPECT_FALSE(schedule.Validate(flat, 3).ok());  // negative time

  schedule.events.clear();
  schedule.events.push_back(Event(10.0, FaultEventKind::kRelayFail, 3));
  EXPECT_FALSE(schedule.Validate(flat, 3).ok());  // no relays on flat

  schedule.events.clear();
  schedule.events.push_back(Event(10.0, FaultEventKind::kSlowDown, 0, 1.5));
  EXPECT_FALSE(schedule.Validate(flat, 3).ok());  // factor outside (0, 1]

  const TopologySpec tree = MakeRelayTree(4, 2, 1);
  schedule.events.clear();
  schedule.events.push_back(Event(10.0, FaultEventKind::kRelayFail, 4));
  schedule.events.push_back(Event(20.0, FaultEventKind::kRelayRecover, 4));
  schedule.events.push_back(Event(15.0, FaultEventKind::kCacheCrash, 3));
  EXPECT_TRUE(schedule.Validate(tree, 4).ok());
}

TEST(FaultScheduleTest, GeneratorIsDeterministicAndGatedOnEnabled) {
  FaultScheduleConfig config;
  EXPECT_FALSE(config.enabled());
  const TopologySpec flat;
  EXPECT_TRUE(MakeFaultSchedule(config, 4, flat).empty());

  config.cache_crashes = 2;
  config.link_flaps = 1;
  config.window_start = 30.0;
  config.window_end = 120.0;
  EXPECT_TRUE(config.enabled());
  const FaultSchedule a = MakeFaultSchedule(config, 4, flat);
  const FaultSchedule b = MakeFaultSchedule(config, 4, flat);
  ASSERT_EQ(a.size(), 6u);  // 2 crash/restart pairs + 1 down/up pair
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
  }
  EXPECT_TRUE(a.Validate(flat, 4).ok());

  // Pinned crash target: every crash lands on the configured leaf.
  config.crash_cache = 0;
  const FaultSchedule pinned = MakeFaultSchedule(config, 4, flat);
  for (const FaultEvent& event : pinned.events) {
    if (event.kind == FaultEventKind::kCacheCrash ||
        event.kind == FaultEventKind::kCacheRestart) {
      EXPECT_EQ(event.node, 0);
    }
  }
}

// ------------------------------------------------------ cache store unit

TEST(CacheStoreCrashTest, CrashDropsResidencyUntilInstalled) {
  CacheStore store(/*capacity=*/0, EvictionPolicy::kLru, {0, 1, 2});
  EXPECT_TRUE(store.unbounded());
  EXPECT_EQ(store.num_resident(), 3);
  EXPECT_FALSE(store.ever_crashed());

  store.Crash();
  EXPECT_TRUE(store.ever_crashed());
  EXPECT_EQ(store.num_resident(), 0);
  for (int64_t slot = 0; slot < 3; ++slot) EXPECT_FALSE(store.resident(slot));

  // Content returns only through installs, one replica at a time — and a
  // crash is not an eviction.
  EXPECT_EQ(store.Install(1, 10.0, nullptr), -1);  // no eviction
  EXPECT_TRUE(store.resident(1));
  EXPECT_FALSE(store.resident(0));
  EXPECT_EQ(store.num_resident(), 1);
}

// -------------------------------------------------------- inertness pins

TEST(FaultPinTest, EmptyScheduleReproducesTriggerGolden) {
  const auto result = RunExperiment(GoldenConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result->scheduler.cache_crashes, 0);
  EXPECT_EQ(result->scheduler.cache_restarts, 0);
  EXPECT_EQ(result->scheduler.relay_failures, 0);
  EXPECT_EQ(result->scheduler.link_down_events, 0);
  EXPECT_EQ(result->scheduler.slowdown_events, 0);
  EXPECT_EQ(result->scheduler.crash_dropped_pulls, 0);
  EXPECT_EQ(result->scheduler.resync_deliveries, 0);
  EXPECT_EQ(result->scheduler.resync_pending, 0);
  EXPECT_EQ(result->scheduler.time_to_resync_mean, 0.0);
  EXPECT_EQ(result->scheduler.time_to_resync_p95, 0.0);
}

TEST(FaultPinTest, ArmedGeneratorPerturbsNothingButTheSchedule) {
  // Build the golden workload twice — fault generator off and on — then
  // strip the schedule from the armed one. The runs must agree bitwise:
  // MakeFaultSchedule draws from its own seed stream only.
  ExperimentConfig armed = GoldenConfig();
  armed.workload.fault.cache_crashes = 2;
  armed.workload.fault.crash_cache = 0;
  armed.workload.fault.window_start = 60.0;
  armed.workload.fault.window_end = 200.0;
  Workload workload = std::move(MakeWorkload(armed.workload)).ValueOrDie();
  EXPECT_EQ(workload.faults.size(), 4u);
  workload.faults.events.clear();
  const auto result = RunExperimentOnWorkload(armed, &workload);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
}

TEST(FaultPinTest, FaultsRequireTheCooperativeScheduler) {
  ExperimentConfig config = GoldenConfig();
  config.scheduler = SchedulerKind::kRoundRobin;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.window_start = 60.0;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

/// A config topology override replaces the workload's tree, so relay
/// faults generated against the workload's relays may name nodes the
/// override does not have: an InvalidArgument, not an Initialize abort.
TEST(FaultPinTest, FaultsAreCheckedAgainstTheOverrideTopology) {
  ExperimentConfig config = MultiCacheConfig();
  config.workload.num_caches = 16;
  config.workload.num_sources = 8;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.fault.relay_failures = 3;
  config.workload.fault.window_start = 60.0;
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  ASSERT_FALSE(workload.faults.empty());
  // The workload's own tree carries its faults.
  EXPECT_TRUE(workload.faults.Validate(workload.topology, 16).ok());

  config.topology = MakeRelayTree(16, 16, 1);
  const auto result = RunExperimentOnWorkload(config, &workload);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("not a relay of the topology"),
            std::string::npos)
      << result.status().ToString();
}

// --------------------------------------------------- crash and recovery

TEST(FaultCrashTest, CrashClearsExactlyTheCrashedCache) {
  ExperimentConfig config = MultiCacheConfig();
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  // Crash cache 0 mid-measurement and never restart it.
  workload.faults.events.push_back(Event(80.0, FaultEventKind::kCacheCrash, 0));

  CooperativeConfig cooperative;
  cooperative.num_caches = 3;
  cooperative.cache_bandwidth_avg = config.cache_bandwidth_avg;
  cooperative.source_bandwidth_avg = config.source_bandwidth_avg;
  CooperativeScheduler scheduler(cooperative);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  const auto result =
      RunScheduler(&workload, metric.get(), config.harness, &scheduler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(scheduler.cache_down(0));
  EXPECT_FALSE(scheduler.cache_down(1));
  EXPECT_FALSE(scheduler.cache_down(2));
  // The crashed store lost everything (deliveries blackhole while down);
  // the other caches never even switched to tracked residency.
  EXPECT_TRUE(scheduler.read_path().store(0).ever_crashed());
  EXPECT_EQ(scheduler.read_path().store(0).num_resident(), 0);
  EXPECT_FALSE(scheduler.read_path().store(1).ever_crashed());
  EXPECT_EQ(scheduler.read_path().store(1).num_resident(),
            scheduler.read_path().store(1).num_members());
  EXPECT_EQ(result->scheduler.cache_crashes, 1);
  EXPECT_EQ(result->scheduler.cache_restarts, 0);
}

/// Runs MultiCacheConfig with one crash/restart of cache 0 under `policy`.
RunResult RunOneCrash(RecoveryPolicy policy) {
  ExperimentConfig config = MultiCacheConfig();
  config.recovery_policy = policy;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.crash_duration = 15.0;
  config.workload.fault.window_start = 60.0;
  config.workload.fault.window_end = 0.0;  // fire exactly at 60
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(FaultRecoveryTest, RestartResyncsUnderRecoveryPriority) {
  const RunResult run = RunOneCrash(RecoveryPolicy::kRecoveryPriority);
  EXPECT_EQ(run.scheduler.cache_crashes, 1);
  EXPECT_EQ(run.scheduler.cache_restarts, 1);
  // The recovery channel re-ships every replica of the restarted cache;
  // the episode closes within the run.
  EXPECT_GT(run.scheduler.resync_deliveries, 0);
  EXPECT_EQ(run.scheduler.resync_pending, 0);
  EXPECT_GT(run.scheduler.time_to_resync_p95, 0.0);
}

TEST(FaultRecoveryTest, RestartResyncsUnderNaiveReenqueue) {
  const RunResult run = RunOneCrash(RecoveryPolicy::kNaiveReenqueue);
  EXPECT_EQ(run.scheduler.cache_crashes, 1);
  EXPECT_EQ(run.scheduler.cache_restarts, 1);
  // Naive recovery rides the ordinary threshold machinery: every replica is
  // accounted for — delivered or still waiting at run end.
  EXPECT_GT(run.scheduler.resync_deliveries + run.scheduler.resync_pending, 0);
}

TEST(FaultRecoveryTest, PriorityBeatsNaiveOnTimeToResync) {
  const RunResult priority = RunOneCrash(RecoveryPolicy::kRecoveryPriority);
  const RunResult naive = RunOneCrash(RecoveryPolicy::kNaiveReenqueue);
  // The dedicated recovery channel refills the cold cache strictly faster
  // than divergence-ordered re-pushes: either naive never finishes (open
  // episode at run end) or its p95 is worse.
  if (naive.scheduler.resync_pending > 0) {
    EXPECT_EQ(priority.scheduler.resync_pending, 0);
  } else {
    EXPECT_LT(priority.scheduler.time_to_resync_p95,
              naive.scheduler.time_to_resync_p95);
  }
}

TEST(FaultCrashTest, CrashCancelsInFlightPulls) {
  // Capacity pressure + tight bandwidth keeps pulls in flight; a crash in
  // the middle of the pull storm must cancel them rather than resolving
  // dead clients' reads later (the phantom-hit regression).
  ExperimentConfig config = MultiCacheConfig();
  config.workload.read.read_rate = 8.0;
  config.workload.read.capacity = 10;
  config.cache_bandwidth_avg = 4.0;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.crash_duration = 20.0;
  config.workload.fault.window_start = 80.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scheduler.cache_crashes, 1);
  EXPECT_GT(result->scheduler.crash_dropped_pulls, 0);
}

// ------------------------------------------------------- relay failover

TEST(FaultRelayTest, FailoverKeepsTheRunAliveAndCounts) {
  ExperimentConfig config = MultiCacheConfig();
  config.workload.num_caches = 4;
  config.workload.num_sources = 8;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  AssignBackupParents(&workload.topology);
  // Fail one tier-1 relay for a window mid-measurement.
  const int32_t relay = workload.topology.RelaysBottomUp().front();
  workload.faults.events.push_back(Event(70.0, FaultEventKind::kRelayFail, relay));
  workload.faults.events.push_back(
      Event(100.0, FaultEventKind::kRelayRecover, relay));

  for (RelayStorePolicy store_policy :
       {RelayStorePolicy::kDrop, RelayStorePolicy::kDrain}) {
    ExperimentConfig run_config = config;
    run_config.relay_store_policy = store_policy;
    const auto result = RunExperimentOnWorkload(run_config, &workload);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->scheduler.relay_failures, 1);
    EXPECT_GT(result->scheduler.refreshes_delivered, 0);
    // Feedback mail survives the failover (it drains along the rebuilt
    // tree), so the threshold control loop keeps running.
    EXPECT_GT(result->scheduler.feedback_sent, 0);
    EXPECT_GT(result->total_weighted_divergence, 0.0);
  }
}

/// Audits the control channel tick by tick: the mail a tick delivers is
/// exactly what the caches deposited in the previous tick (as a multiset),
/// and each message is handled by its addressed source exactly once.
class MailAuditScheduler : public CooperativeScheduler {
 public:
  using CooperativeScheduler::CooperativeScheduler;

  void Tick(double t) override {
    const std::vector<ControlMessage> deposited = network().pending_control_mail();
    std::vector<int64_t> expected = Received();
    for (const ControlMessage& message : deposited) {
      EXPECT_EQ(message.send_time, previous_tick_) << "one-tick latency at t=" << t;
      ++expected[message.source_index];
      ++(message.kind == MessageKind::kPullRequest ? pulls_ : feedback_);
    }
    CooperativeScheduler::Tick(t);
    EXPECT_EQ(Received(), expected) << "t=" << t;
    EXPECT_EQ(Keys(network().control_mail()), Keys(deposited)) << "t=" << t;
    previous_tick_ = t;
  }

  int64_t pulls_ = 0;
  int64_t feedback_ = 0;

 private:
  std::vector<int64_t> Received() const {
    std::vector<int64_t> received;
    for (int j = 0; j < num_sources(); ++j) {
      received.push_back(source(j).control_received());
    }
    return received;
  }

  static std::vector<std::tuple<int32_t, int32_t, int, int64_t, double>> Keys(
      const std::vector<ControlMessage>& mail) {
    std::vector<std::tuple<int32_t, int32_t, int, int64_t, double>> keys;
    for (const ControlMessage& message : mail) {
      keys.emplace_back(message.cache_id, message.source_index,
                        static_cast<int>(message.kind), message.object_index,
                        message.send_time);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  double previous_tick_ = 0.0;
};

TEST(FaultRelayTest, ControlMailConservedAcrossFailover) {
  // A tree with reads on small caches (misses send pull requests) and two
  // relay outages: tier-2 relay 4 fails over to its backup 5, then the
  // tier-1 relay 6, which has no backup, orphans both tier-2 relays.
  ExperimentConfig config = MultiCacheConfig();
  config.workload.num_caches = 4;
  config.workload.num_sources = 8;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  config.workload.read.read_rate = 4.0;
  config.workload.read.capacity = 6;
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  AssignBackupParents(&workload.topology);
  ASSERT_EQ(workload.topology.num_nodes(), 7);
  ASSERT_EQ(workload.topology.BackupParentOf(4), 5);
  ASSERT_EQ(workload.topology.BackupParentOf(6), -1);
  workload.faults.events = {Event(70.0, FaultEventKind::kRelayFail, 4),
                            Event(100.0, FaultEventKind::kRelayRecover, 4),
                            Event(110.0, FaultEventKind::kRelayFail, 6),
                            Event(130.0, FaultEventKind::kRelayRecover, 6)};

  CooperativeConfig cooperative;
  cooperative.num_caches = config.workload.num_caches;
  cooperative.cache_bandwidth_avg = config.cache_bandwidth_avg;
  cooperative.source_bandwidth_avg = config.source_bandwidth_avg;
  MailAuditScheduler scheduler(cooperative);
  auto metric = MakeMetric(config.metric);
  const auto result = RunScheduler(&workload, metric.get(), config.harness, &scheduler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scheduler.relay_failures, 2);
  EXPECT_GT(scheduler.pulls_, 0);
  EXPECT_GT(scheduler.feedback_, 0);
}

/// Checks after every tick that the network's message pool holds exactly
/// the messages queued on links or stored at relays: every slot a sender
/// acquired is released once, at delivery, loss, blackholing, the dead-cache
/// drain or a kDrop failover, and never while still queued.
class PoolAuditScheduler : public CooperativeScheduler {
 public:
  using CooperativeScheduler::CooperativeScheduler;

  void Tick(double t) override {
    CooperativeScheduler::Tick(t);
    const size_t live = network().message_pool().live();
    EXPECT_EQ(live, messages_in_flight()) << "t=" << t;
    max_in_flight_ = std::max(max_in_flight_, live);
  }

  size_t max_in_flight_ = 0;
};

TEST(FaultRelayTest, InFlightMessagesConservedAcrossFailoverLossAndPartition) {
  ExperimentConfig config = MultiCacheConfig();
  config.workload.num_caches = 4;
  config.workload.num_sources = 8;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  AssignBackupParents(&workload.topology);
  ASSERT_EQ(workload.topology.num_nodes(), 7);
  // Lossy relay edges (leaf-edge loss comes from the config below).
  workload.topology.edge_loss = {0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1};
  // Relay 4 fails over to its backup; relay 6 has none and orphans both
  // tier-2 relays; leaf 1's edge is partitioned; cache 2 crashes.
  workload.faults.events = {Event(70.0, FaultEventKind::kRelayFail, 4),
                            Event(80.0, FaultEventKind::kLinkDown, 1),
                            Event(90.0, FaultEventKind::kCacheCrash, 2),
                            Event(100.0, FaultEventKind::kRelayRecover, 4),
                            Event(105.0, FaultEventKind::kCacheRestart, 2),
                            Event(110.0, FaultEventKind::kRelayFail, 6),
                            Event(120.0, FaultEventKind::kLinkUp, 1),
                            Event(130.0, FaultEventKind::kRelayRecover, 6)};

  for (RelayStorePolicy store_policy :
       {RelayStorePolicy::kDrop, RelayStorePolicy::kDrain}) {
    CooperativeConfig cooperative;
    cooperative.num_caches = config.workload.num_caches;
    cooperative.cache_bandwidth_avg = config.cache_bandwidth_avg;
    cooperative.source_bandwidth_avg = config.source_bandwidth_avg;
    cooperative.loss_rate = 0.05;
    cooperative.relay_store_policy = store_policy;
    PoolAuditScheduler scheduler(cooperative);
    auto metric = MakeMetric(config.metric);
    const auto result =
        RunScheduler(&workload, metric.get(), config.harness, &scheduler);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->scheduler.relay_failures, 2);
    EXPECT_EQ(result->scheduler.link_down_events, 1);
    EXPECT_GT(scheduler.max_in_flight_, 0u);
    // Every release path above really ran.
    EXPECT_GT(scheduler.network().cache_link(1).messages_blackholed(), 0);
    int64_t lost = 0;
    for (int n = 0; n < scheduler.network().num_nodes(); ++n) {
      lost += scheduler.network().edge_link(n).messages_dropped();
    }
    EXPECT_GT(lost, 0);
  }
}

// --------------------------------------------- partitions and slowdowns

TEST(FaultLinkTest, PartitionWindowRaisesStalenessUnderInvalidation) {
  ExperimentConfig config = MultiCacheConfig();
  config.workload.read.read_rate = 4.0;
  config.protocol.kind = SyncProtocolKind::kInvalidation;

  ExperimentConfig flapped = config;
  flapped.workload.fault.link_flaps = 1;
  flapped.workload.fault.flap_duration = 40.0;
  flapped.workload.fault.window_start = 70.0;

  const auto baseline = RunExperiment(config);
  const auto partitioned = RunExperiment(flapped);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(partitioned.ok());
  EXPECT_EQ(partitioned->scheduler.link_down_events, 1);
  EXPECT_EQ(baseline->scheduler.link_down_events, 0);
  // During the partition invalidations blackhole, so the cut-off cache
  // keeps serving divergent replicas as valid: read staleness worsens.
  EXPECT_GT(partitioned->scheduler.read_staleness_p95,
            baseline->scheduler.read_staleness_p95);
}

TEST(FaultLinkTest, SlowdownThrottlesDeliveries) {
  ExperimentConfig config = MultiCacheConfig();
  ExperimentConfig slowed = config;
  slowed.workload.fault.slowdowns = 1;
  slowed.workload.fault.slow_duration = 60.0;
  slowed.workload.fault.slow_factor = 0.2;
  slowed.workload.fault.window_start = 60.0;

  const auto baseline = RunExperiment(config);
  const auto degraded = RunExperiment(slowed);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->scheduler.slowdown_events, 1);
  EXPECT_LT(degraded->scheduler.refreshes_delivered,
            baseline->scheduler.refreshes_delivered);
}

// ----------------------------------------------------------- determinism

TEST(FaultDeterminismTest, FaultedRunIsRepeatable) {
  ExperimentConfig config = MultiCacheConfig();
  config.workload.read.read_rate = 3.0;
  config.workload.fault.cache_crashes = 2;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.link_flaps = 1;
  config.workload.fault.slowdowns = 1;
  config.workload.fault.window_start = 40.0;
  config.workload.fault.window_end = 120.0;
  config.recovery_policy = RecoveryPolicy::kRecoveryPriority;

  auto run = [&config]() {
    auto result = RunExperiment(config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  };
  const RunResult first = run();
  const RunResult second = run();
  EXPECT_GT(first.scheduler.resync_deliveries, 0);
  EXPECT_EQ(first.total_weighted_divergence, second.total_weighted_divergence);
  ASSERT_EQ(first.per_cache_weighted.size(), second.per_cache_weighted.size());
  for (size_t c = 0; c < first.per_cache_weighted.size(); ++c) {
    EXPECT_EQ(first.per_cache_weighted[c], second.per_cache_weighted[c]);
  }
  EXPECT_EQ(first.scheduler.refreshes_delivered,
            second.scheduler.refreshes_delivered);
  EXPECT_EQ(first.scheduler.cache_crashes, second.scheduler.cache_crashes);
  EXPECT_EQ(first.scheduler.cache_restarts, second.scheduler.cache_restarts);
  EXPECT_EQ(first.scheduler.resync_deliveries, second.scheduler.resync_deliveries);
  EXPECT_EQ(first.scheduler.resync_pending, second.scheduler.resync_pending);
  EXPECT_EQ(first.scheduler.time_to_resync_mean,
            second.scheduler.time_to_resync_mean);
  EXPECT_EQ(first.scheduler.time_to_resync_p95,
            second.scheduler.time_to_resync_p95);
  EXPECT_EQ(first.scheduler.crash_dropped_pulls,
            second.scheduler.crash_dropped_pulls);
}

// ------------------------------------------------------------------ fuzz

TEST(FaultFuzzTest, RandomSchedulesNeverViolateInvariants) {
  // 200 seeded random schedules on a tiny workload: whatever the fault
  // pattern, runs succeed, the divergence accounting stays finite and
  // non-negative, and the recovery bookkeeping is self-consistent.
  Rng rng(20260808);
  for (int iteration = 0; iteration < 200; ++iteration) {
    ExperimentConfig config;
    config.scheduler = SchedulerKind::kCooperative;
    config.workload.num_sources = 2;
    config.workload.objects_per_source = 6;
    config.workload.num_caches = 2;
    config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
    config.workload.seed = 1 + static_cast<uint64_t>(iteration);
    config.harness.warmup = 5.0;
    config.harness.measure = 40.0;
    config.harness.seed = 3;
    config.cache_bandwidth_avg = 5.0;
    config.workload.read.read_rate = rng.Bernoulli(0.5) ? 2.0 : 0.0;
    config.recovery_policy = rng.Bernoulli(0.5)
                                 ? RecoveryPolicy::kRecoveryPriority
                                 : RecoveryPolicy::kNaiveReenqueue;
    FaultScheduleConfig& fault = config.workload.fault;
    fault.cache_crashes = static_cast<int>(rng.UniformInt(0, 3));
    fault.crash_duration = rng.Uniform(1.0, 15.0);
    fault.link_flaps = static_cast<int>(rng.UniformInt(0, 2));
    fault.flap_duration = rng.Uniform(1.0, 10.0);
    fault.slowdowns = static_cast<int>(rng.UniformInt(0, 2));
    fault.slow_duration = rng.Uniform(1.0, 10.0);
    fault.slow_factor = rng.Uniform(0.1, 1.0);
    fault.window_start = rng.Uniform(0.0, 30.0);
    fault.window_end = fault.window_start + rng.Uniform(0.0, 15.0);
    fault.seed = rng.NextUint64();

    const auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok())
        << "iteration " << iteration << ": " << result.status().ToString();
    const RunResult& run = *result;
    EXPECT_TRUE(std::isfinite(run.total_weighted_divergence));
    EXPECT_GE(run.total_weighted_divergence, 0.0);
    double per_cache_sum = 0.0;
    for (double cache_divergence : run.per_cache_weighted) {
      EXPECT_GE(cache_divergence, 0.0) << "iteration " << iteration;
      per_cache_sum += cache_divergence;
    }
    EXPECT_NEAR(per_cache_sum, run.total_weighted_divergence, 1e-6);
    const SchedulerStats& stats = run.scheduler;
    EXPECT_GE(stats.cache_crashes, 0);
    // Stats are measurement-window scoped, so a warmup crash's restart can
    // outnumber the *counted* crashes — but never the scheduled ones.
    EXPECT_LE(stats.cache_restarts, fault.cache_crashes);
    EXPECT_GE(stats.resync_deliveries, 0);
    EXPECT_GE(stats.resync_pending, 0);
    EXPECT_GE(stats.crash_dropped_pulls, 0);
    EXPECT_GE(stats.time_to_resync_p95, 0.0);
    EXPECT_TRUE(std::isfinite(stats.time_to_resync_mean));
    // Counters are measurement-window scoped and delivery lags sending, so
    // warmup-sent backlog (amplified by failover drains) can deliver inside
    // the window: delivered may slightly exceed the *counted* sends, but
    // both stay non-negative.
    EXPECT_GE(stats.refreshes_sent, 0);
    EXPECT_GE(stats.refreshes_delivered, 0);
  }
}

}  // namespace
}  // namespace besync
