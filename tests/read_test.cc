// Read-path subsystem tests: the inertness pin (reads disabled and
// unbounded capacity reproduce the seed goldens bitwise), eviction-policy
// unit behavior, miss-triggered pulls end to end (flat and through relay
// trees, lossless and lossy), trace-driven read streams with clone
// isolation, and thread-count-independent JSON for read-enabled grids.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/harness.h"
#include "core/system.h"
#include "data/read_process.h"
#include "divergence/metric.h"
#include "exp/experiment.h"
#include "fault/fault_schedule.h"
#include "protocol/sync_protocol.h"
#include "read/cache_store.h"
#include "read/read_path.h"

namespace besync {
namespace {

constexpr double kTolerance = 1e-9;

/// The GoldenTest.CooperativeTrigger configuration (tests/golden_test.cc):
/// the seed-era single-cache constants the read path must not disturb.
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

TEST(ReadPathPinTest, DisabledReadPathReproducesSeedGolden) {
  // The defaults: read_rate = 0, capacity unbounded. Bitwise the seed run.
  const auto result = RunExperiment(GoldenConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result->scheduler.reads_total, 0);
  EXPECT_EQ(result->scheduler.pulls_delivered, 0);
  EXPECT_EQ(result->scheduler.cache_evictions, 0);
}

TEST(ReadPathPinTest, UnpressuredCapacityReproducesSeedGolden) {
  // A finite capacity that never binds (>= every replica) tracks residency
  // but evicts nothing and pulls nothing: the golden constants survive.
  ExperimentConfig config = GoldenConfig();
  config.workload.read.capacity = 100000;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result->scheduler.cache_evictions, 0);
}

TEST(ReadPathPinTest, ReadsAgainstUnboundedCacheObserveWithoutPerturbing) {
  // With unbounded capacity every read hits: reads sample staleness but
  // never generate traffic or touch any RNG the write path uses — the
  // divergence and protocol counters stay exactly golden.
  ExperimentConfig config = GoldenConfig();
  config.workload.read.read_rate = 5.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_GT(result->scheduler.reads_total, 0);
  EXPECT_EQ(result->scheduler.read_hits, result->scheduler.reads_total);
  EXPECT_EQ(result->scheduler.read_misses, 0);
  EXPECT_EQ(result->scheduler.pull_requests_sent, 0);
  EXPECT_EQ(result->scheduler.pull_bandwidth_share, 0.0);
  // Staleness percentiles are populated and ordered.
  EXPECT_GE(result->scheduler.read_staleness_p50, 0.0);
  EXPECT_GE(result->scheduler.read_staleness_p95,
            result->scheduler.read_staleness_p50);
  EXPECT_GE(result->scheduler.read_staleness_p99,
            result->scheduler.read_staleness_p95);
}

TEST(CacheStoreTest, LruEvictsLeastRecentlyRead) {
  CacheStore store(2, EvictionPolicy::kLru, {10, 20, 30});
  EXPECT_EQ(store.num_resident(), 2);  // slots 0 and 1 warm-started
  EXPECT_TRUE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
  EXPECT_FALSE(store.resident(2));
  store.TouchRead(0, 1.0);
  // Installing slot 2 must evict slot 1 (never read; last_touch 0); the
  // returned victim is the one eviction the read path counts.
  EXPECT_EQ(store.Install(2, 2.0, {}), 1);
  EXPECT_TRUE(store.resident(2));
  EXPECT_FALSE(store.resident(1));
  EXPECT_EQ(store.Install(2, 2.5, {}), -1);  // already resident: no eviction
  // Ties (equal touch) break to the lowest slot.
  CacheStore tied(2, EvictionPolicy::kLru, {1, 2, 3});
  EXPECT_EQ(tied.Install(2, 1.0, {}), 0);
}

TEST(CacheStoreTest, LfuEvictsLeastFrequentlyRead) {
  CacheStore store(2, EvictionPolicy::kLfu, {10, 20, 30});
  store.TouchRead(0, 1.0);
  store.TouchRead(1, 2.0);
  store.TouchRead(1, 3.0);
  // Slot 0 has one read, slot 1 has two: LFU evicts slot 0 even though it
  // is not the LRU victim... and LRU would pick slot 0 here too, so pin the
  // difference with reversed recency.
  store.TouchRead(0, 4.0);  // slot 0: 2 reads, most recent
  store.TouchRead(1, 5.0);
  store.TouchRead(1, 6.0);  // slot 1: 4 reads
  EXPECT_EQ(store.Install(2, 7.0, {}), 0);  // fewer reads loses despite recency
}

TEST(CacheStoreTest, DivergenceAwareEvictsStalestReplica) {
  CacheStore store(2, EvictionPolicy::kDivergenceAware, {10, 20, 30});
  store.TouchRead(0, 1.0);
  store.TouchRead(1, 2.0);
  // Replica 10 is badly diverged, replica 20 is fresh: drop the stale one.
  const auto divergence_of = [](int64_t slot) {
    return slot == 0 ? 9.5 : 0.25;  // slot 0 holds object 10
  };
  EXPECT_EQ(store.Install(2, 3.0, divergence_of), 0);
  EXPECT_FALSE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
}

TEST(CacheStoreTest, UnboundedStoreIsInert) {
  CacheStore store(0, EvictionPolicy::kLru, {5, 6});
  EXPECT_TRUE(store.unbounded());
  EXPECT_TRUE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
  EXPECT_EQ(store.Install(1, 1.0, {}), -1);  // never evicts
  EXPECT_EQ(store.Install(0, 2.0, {}), -1);
  EXPECT_EQ(store.num_resident(), 2);
  EXPECT_EQ(store.SlotOf(6), 1);
  EXPECT_EQ(store.SlotOf(7), -1);
}

/// The linear-scan victim choice CacheStore made before its eviction index,
/// kept as the reference the index must reproduce: LRU evicts the least
/// (last_touch, slot), LFU the least (read_count, last_touch, slot), over
/// the residents.
class ScanReferenceStore {
 public:
  ScanReferenceStore(int64_t capacity, EvictionPolicy policy, int64_t members)
      : capacity_(capacity), policy_(policy), slots_(static_cast<size_t>(members)) {
    num_resident_ = std::min(capacity, members);
    for (int64_t slot = 0; slot < num_resident_; ++slot) slots_[slot].resident = true;
  }

  bool resident(int64_t slot) const { return slots_[slot].resident; }

  void TouchRead(int64_t slot, double t) {
    slots_[slot].last_touch = t;
    ++slots_[slot].read_count;
  }

  void Crash() {
    for (Slot& state : slots_) state = Slot{};
    num_resident_ = 0;
  }

  int64_t Install(int64_t slot, double t) {
    if (slots_[slot].resident) return -1;
    int64_t victim = -1;
    if (num_resident_ >= capacity_) {
      for (int64_t s = 0; s < static_cast<int64_t>(slots_.size()); ++s) {
        const Slot& state = slots_[s];
        if (!state.resident) continue;
        const Slot* best = victim < 0 ? nullptr : &slots_[victim];
        bool better = best == nullptr;
        if (!better && policy_ == EvictionPolicy::kLru) {
          better = state.last_touch < best->last_touch;
        } else if (!better) {
          better = state.read_count < best->read_count ||
                   (state.read_count == best->read_count &&
                    state.last_touch < best->last_touch);
        }
        if (better) victim = s;
      }
      slots_[victim].resident = false;
      slots_[victim].read_count = 0;
      --num_resident_;
    }
    slots_[slot] = Slot{true, t, 0};
    ++num_resident_;
    return victim;
  }

 private:
  struct Slot {
    bool resident = false;
    double last_touch = 0.0;
    int64_t read_count = 0;
  };
  int64_t capacity_;
  EvictionPolicy policy_;
  std::vector<Slot> slots_;
  int64_t num_resident_ = 0;
};

TEST(CacheStoreTest, EvictionIndexMatchesLinearScan) {
  // Random operation sequences against the scan reference. Times sit on a
  // quarter-second grid so last_touch ties are exact and frequent; touches
  // land up to two seconds before the latest install (a tick installs at
  // its end time, then serves reads stamped earlier in the tick), so LRU
  // keys go backwards as well as forwards; rare crashes empty the store
  // and installs refill it. Every Install must return the reference's
  // victim.
  constexpr int64_t kMembers = 40;
  constexpr int kOps = 12000;
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu}) {
    for (int64_t capacity : {int64_t{1}, int64_t{3}, kMembers - 1}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        std::vector<ObjectIndex> members(kMembers);
        for (int64_t i = 0; i < kMembers; ++i) members[i] = 10 * i + 3;
        CacheStore store(capacity, policy, members);
        ScanReferenceStore reference(capacity, policy, kMembers);
        Rng rng(seed);
        double now = 0.0;
        int64_t evictions = 0;
        for (int op = 0; op < kOps; ++op) {
          SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy)
                                          << " capacity " << capacity << " seed "
                                          << seed << " op " << op);
          const int64_t slot = rng.UniformInt(0, kMembers - 1);
          const double draw = rng.Uniform(0.0, 1.0);
          const double t = std::max(0.0, now - 0.25 * rng.UniformInt(0, 8));
          if (draw < 0.5) {
            // The read path touches residents only; a stray touch of a
            // non-resident slot must not confuse the index either.
            if (reference.resident(slot) || draw < 0.02) {
              store.TouchRead(slot, t);
              reference.TouchRead(slot, t);
            }
          } else if (draw < 0.9) {
            // Mostly the next non-resident slot at or after `slot` (an
            // install that must evict when full), else `slot` as drawn.
            int64_t target = slot;
            for (int64_t i = 0; draw < 0.85 && i < kMembers; ++i) {
              if (!reference.resident((slot + i) % kMembers)) {
                target = (slot + i) % kMembers;
                break;
              }
            }
            const int64_t expected = reference.Install(target, now);
            ASSERT_EQ(store.Install(target, now, {}), expected);
            if (expected >= 0) ++evictions;
          } else if (draw < 0.999) {
            now += 0.25;
          } else {
            store.Crash();
            reference.Crash();
          }
          ASSERT_EQ(store.resident(slot), reference.resident(slot));
        }
        EXPECT_GT(evictions, kOps / 20);
      }
    }
  }
}

ExperimentConfig PressuredConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 20;
  config.workload.seed = 19;
  config.workload.read.read_rate = 8.0;
  config.workload.read.capacity = 20;  // 80 objects at one cache: hot-set only
  config.harness.warmup = 50.0;
  config.harness.measure = 400.0;
  config.cache_bandwidth_avg = 10.0;
  return config;
}

TEST(ReadPathTest, FiniteCapacityGeneratesMissesPullsAndEvictions) {
  const auto result = RunExperiment(PressuredConfig());
  ASSERT_TRUE(result.ok());
  const SchedulerStats& s = result->scheduler;
  EXPECT_GT(s.reads_total, 0);
  EXPECT_GT(s.read_misses, 0);
  EXPECT_GT(s.read_hits, 0);
  EXPECT_EQ(s.reads_total, s.read_hits + s.read_misses);
  EXPECT_GT(s.pull_requests_sent, 0);
  // No ordering assertion between requests and deliveries: both counters
  // reset at measurement start, so responses to warmup-era requests can
  // make pulls_delivered exceed pull_requests_sent by the in-flight count.
  EXPECT_GT(s.pulls_delivered, 0);
  EXPECT_GT(s.cache_evictions, 0);
  // Pulls consumed real link bandwidth alongside pushes.
  EXPECT_GT(s.pull_units_delivered, 0);
  EXPECT_GT(s.push_units_delivered, 0);
  EXPECT_GT(s.pull_bandwidth_share, 0.0);
  EXPECT_LT(s.pull_bandwidth_share, 1.0);
  // A resolved miss waited at least one tick for its pull.
  EXPECT_GE(s.read_miss_latency_mean, 1.0);
  EXPECT_GE(s.read_staleness_p99, s.read_staleness_p50);
}

TEST(ReadPathTest, RunsAreDeterministic) {
  const auto a = RunExperiment(PressuredConfig());
  const auto b = RunExperiment(PressuredConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_weighted_divergence, b->total_weighted_divergence);
  EXPECT_EQ(a->scheduler.reads_total, b->scheduler.reads_total);
  EXPECT_EQ(a->scheduler.read_hits, b->scheduler.read_hits);
  EXPECT_EQ(a->scheduler.pull_requests_sent, b->scheduler.pull_requests_sent);
  EXPECT_EQ(a->scheduler.read_staleness_p50, b->scheduler.read_staleness_p50);
  EXPECT_EQ(a->scheduler.read_staleness_p99, b->scheduler.read_staleness_p99);
  EXPECT_EQ(a->scheduler.read_miss_latency_mean, b->scheduler.read_miss_latency_mean);
}

TEST(ReadPathTest, EvictionPolicyChangesBehaviorUnderPressure) {
  ExperimentConfig lru = PressuredConfig();
  lru.workload.read.eviction = EvictionPolicy::kLru;
  ExperimentConfig lfu = PressuredConfig();
  lfu.workload.read.eviction = EvictionPolicy::kLfu;
  const auto a = RunExperiment(lru);
  const auto b = RunExperiment(lfu);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same read stream, different residency trajectories. (Pin inequality on
  // the hit split; if a future change makes these collide exactly, bump
  // the workload seed.)
  EXPECT_EQ(a->scheduler.reads_total, b->scheduler.reads_total);
  EXPECT_NE(a->scheduler.read_hits, b->scheduler.read_hits);
}

TEST(ReadPathTest, TimeVaryingPoliciesRunUnderReadPressure) {
  // kBound is time-varying and not update-sensitive: pushes are driven
  // purely by armed wake-ups, so ServePull's epoch bump must re-arm the
  // wake queue (core/source.cc) or pulled objects drop out of push
  // scheduling whenever feedback is scarce. The protocol itself throttles
  // pushes when feedback starves (thresholds only rise), so this pins the
  // workable regime: pulls and pushes both keep flowing.
  ExperimentConfig config = PressuredConfig();
  config.policy = PolicyKind::kBound;
  config.harness.measure = 600.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.pulls_delivered, 0);
  EXPECT_GT(result->scheduler.refreshes_sent, 500);
  EXPECT_GT(result->scheduler.read_hits, 0);
}

TEST(ReadPathTest, PullsTraverseRelayTrees) {
  ExperimentConfig config = PressuredConfig();
  config.workload.num_caches = 2;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.relay_tiers = 1;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 1.0;
  config.workload.read.capacity = 10;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.pulls_delivered, 0);
  EXPECT_GT(result->scheduler.relays_forwarded, 0);
  EXPECT_GT(result->scheduler.pull_bandwidth_share, 0.0);
}

TEST(ReadPathTest, LossyLinksRetryOutstandingPulls) {
  ExperimentConfig config = PressuredConfig();
  config.loss_rate = 0.3;
  config.harness.measure = 600.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  // Lost responses leave pulls outstanding past the retry interval; the
  // re-requests must eventually land content.
  EXPECT_GT(result->scheduler.pulls_delivered, 0);
  EXPECT_GT(result->scheduler.read_hits, 0);
}

TEST(ReadPathTest, BaselinesRejectReadWorkloads) {
  ExperimentConfig config = GoldenConfig();
  config.scheduler = SchedulerKind::kCGM1;
  config.workload.read.read_rate = 1.0;
  EXPECT_FALSE(RunExperiment(config).ok());
  // Finite capacity alone is rejected too: a baseline has no store to
  // enforce it, and its results must not be labeled with a capacity.
  config.workload.read.read_rate = 0.0;
  config.workload.read.capacity = 8;
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(ReadPathTest, TraceDrivenReadsReplayExactly) {
  WorkloadConfig wc;
  wc.num_sources = 2;
  wc.objects_per_source = 5;
  wc.seed = 3;
  Workload workload = std::move(MakeWorkload(wc)).ValueOrDie();
  workload.read.capacity = 3;
  std::vector<ReadTracePoint> points{{5.0, 0}, {5.0, 1}, {12.5, 9},
                                     {40.0, 9}, {41.0, 4}};
  workload.read_streams.push_back(std::make_unique<TraceReadProcess>(points));
  ASSERT_TRUE(workload.reads_enabled());

  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.harness.warmup = 0.0;  // count every trace read
  config.harness.measure = 100.0;
  config.cache_bandwidth_avg = 6.0;
  const auto result = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scheduler.reads_total, 5);
  // Slots 0..2 warm-start resident; slot 9 (and later 4) must fault in.
  EXPECT_GT(result->scheduler.read_misses, 0);
}

TEST(ReadPathTest, CloneIsolatesTraceCursors) {
  WorkloadConfig wc;
  wc.num_sources = 2;
  wc.objects_per_source = 5;
  wc.seed = 3;
  Workload workload = std::move(MakeWorkload(wc)).ValueOrDie();
  workload.read.capacity = 3;
  std::vector<ReadTracePoint> points{{5.0, 0}, {12.5, 9}, {30.0, 8}, {55.0, 9}};
  workload.read_streams.push_back(std::make_unique<TraceReadProcess>(points));

  Workload clone = CloneWorkload(workload);
  ASSERT_EQ(clone.read_streams.size(), 1u);
  ASSERT_TRUE(clone.reads_enabled());
  EXPECT_EQ(clone.read.capacity, 3);

  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.harness.warmup = 0.0;
  config.harness.measure = 100.0;
  config.cache_bandwidth_avg = 6.0;
  // Run the original (advancing its cursors), then the untouched clone:
  // identical results prove deep-copy isolation both ways.
  const auto original = RunExperimentOnWorkload(config, &workload);
  const auto cloned = RunExperimentOnWorkload(config, &clone);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(cloned.ok());
  EXPECT_EQ(original->total_weighted_divergence, cloned->total_weighted_divergence);
  EXPECT_EQ(original->scheduler.reads_total, cloned->scheduler.reads_total);
  EXPECT_EQ(original->scheduler.read_misses, cloned->scheduler.read_misses);
}

TEST(ReadPathTest, StoreSlotTableMatchesSlotOf) {
  // Deliveries find their store slot through the entry-indexed table built
  // in Initialize; it must name SlotOf's slot for every replica, whether an
  // object has one replica, every cache, or a skewed subset of them.
  for (const InterestPattern pattern :
       {InterestPattern::kPartitionedBySource, InterestPattern::kFullReplication,
        InterestPattern::kZipfOverlap}) {
    WorkloadConfig wc;
    wc.num_sources = 5;
    wc.objects_per_source = 30;
    wc.num_caches = 4;
    wc.interest_pattern = pattern;
    wc.seed = 23;
    wc.read.capacity = 10;
    const Workload workload = std::move(MakeWorkload(wc)).ValueOrDie();
    const auto metric = MakeMetric(MetricKind::kStaleness);
    Harness harness(&workload, metric.get(), HarnessConfig{});
    const auto protocol = SyncProtocol::Make(SyncProtocolConfig{});
    SchedulerStats tally;
    ReadPath path;
    path.Initialize(&harness, workload.num_caches, &tally, protocol.get());
    ASSERT_TRUE(path.enabled());
    int64_t checked = 0;
    for (size_t i = 0; i < workload.objects.size(); ++i) {
      const auto index = static_cast<ObjectIndex>(i);
      const std::vector<int32_t>& caches = workload.objects[i].caches;
      for (size_t r = 0; r < caches.size(); ++r) {
        const int64_t slot = path.store(caches[r]).SlotOf(index);
        ASSERT_GE(slot, 0);
        EXPECT_EQ(path.store_slot(index, static_cast<int32_t>(r)), slot)
            << "object " << index << " replica " << r;
        ++checked;
      }
    }
    EXPECT_EQ(checked, workload.total_replicas());
  }
}

/// Checks the replica stamp of every message on a leaf link after each
/// send phase. On a flat topology every source-sent message (push, batch,
/// pull response, recovery refill, invalidation) is on its leaf link by
/// then, and nothing has been delivered yet this tick, so every delivered
/// message and batch mate passes through here at least once.
class StampAuditScheduler : public CooperativeScheduler {
 public:
  StampAuditScheduler(const CooperativeConfig& config, const Workload* workload)
      : CooperativeScheduler(config), workload_(workload) {}

  void SendPhase(double t) override {
    CooperativeScheduler::SendPhase(t);
    for (int c = 0; c < num_caches(); ++c) {
      network().cache_link(c).ForEachQueued([&](const Message& message) {
        Audit(message.cache_id, message.object_index, message.replica);
        for (const RefreshPayload& payload : message.extra_refreshes) {
          Audit(message.cache_id, payload.object_index, payload.replica);
          ++batch_mates_;
        }
        if (message.kind == MessageKind::kInvalidate) ++invalidations_;
        if (message.is_pull) ++pulls_;
      });
    }
  }

  void Audit(int32_t cache_id, ObjectIndex index, int32_t replica) {
    const std::vector<int32_t>& caches = workload_->objects[index].caches;
    ASSERT_GE(replica, 0) << "object " << index;
    ASSERT_LT(replica, static_cast<int32_t>(caches.size())) << "object " << index;
    EXPECT_EQ(caches[replica], cache_id) << "object " << index;
    ++stamps_;
  }

  const Workload* workload_;
  int64_t stamps_ = 0;
  int64_t batch_mates_ = 0;
  int64_t invalidations_ = 0;
  int64_t pulls_ = 0;
};

TEST(ReadPathTest, DeliveriesCarryTheirOwnCachesReplicaStamp) {
  // Crashes, recovery refills, pulls and batching under both emitting
  // protocols; debug builds also check every stamp at the apply site.
  for (const SyncProtocolKind kind :
       {SyncProtocolKind::kPushRefresh, SyncProtocolKind::kInvalidation}) {
    WorkloadConfig wc;
    wc.num_sources = 6;
    wc.objects_per_source = 20;
    wc.num_caches = 3;
    wc.interest_pattern = InterestPattern::kZipfOverlap;
    wc.seed = 29;
    wc.read.read_rate = 6.0;
    wc.read.capacity = 25;
    Workload workload = std::move(MakeWorkload(wc)).ValueOrDie();
    workload.faults.events = {
        {60.0, FaultEventKind::kCacheCrash, 1, 1.0},
        {75.0, FaultEventKind::kCacheRestart, 1, 1.0},
        {110.0, FaultEventKind::kCacheCrash, 2, 1.0},
        {120.0, FaultEventKind::kCacheRestart, 2, 1.0}};
    CooperativeConfig cooperative;
    cooperative.num_caches = wc.num_caches;
    cooperative.cache_bandwidth_avg = 8.0;
    cooperative.source_bandwidth_avg = 4.0;
    cooperative.source.max_batch = 3;
    cooperative.protocol.kind = kind;
    cooperative.protocol.max_invalidate_batch = 3;
    cooperative.recovery_policy = RecoveryPolicy::kRecoveryPriority;
    StampAuditScheduler scheduler(cooperative, &workload);
    const auto metric = MakeMetric(MetricKind::kStaleness);
    HarnessConfig harness;
    harness.warmup = 20.0;
    harness.measure = 180.0;
    const auto result = RunScheduler(&workload, metric.get(), harness, &scheduler);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->scheduler.cache_crashes, 2);
    EXPECT_GT(result->scheduler.pulls_delivered, 0);
    EXPECT_GT(result->scheduler.resync_deliveries, 0);
    EXPECT_GT(scheduler.stamps_, 0);
    EXPECT_GT(scheduler.batch_mates_, 0);
    EXPECT_GT(scheduler.pulls_, 0);
    if (kind == SyncProtocolKind::kInvalidation) {
      EXPECT_GT(scheduler.invalidations_, 0);
    }
  }
}

}  // namespace
}  // namespace besync
