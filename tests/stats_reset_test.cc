// Measurement-start reset audit: every count-like scheduler statistic must
// cover the measurement window only. Two angles:
//
//  1. A second OnMeasurementStart() immediately after a finished run must
//     zero every counter, for every scheduler family (if any counter
//     escapes the reset path it shows up here).
//  2. Warm-up independence: for deterministic schedulers, stats from runs
//     that differ only in warm-up length must be identical — counters that
//     leak warm-up traffic scale with the warm-up instead.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "exp/experiment.h"

namespace besync {
namespace {

// Every SchedulerStats field is 8 bytes; a new one changes this size. If it
// is a count, list it in ExpectCountsZero below.
static_assert(sizeof(SchedulerStats) == 39 * 8,
              "SchedulerStats changed: update ExpectCountsZero");

/// Every count field of SchedulerStats, listed once: all must be zero right
/// after a measurement-start reset.
void ExpectCountsZero(const SchedulerStats& s) {
  EXPECT_EQ(s.refreshes_sent, 0);
  EXPECT_EQ(s.refreshes_delivered, 0);
  EXPECT_EQ(s.feedback_sent, 0);
  EXPECT_EQ(s.polls_sent, 0);
  EXPECT_EQ(s.relays_forwarded, 0);
  EXPECT_EQ(s.relay_control_moved, 0);
  EXPECT_EQ(s.reads_total, 0);
  EXPECT_EQ(s.read_hits, 0);
  EXPECT_EQ(s.read_misses, 0);
  EXPECT_EQ(s.pull_requests_sent, 0);
  EXPECT_EQ(s.pulls_delivered, 0);
  EXPECT_EQ(s.cache_evictions, 0);
  EXPECT_EQ(s.invalidations_sent, 0);
  EXPECT_EQ(s.invalidations_received, 0);
  EXPECT_EQ(s.cache_crashes, 0);
  EXPECT_EQ(s.cache_restarts, 0);
  EXPECT_EQ(s.relay_failures, 0);
  EXPECT_EQ(s.link_down_events, 0);
  EXPECT_EQ(s.slowdown_events, 0);
  EXPECT_EQ(s.crash_dropped_pulls, 0);
  EXPECT_EQ(s.resync_deliveries, 0);
}

ExperimentConfig BaseConfig(SchedulerKind kind) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 10;
  config.workload.seed = 19;
  config.harness.warmup = 30.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 8.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

class StatsResetTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(StatsResetTest, SecondMeasurementStartZeroesAllCounters) {
  const ExperimentConfig config = BaseConfig(GetParam());
  const Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  const auto metric = MakeMetric(config.metric);
  const auto scheduler = MakeScheduler(config);
  Harness harness(&workload, metric.get(), config.harness);
  ASSERT_TRUE(harness.Run(scheduler.get()).ok());

  // The run produced traffic...
  const SchedulerStats after_run = scheduler->stats();
  EXPECT_GT(after_run.refreshes_sent + after_run.refreshes_delivered +
                after_run.polls_sent,
            0);

  // ...and a fresh measurement start wipes every count and link statistic,
  // including the relay / read-path / protocol / fault counts (zero here
  // because the config does not exercise them, but a reset that skipped one
  // would leak the previous run's value on a reused scheduler).
  scheduler->OnMeasurementStart(harness.now());
  const SchedulerStats reset = scheduler->stats();
  ExpectCountsZero(reset);
  EXPECT_EQ(reset.cache_utilization, 0.0);
  EXPECT_EQ(reset.avg_cache_queue, 0.0);
  EXPECT_EQ(reset.pull_units_delivered, 0);
  EXPECT_EQ(reset.push_units_delivered, 0);
}

/// A cooperative config and the counts its run must move, so the reset
/// check below is not vacuous.
struct CountCase {
  std::string name;
  ExperimentConfig config;
  std::vector<std::pair<const char*, int64_t SchedulerStats::*>> bumped;
};

std::vector<CountCase> CooperativeCountCases() {
  // Reads with a binding capacity, a relay tier, the invalidation protocol.
  ExperimentConfig reads = BaseConfig(SchedulerKind::kCooperative);
  reads.workload.num_caches = 2;
  reads.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  reads.workload.read.read_rate = 4.0;
  reads.workload.relay_tiers = 1;
  reads.protocol.kind = SyncProtocolKind::kInvalidation;
  // Cache crash/restart (with its resync episode), a relay failover, a
  // link flap, a slowdown.
  ExperimentConfig faults = BaseConfig(SchedulerKind::kCooperative);
  faults.workload.num_caches = 2;
  faults.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  faults.workload.relay_tiers = 1;
  faults.workload.fault.cache_crashes = 2;
  faults.workload.fault.relay_failures = 1;
  faults.workload.fault.link_flaps = 1;
  faults.workload.fault.slowdowns = 1;
  faults.workload.fault.window_start = 40.0;
  faults.workload.fault.window_end = 120.0;
  return {
      {"ReadsInvalidationRelay",
       reads,
       {{"reads_total", &SchedulerStats::reads_total},
        {"pulls_delivered", &SchedulerStats::pulls_delivered},
        {"invalidations_sent", &SchedulerStats::invalidations_sent},
        {"invalidations_received", &SchedulerStats::invalidations_received},
        {"relays_forwarded", &SchedulerStats::relays_forwarded}}},
      {"FaultsRelay",
       faults,
       {{"cache_crashes", &SchedulerStats::cache_crashes},
        {"cache_restarts", &SchedulerStats::cache_restarts},
        {"relay_failures", &SchedulerStats::relay_failures},
        {"link_down_events", &SchedulerStats::link_down_events},
        {"slowdown_events", &SchedulerStats::slowdown_events},
        {"resync_deliveries", &SchedulerStats::resync_deliveries}}},
  };
}

class StatsResetCooperativeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StatsResetCooperativeTest, ReusedSchedulerZeroesEveryCount) {
  // Drive a counter family, then start a fresh measurement window on the
  // *same* scheduler instance and demand a clean slate: a reused scheduler
  // must not double-count the previous run's traffic or outages.
  const CountCase count_case = CooperativeCountCases()[GetParam()];
  const ExperimentConfig& config = count_case.config;
  const Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  const auto metric = MakeMetric(config.metric);
  const auto scheduler = MakeScheduler(config);
  Harness harness(&workload, metric.get(), config.harness);
  ASSERT_TRUE(harness.Run(scheduler.get()).ok());

  const SchedulerStats after_run = scheduler->stats();
  for (const auto& [name, field] : count_case.bumped) {
    EXPECT_GT(after_run.*field, 0) << name << " was not exercised";
  }
  // A run that refilled a restarted cache also closed a resync episode.
  if (after_run.resync_deliveries > 0) {
    EXPECT_GT(after_run.time_to_resync_p95, 0.0);
  }

  scheduler->OnMeasurementStart(harness.now());
  const SchedulerStats reset = scheduler->stats();
  ExpectCountsZero(reset);
  EXPECT_EQ(reset.resync_pending, 0);
  EXPECT_EQ(reset.time_to_resync_mean, 0.0);
  EXPECT_EQ(reset.time_to_resync_p95, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StatsResetCooperativeTest,
    ::testing::Range<size_t>(0, CooperativeCountCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return CooperativeCountCases()[info.param].name;
    });

INSTANTIATE_TEST_SUITE_P(AllSchedulers, StatsResetTest,
                         ::testing::Values(SchedulerKind::kCooperative,
                                           SchedulerKind::kIdealCooperative,
                                           SchedulerKind::kIdealCacheBased,
                                           SchedulerKind::kCGM1,
                                           SchedulerKind::kCGM2,
                                           SchedulerKind::kRoundRobin));

TEST(StatsWarmupIndependenceTest, RoundRobinStatsCoverMeasurementOnly) {
  // Round robin with constant bandwidth is fully deterministic: over a fixed
  // measurement window it performs exactly bandwidth * measure refreshes,
  // regardless of how long the warm-up ran.
  ExperimentConfig short_warmup = BaseConfig(SchedulerKind::kRoundRobin);
  short_warmup.harness.warmup = 50.0;
  ExperimentConfig long_warmup = short_warmup;
  long_warmup.harness.warmup = 250.0;

  const auto a = RunExperiment(short_warmup);
  const auto b = RunExperiment(long_warmup);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->scheduler.refreshes_sent, 0);
  EXPECT_EQ(a->scheduler.refreshes_sent, b->scheduler.refreshes_sent);
  EXPECT_EQ(a->scheduler.refreshes_delivered, b->scheduler.refreshes_delivered);
}

TEST(StatsWarmupIndependenceTest, CooperativeDeliveredMatchesLinkAccounting) {
  // Internal consistency after warm-up reset: the cache agents' delivered
  // count and the sources' sent count must refer to the same (measurement)
  // window — sent can exceed delivered only by in-flight queue contents.
  const ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.refreshes_sent, 0);
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
  EXPECT_GE(result->scheduler.refreshes_sent + result->scheduler.max_cache_queue,
            result->scheduler.refreshes_delivered);
}

}  // namespace
}  // namespace besync
