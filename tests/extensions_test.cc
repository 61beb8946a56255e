// Tests for the Section 10.1 extension features: history-extended priority,
// non-uniform refresh costs, refresh batching, and (network robustness)
// message loss.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/system.h"
#include "data/update_process.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "exp/experiment.h"
#include "net/link.h"
#include "priority/history.h"

namespace besync {
namespace {

// ------------------------------------------------------- Regime switching

TEST(RegimeSwitchingProcessTest, RatePerRegime) {
  RegimeSwitchingProcess process(2.0, 0.1, 100.0);
  EXPECT_DOUBLE_EQ(process.RateAt(50.0), 2.0);
  EXPECT_DOUBLE_EQ(process.RateAt(150.0), 0.1);
  EXPECT_DOUBLE_EQ(process.RateAt(250.0), 2.0);
  EXPECT_DOUBLE_EQ(process.rate(), 1.05);
}

TEST(RegimeSwitchingProcessTest, EventCountsFollowRegimes) {
  RegimeSwitchingProcess process(2.0, 0.1, 100.0);
  Rng rng(5);
  int64_t events_a = 0;
  int64_t events_b = 0;
  double t = 0.0;
  while (t < 10000.0) {
    t = process.NextUpdateTime(t, &rng);
    if (t >= 10000.0) break;
    (process.RateAt(t) == 2.0 ? events_a : events_b) += 1;
  }
  // 50 regimes of each kind, 100 s each: expect ~2.0*5000 = 10000 A-events
  // and ~0.1*5000 = 500 B-events.
  EXPECT_NEAR(static_cast<double>(events_a), 10000.0, 400.0);
  EXPECT_NEAR(static_cast<double>(events_b), 500.0, 90.0);
}

TEST(RegimeSwitchingProcessTest, ZeroRateRegimeSkipped) {
  RegimeSwitchingProcess process(0.0, 1.0, 10.0);
  Rng rng(6);
  // Starting in the zero-rate regime, the first update must land in [10,20).
  const double first = process.NextUpdateTime(0.0, &rng);
  EXPECT_GE(first, 10.0);
  EXPECT_LT(first, 40.0);  // overwhelmingly within the first active regime
}

// -------------------------------------------------------- History policy

PriorityContext HistoryContext(const DivergenceTracker* tracker, double weight,
                               double history_rate) {
  PriorityContext context;
  context.tracker = tracker;
  context.weight = weight;
  context.history_rate = history_rate;
  return context;
}

TEST(HistoryPriorityTest, BetaZeroEqualsArea) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(2.0, 4.0, 1);
  HistoryPriority history(0.0);
  AreaPriority area;
  const auto context = HistoryContext(&tracker, 2.0, 7.0);
  EXPECT_DOUBLE_EQ(history.Priority(context, 5.0), area.Priority(context, 5.0));
}

TEST(HistoryPriorityTest, BetaOneIsPureHistoryQuadratic) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  HistoryPriority history(1.0);
  const auto context = HistoryContext(&tracker, 1.0, 0.5);
  // P = r/2 * t^2 = 0.25 * 16 = 4 at t = 4.
  EXPECT_DOUBLE_EQ(history.Priority(context, 4.0), 4.0);
}

TEST(HistoryPriorityTest, CrossTimeInvertsPriority) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 2.0, 1);
  HistoryPriority history(0.5);
  const auto context = HistoryContext(&tracker, 1.5, 0.4);
  const double threshold = 30.0;
  const double cross = history.ThresholdCrossTime(context, threshold, 2.0);
  ASSERT_TRUE(std::isfinite(cross));
  EXPECT_NEAR(history.Priority(context, cross), threshold, 1e-9);
}

TEST(HistoryPriorityTest, NoHistoryRateNeverCrosses) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  HistoryPriority history(0.5);
  const auto context = HistoryContext(&tracker, 1.0, 0.0);
  EXPECT_TRUE(std::isinf(history.ThresholdCrossTime(context, 100.0, 1.0)));
}

TEST(HistoryPriorityTest, Flags) {
  HistoryPriority history(0.5);
  EXPECT_TRUE(history.time_varying());
  EXPECT_TRUE(history.update_sensitive());
  EXPECT_EQ(history.kind(), PolicyKind::kAreaHistory);
  EXPECT_EQ(PolicyKindToString(PolicyKind::kAreaHistory), "area-history");
}

TEST(HistoryRateEstimatorTest, RecoversLinearRate) {
  // Divergence growing at rate r over an interval L has integral r L^2 / 2.
  HistoryRateEstimator estimator(1.0);  // no smoothing: track last interval
  const double r = 0.3;
  const double interval = 8.0;
  estimator.OnRefresh(interval, 0.5 * r * interval * interval);
  EXPECT_NEAR(estimator.rate(), r, 1e-12);
}

TEST(HistoryRateEstimatorTest, EmaSmoothing) {
  HistoryRateEstimator estimator(0.5);
  estimator.OnRefresh(2.0, 0.5 * 1.0 * 4.0);  // rate 1
  estimator.OnRefresh(2.0, 0.5 * 3.0 * 4.0);  // rate 3
  EXPECT_NEAR(estimator.rate(), 2.0, 1e-12);  // 0.5*1 + 0.5*3
}

TEST(HistoryRateEstimatorTest, IgnoresDegenerateIntervals) {
  HistoryRateEstimator estimator;
  estimator.OnRefresh(0.0, 5.0);
  EXPECT_DOUBLE_EQ(estimator.rate(), 0.0);
}

// ---------------------------------------------------------- Drift process

TEST(DriftProcessTest, DeterministicIntervals) {
  DriftProcess process(0.5);  // every 2 s
  Rng rng(1);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng), 2.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(2.0, &rng), 4.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(3.0, &rng), 4.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(7.0, &rng), 8.0);  // one-sided
}

TEST(DriftProcessTest, DivergenceMatchesBound) {
  // Under value deviation, a drift object's divergence after time T without
  // refresh is floor(lambda*T)*step ~ R*T.
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  DriftProcess process(1.0);
  Rng rng(2);
  double value = 0.0;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t = process.NextUpdateTime(t, &rng);
    value = process.ApplyUpdate(value, &rng);
    tracker.OnUpdate(t, value, i + 1);
  }
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 50.0);  // R*T with R=1,T=50
}

// ----------------------------------------------------- Costs on the link

std::unique_ptr<BandwidthModel> Constant(double rate) {
  return std::make_unique<BandwidthModel>(std::make_unique<ConstantFluctuation>(rate));
}

TEST(LinkCostTest, LargeMessageSpansTicks) {
  Link link("t", Constant(2.0));
  link.BeginTick(0.0, 1.0);
  link.Emplace([](Message& big) { big.cost = 5; });
  int delivered = 0;
  link.DeliverQueued([&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);               // transmission starts immediately...
  EXPECT_EQ(link.remaining_budget(), -3);  // ...and runs a 3-unit debt
  link.BeginTick(1.0, 1.0);
  EXPECT_EQ(link.remaining_budget(), -1);  // debt carries, budget 2 - 3
  link.BeginTick(2.0, 1.0);
  EXPECT_EQ(link.remaining_budget(), 1);   // link free again mid-tick 3
}

TEST(LinkCostTest, DebtBlocksSubsequentDeliveries) {
  Link link("t", Constant(1.0));
  link.BeginTick(0.0, 1.0);
  link.Emplace([](Message& big) { big.cost = 3; });
  link.Emplace([](Message&) {});  // a small message behind it
  int delivered = 0;
  link.DeliverQueued([&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);  // big went out; small must wait out the debt
  link.BeginTick(1.0, 1.0);
  link.DeliverQueued([&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);  // still paying for big
  link.BeginTick(2.0, 1.0);
  link.BeginTick(3.0, 1.0);
  link.DeliverQueued([&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 2);
}

TEST(LinkCostTest, TryConsumeAllowingDeficit) {
  Link link("t", Constant(2.0));
  link.BeginTick(0.0, 1.0);
  EXPECT_TRUE(link.TryConsumeAllowingDeficit(5));
  EXPECT_EQ(link.remaining_budget(), -3);
  EXPECT_FALSE(link.TryConsumeAllowingDeficit(1));  // nothing left to start on
}

// -------------------------------------------------------------- Link loss

TEST(LinkLossTest, DropsApproximatelyAtRate) {
  Link link("t", Constant(1000.0));
  link.SetLossRate(0.3, 99);
  link.BeginTick(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) link.Emplace([](Message&) {});
  int delivered = 0;
  link.DeliverQueued([&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered + link.messages_dropped(), 1000);
  EXPECT_NEAR(static_cast<double>(link.messages_dropped()), 300.0, 60.0);
}

// --------------------------------------------------- System-level checks

ExperimentConfig BaseConfig(SchedulerKind kind) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.metric = MetricKind::kValueDeviation;
  config.workload.num_sources = 5;
  config.workload.objects_per_source = 20;
  config.workload.rate_lo = 0.05;
  config.workload.rate_hi = 0.5;
  config.workload.seed = 31;
  config.harness.warmup = 50.0;
  config.harness.measure = 400.0;
  config.cache_bandwidth_avg = 15.0;
  return config;
}

TEST(HistoryPolicySystemTest, RunsUnderBothSchedulers) {
  for (SchedulerKind kind :
       {SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative}) {
    ExperimentConfig config = BaseConfig(kind);
    config.policy = PolicyKind::kAreaHistory;
    auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->scheduler.refreshes_delivered, 100);
    EXPECT_LT(result->per_object_weighted, 10.0);
  }
}

TEST(HistoryPolicySystemTest, CompetitiveWithAreaOnStationaryWorkload) {
  // On a stationary workload the history blend should stay in the same
  // ballpark as the pure area policy (paper: history trades adaptiveness
  // for prediction stability).
  ExperimentConfig config = BaseConfig(SchedulerKind::kIdealCooperative);
  config.policy = PolicyKind::kArea;
  auto area = RunExperiment(config);
  ASSERT_TRUE(area.ok());
  config.policy = PolicyKind::kAreaHistory;
  auto history = RunExperiment(config);
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history->per_object_weighted, area->per_object_weighted * 1.6);
}

TEST(CostSystemTest, HeterogeneousCostsReduceThroughput) {
  ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  auto uniform = RunExperiment(config);
  ASSERT_TRUE(uniform.ok());
  config.workload.cost_scheme = CostScheme::kHalfLarge;
  config.workload.large_cost = 4;
  auto costly = RunExperiment(config);
  ASSERT_TRUE(costly.ok());
  // Same message budget now moves fewer (heavier) refreshes.
  EXPECT_LT(costly->scheduler.refreshes_delivered,
            uniform->scheduler.refreshes_delivered);
  EXPECT_GT(costly->per_object_weighted, uniform->per_object_weighted);
}

TEST(CostSystemTest, CostAwarePriorityHelps) {
  ExperimentConfig config = BaseConfig(SchedulerKind::kIdealCooperative);
  config.workload.cost_scheme = CostScheme::kHalfLarge;
  config.workload.large_cost = 8;
  config.harness.measure = 800.0;
  config.cost_aware_priority = true;
  auto aware = RunExperiment(config);
  ASSERT_TRUE(aware.ok());
  config.cost_aware_priority = false;
  auto blind = RunExperiment(config);
  ASSERT_TRUE(blind.ok());
  // Charging cost in the priority should not hurt, and usually helps.
  EXPECT_LT(aware->per_object_weighted, blind->per_object_weighted * 1.05);
}

TEST(BatchSystemTest, BatchingAmortizesBandwidth) {
  ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  config.cache_bandwidth_avg = 5.0;  // tight: batching should pay off
  auto unbatched = RunExperiment(config);
  ASSERT_TRUE(unbatched.ok());
  config.max_batch = 4;
  config.max_batch_delay = 5.0;
  auto batched = RunExperiment(config);
  ASSERT_TRUE(batched.ok());
  // More object refreshes land at the cache per unit of bandwidth.
  EXPECT_GT(batched->scheduler.refreshes_delivered,
            unbatched->scheduler.refreshes_delivered);
  // And under this contention the amortization beats the added delay.
  EXPECT_LT(batched->per_object_weighted, unbatched->per_object_weighted);
}

TEST(LossSystemTest, GracefulDegradation) {
  ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  auto lossless = RunExperiment(config);
  ASSERT_TRUE(lossless.ok());
  config.loss_rate = 0.2;
  auto lossy = RunExperiment(config);
  ASSERT_TRUE(lossy.ok());
  // Losing 20% of refreshes hurts, but the protocol keeps functioning and
  // divergence stays bounded (re-refresh on subsequent updates).
  EXPECT_GT(lossy->per_object_weighted, lossless->per_object_weighted);
  EXPECT_LT(lossy->per_object_weighted, lossless->per_object_weighted * 4.0);
}

}  // namespace
}  // namespace besync
