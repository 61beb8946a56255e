#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cache.h"
#include "core/harness.h"
#include "core/system.h"
#include "data/update_process.h"
#include "data/weight.h"
#include "divergence/metric.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "util/random.h"

namespace besync {
namespace {

// -------------------------------------------------------------- CacheAgent

TEST(CacheAgentTest, UnknownThresholdsSelectedFirst) {
  CacheAgent cache(3);
  Message message;
  message.kind = MessageKind::kRefresh;
  message.source_index = 0;
  message.piggyback_threshold = 5.0;
  cache.RecordRefresh(message, 1.0);
  // Sources 1 and 2 are unknown (+inf) -> they outrank source 0.
  auto targets = cache.SelectFeedbackTargets(2, 2.0);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_TRUE((targets[0] == 1 && targets[1] == 2) ||
              (targets[0] == 2 && targets[1] == 1));
}

TEST(CacheAgentTest, HighestThresholdFirst) {
  CacheAgent cache(3);
  for (int j = 0; j < 3; ++j) {
    Message message;
    message.source_index = j;
    message.piggyback_threshold = 1.0 + j;
    cache.RecordRefresh(message, 1.0);
  }
  auto targets = cache.SelectFeedbackTargets(1, 2.0);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 2);  // threshold 3.0 is the highest
}

TEST(CacheAgentTest, TiesGoToLeastRecentlyFed) {
  CacheAgent cache(2);
  for (int j = 0; j < 2; ++j) {
    Message message;
    message.source_index = j;
    message.piggyback_threshold = 7.0;
    cache.RecordRefresh(message, 1.0);
  }
  auto first = cache.SelectFeedbackTargets(1, 2.0);
  auto second = cache.SelectFeedbackTargets(1, 3.0);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(first[0], second[0]);  // alternates under equal thresholds
}

TEST(CacheAgentTest, LimitRespectsSourceCount) {
  CacheAgent cache(3);
  const std::vector<int> capped = cache.SelectFeedbackTargets(100, 1.0);
  const std::vector<int> none = cache.SelectFeedbackTargets(0, 1.0);
  EXPECT_EQ(capped.size(), 3u);
  EXPECT_EQ(none.size(), 0u);
  // The scheduler counts one feedback message per returned target.
  EXPECT_EQ(capped.size() + none.size(), 3u);
}

// ------------------------------------------------------- Cooperative system

// Shared fixture utilities: small deterministic workloads.
WorkloadConfig SmallWorkload(int sources, int per_source, uint64_t seed = 42) {
  WorkloadConfig config;
  config.num_sources = sources;
  config.objects_per_source = per_source;
  config.rate_lo = 0.05;
  config.rate_hi = 0.5;
  config.seed = seed;
  return config;
}

HarnessConfig ShortRun(double warmup = 50.0, double measure = 300.0) {
  HarnessConfig config;
  config.warmup = warmup;
  config.measure = measure;
  return config;
}

TEST(CooperativeSystemTest, AmpleBandwidthGivesNearZeroDivergence) {
  // 20 objects updating ~0.3/s => ~6 updates/s total; bandwidth 100/s.
  Workload workload = std::move(MakeWorkload(SmallWorkload(2, 10))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 100.0;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // Divergence can never be identically zero (updates land mid-tick), but
  // it must be small: each object is stale for at most ~1 tick per update.
  EXPECT_LT(result->per_object_weighted, 0.5);
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
}

TEST(CooperativeSystemTest, ScarceBandwidthDoesNotFlood) {
  // Heavy overload: ~50 updates/s offered, 5/s of cache bandwidth.
  WorkloadConfig wl = SmallWorkload(10, 10);
  wl.rate_lo = 0.3;
  wl.rate_hi = 0.7;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 5.0;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // The positive-feedback design keeps the cache queue bounded: the paper's
  // key stability property. Allow slack, but far below the ~5000 messages
  // an uncontrolled sender population would pile up.
  EXPECT_LT(result->scheduler.max_cache_queue, 200);
  // Bandwidth should be well-used despite the conservative thresholds.
  EXPECT_GT(result->scheduler.cache_utilization, 0.5);
}

TEST(CooperativeSystemTest, UtilizationFillsWithFeedback) {
  // Moderate load: the adaptive thresholds should discover spare bandwidth
  // via positive feedback and keep utilization reasonably high.
  WorkloadConfig wl = SmallWorkload(5, 10);
  wl.rate_lo = 0.2;
  wl.rate_hi = 1.0;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 15.0;  // about half the update volume
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.cache_utilization, 0.6);
  EXPECT_GT(result->scheduler.feedback_sent, 0);
}

TEST(CooperativeSystemTest, SourceBandwidthLimitsRespected) {
  WorkloadConfig wl = SmallWorkload(4, 25);
  wl.rate_lo = 0.5;
  wl.rate_hi = 1.0;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 1000.0;  // cache is not the bottleneck
  config.source_bandwidth_avg = 2.0;    // each source capped at 2 msg/s
  CooperativeScheduler scheduler(config);
  HarnessConfig harness = ShortRun();
  auto result = RunScheduler(&workload, metric.get(), harness, &scheduler);
  ASSERT_TRUE(result.ok());
  // 4 sources x 2 msg/s x 300 s measurement = at most ~2400 refreshes.
  EXPECT_LE(result->scheduler.refreshes_sent, 2500);
}

TEST(CooperativeSystemTest, HigherBandwidthNeverHurts) {
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  double previous = 1e18;
  for (double bandwidth : {2.0, 10.0, 50.0}) {
    Workload workload = std::move(MakeWorkload(SmallWorkload(4, 10))).ValueOrDie();
    CooperativeConfig config;
    config.cache_bandwidth_avg = bandwidth;
    CooperativeScheduler scheduler(config);
    auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->per_object_weighted, previous * 1.1);
    previous = result->per_object_weighted;
  }
}

TEST(CooperativeSystemTest, SamplingModeWorks) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(2, 10))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 20.0;
  config.source.monitor = MonitorMode::kSampling;
  config.source.sampling_interval = 5.0;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
  EXPECT_LT(result->per_object_weighted, 5.0);
}

TEST(CooperativeSystemTest, PredictiveSamplingWorks) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(2, 10))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 20.0;
  config.source.monitor = MonitorMode::kSampling;
  config.source.sampling_interval = 10.0;
  config.source.predictive_sampling = true;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
}

TEST(CooperativeSystemTest, BoundPolicyRuns) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(2, 10))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 10.0;
  config.policy = PolicyKind::kBound;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // Bound-based refreshing is update-oblivious but must still refresh.
  EXPECT_GT(result->scheduler.refreshes_delivered, 100);
}

TEST(CooperativeSystemTest, FluctuatingEverythingStaysStable) {
  WorkloadConfig wl = SmallWorkload(5, 20);
  wl.weight_fluctuation_amplitude = 0.5;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kLag);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 10.0;
  config.source_bandwidth_avg = 5.0;
  config.bandwidth_change_rate = 0.25;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->scheduler.max_cache_queue, 500);
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
}

TEST(CooperativeSystemTest, MeanThresholdPositive) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(3, 10))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 10.0;
  CooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.mean_threshold, 0.0);
}

TEST(HarnessTest, RunTwiceFails) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(1, 2))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  HarnessConfig config;
  config.warmup = 0.0;
  config.measure = 10.0;
  Harness harness(&workload, metric.get(), config);
  CooperativeConfig coop;
  CooperativeScheduler scheduler(coop);
  ASSERT_TRUE(harness.Run(&scheduler).ok());
  CooperativeScheduler scheduler2(coop);
  EXPECT_TRUE(harness.Run(&scheduler2).IsFailedPrecondition());
}

/// A bad run length reaches direct RunScheduler callers as an
/// InvalidArgument naming the field: not a CHECK abort in the Harness
/// constructor (zero tick, NaN window), nor a run that never ends (an
/// infinite warm-up).
TEST(HarnessTest, RunSchedulerRejectsBadRunLengths) {
  Workload workload = std::move(MakeWorkload(SmallWorkload(1, 2))).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  struct Case {
    const char* field;
    HarnessConfig config;
  };
  std::vector<Case> cases(3, Case{"", ShortRun(1.0, 5.0)});
  cases[0].field = "tick_length";
  cases[0].config.tick_length = 0.0;
  cases[1].field = "measure";
  cases[1].config.measure = std::nan("");
  cases[2].field = "warmup";
  cases[2].config.warmup = std::numeric_limits<double>::infinity();
  for (const Case& c : cases) {
    EXPECT_FALSE(ValidateHarnessConfig(c.config).ok()) << c.field;
    CooperativeScheduler scheduler(CooperativeConfig{});
    const auto result = RunScheduler(&workload, metric.get(), c.config, &scheduler);
    ASSERT_FALSE(result.ok()) << c.field;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
    EXPECT_NE(result.status().message().find(c.field), std::string::npos)
        << result.status().ToString();
  }
  EXPECT_TRUE(ValidateHarnessConfig(ShortRun(1.0, 5.0)).ok());
}

TEST(HarnessTest, UpdateStreamsIdenticalAcrossSchedulers) {
  // The per-object RNG seeds make update streams independent of scheduler
  // decisions: final versions must match exactly across two different
  // schedulers on regenerated workloads.
  auto metric = MakeMetric(MetricKind::kStaleness);
  HarnessConfig config;
  config.warmup = 0.0;
  config.measure = 100.0;

  std::vector<int64_t> versions_a;
  {
    Workload workload = std::move(MakeWorkload(SmallWorkload(2, 5))).ValueOrDie();
    Harness harness(&workload, metric.get(), config);
    CooperativeConfig coop;
    coop.cache_bandwidth_avg = 3.0;
    CooperativeScheduler scheduler(coop);
    ASSERT_TRUE(harness.Run(&scheduler).ok());
    for (auto& object : harness.objects()) versions_a.push_back(object.state.version);
  }
  std::vector<int64_t> versions_b;
  {
    Workload workload = std::move(MakeWorkload(SmallWorkload(2, 5))).ValueOrDie();
    Harness harness(&workload, metric.get(), config);
    IdealConfig ideal;
    ideal.cache_bandwidth_avg = 100.0;
    IdealCooperativeScheduler scheduler(ideal);
    ASSERT_TRUE(harness.Run(&scheduler).ok());
    for (auto& object : harness.objects()) versions_b.push_back(object.state.version);
  }
  EXPECT_EQ(versions_a, versions_b);
}

// ------------------------------- update stream of the hot object record

/// Counts OnObjectUpdate notifications per object; schedules nothing.
class UpdateCountingScheduler : public Scheduler {
 public:
  std::string name() const override { return "update-counter"; }
  void Initialize(Harness* harness) override {
    counts_.assign(harness->objects().size(), 0);
  }
  void OnObjectUpdate(ObjectIndex index, double) override { ++counts_[index]; }
  void Tick(double) override {}

  std::vector<int64_t> counts_;
};

/// A Poisson random walk whose updates move twice as far: same type family
/// as the inline fast path, so it must still take the virtual call.
class DoubleStepWalk : public PoissonRandomWalkProcess {
 public:
  using PoissonRandomWalkProcess::PoissonRandomWalkProcess;
  double ApplyUpdate(double current_value, Rng* rng) override {
    return current_value + 2.0 * (PoissonRandomWalkProcess::ApplyUpdate(0.0, rng));
  }
  std::unique_ptr<UpdateProcess> Clone() const override {
    return std::make_unique<DoubleStepWalk>(rate(), step());
  }
};

TEST(HarnessTest, UpdateStreamMatchesDirectProcessLoopForEveryProcessKind) {
  // Poisson objects take the inline path of the hot record; everything
  // else (and the Poisson subclass) takes the virtual call. Both must give
  // exactly the stream a plain loop over spec.process with a fresh
  // Rng(spec.rng_seed) gives.
  Workload workload = std::move(MakeWorkload(SmallWorkload(3, 8, 5))).ValueOrDie();
  std::vector<TracePoint> trace;
  for (int k = 1; k <= 40; ++k) trace.push_back({3.5 * k, std::sin(0.3 * k)});
  for (ObjectSpec& spec : workload.objects) {
    const double lambda = spec.lambda;
    switch (spec.index % 7) {
      case 0: spec.process = std::make_unique<PoissonRandomWalkProcess>(lambda, 0.75); break;
      case 1: spec.process = std::make_unique<BernoulliRandomWalkProcess>(lambda); break;
      case 2:
        spec.process = std::make_unique<RegimeSwitchingProcess>(lambda, 4 * lambda, 30.0);
        break;
      case 3: spec.process = std::make_unique<DriftProcess>(lambda, 0.5); break;
      case 4: spec.process = std::make_unique<TraceProcess>(trace); break;
      case 5: spec.process = std::make_unique<DoubleStepWalk>(lambda); break;
      default: spec.process = std::make_unique<PoissonRandomWalkProcess>(0.0); break;
    }
    spec.lambda = spec.process->rate();
  }
  // Fresh copies for the reference loop: the harness advances the
  // originals' cursors.
  std::vector<std::unique_ptr<UpdateProcess>> reference;
  for (const ObjectSpec& spec : workload.objects) {
    reference.push_back(spec.process->Clone());
  }

  auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig config;
  config.warmup = 10.0;
  config.measure = 120.0;
  Harness harness(&workload, metric.get(), config);
  UpdateCountingScheduler scheduler;
  ASSERT_TRUE(harness.Run(&scheduler).ok());

  const double end = harness.end_time();
  int64_t total_updates = 0;
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    const ObjectSpec& spec = workload.objects[i];
    UpdateProcess& process = *reference[i];
    process.Reset();
    Rng rng(spec.rng_seed);
    ObjectState expected;
    expected.value = spec.initial_value;
    int64_t updates = 0;
    double t = process.NextUpdateTime(0.0, &rng);
    while (std::isfinite(t) && t <= end) {
      expected.value = process.ApplyUpdate(expected.value, &rng);
      ++expected.version;
      expected.last_update_time = t;
      ++updates;
      t = process.NextUpdateTime(t, &rng);
    }
    const ObjectState& actual = harness.object(static_cast<ObjectIndex>(i)).state;
    EXPECT_EQ(actual.value, expected.value) << "object " << i;
    EXPECT_EQ(actual.version, expected.version) << "object " << i;
    EXPECT_EQ(actual.last_update_time, expected.last_update_time) << "object " << i;
    EXPECT_EQ(scheduler.counts_[i], updates) << "object " << i;
    total_updates += updates;
  }
  EXPECT_GT(total_updates, 100);
}

TEST(HarnessTest, WeightAtMatchesSpecWeightForConstantAndFluctuatingWeights) {
  WorkloadConfig config = SmallWorkload(2, 6, 9);
  config.weight_fluctuation_amplitude = 0.6;
  Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  ASSERT_TRUE(workload.has_fluctuating_weights);
  // Mix in the other weight shapes: constant (the inline path) and a
  // product of a constant and a sine (the virtual call).
  for (ObjectSpec& spec : workload.objects) {
    if (spec.index % 3 == 0) spec.weight = MakeConstantWeight(1.5 + spec.index);
    if (spec.index % 3 == 1) {
      spec.weight = std::make_unique<ProductWeight>(
          MakeConstantWeight(2.0), std::make_unique<SineFluctuation>(1.0, 0.5, 30.0, 0.1));
    }
  }
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  Harness harness(&workload, metric.get(), HarnessConfig{});
  for (double t : {0.0, 0.37, 5.0, 17.25, 100.0, 999.5}) {
    for (size_t i = 0; i < workload.objects.size(); ++i) {
      EXPECT_EQ(harness.WeightAt(static_cast<ObjectIndex>(i), t),
                workload.objects[i].weight->ValueAt(t))
          << "object " << i << " t " << t;
    }
  }
}

// ------------------------------------ batched-payload delivery (Harness)

/// Injects one hand-built batched refresh (primary object 0, piggybacked
/// payloads for objects 1 and 2) at t >= 5, then one message carrying a
/// *stale* payload for object 1, and records what was shipped.
class PayloadInjectingScheduler : public Scheduler {
 public:
  std::string name() const override { return "payload-injector"; }
  void Initialize(Harness* harness) override { harness_ = harness; }
  void OnObjectUpdate(ObjectIndex, double) override {}

  void Tick(double t) override {
    if (injected_ || t < 5.0) return;
    injected_ = true;
    Message message = harness_->MakeRefreshMessage(0, t);
    for (ObjectIndex index : {ObjectIndex{1}, ObjectIndex{2}}) {
      const Message part = harness_->MakeRefreshMessage(index, t);
      message.extra_refreshes.push_back(
          RefreshPayload{part.object_index, part.value, part.version, part.replica});
    }
    delivered_values_ = {message.value, message.extra_refreshes[0].value,
                         message.extra_refreshes[1].value};
    delivered_versions_ = {message.version, message.extra_refreshes[0].version,
                           message.extra_refreshes[1].version};
    harness_->DeliverRefresh(message, t);

    // A second batched message whose payload for object 1 is stale
    // (version 0 predates the delivery above): it must not regress the
    // replica even though it rides a fresh primary.
    Message stale = harness_->MakeRefreshMessage(0, t);
    stale.extra_refreshes.push_back(
        RefreshPayload{1, /*value=*/1e9, /*version=*/0, /*replica=*/0});
    harness_->DeliverRefresh(stale, t);
  }

  Harness* harness_ = nullptr;
  bool injected_ = false;
  std::vector<double> delivered_values_;
  std::vector<int64_t> delivered_versions_;
};

TEST(HarnessTest, ExtraRefreshPayloadsReachEveryGroundTruthReplica) {
  WorkloadConfig wl = SmallWorkload(1, 4, 11);
  wl.rate_lo = 0.2;
  wl.rate_hi = 0.5;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig config;
  config.warmup = 0.0;
  config.measure = 20.0;
  Harness harness(&workload, metric.get(), config);
  // A second observer must see the piggybacked applies too.
  GroundTruth second_view(&workload, metric.get());
  harness.AddGroundTruth(&second_view);
  PayloadInjectingScheduler scheduler;
  ASSERT_TRUE(harness.Run(&scheduler).ok());
  ASSERT_TRUE(scheduler.injected_);
  ASSERT_EQ(scheduler.delivered_versions_.size(), 3u);

  for (GroundTruth* view : {&harness.ground_truth(), &second_view}) {
    // Objects 0..2 hold exactly the batched payloads (nothing else was
    // ever delivered; the stale follow-up must not have regressed 1).
    for (ObjectIndex i : {ObjectIndex{0}, ObjectIndex{1}, ObjectIndex{2}}) {
      EXPECT_EQ(view->cached_version(i), scheduler.delivered_versions_[i]) << i;
      EXPECT_EQ(view->cached_value(i), scheduler.delivered_values_[i]) << i;
    }
    // Object 3 was never refreshed.
    EXPECT_EQ(view->cached_version(3), 0);
  }
  // MakeRefreshMessage reset the source-side trackers for all three
  // batched objects — they model the cache as holding the shipped version.
  for (ObjectIndex i : {ObjectIndex{0}, ObjectIndex{1}, ObjectIndex{2}}) {
    EXPECT_GE(harness.object(i).tracker().last_refresh_time(), 5.0) << i;
  }
  EXPECT_LT(harness.object(3).tracker().last_refresh_time(), 0.5);
}

// ------------------------------------------------ update lookahead hook

/// One run's fired updates and update-prefetch announcements, in call order.
struct UpdateLookaheadLog {
  struct Entry {
    bool fired;  // false: an announcement
    ObjectIndex index;
    bool fires_next;
  };
  std::vector<Entry> entries;
};

void RecordUpdatePrefetch(void* log, ObjectIndex index, bool fires_next) {
  static_cast<UpdateLookaheadLog*>(log)->entries.push_back({false, index, fires_next});
}

/// Forwards every call to a CooperativeScheduler, then replaces the update
/// prefetcher it installed: with a recorder when `log` is non-null, else
/// with none.
class PrefetchSwapScheduler : public Scheduler {
 public:
  PrefetchSwapScheduler(const CooperativeConfig& config, UpdateLookaheadLog* log)
      : inner_(config), log_(log) {}
  std::string name() const override { return inner_.name(); }
  Status Validate(const Workload& workload) const override {
    return inner_.Validate(workload);
  }
  void Initialize(Harness* harness) override {
    inner_.Initialize(harness);
    harness->SetUpdatePrefetcher(log_ != nullptr ? &RecordUpdatePrefetch : nullptr, log_);
  }
  void OnObjectUpdate(ObjectIndex index, double t) override {
    if (log_ != nullptr) log_->entries.push_back({true, index, false});
    inner_.OnObjectUpdate(index, t);
  }
  void Tick(double t) override { inner_.Tick(t); }
  void OnMeasurementStart(double t) override { inner_.OnMeasurementStart(t); }
  void Finalize(double t) override { inner_.Finalize(t); }
  SchedulerStats stats() const override { return inner_.stats(); }

 private:
  CooperativeScheduler inner_;
  UpdateLookaheadLog* log_;
};

/// The run's result as the runner's JSON row.
std::string ResultBytes(const Workload& workload, Scheduler* scheduler) {
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(5.0, 40.0), scheduler);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<JobResult> rows(1);
  rows[0].name = "lookahead";
  rows[0].result = std::move(result).ValueOrDie();
  std::ostringstream json;
  WriteResultsJson(json, rows);
  return json.str();
}

TEST(HarnessTest, UpdatePrefetcherNeverChangesTheRunAndNamesTheNextUpdate) {
  // Overlapping interest over several caches, so sources walk several
  // channels and objects hold one to a few replicas.
  WorkloadConfig wl = SmallWorkload(6, 40, 11);
  wl.num_caches = 4;
  wl.interest_pattern = InterestPattern::kZipfOverlap;
  wl.rate_lo = 0.5;
  wl.rate_hi = 2.0;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  CooperativeConfig coop;
  coop.num_caches = 4;
  coop.cache_bandwidth_avg = 5.0;

  CooperativeScheduler own(coop);  // installs its own update prefetcher
  UpdateLookaheadLog log;
  PrefetchSwapScheduler recording(coop, &log);
  PrefetchSwapScheduler none(coop, nullptr);
  const std::string own_bytes = ResultBytes(workload, &own);
  EXPECT_EQ(ResultBytes(workload, &recording), own_bytes);
  EXPECT_EQ(ResultBytes(workload, &none), own_bytes);

  // Every fires_next announcement made while update k is about to fire
  // names update k + 1, unless update k's handler scheduled its own object's
  // next update ahead of the announced one, or k was the run's last.
  std::vector<ObjectIndex> fired;
  std::vector<std::vector<ObjectIndex>> announced_next;  // per fired update
  std::vector<ObjectIndex> pending;
  int64_t candidates = 0;
  for (const UpdateLookaheadLog::Entry& entry : log.entries) {
    if (entry.fired) {
      fired.push_back(entry.index);
      announced_next.push_back(pending);
      pending.clear();
    } else if (entry.fires_next) {
      pending.push_back(entry.index);
    } else {
      ++candidates;
    }
  }
  int64_t named = 0;
  int64_t overtaken = 0;
  for (size_t k = 0; k < fired.size(); ++k) {
    ASSERT_LE(announced_next[k].size(), 1u) << "update " << k;
    if (announced_next[k].empty() || k + 1 == fired.size()) continue;
    if (announced_next[k][0] == fired[k + 1]) {
      ++named;
    } else {
      EXPECT_EQ(fired[k + 1], fired[k]) << "update " << k;
      ++overtaken;
    }
  }
  EXPECT_GT(fired.size(), 10000u);
  EXPECT_GT(named, 1000);
  EXPECT_GT(candidates, 1000);
  EXPECT_LT(overtaken, named / 100);
}

// ------------------------------------- priority-heap growth bound

TEST(SourceAgentHeapTest, QueueMemoryProportionalToObjectsNotUpdates) {
  // Fast updaters against a starved cache link: almost every update only
  // piles a fresh entry onto the priority queue (the object rarely wins a
  // send slot). Without automatic compaction the heap would grow with the
  // update count (~hundreds of thousands here); MaybeCompact keeps it
  // within 4x the live object count.
  WorkloadConfig wl = SmallWorkload(2, 20, 7);
  wl.rate_lo = 2.0;
  wl.rate_hi = 5.0;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 0.0;
  harness_config.measure = 1500.0;
  Harness harness(&workload, metric.get(), harness_config);
  CooperativeConfig config;
  config.cache_bandwidth_avg = 1.0;
  CooperativeScheduler scheduler(config);
  ASSERT_TRUE(harness.Run(&scheduler).ok());

  int64_t total_updates = 0;
  for (const auto& object : harness.objects()) total_updates += object.state.version;

  int64_t total_bound = 0;
  for (int j = 0; j < scheduler.num_sources(); ++j) {
    const SourceAgent& source = scheduler.source(j);
    for (int k = 0; k < source.num_channels(); ++k) {
      // The compaction trigger: 4 x live objects + 64, +1 for the push
      // that can land just before compaction runs.
      const size_t bound = 4 * source.channel_num_objects(k) + 65;
      EXPECT_LE(source.queue_size(k), bound) << "source " << j << " channel " << k;
      total_bound += static_cast<int64_t>(bound);
    }
  }
  // The bound is meaningful only if the run really processed far more
  // updates than the heaps are allowed to hold.
  EXPECT_GT(total_updates, 50 * total_bound);
}

/// Arena bytes per replica once a full-replication relay tree is
/// initialized: the tracker (64), the ground-truth entry (32), the source's
/// local state (32) and the channel tables (an 8-byte member index and
/// 4-byte slot_of and replica slot: 16), plus the per-object records (128 +
/// 32 B) spread over 64 replicas: 146.5 B. At 232 B per replica a
/// 256-cache tree spent 58 MiB on this state; a field added to any
/// per-replica struct fails here rather than in a peak-RSS reading.
/// Sampling monitoring adds exactly one 64-byte estimate per replica.
TEST(FootprintTest, ReplicaStateBytesOnAFullReplicationTree) {
  WorkloadConfig wl = SmallWorkload(8, 8);
  wl.num_caches = 64;
  wl.interest_pattern = InterestPattern::kFullReplication;
  wl.relay_tiers = 2;
  wl.relay_fanout = 8;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  const double replicas = 8.0 * 8.0 * 64.0;

  const auto arena_bytes_per_replica = [&](MonitorMode monitor) {
    Harness harness(&workload, metric.get(), ShortRun());
    EXPECT_EQ(harness.ground_truth().total_replicas(), 8 * 8 * 64);
    CooperativeConfig config;
    config.source.monitor = monitor;
    CooperativeScheduler scheduler(config);
    scheduler.Initialize(&harness);
    return static_cast<double>(harness.arena()->bytes_used()) / replicas;
  };
  const double trigger = arena_bytes_per_replica(MonitorMode::kTrigger);
  EXPECT_LE(trigger, 150.0);
  EXPECT_GE(trigger, 140.0);  // the state above is really there
  EXPECT_DOUBLE_EQ(arena_bytes_per_replica(MonitorMode::kSampling) - trigger, 64.0);
}

}  // namespace
}  // namespace besync
