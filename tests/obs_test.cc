// Observability-layer tests: compiled-in-but-disabled obs reproduces the
// seed goldens exactly, enabling it never changes run results, the exported
// time-series/trace bytes are identical across repeat runs, the fixed-budget
// downsampler is deterministic, and recorded message lifecycles are
// complete and monotone (enqueue <= send <= apply on matching identities;
// every resync episode opens and closes).

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace besync {
namespace {

/// The GoldenTest.CooperativeTrigger configuration (tests/golden_test.cc):
/// the seed-era single-cache constants observability must not disturb.
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

/// Multi-cache tree configuration with reads and a pinned crash/restart:
/// exercises every trace-producing subsystem (relays, pulls, faults,
/// resync) in one short run.
ExperimentConfig FaultTreeConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 12;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.workload.relay_tiers = 1;
  config.workload.relay_fanout = 2;
  config.workload.read.read_rate = 1.0;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.crash_duration = 15.0;
  config.workload.fault.window_start = 60.0;
  config.workload.fault.window_end = 0.0;  // fire exactly at 60
  return config;
}

ObsConfig FullObs() {
  ObsConfig obs;
  obs.enabled = true;
  obs.trace = true;
  return obs;
}

/// The deterministic result surface two runs are compared on.
struct ResultKey {
  double divergence;
  int64_t refreshes_sent;
  int64_t refreshes_delivered;
  int64_t feedback;
  int64_t reads;
  int64_t pulls;
  int64_t crashes;
  int64_t resyncs;

  static ResultKey Of(const RunResult& result) {
    const SchedulerStats& s = result.scheduler;
    return {result.total_weighted_divergence, s.refreshes_sent,
            s.refreshes_delivered, s.feedback_sent,  s.reads_total,
            s.pulls_delivered,     s.cache_crashes,  s.resync_deliveries};
  }

  bool operator==(const ResultKey& other) const {
    return divergence == other.divergence &&
           refreshes_sent == other.refreshes_sent &&
           refreshes_delivered == other.refreshes_delivered &&
           feedback == other.feedback && reads == other.reads &&
           pulls == other.pulls && crashes == other.crashes &&
           resyncs == other.resyncs;
  }
};

std::string TimeSeriesBytes(const RunResult& result) {
  std::ostringstream out;
  WriteTimeSeriesJson(out, {{"job", result.obs.get()}});
  return out.str();
}

std::string TraceBytes(const RunResult& result) {
  std::ostringstream out;
  WriteTraceJson(out, {{"job", result.obs.get()}});
  return out.str();
}

// ------------------------------------------------------ bitwise inertness

TEST(ObsInertnessTest, DisabledObsKeepsSeedGoldens) {
  const auto result = RunExperiment(GoldenConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weighted_divergence, kGoldenDivergence);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result->obs, nullptr);  // no collector allocated when disabled
}

TEST(ObsInertnessTest, EnabledObsKeepsSeedGoldens) {
  ExperimentConfig config = GoldenConfig();
  config.obs = FullObs();
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weighted_divergence, kGoldenDivergence);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  ASSERT_NE(result->obs, nullptr);
  EXPECT_FALSE(result->obs->series.rows().empty());
  EXPECT_FALSE(result->obs->trace.empty());
}

TEST(ObsInertnessTest, EnabledObsIsResultInertOnFaultTreeWithReads) {
  ExperimentConfig off = FaultTreeConfig();
  const auto baseline = RunExperiment(off);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->scheduler.cache_crashes, 0);  // the fault really fired
  ASSERT_GT(baseline->scheduler.reads_total, 0);

  ExperimentConfig on = FaultTreeConfig();
  on.obs = FullObs();
  const auto result = RunExperiment(on);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ResultKey::Of(*result) == ResultKey::Of(*baseline))
      << "observability perturbed the run";
}

TEST(ObsInertnessTest, ObsOnBaselineSchedulerIsInvalidArgument) {
  ExperimentConfig config = GoldenConfig();
  config.scheduler = SchedulerKind::kRoundRobin;
  config.obs.enabled = true;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

// -------------------------------------------- byte-stability of the export

TEST(ObsExportTest, BytesIdenticalAcrossRepeatRuns) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto first = RunExperiment(config);
  const auto second = RunExperiment(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_NE(first->obs, nullptr);
  ASSERT_NE(second->obs, nullptr);
  const std::string trace_bytes = TraceBytes(*first);
  EXPECT_FALSE(trace_bytes.empty());
  EXPECT_EQ(TimeSeriesBytes(*second), TimeSeriesBytes(*first));
  EXPECT_EQ(TraceBytes(*second), trace_bytes);
}

TEST(ObsExportTest, TraceFilterSelectsSubset) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto all = RunExperiment(config);
  ASSERT_TRUE(all.ok());

  config.obs.trace_caches = {1};
  config.obs.trace_start = 40.0;
  config.obs.trace_end = 120.0;
  const auto filtered = RunExperiment(config);
  ASSERT_TRUE(filtered.ok());
  ASSERT_NE(filtered->obs, nullptr);
  EXPECT_LT(filtered->obs->trace.size(), all->obs->trace.size());
  EXPECT_FALSE(filtered->obs->trace.empty());
  for (const TraceEvent& event : filtered->obs->trace) {
    if (event.cache >= 0) EXPECT_EQ(event.cache, 1);
    EXPECT_GE(event.t, 40.0);
    EXPECT_LE(event.t, 120.0);
  }
  // Filtering must not perturb the run itself.
  EXPECT_EQ(filtered->total_weighted_divergence, all->total_weighted_divergence);
}

// ------------------------------------------------------------ downsampler

TEST(ObsTimeSeriesTest, DecimationIsDeterministicAndKeepsNewest) {
  TimeSeries series;
  series.Configure({"a"}, 1.0, 64);
  double last_sampled = -1.0;
  for (int t = 0; t < 5000; ++t) {
    if (!series.Due(static_cast<double>(t))) continue;
    series.Append(static_cast<double>(t), {static_cast<double>(t) * 2.0});
    last_sampled = static_cast<double>(t);
  }
  ASSERT_FALSE(series.rows().empty());
  EXPECT_LE(series.rows().size(), 64u);
  // The newest retained row is the newest appended row (no tail truncation).
  EXPECT_EQ(series.rows().back().t, last_sampled);
  // The grid coarsened by doubling: effective interval is a power of two.
  const double ratio = series.effective_interval() / series.sample_interval();
  EXPECT_GE(ratio, 1.0);
  EXPECT_EQ(ratio, static_cast<double>(static_cast<int64_t>(ratio)));
  EXPECT_GT(series.samples_dropped(), 0);

  // A second identical feed retains bitwise-identical rows.
  TimeSeries replay;
  replay.Configure({"a"}, 1.0, 64);
  for (int t = 0; t < 5000; ++t) {
    if (!replay.Due(static_cast<double>(t))) continue;
    replay.Append(static_cast<double>(t), {static_cast<double>(t) * 2.0});
  }
  ASSERT_EQ(replay.rows().size(), series.rows().size());
  for (size_t i = 0; i < series.rows().size(); ++i) {
    EXPECT_EQ(replay.rows()[i].t, series.rows()[i].t);
    EXPECT_EQ(replay.rows()[i].values, series.rows()[i].values);
  }
}

TEST(ObsTimeSeriesTest, UnboundedBudgetRetainsEverySample) {
  TimeSeries series;
  series.Configure({"a"}, 1.0, 0);  // <= 1 disables the budget
  for (int t = 0; t < 1000; ++t) {
    if (series.Due(static_cast<double>(t))) {
      series.Append(static_cast<double>(t), {0.0});
    }
  }
  EXPECT_EQ(series.rows().size(), 1000u);
  EXPECT_EQ(series.samples_dropped(), 0);
}

// ------------------------------------------------- lifecycle completeness

using LifecycleKey = std::tuple<int32_t, int64_t, int64_t>;  // cache, obj, ver

TEST(ObsLifecycleTest, AppliedRefreshesHaveMonotoneLifecycles) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<TraceEvent>& trace = result->obs->trace;

  std::map<LifecycleKey, double> first_enqueue;
  std::map<LifecycleKey, double> first_send;
  for (const TraceEvent& event : trace) {
    if (event.object < 0 || event.is_pull) continue;
    const LifecycleKey key{event.cache, event.object, event.version};
    if (event.kind == TraceEventKind::kEnqueue) {
      auto it = first_enqueue.find(key);
      if (it == first_enqueue.end() || event.t < it->second) {
        first_enqueue[key] = event.t;
      }
    } else if (event.kind == TraceEventKind::kSend) {
      auto it = first_send.find(key);
      if (it == first_send.end() || event.t < it->second) {
        first_send[key] = event.t;
      }
    }
  }

  int64_t applies = 0;
  int64_t applies_with_send = 0;
  int64_t sends_with_enqueue = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind != TraceEventKind::kApply || event.is_pull) continue;
    ++applies;
    const LifecycleKey key{event.cache, event.object, event.version};
    const auto send = first_send.find(key);
    // The send may predate the trace window or a filter; when recorded it
    // must not postdate the apply.
    if (send == first_send.end()) continue;
    ++applies_with_send;
    EXPECT_LE(send->second, event.t) << "send after apply for object "
                                     << event.object << " v" << event.version;
    const auto enqueue = first_enqueue.find(key);
    if (enqueue != first_enqueue.end()) {
      ++sends_with_enqueue;
      EXPECT_LE(enqueue->second, send->second)
          << "enqueue after send for object " << event.object;
    }
  }
  // Non-vacuity: the run must actually exercise the chain at volume.
  EXPECT_GT(applies, 100);
  EXPECT_GT(applies_with_send, 100);
  EXPECT_GT(sends_with_enqueue, 100);

  // Relay hops: every forward names a store wait >= 0 (value is the wait).
  int64_t forwards = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind != TraceEventKind::kRelayForward) continue;
    ++forwards;
    EXPECT_GE(event.value, 0.0);
  }
  EXPECT_GT(forwards, 0);
}

TEST(ObsLifecycleTest, ResyncEpisodesOpenAndClose) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<const TraceEvent*> starts;
  std::vector<const TraceEvent*> dones;
  int64_t faults = 0;
  for (const TraceEvent& event : result->obs->trace) {
    if (event.kind == TraceEventKind::kFault) ++faults;
    if (event.kind == TraceEventKind::kResyncStart) starts.push_back(&event);
    if (event.kind == TraceEventKind::kResyncDone) dones.push_back(&event);
  }
  ASSERT_GT(faults, 0);  // crash + restart markers
  ASSERT_FALSE(starts.empty());
  ASSERT_EQ(starts.size(), dones.size());  // every episode completed
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i]->cache, dones[i]->cache);
    EXPECT_GE(dones[i]->t, starts[i]->t);
    // resync_done.value records the episode duration.
    EXPECT_EQ(dones[i]->value, dones[i]->t - starts[i]->t);
  }
}

}  // namespace
}  // namespace besync
