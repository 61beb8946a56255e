// Consistency-protocol layer tests (protocol/sync_protocol.h): the
// push-refresh extraction pin (protocol-dispatched engine reproduces the
// seed goldens bitwise), protocol-object unit semantics, invalidation end
// to end (flat, through relay trees, and across lossy links where a lost
// invalidate leaves a valid-but-stale replica), TTL/lease determinism and
// zero-source-traffic behavior, and thread-count-independent JSON for all
// three protocols.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/protocol_sweep.h"
#include "exp/runner.h"
#include "protocol/sync_protocol.h"

namespace besync {
namespace {

constexpr double kTolerance = 1e-9;

/// The GoldenTest.CooperativeTrigger configuration (tests/golden_test.cc):
/// the seed-era constants the protocol layer must not disturb when the
/// protocol is push refresh.
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

/// A small read-enabled multi-cache shape the non-push protocols run on.
ExperimentConfig ReadConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 12;
  config.workload.num_caches = 2;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.read.read_rate = 4.0;
  config.workload.seed = 29;
  config.harness.warmup = 20.0;
  config.harness.measure = 200.0;
  config.harness.seed = 11;
  config.cache_bandwidth_avg = 6.0;
  return config;
}

RunResult MustRun(const ExperimentConfig& config) {
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

// --------------------------------------------------- protocol unit layer

TEST(SyncProtocolTest, KindNamesRoundTrip) {
  EXPECT_EQ(SyncProtocolKindToString(SyncProtocolKind::kPushRefresh), "push-refresh");
  EXPECT_EQ(SyncProtocolKindToString(SyncProtocolKind::kInvalidation), "invalidation");
  EXPECT_EQ(SyncProtocolKindToString(SyncProtocolKind::kTtlLease), "ttl-lease");
}

TEST(SyncProtocolTest, PushRefreshIsAlwaysFresh) {
  SyncProtocolConfig config;
  const auto protocol = SyncProtocol::Make(config);
  EXPECT_TRUE(protocol->emits_push_refreshes());
  EXPECT_FALSE(protocol->emits_invalidations());
  EXPECT_FALSE(protocol->tracks_validity());
  ReplicaSyncState state;
  EXPECT_TRUE(protocol->ReplicaFresh(state, 0.0));
  EXPECT_TRUE(protocol->ReplicaFresh(state, 1e9));
}

TEST(SyncProtocolTest, InvalidationTogglesValidity) {
  SyncProtocolConfig config;
  config.kind = SyncProtocolKind::kInvalidation;
  const auto protocol = SyncProtocol::Make(config);
  EXPECT_FALSE(protocol->emits_push_refreshes());
  EXPECT_TRUE(protocol->emits_invalidations());
  EXPECT_TRUE(protocol->tracks_validity());
  ReplicaSyncState state;
  EXPECT_TRUE(protocol->ReplicaFresh(state, 5.0));
  protocol->OnInvalidate(&state, 5.0);
  EXPECT_FALSE(protocol->ReplicaFresh(state, 6.0));
  protocol->OnRefreshApplied(&state, 7.0);
  EXPECT_TRUE(protocol->ReplicaFresh(state, 8.0));
}

TEST(SyncProtocolTest, TtlLeaseExpires) {
  SyncProtocolConfig config;
  config.kind = SyncProtocolKind::kTtlLease;
  config.ttl = 10.0;
  const auto protocol = SyncProtocol::Make(config);
  EXPECT_FALSE(protocol->emits_push_refreshes());
  EXPECT_FALSE(protocol->emits_invalidations());
  EXPECT_TRUE(protocol->tracks_validity());
  // Warm-start replicas lease from time 0.
  EXPECT_EQ(protocol->initial_lease_expiry(), 10.0);
  ReplicaSyncState state;
  state.lease_expiry = protocol->initial_lease_expiry();
  EXPECT_TRUE(protocol->ReplicaFresh(state, 9.0));
  EXPECT_FALSE(protocol->ReplicaFresh(state, 10.0));  // expiry is exclusive
  protocol->OnRefreshApplied(&state, 12.0);
  EXPECT_EQ(state.lease_expiry, 22.0);
  EXPECT_TRUE(protocol->ReplicaFresh(state, 21.0));
  EXPECT_FALSE(protocol->ReplicaFresh(state, 23.0));
}

// ------------------------------------------------- push-refresh neutrality

TEST(ProtocolPinTest, PushRefreshReproducesSeedGolden) {
  // The protocol layer's dispatch must be invisible for push refresh: same
  // RNG stream, same message sequence, same accounting as the seed engine.
  ExperimentConfig config = GoldenConfig();
  config.protocol.kind = SyncProtocolKind::kPushRefresh;
  const RunResult result = MustRun(config);
  EXPECT_NEAR(result.total_weighted_divergence, kGoldenDivergence, kTolerance);
  EXPECT_EQ(result.scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result.scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result.scheduler.invalidations_sent, 0);
  EXPECT_EQ(result.scheduler.invalidations_received, 0);
}

TEST(ProtocolPinTest, PushRefreshJsonOmitsProtocolFields) {
  // Historical grids must keep their exact bytes: push-refresh rows carry
  // no protocol block, non-push rows do.
  std::vector<ExperimentJob> jobs(2);
  jobs[0].name = "push";
  jobs[0].config = ReadConfig();
  jobs[1].name = "inval";
  jobs[1].config = ReadConfig();
  jobs[1].config.protocol.kind = SyncProtocolKind::kInvalidation;
  const std::vector<JobResult> results = RunExperiments(jobs, RunnerOptions{});
  std::ostringstream json;
  WriteResultsJson(json, results);
  const std::string text = json.str();
  const size_t protocol_at = text.find("\"protocol\"");
  ASSERT_NE(protocol_at, std::string::npos);
  // Only one row carries the field, and it is the invalidation row.
  EXPECT_EQ(text.find("\"protocol\"", protocol_at + 1), std::string::npos);
  EXPECT_NE(text.find("\"protocol\": \"invalidation\""), std::string::npos);
  EXPECT_NE(text.find("\"invalidations_sent\""), std::string::npos);
}

// ------------------------------------------------------------ guard rails

TEST(ProtocolGuardTest, NonPushProtocolsRequireReads) {
  ExperimentConfig config = GoldenConfig();  // no reads
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
  config.protocol.kind = SyncProtocolKind::kTtlLease;
  const auto ttl_result = RunExperiment(config);
  EXPECT_FALSE(ttl_result.ok());
}

TEST(ProtocolGuardTest, NonPushProtocolsRejectBaselineSchedulers) {
  ExperimentConfig config = ReadConfig();
  config.workload.num_caches = 1;
  config.workload.interest_pattern = InterestPattern::kSingleCache;
  config.scheduler = SchedulerKind::kRoundRobin;
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  EXPECT_FALSE(RunExperiment(config).ok());
}

// ----------------------------------------------------------- invalidation

TEST(InvalidationTest, FlatEndToEnd) {
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  const RunResult result = MustRun(config);
  // The push machinery is fully off: every byte the sources emit is an
  // invalidate, every refill a read-triggered pull.
  EXPECT_EQ(result.scheduler.refreshes_sent, 0);
  EXPECT_EQ(result.scheduler.feedback_sent, 0);
  EXPECT_GT(result.scheduler.invalidations_sent, 0);
  EXPECT_GT(result.scheduler.invalidations_received, 0);
  EXPECT_GT(result.scheduler.reads_total, 0);
  EXPECT_GT(result.scheduler.read_misses, 0);
  EXPECT_GT(result.scheduler.pulls_delivered, 0);
  // Lossless links: sent and delivered match up to the messages in flight
  // across the measurement-window boundaries (the same slack the refresh
  // counters have — flat links deliver next tick, so the slack is tiny).
  EXPECT_NEAR(static_cast<double>(result.scheduler.invalidations_received),
              static_cast<double>(result.scheduler.invalidations_sent), 8.0);
}

TEST(InvalidationTest, DeterministicAcrossRepeatRuns) {
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  const RunResult first = MustRun(config);
  const RunResult second = MustRun(config);
  EXPECT_EQ(first.total_weighted_divergence, second.total_weighted_divergence);
  EXPECT_EQ(first.scheduler.invalidations_sent, second.scheduler.invalidations_sent);
  EXPECT_EQ(first.scheduler.read_staleness_p95, second.scheduler.read_staleness_p95);
}

TEST(InvalidationTest, BatchingReducesMessagesNotNotifications) {
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  config.protocol.max_invalidate_batch = 1;
  // Squeeze the source side so the queue actually builds up batches.
  config.source_bandwidth_avg = 2.0;
  const RunResult unbatched = MustRun(config);
  config.protocol.max_invalidate_batch = 8;
  const RunResult batched = MustRun(config);
  // Batching packs more per-object notifications into the same link budget.
  EXPECT_GE(batched.scheduler.invalidations_sent,
            unbatched.scheduler.invalidations_sent);
  EXPECT_GT(batched.scheduler.invalidations_sent, 0);
}

TEST(InvalidationTest, RelayTreeEndToEnd) {
  // Invalidates are plain messages to the relay layer: they traverse a
  // two-tier store-and-forward tree unchanged.
  ExperimentConfig config = ReadConfig();
  config.workload.num_sources = 8;
  config.workload.num_caches = 4;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  const RunResult result = MustRun(config);
  EXPECT_GT(result.scheduler.invalidations_received, 0);
  EXPECT_GT(result.scheduler.pulls_delivered, 0);
  EXPECT_GT(result.scheduler.relays_forwarded, 0);
}

TEST(InvalidationTest, LostInvalidateLeavesValidButStaleReplica) {
  // A lossy link drops some invalidates. The replica then *believes* it is
  // fresh — reads keep hitting it — so the loss shows up not in the miss
  // counters but in read-time staleness: the silent hazard the DESIGN note
  // documents.
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  const RunResult lossless = MustRun(config);
  config.loss_rate = 0.4;
  const RunResult lossy = MustRun(config);
  EXPECT_LT(lossy.scheduler.invalidations_received,
            lossy.scheduler.invalidations_sent);
  // Fewer invalidates arrive => fewer misses => fewer pulls refill, and
  // reads served from silently-stale replicas push the staleness tail up.
  EXPECT_GT(lossy.scheduler.read_staleness_p95,
            lossless.scheduler.read_staleness_p95);
}

// -------------------------------------------------------------- TTL/lease

TEST(TtlLeaseTest, ZeroSourceTrafficAndDeterministic) {
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kTtlLease;
  config.protocol.ttl = 25.0;
  const RunResult first = MustRun(config);
  // The source volunteers nothing: no pushes, no feedback, no invalidates.
  // All traffic is read-triggered pulls renewing expired leases.
  EXPECT_EQ(first.scheduler.refreshes_sent, 0);
  EXPECT_EQ(first.scheduler.feedback_sent, 0);
  EXPECT_EQ(first.scheduler.invalidations_sent, 0);
  EXPECT_EQ(first.scheduler.invalidations_received, 0);
  EXPECT_GT(first.scheduler.reads_total, 0);
  EXPECT_GT(first.scheduler.pulls_delivered, 0);
  const RunResult second = MustRun(config);
  EXPECT_EQ(first.total_weighted_divergence, second.total_weighted_divergence);
  EXPECT_EQ(first.scheduler.reads_total, second.scheduler.reads_total);
  EXPECT_EQ(first.scheduler.pulls_delivered, second.scheduler.pulls_delivered);
}

TEST(TtlLeaseTest, ConsumesNoGeneratorRandomness) {
  // The lease clock is the only protocol state: runs differing only in ttl
  // draw the exact same update and read streams, so the read counts match
  // and only the hit/miss split moves.
  ExperimentConfig config = ReadConfig();
  config.protocol.kind = SyncProtocolKind::kTtlLease;
  config.protocol.ttl = 10.0;
  const RunResult short_ttl = MustRun(config);
  config.protocol.ttl = 100.0;
  const RunResult long_ttl = MustRun(config);
  EXPECT_EQ(short_ttl.scheduler.reads_total, long_ttl.scheduler.reads_total);
  // A longer lease expires less: strictly fewer misses on this workload.
  EXPECT_LT(long_ttl.scheduler.read_misses, short_ttl.scheduler.read_misses);
}

// ------------------------------------------------------------ determinism

TEST(ProtocolThreadingTest, JsonIsRepeatable) {
  // All three protocols, serialized JSON byte-identical across two runs.
  for (const SyncProtocolKind kind :
       {SyncProtocolKind::kPushRefresh, SyncProtocolKind::kInvalidation,
        SyncProtocolKind::kTtlLease}) {
    std::vector<ExperimentJob> jobs(1);
    jobs[0].name = SyncProtocolKindToString(kind);
    jobs[0].config = ReadConfig();
    jobs[0].config.protocol.kind = kind;
    std::string runs[2];
    for (std::string& json_text : runs) {
      const std::vector<JobResult> results = RunExperiments(jobs, RunnerOptions{});
      ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
      std::ostringstream json;
      WriteResultsJson(json, results);
      json_text = json.str();
    }
    EXPECT_EQ(runs[1], runs[0]) << SyncProtocolKindToString(kind);
  }
}

TEST(ProtocolThreadingTest, SweepJsonIsGridThreadCountInvariant) {
  ProtocolSweepConfig sweep;
  sweep.base = ReadConfig();
  sweep.read_rates = {2.0, 8.0};
  sweep.bandwidths = {6.0};
  sweep.relay_tiers = {0};

  const auto jobs = ProtocolSweepJobs(sweep);
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  const std::vector<JobResult> sequential = RunExperiments(*jobs, RunnerOptions{1, {}});
  const std::vector<JobResult> parallel = RunExperiments(*jobs, RunnerOptions{8, {}});
  for (const JobResult& job : sequential) {
    ASSERT_TRUE(job.status.ok()) << job.name << ": " << job.status.ToString();
  }

  std::ostringstream json_sequential, json_parallel;
  WriteResultsJson(json_sequential, sequential);
  WriteResultsJson(json_parallel, parallel);
  EXPECT_EQ(json_sequential.str(), json_parallel.str());
  // 2 rates x 1 bandwidth x 1 tier x 3 protocols.
  EXPECT_EQ(sequential.size(), 6u);
}

}  // namespace
}  // namespace besync
