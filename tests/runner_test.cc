// Parallel experiment runner: thread-pool basics, per-job error capture,
// and the core guarantee — the same job grid produces identical RunResults
// (and byte-identical JSON and ResultsTable output) at threads=1 and
// threads=8, because every job owns its workload and every field of its
// JobResult is a pure function of the job's config.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "net/bandwidth.h"
#include "util/thread_pool.h"

namespace besync {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitAllowsReuse) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  for (int i = 0; i < 10; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(DeriveJobSeedTest, DeterministicAndWellSpread) {
  EXPECT_EQ(DeriveJobSeed(1, 0), DeriveJobSeed(1, 0));
  std::set<uint64_t> seeds;
  for (uint64_t base = 0; base < 4; ++base) {
    for (uint64_t index = 0; index < 64; ++index) {
      const uint64_t seed = DeriveJobSeed(base, index);
      EXPECT_NE(seed, 0u);
      seeds.insert(seed);
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 64u);
}

/// A cooperative / round-robin x bandwidth grid, plus one job per engine
/// path a bench_engine suite sweeps: a cache crash under priority recovery,
/// invalidation and TTL with reads, a finite-capacity LRU store, and
/// Zipf-overlap interest over three caches.
std::vector<ExperimentJob> MakeGrid() {
  std::vector<ExperimentJob> jobs;
  const SchedulerKind schedulers[] = {SchedulerKind::kCooperative,
                                      SchedulerKind::kRoundRobin};
  const double bandwidths[] = {4.0, 8.0, 16.0};
  ExperimentJob base;
  base.config.workload.num_sources = 2;
  base.config.workload.objects_per_source = 6;
  base.config.harness.warmup = 10.0;
  base.config.harness.measure = 60.0;
  const auto add = [&jobs](ExperimentJob job) {
    job.name = "job" + std::to_string(jobs.size());
    job.config.workload.seed = DeriveJobSeed(5, static_cast<uint64_t>(jobs.size()));
    jobs.push_back(std::move(job));
  };
  for (SchedulerKind scheduler : schedulers) {
    for (double bandwidth : bandwidths) {
      ExperimentJob job = base;
      job.config.scheduler = scheduler;
      job.config.cache_bandwidth_avg = bandwidth;
      add(std::move(job));
    }
  }
  ExperimentJob two_caches = base;
  two_caches.config.workload.num_caches = 2;
  two_caches.config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  two_caches.config.workload.read.read_rate = 4.0;
  {
    ExperimentJob crash = two_caches;
    crash.config.source_bandwidth_avg = 3.0;
    crash.config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
    crash.config.workload.fault.cache_crashes = 1;
    crash.config.workload.fault.crash_cache = 0;
    crash.config.workload.fault.crash_duration = 15.0;
    crash.config.workload.fault.window_start = 15.0;
    crash.config.workload.fault.window_end = 30.0;
    add(std::move(crash));
  }
  for (SyncProtocolKind kind : {SyncProtocolKind::kInvalidation,
                                SyncProtocolKind::kTtlLease}) {
    ExperimentJob pull = two_caches;
    pull.config.protocol.kind = kind;
    pull.config.protocol.ttl = 20.0;
    add(std::move(pull));
  }
  {
    ExperimentJob lru = two_caches;
    lru.config.workload.read.capacity = 3;
    lru.config.workload.read.eviction = EvictionPolicy::kLru;
    add(std::move(lru));
  }
  {
    ExperimentJob overlap = base;
    overlap.config.workload.num_caches = 3;
    overlap.config.workload.interest_pattern = InterestPattern::kZipfOverlap;
    add(std::move(overlap));
  }
  return jobs;
}

TEST(RunnerTest, ResultsIdenticalAcrossThreadCounts) {
  const std::vector<ExperimentJob> jobs = MakeGrid();

  RunnerOptions sequential;
  sequential.threads = 1;
  const std::vector<JobResult> base = RunExperiments(jobs, sequential);

  RunnerOptions parallel;
  parallel.threads = 8;
  const std::vector<JobResult> threaded = RunExperiments(jobs, parallel);

  ASSERT_EQ(base.size(), jobs.size());
  ASSERT_EQ(threaded.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    // Results come back in job order regardless of completion order.
    EXPECT_EQ(base[i].name, jobs[i].name);
    EXPECT_EQ(threaded[i].name, jobs[i].name);
    ASSERT_TRUE(base[i].status.ok());
    ASSERT_TRUE(threaded[i].status.ok());
    // Bitwise equality, not near-equality: the runs must be the same
    // computation, merely scheduled on different workers.
    EXPECT_EQ(base[i].result.total_weighted_divergence,
              threaded[i].result.total_weighted_divergence);
    EXPECT_EQ(base[i].result.per_object_unweighted,
              threaded[i].result.per_object_unweighted);
    EXPECT_EQ(base[i].result.per_cache_weighted,
              threaded[i].result.per_cache_weighted);
    EXPECT_EQ(base[i].result.total_replicas, threaded[i].result.total_replicas);
    EXPECT_EQ(base[i].result.scheduler.refreshes_sent,
              threaded[i].result.scheduler.refreshes_sent);
    EXPECT_EQ(base[i].result.scheduler.refreshes_delivered,
              threaded[i].result.scheduler.refreshes_delivered);
    EXPECT_EQ(base[i].result.scheduler.feedback_sent,
              threaded[i].result.scheduler.feedback_sent);
  }

  // Every job did real work on its engine path.
  for (const JobResult& job : base) {
    EXPECT_GT(job.result.total_weighted_divergence, 0.0) << job.name;
    EXPECT_EQ(static_cast<int>(job.result.per_cache_weighted.size()),
              job.config.workload.num_caches)
        << job.name;
    const SchedulerStats& s = job.result.scheduler;
    if (job.config.workload.fault.cache_crashes > 0) {
      EXPECT_EQ(s.cache_crashes, 1) << job.name;
      EXPECT_EQ(s.cache_restarts, 1) << job.name;
      EXPECT_GT(s.resync_deliveries, 0) << job.name;
    }
    if (job.config.protocol.kind != SyncProtocolKind::kPushRefresh) {
      EXPECT_GT(s.pulls_delivered, 0) << job.name;
    }
    if (job.config.workload.read.capacity > 0) {
      EXPECT_GT(s.cache_evictions, 0) << job.name;
    }
    if (job.config.workload.interest_pattern == InterestPattern::kZipfOverlap) {
      // Overlap replicates some objects at several caches.
      EXPECT_GT(job.result.total_replicas, 12) << job.name;
    }
  }

  std::ostringstream json_base;
  std::ostringstream json_threaded;
  WriteResultsJson(json_base, base);
  WriteResultsJson(json_threaded, threaded);
  EXPECT_EQ(json_base.str(), json_threaded.str());  // byte-identical
  // The read fields made it into the serialization.
  EXPECT_NE(json_base.str().find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(json_base.str().find("\"pull_bandwidth_share\""), std::string::npos);

  // So is the printed summary: it carries no wall clock.
  std::ostringstream table_base;
  std::ostringstream table_threaded;
  ResultsTable(base).Print(table_base);
  ResultsTable(threaded).Print(table_threaded);
  EXPECT_EQ(table_base.str(), table_threaded.str());
}

TEST(RunnerTest, PerJobErrorsAreCapturedNotFatal) {
  std::vector<ExperimentJob> jobs(2);
  jobs[0].name = "bad";
  jobs[0].config.workload.num_sources = 0;  // MakeWorkload rejects this
  jobs[1].name = "good";
  jobs[1].config.workload.num_sources = 1;
  jobs[1].config.workload.objects_per_source = 4;
  jobs[1].config.harness.warmup = 5.0;
  jobs[1].config.harness.measure = 20.0;

  RunnerOptions options;
  options.threads = 2;
  const std::vector<JobResult> results = RunExperiments(jobs, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());

  // Failed jobs serialize with ok=false and stay valid JSON.
  std::ostringstream json;
  WriteResultsJson(json, results);
  EXPECT_NE(json.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": true"), std::string::npos);
}

/// Each bad field comes back as a per-job InvalidArgument naming the
/// field, instead of a CHECK abort inside the harness.
TEST(RunnerTest, InvalidConfigFieldsAreInvalidArgument) {
  ExperimentConfig base;
  base.workload.num_sources = 1;
  base.workload.objects_per_source = 4;
  base.harness.warmup = 5.0;
  base.harness.measure = 20.0;
  EXPECT_TRUE(ValidateExperimentConfig(base).ok());
  {
    // A non-positive source bandwidth means unconstrained, and the
    // one-tick budget bound itself is accepted.
    ExperimentConfig bounds = base;
    bounds.source_bandwidth_avg = -std::numeric_limits<double>::infinity();
    bounds.cache_bandwidth_avg = kMaxTickBudget;
    EXPECT_TRUE(ValidateExperimentConfig(bounds).ok());
    bounds.source_bandwidth_avg = kMaxTickBudget;
    EXPECT_TRUE(ValidateExperimentConfig(bounds).ok());
  }
  {
    // A run of exactly kMaxTicks ticks is accepted.
    ExperimentConfig longest = base;
    longest.harness.measure = kMaxTicks - longest.harness.warmup;
    EXPECT_TRUE(ValidateExperimentConfig(longest).ok());
  }
  {
    // An infinite lease never expires; it stays a valid setting.
    ExperimentConfig forever = base;
    forever.protocol.ttl = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(ValidateExperimentConfig(forever).ok());
  }

  std::vector<ExperimentJob> jobs(35);
  for (ExperimentJob& job : jobs) job.config = base;
  jobs[0].name = "tick_length";
  jobs[0].config.harness.tick_length = 0.0;
  jobs[1].name = "warmup";
  jobs[1].config.harness.warmup = -1.0;
  jobs[2].name = "measure";
  jobs[2].config.harness.measure = -5.0;
  jobs[3].name = "measure";
  jobs[3].config.harness.measure = 0.0;
  jobs[4].name = "measure";
  jobs[4].config.harness.measure = std::nan("");
  jobs[5].name = "run_threads";
  jobs[5].config.run_threads = 2;
  jobs[6].name = "cache_bandwidth_avg";
  jobs[6].config.cache_bandwidth_avg = 0.0;
  jobs[7].name = "cache_bandwidth_avg";
  jobs[7].config.cache_bandwidth_avg = -3.0;
  jobs[8].name = "cache_bandwidth_avg";
  jobs[8].config.cache_bandwidth_avg = std::nan("");
  jobs[9].name = "loss_rate";
  jobs[9].config.loss_rate = 2.0;
  jobs[10].name = "loss_rate";
  jobs[10].config.loss_rate = 1.0;
  jobs[11].name = "loss_rate";
  jobs[11].config.loss_rate = -0.1;
  jobs[12].name = "loss_rate";
  jobs[12].config.loss_rate = std::nan("");
  jobs[13].name = "max_batch";
  jobs[13].config.max_batch = 0;
  jobs[14].name = "max_batch";
  jobs[14].config.max_batch = -2;
  jobs[15].name = "max_batch_delay";
  jobs[15].config.max_batch_delay = -1.0;
  jobs[16].name = "max_batch_delay";
  jobs[16].config.max_batch_delay = std::nan("");
  // A zero interval never advances the sampling clock (the run hangs); a
  // negative one schedules into the past (a CHECK abort).
  for (size_t i = 17; i <= 20; ++i) {
    jobs[i].name = "sampling_interval";
    jobs[i].config.monitor = MonitorMode::kSampling;
  }
  jobs[17].config.sampling_interval = 0.0;
  jobs[18].config.sampling_interval = -1.0;
  jobs[19].config.sampling_interval = std::numeric_limits<double>::infinity();
  jobs[20].config.sampling_interval = std::nan("");
  // Batches travel as one unit-cost message, so they need unit costs.
  jobs[21].name = "cost_scheme";
  jobs[21].config.max_batch = 2;
  jobs[21].config.workload.cost_scheme = CostScheme::kHalfLarge;
  // An infinite warm-up or window never ends; an infinite tick is one tick
  // of unbounded length.
  const double inf = std::numeric_limits<double>::infinity();
  jobs[22].name = "warmup";
  jobs[22].config.harness.warmup = inf;
  jobs[23].name = "measure";
  jobs[23].config.harness.measure = inf;
  jobs[24].name = "tick_length";
  jobs[24].config.harness.tick_length = inf;
  // A NaN or zero lease would otherwise reach a CHECK in SyncProtocol::Make.
  jobs[25].name = "ttl";
  jobs[25].config.protocol.ttl = std::nan("");
  jobs[26].name = "ttl";
  jobs[26].config.protocol.ttl = 0.0;
  jobs[27].name = "max_invalidate_batch";
  jobs[27].config.protocol.max_invalidate_batch = 0;
  // An infinite or huge bandwidth overflows the integer tick budget (it
  // delivered nothing at all); a NaN source bandwidth ran unconstrained.
  jobs[28].name = "cache_bandwidth_avg";
  jobs[28].config.cache_bandwidth_avg = inf;
  jobs[29].name = "cache_bandwidth_avg";
  jobs[29].config.cache_bandwidth_avg = 1e300;
  jobs[30].name = "cache_bandwidth_avg";
  jobs[30].config.cache_bandwidth_avg = kMaxTickBudget;
  jobs[30].config.harness.tick_length = 2.0;
  jobs[31].name = "source_bandwidth_avg";
  jobs[31].config.source_bandwidth_avg = inf;
  jobs[32].name = "source_bandwidth_avg";
  jobs[32].config.source_bandwidth_avg = std::nan("");
  jobs[33].name = "source_bandwidth_avg";
  jobs[33].config.source_bandwidth_avg = 1e300;
  jobs[34].name = "cache_bandwidth_avg";
  jobs[34].config.cache_bandwidth_avg = -inf;

  // A finite but huge run length, or a tiny tick, ticks past any timeout:
  // each is more than kMaxTicks ticks.
  for (const char* field : {"warmup", "measure", "tick_length"}) {
    ExperimentJob job;
    job.name = field;
    job.config = base;
    jobs.push_back(job);
  }
  jobs[jobs.size() - 3].config.harness.warmup = 1e300;
  jobs[jobs.size() - 2].config.harness.measure = 1e300;
  jobs[jobs.size() - 1].config.harness.tick_length = 1e-300;
  {
    ExperimentJob job;
    job.name = "measure";
    job.config = base;
    job.config.harness.measure = kMaxTicks;
    jobs.push_back(job);
  }

  // With observability on, a zero or negative sample interval reached a
  // CHECK in TimeSeries::Configure, and a NaN or infinite one never samples.
  for (double interval : {0.0, -1.0, std::nan(""), inf, -inf}) {
    ExperimentJob job;
    job.name = "sample_interval";
    job.config = base;
    job.config.obs.enabled = true;
    job.config.obs.sample_interval = interval;
    jobs.push_back(job);
  }

  const std::vector<JobResult> results = RunExperiments(jobs, RunnerOptions{});
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(results[i].status.IsInvalidArgument())
        << i << ": " << results[i].status.ToString();
    EXPECT_NE(results[i].status.message().find(jobs[i].name), std::string::npos)
        << results[i].status.ToString();
    EXPECT_FALSE(ValidateExperimentConfig(jobs[i].config).ok()) << i;
  }
  {
    // Observability off ignores the interval.
    ExperimentConfig off = base;
    off.obs.sample_interval = 0.0;
    EXPECT_TRUE(ValidateExperimentConfig(off).ok());
  }
}

/// One rule maps a grid's statuses to the drivers' exit code: a config
/// only a run-time check rejects is a usage error (2), like one the
/// up-front validation rejects; any other failure is a failed run (1).
TEST(RunnerTest, JobsExitCodeSeparatesUsageErrorsFromFailures) {
  const auto grid = [](std::vector<Status> statuses) {
    std::vector<JobResult> results(statuses.size());
    for (size_t i = 0; i < statuses.size(); ++i) results[i].status = statuses[i];
    return results;
  };
  EXPECT_EQ(JobsExitCode({}), 0);
  EXPECT_EQ(JobsExitCode(grid({Status::OK(), Status::OK()})), 0);
  EXPECT_EQ(JobsExitCode(grid({Status::OK(), Status::InvalidArgument("relay")})), 2);
  EXPECT_EQ(JobsExitCode(grid({Status::InvalidArgument("a"), Status::InvalidArgument("b")})),
            2);
  EXPECT_EQ(JobsExitCode(grid({Status::InvalidArgument("a"), Status::Internal("b")})), 1);
  EXPECT_EQ(JobsExitCode(grid({Status::Internal("a"), Status::OK()})), 1);
}

/// A relay or leaf edge whose resolved bandwidth overflows the integer tick
/// budget delivered nothing and exited 0; each way of setting one is now an
/// InvalidArgument from the scheduler's Validate, returned by the runner.
TEST(RunnerTest, OverflowingEdgeBandwidthsAreInvalidArgument) {
  ExperimentConfig base;
  base.workload.num_sources = 4;
  base.workload.objects_per_source = 4;
  base.workload.num_caches = 4;
  base.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  base.workload.relay_tiers = 1;
  base.workload.relay_fanout = 2;
  base.workload.relay_bandwidth_factor = 1.0;
  base.harness.warmup = 5.0;
  base.harness.measure = 20.0;
  const double inf = std::numeric_limits<double>::infinity();
  const TopologySpec tree = MakeRelayTree(4, 2, 1);  // relays are nodes 4 and 5

  std::vector<ExperimentJob> jobs(6);
  for (ExperimentJob& job : jobs) job.config = base;
  jobs[0].name = "relay_bandwidth_factor";
  jobs[0].config.workload.relay_bandwidth_factor = 1e300;
  jobs[1].name = "relay_bandwidth_factor";
  jobs[1].config.workload.relay_bandwidth_factor = 1.0e15;  // x 2 leaves x 10
  jobs[2].name = "edge_bandwidth";
  jobs[2].config.topology = tree;
  jobs[2].config.topology.edge_bandwidth.assign(6, 0.0);
  jobs[2].config.topology.edge_bandwidth[5] = 1e300;
  jobs[3].name = "edge_bandwidth";  // a leaf edge
  jobs[3].config.topology = tree;
  jobs[3].config.topology.edge_bandwidth.assign(6, 0.0);
  jobs[3].config.topology.edge_bandwidth[2] = inf;
  jobs[4].name = "relay_egress_bandwidth";
  jobs[4].config.topology = tree;
  jobs[4].config.topology.relay_egress_bandwidth.assign(6, 0.0);
  jobs[4].config.topology.relay_egress_bandwidth[4] = 1e300;
  jobs[5].name = "relay_egress_bandwidth";
  jobs[5].config.topology = tree;
  jobs[5].config.topology.relay_egress_bandwidth.assign(6, 0.0);
  jobs[5].config.topology.relay_egress_bandwidth[5] = inf;

  const std::vector<JobResult> results = RunExperiments(jobs, RunnerOptions{});
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(ValidateExperimentConfig(jobs[i].config).ok()) << i;
    EXPECT_TRUE(results[i].status.IsInvalidArgument())
        << i << ": " << results[i].status.ToString();
    EXPECT_NE(results[i].status.message().find(jobs[i].name), std::string::npos)
        << results[i].status.ToString();
  }

  // The bound itself, the pass-through tree (unconstrained relays) and
  // the factor-1 tree all run and deliver.
  std::vector<ExperimentJob> fine(3);
  for (ExperimentJob& job : fine) job.config = base;
  fine[0].name = "at_bound";
  fine[0].config.topology = tree;
  fine[0].config.topology.relay_egress_bandwidth.assign(6, 0.0);
  fine[0].config.topology.relay_egress_bandwidth[4] = kMaxTickBudget;
  fine[1].name = "pass_through";
  fine[1].config.workload.relay_bandwidth_factor = 0.0;
  fine[2].name = "factor_1";
  for (const JobResult& job : RunExperiments(fine, RunnerOptions{})) {
    ASSERT_TRUE(job.status.ok()) << job.name << ": " << job.status.ToString();
    EXPECT_GT(job.result.scheduler.refreshes_delivered, 0) << job.name;
  }
}

TEST(RunnerTest, EmptyJobListProducesEmptyJson) {
  const std::vector<JobResult> results = RunExperiments({}, RunnerOptions());
  EXPECT_TRUE(results.empty());
  std::ostringstream json;
  WriteResultsJson(json, results);
  EXPECT_NE(json.str().find("\"results\": []"), std::string::npos);
}

TEST(RunnerTest, CsvOptionalColumnsAreTheJsonFields) {
  // One job carries every optional group (reads, a non-push protocol,
  // faults), one carries none: the CSV gains each group's columns on both
  // rows, named and ordered exactly like the first job's JSON fields.
  ExperimentJob plain;
  plain.name = "plain";
  plain.config.workload.num_sources = 2;
  plain.config.workload.objects_per_source = 4;
  plain.config.harness.warmup = 5.0;
  plain.config.harness.measure = 40.0;
  ExperimentJob full = plain;
  full.name = "full";
  full.config.workload.num_caches = 2;
  full.config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  full.config.workload.read.read_rate = 2.0;
  full.config.workload.fault.cache_crashes = 1;
  full.config.workload.fault.window_start = 10.0;
  full.config.workload.fault.window_end = 30.0;
  full.config.protocol.kind = SyncProtocolKind::kInvalidation;
  const std::vector<JobResult> results =
      RunExperiments({full, plain}, RunnerOptions{});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_TRUE(results[1].status.ok()) << results[1].status.ToString();

  std::ostringstream json;
  WriteResultsJson(json, {results[0]});
  const std::string text = json.str();
  const size_t start = text.find("\"cache_utilization\"");
  ASSERT_NE(start, std::string::npos);
  std::vector<std::string> json_fields;
  const std::regex key("\"([a-z_0-9]+)\": ");
  const std::string tail = text.substr(start);
  for (auto it = std::sregex_iterator(tail.begin(), tail.end(), key);
       it != std::sregex_iterator(); ++it) {
    json_fields.push_back((*it)[1]);
  }
  json_fields.erase(json_fields.begin());  // cache_utilization itself

  const TablePrinter csv = ResultsCsv(results);
  const std::vector<std::string>& header = csv.headers();
  const auto first = std::find(header.begin(), header.end(), "cache_utilization");
  ASSERT_NE(first, header.end());
  const std::vector<std::string> csv_fields(first + 1, header.end() - 1);
  EXPECT_EQ(csv_fields, json_fields);
  EXPECT_EQ(header.back(), "error");
  for (const char* field : {"read_hits", "read_misses", "invalidations_sent",
                            "cache_crashes", "time_to_resync_p95"}) {
    EXPECT_NE(std::find(csv_fields.begin(), csv_fields.end(), field),
              csv_fields.end())
        << field;
  }
  ASSERT_EQ(csv.num_rows(), 2u);
  for (const auto& row : csv.rows()) EXPECT_EQ(row.size(), header.size());
}

TEST(RunnerTest, ResultsTableHasOneRowPerJob) {
  const std::vector<ExperimentJob> jobs = MakeGrid();
  RunnerOptions options;
  options.threads = 4;
  const std::vector<JobResult> results = RunExperiments(jobs, options);
  const TablePrinter table = ResultsTable(results);
  EXPECT_EQ(table.num_rows(), jobs.size());
}

}  // namespace
}  // namespace besync
