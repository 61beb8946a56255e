// Parallel experiment runner: thread-pool basics, per-job error capture,
// and the core guarantee — the same job grid produces identical RunResults
// (and byte-identical JSON) at threads=1 and threads=8, because every job
// owns its workload and every field but wall_seconds is a pure function of
// the job's config.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
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

std::vector<ExperimentJob> MakeGrid() {
  std::vector<ExperimentJob> jobs;
  const SchedulerKind schedulers[] = {SchedulerKind::kCooperative,
                                      SchedulerKind::kRoundRobin};
  const double bandwidths[] = {4.0, 8.0, 16.0};
  int index = 0;
  for (SchedulerKind scheduler : schedulers) {
    for (double bandwidth : bandwidths) {
      ExperimentJob job;
      job.name = "job" + std::to_string(index);
      job.config.scheduler = scheduler;
      job.config.workload.num_sources = 2;
      job.config.workload.objects_per_source = 6;
      job.config.workload.seed = DeriveJobSeed(5, static_cast<uint64_t>(index));
      job.config.harness.warmup = 10.0;
      job.config.harness.measure = 60.0;
      job.config.cache_bandwidth_avg = bandwidth;
      jobs.push_back(std::move(job));
      ++index;
    }
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

  std::ostringstream json_base;
  std::ostringstream json_threaded;
  WriteResultsJson(json_base, base);
  WriteResultsJson(json_threaded, threaded);
  EXPECT_EQ(json_base.str(), json_threaded.str());  // byte-identical
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

  std::vector<ExperimentJob> jobs(13);
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

  const std::vector<JobResult> results = RunExperiments(jobs, RunnerOptions{});
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(results[i].status.IsInvalidArgument())
        << i << ": " << results[i].status.ToString();
    EXPECT_NE(results[i].status.message().find(jobs[i].name), std::string::npos)
        << results[i].status.ToString();
    EXPECT_FALSE(ValidateExperimentConfig(jobs[i].config).ok()) << i;
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
