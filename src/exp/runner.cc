#include "exp/runner.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "exp/sweep.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace besync {
namespace {

/// Shortest decimal representation that round-trips to the exact double —
/// a pure function of the value, so serialized grids are byte-stable.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/Inf
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Times `run` (which includes any workload build/clone cost) and unpacks
/// its Result into `out`.
template <typename Run>
void TimedRun(JobResult* out, const Run& run) {
  const auto start = std::chrono::steady_clock::now();
  Result<RunResult> result = run();
  out->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (result.ok()) {
    out->result = std::move(result).ValueOrDie();
  } else {
    out->status = result.status();
  }
}

void RunOneJob(const ExperimentJob& job, JobResult* out) {
  out->name = job.name;
  out->config = job.config;
  TimedRun(out, [&job] { return RunExperiment(job.config); });
}

void RunOneJobOnClone(const Workload& base_workload, const ExperimentJob& job,
                      JobResult* out) {
  out->name = job.name;
  out->config = job.config;
  // The base workload is authoritative for the topology: the stamped count
  // configures the cooperative scheduler and the JSON grid coordinates.
  out->config.workload.num_caches = base_workload.num_caches;
  // Likewise for the read-path knobs it carries (read-enabled clone grids
  // serialize their read coordinates and stats).
  out->config.workload.read = base_workload.read;
  TimedRun(out, [&base_workload, out] {
    Workload clone = CloneWorkload(base_workload);
    return RunExperimentOnWorkload(out->config, &clone);
  });
}

/// Shared scheduling skeleton: runs `run_one(i, &results[i])` for every job
/// index, `options.threads` at a time, with results in index order.
template <typename RunOne>
std::vector<JobResult> RunAll(size_t num_jobs, const RunnerOptions& options,
                              const RunOne& run_one) {
  std::vector<JobResult> results(num_jobs);
  SweepProgress progress(options.progress_label.empty() ? "runner"
                                                        : options.progress_label,
                         static_cast<int>(num_jobs));
  const bool show_progress = !options.progress_label.empty();

  const int threads =
      options.threads <= 0 ? ThreadPool::HardwareThreads() : options.threads;
  if (threads == 1 || num_jobs <= 1) {
    for (size_t i = 0; i < num_jobs; ++i) {
      run_one(i, &results[i]);
      if (show_progress) progress.Step();
    }
  } else {
    // Each task writes only its own result slot; the vector is pre-sized so
    // no reallocation happens under the workers' feet.
    ThreadPool pool(threads);
    for (size_t i = 0; i < num_jobs; ++i) {
      pool.Submit([&results, &progress, &run_one, show_progress, i] {
        run_one(i, &results[i]);
        if (show_progress) progress.Step();
      });
    }
    pool.Wait();
  }
  if (show_progress) progress.Finish();
  return results;
}

/// Whether a job's serialized row carries read-path fields: any read
/// stream, a finite capacity (whose evictions are otherwise invisible), or
/// a run that counted reads (trace-driven). Purely a function of the job's
/// config and deterministic stats, so serialized grids stay byte-identical
/// at any thread count — and rows of runs with the read path fully
/// disabled keep their historical bytes exactly.
bool ReadFieldsApply(const JobResult& job) {
  return job.config.workload.read.read_rate > 0.0 ||
         job.config.workload.read.capacity > 0 ||
         job.result.scheduler.reads_total > 0;
}

/// Whether a job's serialized row carries consistency-protocol fields. Only
/// non-push-refresh jobs do: a pure function of the job's config, so every
/// historical (push-refresh) grid keeps its exact bytes.
bool ProtocolFieldsApply(const JobResult& job) {
  return job.config.protocol.kind != SyncProtocolKind::kPushRefresh;
}

/// Whether a job's serialized row carries fault-injection fields: a fault
/// generator enabled on the config, or a run whose (possibly hand-built)
/// schedule applied events. A pure function of the job's config and
/// deterministic stats, so fault-free grids keep their historical bytes.
bool FaultFieldsApply(const JobResult& job) {
  const SchedulerStats& s = job.result.scheduler;
  return job.config.workload.fault.enabled() || s.cache_crashes > 0 ||
         s.relay_failures > 0 || s.link_down_events > 0 ||
         s.slowdown_events > 0;
}

}  // namespace

uint64_t DeriveJobSeed(uint64_t base, uint64_t index) {
  // SplitMix64 (Steele et al.) over the combined stream position; never
  // returns 0 accidentally colliding grids with "unseeded" configs.
  uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return z == 0 ? 0x9e3779b97f4a7c15ull : z;
}

std::vector<JobResult> RunExperiments(const std::vector<ExperimentJob>& jobs,
                                      const RunnerOptions& options) {
  return RunAll(jobs.size(), options,
                [&jobs](size_t i, JobResult* out) { RunOneJob(jobs[i], out); });
}

std::vector<JobResult> RunExperimentsOnWorkload(const Workload& base_workload,
                                                const std::vector<ExperimentJob>& jobs,
                                                const RunnerOptions& options) {
  return RunAll(jobs.size(), options,
                [&base_workload, &jobs](size_t i, JobResult* out) {
                  RunOneJobOnClone(base_workload, jobs[i], out);
                });
}

double HitRate(const SchedulerStats& stats) {
  return stats.reads_total > 0 ? static_cast<double>(stats.read_hits) /
                                     static_cast<double>(stats.reads_total)
                               : 0.0;
}

void WriteResultsJson(std::ostream& os, const std::vector<JobResult>& results) {
  os << "{\n  \"schema\": \"besync.run_results.v1\",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const JobResult& job = results[i];
    const RunResult& r = job.result;
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": " << JsonString(job.name)
       << ", \"scheduler\": " << JsonString(SchedulerKindToString(job.config.scheduler))
       << ", \"policy\": " << JsonString(PolicyKindToString(job.config.policy))
       << ", \"metric\": " << JsonString(MetricKindToString(job.config.metric))
       << ", \"num_caches\": " << job.config.workload.num_caches
       << ", \"cache_bandwidth_avg\": " << JsonNumber(job.config.cache_bandwidth_avg)
       << ", \"source_bandwidth_avg\": " << JsonNumber(job.config.source_bandwidth_avg)
       << ", \"loss_rate\": " << JsonNumber(job.config.loss_rate)
       << ", \"workload_seed\": " << job.config.workload.seed
       << ", \"ok\": " << (job.status.ok() ? "true" : "false")
       << ", \"error\": " << JsonString(job.status.ok() ? "" : job.status.ToString())
       << ",\n     \"total_weighted_divergence\": "
       << JsonNumber(r.total_weighted_divergence) << ", \"per_cache_weighted\": [";
    for (size_t c = 0; c < r.per_cache_weighted.size(); ++c) {
      os << (c == 0 ? "" : ", ") << JsonNumber(r.per_cache_weighted[c]);
    }
    os << "], \"per_object_weighted\": " << JsonNumber(r.per_object_weighted)
       << ", \"per_object_unweighted\": " << JsonNumber(r.per_object_unweighted)
       << ", \"total_replicas\": " << r.total_replicas
       << ", \"refreshes_sent\": " << r.scheduler.refreshes_sent
       << ", \"refreshes_delivered\": " << r.scheduler.refreshes_delivered
       << ", \"feedback_sent\": " << r.scheduler.feedback_sent
       << ", \"polls_sent\": " << r.scheduler.polls_sent
       << ", \"cache_utilization\": " << JsonNumber(r.scheduler.cache_utilization);
    if (ReadFieldsApply(job)) {
      const SchedulerStats& s = r.scheduler;
      os << ",\n     \"read_rate\": " << JsonNumber(job.config.workload.read.read_rate)
         << ", \"capacity\": " << job.config.workload.read.capacity
         << ", \"eviction\": "
         << JsonString(EvictionPolicyToString(job.config.workload.read.eviction))
         << ", \"reads_total\": " << s.reads_total
         << ", \"read_hits\": " << s.read_hits
         << ", \"read_misses\": " << s.read_misses
         << ", \"hit_rate\": " << JsonNumber(HitRate(s))
         << ", \"pull_requests_sent\": " << s.pull_requests_sent
         << ", \"pulls_delivered\": " << s.pulls_delivered
         << ", \"cache_evictions\": " << s.cache_evictions
         << ", \"read_staleness_mean\": " << JsonNumber(s.read_staleness_mean)
         << ", \"read_staleness_p50\": " << JsonNumber(s.read_staleness_p50)
         << ", \"read_staleness_p95\": " << JsonNumber(s.read_staleness_p95)
         << ", \"read_staleness_p99\": " << JsonNumber(s.read_staleness_p99)
         << ", \"read_miss_latency_mean\": " << JsonNumber(s.read_miss_latency_mean)
         << ", \"pull_bandwidth_share\": " << JsonNumber(s.pull_bandwidth_share);
    }
    if (ProtocolFieldsApply(job)) {
      os << ",\n     \"protocol\": "
         << JsonString(SyncProtocolKindToString(job.config.protocol.kind))
         << ", \"ttl\": " << JsonNumber(job.config.protocol.ttl)
         << ", \"invalidate_batch\": " << job.config.protocol.max_invalidate_batch
         << ", \"invalidations_sent\": " << r.scheduler.invalidations_sent
         << ", \"invalidations_received\": " << r.scheduler.invalidations_received;
    }
    if (FaultFieldsApply(job)) {
      const SchedulerStats& s = r.scheduler;
      os << ",\n     \"recovery_policy\": "
         << JsonString(RecoveryPolicyToString(job.config.recovery_policy))
         << ", \"relay_store_policy\": "
         << JsonString(RelayStorePolicyToString(job.config.relay_store_policy))
         << ", \"cache_crashes\": " << s.cache_crashes
         << ", \"cache_restarts\": " << s.cache_restarts
         << ", \"relay_failures\": " << s.relay_failures
         << ", \"link_down_events\": " << s.link_down_events
         << ", \"slowdown_events\": " << s.slowdown_events
         << ", \"crash_dropped_pulls\": " << s.crash_dropped_pulls
         << ", \"resync_deliveries\": " << s.resync_deliveries
         << ", \"resync_pending\": " << s.resync_pending
         << ", \"time_to_resync_mean\": " << JsonNumber(s.time_to_resync_mean)
         << ", \"time_to_resync_p95\": " << JsonNumber(s.time_to_resync_p95);
    }
    os << "}";
  }
  os << (results.empty() ? "]" : "\n  ]");
  os << "\n}\n";
}

Status WriteResultsJson(const std::string& path, const std::vector<JobResult>& results) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open ", path);
  WriteResultsJson(file, results);
  if (!file.good()) return Status::IOError("write failed for ", path);
  return Status::OK();
}

TablePrinter ResultsTable(const std::vector<JobResult>& results) {
  TablePrinter table({"name", "scheduler", "policy", "caches", "B_C", "B_S", "loss",
                      "total_div", "per_replica", "delivered", "wall_ms", "status"});
  for (const JobResult& job : results) {
    const RunResult& r = job.result;
    const double per_replica =
        r.total_replicas > 0
            ? r.total_weighted_divergence / static_cast<double>(r.total_replicas)
            : 0.0;
    table.AddRow({job.name, SchedulerKindToString(job.config.scheduler),
                  PolicyKindToString(job.config.policy),
                  TablePrinter::Cell(job.config.workload.num_caches),
                  TablePrinter::Cell(job.config.cache_bandwidth_avg),
                  TablePrinter::Cell(job.config.source_bandwidth_avg),
                  TablePrinter::Cell(job.config.loss_rate),
                  TablePrinter::Cell(r.total_weighted_divergence),
                  TablePrinter::Cell(per_replica),
                  TablePrinter::Cell(r.scheduler.refreshes_delivered),
                  TablePrinter::Cell(job.wall_seconds * 1e3),
                  job.status.ok() ? "ok" : job.status.ToString()});
  }
  return table;
}

TablePrinter ResultsCsv(const std::vector<JobResult>& results) {
  // Read-path columns are appended only when some job of the grid enables
  // reads — a pure function of the grid's configs/results, so read-free
  // sweeps keep their historical CSV bytes exactly.
  bool reads = false;
  for (const JobResult& job : results) reads = reads || ReadFieldsApply(job);
  // Likewise for protocol columns: only grids that run a non-push-refresh
  // consistency protocol carry them.
  bool protocols = false;
  for (const JobResult& job : results) protocols = protocols || ProtocolFieldsApply(job);
  // And fault columns: only grids that inject faults carry them.
  bool faults = false;
  for (const JobResult& job : results) faults = faults || FaultFieldsApply(job);
  std::vector<std::string> header{
      "name", "scheduler", "policy", "metric", "num_caches",
      "cache_bandwidth_avg", "source_bandwidth_avg", "loss_rate",
      "workload_seed", "ok", "total_weighted_divergence",
      "per_object_weighted", "per_object_unweighted",
      "total_replicas", "refreshes_sent", "refreshes_delivered",
      "feedback_sent", "polls_sent", "cache_utilization"};
  if (reads) {
    for (const char* column :
         {"read_rate", "capacity", "eviction", "reads_total", "hit_rate",
          "pull_requests_sent", "pulls_delivered", "cache_evictions",
          "read_staleness_mean", "read_staleness_p50", "read_staleness_p95",
          "read_staleness_p99", "read_miss_latency_mean",
          "pull_bandwidth_share"}) {
      header.push_back(column);
    }
  }
  if (protocols) {
    for (const char* column :
         {"protocol", "ttl", "invalidate_batch", "invalidations_sent",
          "invalidations_received"}) {
      header.push_back(column);
    }
  }
  if (faults) {
    for (const char* column :
         {"recovery_policy", "relay_store_policy", "cache_crashes",
          "cache_restarts", "relay_failures", "link_down_events",
          "slowdown_events", "crash_dropped_pulls", "resync_deliveries",
          "resync_pending", "time_to_resync_mean", "time_to_resync_p95"}) {
      header.push_back(column);
    }
  }
  header.push_back("error");
  TablePrinter table(header);
  for (const JobResult& job : results) {
    const RunResult& r = job.result;
    std::vector<std::string> row{
        job.name, SchedulerKindToString(job.config.scheduler),
        PolicyKindToString(job.config.policy),
        MetricKindToString(job.config.metric),
        TablePrinter::Cell(job.config.workload.num_caches),
        JsonNumber(job.config.cache_bandwidth_avg),
        JsonNumber(job.config.source_bandwidth_avg),
        JsonNumber(job.config.loss_rate),
        std::to_string(job.config.workload.seed),
        job.status.ok() ? "true" : "false",
        JsonNumber(r.total_weighted_divergence),
        JsonNumber(r.per_object_weighted),
        JsonNumber(r.per_object_unweighted),
        TablePrinter::Cell(r.total_replicas),
        TablePrinter::Cell(r.scheduler.refreshes_sent),
        TablePrinter::Cell(r.scheduler.refreshes_delivered),
        TablePrinter::Cell(r.scheduler.feedback_sent),
        TablePrinter::Cell(r.scheduler.polls_sent),
        JsonNumber(r.scheduler.cache_utilization)};
    if (reads) {
      const SchedulerStats& s = r.scheduler;
      row.push_back(JsonNumber(job.config.workload.read.read_rate));
      row.push_back(std::to_string(job.config.workload.read.capacity));
      row.push_back(EvictionPolicyToString(job.config.workload.read.eviction));
      row.push_back(TablePrinter::Cell(s.reads_total));
      row.push_back(JsonNumber(HitRate(s)));
      row.push_back(TablePrinter::Cell(s.pull_requests_sent));
      row.push_back(TablePrinter::Cell(s.pulls_delivered));
      row.push_back(TablePrinter::Cell(s.cache_evictions));
      row.push_back(JsonNumber(s.read_staleness_mean));
      row.push_back(JsonNumber(s.read_staleness_p50));
      row.push_back(JsonNumber(s.read_staleness_p95));
      row.push_back(JsonNumber(s.read_staleness_p99));
      row.push_back(JsonNumber(s.read_miss_latency_mean));
      row.push_back(JsonNumber(s.pull_bandwidth_share));
    }
    if (protocols) {
      row.push_back(SyncProtocolKindToString(job.config.protocol.kind));
      row.push_back(JsonNumber(job.config.protocol.ttl));
      row.push_back(std::to_string(job.config.protocol.max_invalidate_batch));
      row.push_back(TablePrinter::Cell(r.scheduler.invalidations_sent));
      row.push_back(TablePrinter::Cell(r.scheduler.invalidations_received));
    }
    if (faults) {
      const SchedulerStats& s = r.scheduler;
      row.push_back(RecoveryPolicyToString(job.config.recovery_policy));
      row.push_back(RelayStorePolicyToString(job.config.relay_store_policy));
      row.push_back(TablePrinter::Cell(s.cache_crashes));
      row.push_back(TablePrinter::Cell(s.cache_restarts));
      row.push_back(TablePrinter::Cell(s.relay_failures));
      row.push_back(TablePrinter::Cell(s.link_down_events));
      row.push_back(TablePrinter::Cell(s.slowdown_events));
      row.push_back(TablePrinter::Cell(s.crash_dropped_pulls));
      row.push_back(TablePrinter::Cell(s.resync_deliveries));
      row.push_back(TablePrinter::Cell(s.resync_pending));
      row.push_back(JsonNumber(s.time_to_resync_mean));
      row.push_back(JsonNumber(s.time_to_resync_p95));
    }
    row.push_back(job.status.ok() ? "" : job.status.ToString());
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace besync
