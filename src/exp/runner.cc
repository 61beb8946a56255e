#include "exp/runner.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

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

/// One serialized field of an optional group: its name, its value as text,
/// and whether JSON quotes it. Both writers consume the same list, so a
/// field is named once.
struct Field {
  const char* name;
  std::string text;
  bool is_string;
};

Field Int(const char* name, int64_t value) {
  return {name, std::to_string(value), false};
}
Field Number(const char* name, double value) {
  return {name, JsonNumber(value), false};
}
Field Text(const char* name, std::string value) {
  return {name, std::move(value), true};
}

std::vector<Field> ReadFields(const JobResult& job) {
  const ReadWorkloadConfig& read = job.config.workload.read;
  const SchedulerStats& s = job.result.scheduler;
  return {Number("read_rate", read.read_rate),
          Int("capacity", read.capacity),
          Text("eviction", EvictionPolicyToString(read.eviction)),
          Int("reads_total", s.reads_total),
          Int("read_hits", s.read_hits),
          Int("read_misses", s.read_misses),
          Number("hit_rate", HitRate(s)),
          Int("pull_requests_sent", s.pull_requests_sent),
          Int("pulls_delivered", s.pulls_delivered),
          Int("cache_evictions", s.cache_evictions),
          Number("read_staleness_mean", s.read_staleness_mean),
          Number("read_staleness_p50", s.read_staleness_p50),
          Number("read_staleness_p95", s.read_staleness_p95),
          Number("read_staleness_p99", s.read_staleness_p99),
          Number("read_miss_latency_mean", s.read_miss_latency_mean),
          Number("pull_bandwidth_share", s.pull_bandwidth_share)};
}

std::vector<Field> ProtocolFields(const JobResult& job) {
  const SyncProtocolConfig& protocol = job.config.protocol;
  const SchedulerStats& s = job.result.scheduler;
  return {Text("protocol", SyncProtocolKindToString(protocol.kind)),
          Number("ttl", protocol.ttl),
          Int("invalidate_batch", protocol.max_invalidate_batch),
          Int("invalidations_sent", s.invalidations_sent),
          Int("invalidations_received", s.invalidations_received)};
}

std::vector<Field> FaultFields(const JobResult& job) {
  const SchedulerStats& s = job.result.scheduler;
  return {Text("recovery_policy", RecoveryPolicyToString(job.config.recovery_policy)),
          Text("relay_store_policy",
               RelayStorePolicyToString(job.config.relay_store_policy)),
          Int("cache_crashes", s.cache_crashes),
          Int("cache_restarts", s.cache_restarts),
          Int("relay_failures", s.relay_failures),
          Int("link_down_events", s.link_down_events),
          Int("slowdown_events", s.slowdown_events),
          Int("crash_dropped_pulls", s.crash_dropped_pulls),
          Int("resync_deliveries", s.resync_deliveries),
          Int("resync_pending", s.resync_pending),
          Number("time_to_resync_mean", s.time_to_resync_mean),
          Number("time_to_resync_p95", s.time_to_resync_p95)};
}

/// The optional field groups, in serialization order: a group is written
/// for a job (JSON) or a grid (CSV columns) only when `applies` holds.
struct FieldGroup {
  bool (*applies)(const JobResult&);
  std::vector<Field> (*fields)(const JobResult&);
};
const FieldGroup kFieldGroups[] = {{ReadFieldsApply, ReadFields},
                                   {ProtocolFieldsApply, ProtocolFields},
                                   {FaultFieldsApply, FaultFields}};

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
    for (const FieldGroup& group : kFieldGroups) {
      if (!group.applies(job)) continue;
      const char* separator = ",\n     ";
      for (const Field& field : group.fields(job)) {
        os << separator << '"' << field.name << "\": "
           << (field.is_string ? JsonString(field.text) : field.text);
        separator = ", ";
      }
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
  // An optional group's columns appear only when some job of the grid
  // carries it — a pure function of the grid's configs/results, so grids
  // without reads, non-push protocols or faults keep their historical CSV
  // bytes exactly. A carried group fills every row.
  std::vector<const FieldGroup*> groups;
  for (const FieldGroup& group : kFieldGroups) {
    for (const JobResult& job : results) {
      if (group.applies(job)) {
        groups.push_back(&group);
        break;
      }
    }
  }
  std::vector<std::string> header{
      "name", "scheduler", "policy", "metric", "num_caches",
      "cache_bandwidth_avg", "source_bandwidth_avg", "loss_rate",
      "workload_seed", "ok", "total_weighted_divergence",
      "per_object_weighted", "per_object_unweighted",
      "total_replicas", "refreshes_sent", "refreshes_delivered",
      "feedback_sent", "polls_sent", "cache_utilization"};
  for (const FieldGroup* group : groups) {
    for (const Field& field : group->fields(results.front())) {
      header.push_back(field.name);
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
    for (const FieldGroup* group : groups) {
      for (Field& field : group->fields(job)) row.push_back(std::move(field.text));
    }
    row.push_back(job.status.ok() ? "" : job.status.ToString());
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace besync
