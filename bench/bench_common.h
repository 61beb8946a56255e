#ifndef BESYNC_BENCH_BENCH_COMMON_H_
#define BESYNC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "data/workload.h"
#include "exp/runner.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"

namespace besync {

/// Common command-line surface of every experiment binary:
///   --full        run the paper-scale sweep (default: scaled-down)
///   --csv <path>  also dump the result table as CSV
///   --json <path> dump raw per-job RunResults as JSON (exp/runner.h schema)
///   --threads <n> experiment-runner worker threads (0 = hardware cores)
///   --seed <n>    workload seed override
struct BenchOptions {
  bool full = false;
  std::string csv;
  std::string json;
  int threads = 1;
  uint64_t seed = 1;

  static BenchOptions Parse(int argc, char** argv,
                            std::vector<std::string> extra_flags = {}) {
    std::vector<std::string> known{"full", "csv", "json", "threads", "seed"};
    for (auto& flag : extra_flags) known.push_back(std::move(flag));
    Flags flags;
    const Status status = Flags::Parse(argc, argv, known, &flags);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(2);
    }
    BenchOptions options;
    options.full = flags.GetBool("full", false);
    options.csv = flags.GetString("csv", "");
    options.json = flags.GetString("json", "");
    options.threads = static_cast<int>(flags.GetInt("threads", 1));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    options.flags = flags;
    return options;
  }

  /// RunnerOptions carrying this invocation's --threads.
  RunnerOptions runner(std::string progress_label) const {
    RunnerOptions options;
    options.threads = threads;
    options.progress_label = std::move(progress_label);
    return options;
  }

  Flags flags;  // access to extra flags
};

/// Splits a comma-separated flag value into its non-empty items.
inline std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Parses "--flag a,b,c" into doubles, exiting with a usage error on junk
/// or an empty list (`flag` names the flag in the message).
inline std::vector<double> ParseDoubleList(const std::string& flag,
                                           const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : SplitList(text)) {
    char* end = nullptr;
    const double value = std::strtod(part.c_str(), &end);
    if (end == part.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s: not a number: '%s'\n", flag.c_str(), part.c_str());
      std::exit(2);
    }
    values.push_back(value);
  }
  if (values.empty()) {
    std::fprintf(stderr, "--%s: empty list\n", flag.c_str());
    std::exit(2);
  }
  return values;
}

inline std::vector<int> ParseIntList(const std::string& flag, const std::string& text) {
  std::vector<int> values;
  for (double value : ParseDoubleList(flag, text)) {
    values.push_back(static_cast<int>(value));
  }
  return values;
}

/// Parses one eviction-policy name (`lru`, `lfu`, `divergence`), exiting
/// with a usage error naming `flag` on anything else.
inline EvictionPolicy ParseEvictionPolicy(const std::string& flag,
                                          const std::string& name) {
  static const EvictionPolicy kinds[] = {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                         EvictionPolicy::kDivergenceAware};
  for (EvictionPolicy kind : kinds) {
    if (EvictionPolicyToString(kind) == name) return kind;
  }
  std::fprintf(stderr, "--%s: unknown eviction policy '%s' (lru, lfu, divergence)\n",
               flag.c_str(), name.c_str());
  std::exit(2);
}

/// Prints the table and optionally writes the CSV copy.
inline void EmitTable(const TablePrinter& table, const BenchOptions& options) {
  table.Print(std::cout);
  if (!options.csv.empty()) {
    const Status status = table.WriteCsv(options.csv);
    if (!status.ok()) {
      std::fprintf(stderr, "CSV write failed: %s\n", status.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %s\n", options.csv.c_str());
    }
  }
}

/// Peak resident set size of this process in bytes, read from
/// /proc/self/status (VmHWM). Returns 0 where the proc interface is
/// unavailable (non-Linux) — graceful degradation, never an error.
inline int64_t ReadPeakRssBytes() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  int64_t bytes = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    long long kib = 0;
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      bytes = static_cast<int64_t>(kib) * 1024;
      break;
    }
  }
  std::fclose(file);
  return bytes;
}

/// Writes the raw runner results to --json when requested (BENCH_*.json
/// trajectory tracking; byte-identical at any --threads). Exits nonzero
/// when the requested output cannot be written — a caller scripting
/// trajectory capture must not mistake a silent no-op for success.
inline void EmitJson(const std::vector<JobResult>& results,
                     const BenchOptions& options) {
  if (options.json.empty()) return;
  const Status status = WriteResultsJson(options.json, results);
  if (!status.ok()) {
    std::fprintf(stderr, "JSON write failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", options.json.c_str());
}

/// Observability flag surface shared by the obs-wired benches (append
/// ObsFlagNames() to the bench's extra-flags list):
///   --timeseries_out <path>    per-tick metric series (besync.timeseries.v1)
///   --trace_out <path>         message-lifecycle + tick-phase trace
///                              (besync.trace.v1; loads in Perfetto and
///                              chrome://tracing)
///   --obs_sample_interval <s>  time-series sample spacing (default 1.0)
///   --obs_max_samples <n>      decimation budget per series (default 512)
///   --trace_start <t> / --trace_end <t>  trace window, simulation seconds
/// Either output path switches ObsConfig::enabled on; --trace_out also
/// turns event tracing on. Enabling observability never changes run
/// results, but it is a cooperative-engine feature — grids that include
/// baseline schedulers must apply `config` to their cooperative jobs only.
struct ObsBenchOptions {
  std::string timeseries_out;
  std::string trace_out;
  ObsConfig config;

  bool wanted() const { return !timeseries_out.empty() || !trace_out.empty(); }
};

inline std::vector<std::string> ObsFlagNames() {
  return {"timeseries_out", "trace_out", "obs_sample_interval",
          "obs_max_samples", "trace_start", "trace_end"};
}

inline ObsBenchOptions ObsFromFlags(const BenchOptions& options) {
  ObsBenchOptions obs;
  obs.timeseries_out = options.flags.GetString("timeseries_out", "");
  obs.trace_out = options.flags.GetString("trace_out", "");
  obs.config.enabled = obs.wanted();
  obs.config.trace = !obs.trace_out.empty();
  obs.config.sample_interval =
      options.flags.GetDouble("obs_sample_interval", obs.config.sample_interval);
  obs.config.max_samples = static_cast<int>(
      options.flags.GetInt("obs_max_samples", obs.config.max_samples));
  obs.config.trace_start =
      options.flags.GetDouble("trace_start", obs.config.trace_start);
  obs.config.trace_end = options.flags.GetDouble("trace_end", obs.config.trace_end);
  return obs;
}

/// Writes the requested observability files from a finished grid, one entry
/// per job in grid order (jobs that ran without obs enabled are skipped by
/// the writers). Mirrors EmitJson: exits nonzero when a requested output
/// cannot be written.
inline void EmitObsOutputs(const std::vector<JobResult>& results,
                           const ObsBenchOptions& obs) {
  if (!obs.wanted()) return;
  std::vector<ObsJob> jobs;
  jobs.reserve(results.size());
  for (const JobResult& job : results) {
    jobs.push_back({job.name, job.result.obs.get()});
  }
  const auto emit = [&jobs](const std::string& path,
                            Status (*write)(const std::string&,
                                            const std::vector<ObsJob>&)) {
    if (path.empty()) return;
    const Status status = write(path, jobs);
    if (!status.ok()) {
      std::fprintf(stderr, "obs write failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  };
  emit(obs.timeseries_out, &WriteTimeSeriesFile);
  emit(obs.trace_out, &WriteTraceFile);
}

/// Exits 2 with the message when a job's config fails
/// ValidateExperimentConfig or its workload fails ValidateWorkloadConfig: a
/// bad --warmup / --measure / --bandwidth / --rate_hi / --caches is a usage
/// error, reported before any job runs.
inline void ValidateJobsOrExit(const std::vector<ExperimentJob>& jobs) {
  for (const ExperimentJob& job : jobs) {
    Status status = ValidateExperimentConfig(job.config);
    if (status.ok()) status = ValidateWorkloadConfig(job.config.workload);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(2);
    }
  }
}

/// Unwraps a grid builder's jobs (exp/*_sweep.h, exp/multicache.h) and
/// runs ValidateJobsOrExit on them. A builder's InvalidArgument — an empty
/// axis, a read rate <= 0, ... — is a usage error like a bad config field:
/// exits 2 with the message before any job runs.
inline std::vector<ExperimentJob> JobsOrExit(Result<std::vector<ExperimentJob>> jobs) {
  if (!jobs.ok()) {
    std::fprintf(stderr, "%s\n", jobs.status().ToString().c_str());
    std::exit(2);
  }
  ValidateJobsOrExit(*jobs);
  return std::move(jobs).ValueOrDie();
}

/// Exits nonzero on the first failed job, printing its name and status —
/// the bench equivalent of BESYNC_CHECK_OK per job.
inline void CheckJobsOk(const std::vector<JobResult>& results) {
  for (const JobResult& job : results) {
    if (!job.status.ok()) {
      std::fprintf(stderr, "job '%s' failed: %s\n", job.name.c_str(),
                   job.status.ToString().c_str());
      std::exit(1);
    }
  }
}

}  // namespace besync

#endif  // BESYNC_BENCH_BENCH_COMMON_H_
