#include "obs/export.h"

#include <fstream>
#include <map>
#include <set>

#include "util/json.h"
#include "util/phase_timer.h"

namespace besync {
namespace {

// Microseconds: the trace_event convention. Simulation seconds are already
// small, so the scale keeps Perfetto's zoom ergonomics sane.
std::string TraceTs(double t) { return JsonNumber(t * 1e6); }

// Track (tid) assignment inside one job's process: 0 = tick phases, then
// per-cache, per-source, and per-node tracks in disjoint ranges. Purely a
// function of the event.
constexpr int64_t kTidPhases = 0;
constexpr int64_t kTidRun = 9999;
constexpr int64_t kTidCacheBase = 1;
constexpr int64_t kTidSourceBase = 10000;
constexpr int64_t kTidNodeBase = 20000;

int64_t EventTid(const TraceEvent& event) {
  if (event.kind == TraceEventKind::kRelayStore ||
      event.kind == TraceEventKind::kRelayForward) {
    return kTidNodeBase + event.node;
  }
  if (event.cache >= 0) return kTidCacheBase + event.cache;
  if (event.node >= 0) return kTidNodeBase + event.node;
  if (event.source >= 0) return kTidSourceBase + event.source;
  return kTidRun;
}

std::string TidName(int64_t tid) {
  if (tid == kTidPhases) return "tick_phases";
  if (tid == kTidRun) return "run";
  if (tid >= kTidNodeBase) return "node " + std::to_string(tid - kTidNodeBase);
  if (tid >= kTidSourceBase) {
    return "source " + std::to_string(tid - kTidSourceBase);
  }
  return "cache " + std::to_string(tid - kTidCacheBase);
}

}  // namespace

void WriteTimeSeriesJson(std::ostream& os, const std::vector<ObsJob>& jobs) {
  os << "{\n  \"schema\": \"besync.timeseries.v1\",\n  \"jobs\": [\n";
  bool first_job = true;
  for (const ObsJob& job : jobs) {
    if (job.obs == nullptr) continue;
    const TimeSeries& series = job.obs->series;
    if (!first_job) os << ",\n";
    first_job = false;
    os << "    {\"name\": " << JsonString(job.name)
       << ", \"sample_interval\": " << JsonNumber(series.sample_interval())
       << ", \"effective_interval\": "
       << JsonNumber(series.effective_interval())
       << ", \"samples_dropped\": " << series.samples_dropped()
       << ",\n     \"columns\": [\"t\"";
    for (const std::string& column : series.columns()) {
      os << ", " << JsonString(column);
    }
    os << "],\n     \"samples\": [";
    for (size_t i = 0; i < series.rows().size(); ++i) {
      const TimeSeries::Row& row = series.rows()[i];
      os << (i == 0 ? "\n" : ",\n") << "       [" << JsonNumber(row.t);
      for (double value : row.values) os << ", " << JsonNumber(value);
      os << "]";
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n}\n";
}

void WriteTraceJson(std::ostream& os, const std::vector<ObsJob>& jobs) {
  os << "{\n  \"schema\": \"besync.trace.v1\",\n"
     << "  \"displayTimeUnit\": \"ms\",\n  \"jobs\": [\n";
  bool first_job = true;
  int pid = -1;
  for (const ObsJob& job : jobs) {
    ++pid;
    if (job.obs == nullptr) continue;
    if (!first_job) os << ",\n";
    first_job = false;
    os << "    {\"name\": " << JsonString(job.name) << ", \"pid\": " << pid
       << ", \"tick_length\": " << JsonNumber(job.obs->tick_length)
       << ", \"trace_dropped\": " << job.obs->trace_dropped
       << ", \"events\": " << job.obs->trace.size() << "}";
  }
  os << "\n  ],\n  \"traceEvents\": [";

  bool first_event = true;
  auto emit = [&os, &first_event](const std::string& line) {
    os << (first_event ? "\n" : ",\n") << "    " << line;
    first_event = false;
  };

  pid = -1;
  for (const ObsJob& job : jobs) {
    ++pid;
    if (job.obs == nullptr) continue;
    const ObsOutput& obs = *job.obs;
    const std::string pid_str = std::to_string(pid);

    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " + pid_str +
         ", \"tid\": 0, \"args\": {\"name\": " + JsonString(job.name) + "}}");

    // Thread-name metadata for every track this job actually uses,
    // ascending tid.
    std::set<int64_t> tids;
    if (!obs.tick_times.empty()) tids.insert(kTidPhases);
    for (const TraceEvent& event : obs.trace) tids.insert(EventTid(event));
    for (int64_t tid : tids) {
      emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " + pid_str +
           ", \"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": " +
           JsonString(TidName(tid)) + "}}");
    }

    // Tick-phase duration slices: each recorded tick is split into the six
    // engine phases in execution order, equal sim-time widths. These show
    // the cadence and phase sequence deterministically; wall-clock phase
    // costs are hostbench's to measure (hostbench/README.md).
    const double slice = obs.tick_length / PhaseTimer::kNumPhases;
    for (double tick : obs.tick_times) {
      for (int phase = 0; phase < PhaseTimer::kNumPhases; ++phase) {
        emit("{\"name\": \"" +
             std::string(
                 PhaseTimer::Name(static_cast<PhaseTimer::Phase>(phase))) +
             "\", \"ph\": \"X\", \"ts\": " + TraceTs(tick + phase * slice) +
             ", \"dur\": " + TraceTs(slice) + ", \"pid\": " + pid_str +
             ", \"tid\": 0}");
      }
    }

    for (const TraceEvent& event : obs.trace) {
      std::string line = "{\"name\": \"";
      line += TraceEventKindToString(event.kind);
      line += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
      line += TraceTs(event.t);
      line += ", \"pid\": " + pid_str;
      line += ", \"tid\": " + std::to_string(EventTid(event));
      line += ", \"args\": {\"t\": " + JsonNumber(event.t);
      line += ", \"object\": " + std::to_string(event.object);
      line += ", \"cache\": " + std::to_string(event.cache);
      line += ", \"source\": " + std::to_string(event.source);
      line += ", \"node\": " + std::to_string(event.node);
      line += ", \"version\": " + std::to_string(event.version);
      line += ", \"aux\": " + std::to_string(event.aux);
      line += ", \"pull\": " + std::string(event.is_pull ? "true" : "false");
      line += ", \"value\": " + JsonNumber(event.value);
      line += "}}";
      emit(line);
    }
  }
  os << "\n  ]\n}\n";
}

namespace {

Status WriteFile(const std::string& path, const std::vector<ObsJob>& jobs,
                 void (*writer)(std::ostream&, const std::vector<ObsJob>&)) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open ", path, " for writing");
  writer(file, jobs);
  file.flush();
  if (!file) return Status::IOError("short write to ", path);
  return Status::OK();
}

}  // namespace

Status WriteTimeSeriesFile(const std::string& path,
                           const std::vector<ObsJob>& jobs) {
  return WriteFile(path, jobs, &WriteTimeSeriesJson);
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<ObsJob>& jobs) {
  return WriteFile(path, jobs, &WriteTraceJson);
}

}  // namespace besync
