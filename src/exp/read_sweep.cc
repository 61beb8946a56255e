#include "exp/read_sweep.h"

#include "util/table_printer.h"

namespace besync {

Result<std::vector<ExperimentJob>> ReadSweepJobs(const ReadSweepConfig& config) {
  if (config.read_rates.empty()) {
    return Status::InvalidArgument("read_rates must be non-empty");
  }
  if (config.capacities.empty()) {
    return Status::InvalidArgument("capacities must be non-empty");
  }
  if (config.evictions.empty()) {
    return Status::InvalidArgument("evictions must be non-empty");
  }
  for (double rate : config.read_rates) {
    if (!(rate > 0.0)) {  // NaN fails too
      return Status::InvalidArgument("read rates must be > 0, got ", rate);
    }
  }
  for (int64_t capacity : config.capacities) {
    if (capacity < 0) {
      return Status::InvalidArgument("capacities must be >= 0, got ", capacity);
    }
  }

  std::vector<ExperimentJob> jobs;
  for (double read_rate : config.read_rates) {
    for (int64_t capacity : config.capacities) {
      // An unbounded store never evicts; running each policy there would
      // just repeat one simulation under different labels.
      const int num_policies =
          capacity <= 0 ? 1 : static_cast<int>(config.evictions.size());
      for (int p = 0; p < num_policies; ++p) {
        const EvictionPolicy eviction = config.evictions[p];
        ExperimentJob job;
        job.config = config.base;
        job.config.scheduler = SchedulerKind::kCooperative;
        job.config.workload.read.read_rate = read_rate;
        job.config.workload.read.capacity = capacity;
        job.config.workload.read.eviction = eviction;
        job.name = "rate=" + TablePrinter::Cell(read_rate) + ",cap=" +
                   (capacity <= 0 ? std::string("inf") : std::to_string(capacity)) +
                   ",evict=" +
                   (capacity <= 0 ? std::string("-") : EvictionPolicyToString(eviction));
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

}  // namespace besync
