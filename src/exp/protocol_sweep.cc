#include "exp/protocol_sweep.h"

#include "util/table_printer.h"

namespace besync {

Result<std::vector<ExperimentJob>> ProtocolSweepJobs(
    const ProtocolSweepConfig& config) {
  if (config.protocols.empty()) {
    return Status::InvalidArgument("protocols must be non-empty");
  }
  if (config.read_rates.empty()) {
    return Status::InvalidArgument("read_rates must be non-empty");
  }
  if (config.bandwidths.empty()) {
    return Status::InvalidArgument("bandwidths must be non-empty");
  }
  if (config.relay_tiers.empty()) {
    return Status::InvalidArgument("relay_tiers must be non-empty");
  }
  for (double rate : config.read_rates) {
    if (rate <= 0.0) {
      // Invalidation/TTL replicas are refilled only by read-triggered pulls;
      // a read-free regime would pin them stale forever and the comparison
      // against push refresh would be meaningless (and an InvalidArgument
      // downstream anyway).
      return Status::InvalidArgument("read rates must be > 0, got ", rate);
    }
  }
  if (!(config.ttl > 0.0)) {
    return Status::InvalidArgument("ttl must be > 0, got ", config.ttl);
  }
  if (config.invalidate_batch < 1) {
    return Status::InvalidArgument("invalidate_batch must be >= 1, got ",
                                   config.invalidate_batch);
  }

  std::vector<ExperimentJob> jobs;
  for (double read_rate : config.read_rates) {
    for (double bandwidth : config.bandwidths) {
      for (int tiers : config.relay_tiers) {
        for (SyncProtocolKind protocol : config.protocols) {
          ExperimentJob job;
          job.config = config.base;
          job.config.scheduler = SchedulerKind::kCooperative;
          job.config.workload.read.read_rate = read_rate;
          job.config.cache_bandwidth_avg = bandwidth;
          job.config.workload.relay_tiers = tiers;
          job.config.protocol.kind = protocol;
          job.config.protocol.ttl = config.ttl;
          job.config.protocol.max_invalidate_batch = config.invalidate_batch;
          job.name = "proto=" + SyncProtocolKindToString(protocol) +
                     ",rate=" + TablePrinter::Cell(read_rate) +
                     ",bw=" + TablePrinter::Cell(bandwidth) +
                     ",tiers=" + std::to_string(tiers);
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

}  // namespace besync
