#include "exp/experiment.h"

#include <cmath>

#include "util/logging.h"

namespace besync {

std::string SchedulerKindToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCooperative:
      return "cooperative";
    case SchedulerKind::kIdealCooperative:
      return "ideal-cooperative";
    case SchedulerKind::kIdealCacheBased:
      return "ideal-cache-based";
    case SchedulerKind::kCGM1:
      return "cgm1";
    case SchedulerKind::kCGM2:
      return "cgm2";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

std::unique_ptr<Scheduler> MakeScheduler(const ExperimentConfig& config) {
  switch (config.scheduler) {
    case SchedulerKind::kCooperative: {
      CooperativeConfig cooperative;
      cooperative.num_caches = config.workload.num_caches;
      cooperative.cache_bandwidth_avg = config.cache_bandwidth_avg;
      cooperative.cache_bandwidths = config.cache_bandwidths;
      cooperative.source_bandwidth_avg = config.source_bandwidth_avg;
      cooperative.bandwidth_change_rate = config.bandwidth_change_rate;
      cooperative.policy = config.policy;
      cooperative.source.threshold = config.threshold;
      cooperative.source.monitor = config.monitor;
      cooperative.source.sampling_interval = config.sampling_interval;
      cooperative.source.predictive_sampling = config.predictive_sampling;
      cooperative.source.lambda_mode = config.lambda_mode;
      cooperative.source.cost_aware_priority = config.cost_aware_priority;
      cooperative.source.max_batch = config.max_batch;
      cooperative.source.max_batch_delay = config.max_batch_delay;
      cooperative.loss_rate = config.loss_rate;
      cooperative.topology = config.topology;
      cooperative.relay_forward = config.relay_forward;
      cooperative.protocol = config.protocol;
      cooperative.recovery_policy = config.recovery_policy;
      cooperative.relay_store_policy = config.relay_store_policy;
      cooperative.phase_timer = config.phase_timer;
      cooperative.obs = config.obs;
      return std::make_unique<CooperativeScheduler>(cooperative);
    }
    case SchedulerKind::kIdealCooperative: {
      IdealConfig ideal;
      ideal.cache_bandwidth_avg = config.cache_bandwidth_avg;
      ideal.source_bandwidth_avg = config.source_bandwidth_avg;
      ideal.bandwidth_change_rate = config.bandwidth_change_rate;
      ideal.policy = config.policy;
      ideal.lambda_mode = LambdaEstimateMode::kTrue;
      ideal.cost_aware_priority = config.cost_aware_priority;
      return std::make_unique<IdealCooperativeScheduler>(ideal);
    }
    case SchedulerKind::kIdealCacheBased: {
      CacheDrivenConfig cache_driven;
      cache_driven.cache_bandwidth_avg = config.cache_bandwidth_avg;
      cache_driven.bandwidth_change_rate = config.bandwidth_change_rate;
      return std::make_unique<IdealCacheBasedScheduler>(cache_driven);
    }
    case SchedulerKind::kCGM1:
    case SchedulerKind::kCGM2: {
      CGMConfig cgm = config.cgm;
      cgm.network.cache_bandwidth_avg = config.cache_bandwidth_avg;
      cgm.network.bandwidth_change_rate = config.bandwidth_change_rate;
      cgm.variant = config.scheduler == SchedulerKind::kCGM1
                        ? CGMVariant::kLastModified
                        : CGMVariant::kBooleanChange;
      return std::make_unique<CGMScheduler>(cgm);
    }
    case SchedulerKind::kRoundRobin: {
      CacheDrivenConfig cache_driven;
      cache_driven.cache_bandwidth_avg = config.cache_bandwidth_avg;
      cache_driven.bandwidth_change_rate = config.bandwidth_change_rate;
      return std::make_unique<RoundRobinScheduler>(cache_driven);
    }
  }
  BESYNC_CHECK(false) << "unknown scheduler kind";
  return nullptr;
}

Status ValidateExperimentConfig(const ExperimentConfig& config) {
  BESYNC_RETURN_IF_ERROR(ValidateHarnessConfig(config.harness));
  // Negated comparisons so NaN fails too.
  if (!(config.cache_bandwidth_avg > 0.0)) {
    return Status::InvalidArgument("cache_bandwidth_avg must be > 0, got ",
                                   config.cache_bandwidth_avg);
  }
  if (!(config.loss_rate >= 0.0 && config.loss_rate < 1.0)) {
    return Status::InvalidArgument("loss_rate must be in [0, 1), got ",
                                   config.loss_rate);
  }
  if (config.run_threads != 1) {
    return Status::InvalidArgument(
        "run_threads must be 1 (the tick is single-threaded), got ",
        config.run_threads);
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1, got ", config.max_batch);
  }
  if (!(config.max_batch_delay >= 0.0)) {
    return Status::InvalidArgument("max_batch_delay must be >= 0, got ",
                                   config.max_batch_delay);
  }
  if (config.max_batch > 1 && config.workload.cost_scheme != CostScheme::kUniform) {
    return Status::InvalidArgument(
        "max_batch > 1 packs a batch into one unit-cost message, so it requires "
        "cost_scheme uniform");
  }
  if (config.monitor == MonitorMode::kSampling &&
      !(std::isfinite(config.sampling_interval) && config.sampling_interval > 0.0)) {
    return Status::InvalidArgument(
        "sampling_interval must be finite and > 0 under sampling, got ",
        config.sampling_interval);
  }
  return Status::OK();
}

Result<RunResult> RunExperimentOnWorkload(const ExperimentConfig& config,
                                          const Workload* workload) {
  BESYNC_RETURN_IF_ERROR(ValidateExperimentConfig(config));
  if (workload == nullptr) return Status::InvalidArgument("null workload");
  const bool tree_topology =
      !config.topology.flat() || !workload->topology.flat();
  if (tree_topology && config.scheduler != SchedulerKind::kCooperative) {
    return Status::InvalidArgument(
        "relay topologies are a cooperative-protocol feature; scheduler ",
        SchedulerKindToString(config.scheduler), " models the one-hop star only");
  }
  if ((workload->reads_enabled() || workload->read.capacity > 0) &&
      config.scheduler != SchedulerKind::kCooperative) {
    return Status::InvalidArgument(
        "the client read path (read_rate / read_streams / finite capacity) "
        "is modeled by the cooperative protocol only; scheduler ",
        SchedulerKindToString(config.scheduler),
        " would silently ignore it while its results were labeled with it");
  }
  if (config.obs.enabled && config.scheduler != SchedulerKind::kCooperative) {
    return Status::InvalidArgument(
        "observability (time series / tracing) is instrumented in the "
        "cooperative engine only; scheduler ",
        SchedulerKindToString(config.scheduler),
        " would run silently with no output files");
  }
  if (!workload->faults.empty() &&
      config.scheduler != SchedulerKind::kCooperative) {
    return Status::InvalidArgument(
        "fault schedules are a cooperative-engine feature; scheduler ",
        SchedulerKindToString(config.scheduler),
        " has no crash/failover hooks and would silently run fault-free");
  }
  if (config.protocol.kind != SyncProtocolKind::kPushRefresh) {
    if (config.scheduler != SchedulerKind::kCooperative) {
      return Status::InvalidArgument(
          "consistency protocol ", SyncProtocolKindToString(config.protocol.kind),
          " is a cooperative-engine feature; scheduler ",
          SchedulerKindToString(config.scheduler), " hard-codes its own refresh rule");
    }
    if (!workload->reads_enabled()) {
      return Status::InvalidArgument(
          "consistency protocol ", SyncProtocolKindToString(config.protocol.kind),
          " requires client reads (read_rate or read_streams): without reads "
          "nothing ever pulls an invalid/expired replica back in");
    }
  }
  // The topology the scheduler will run: a non-flat config override wins
  // over the workload's (CooperativeScheduler::Initialize). The fault
  // schedule must target that topology's relays, or Initialize aborts.
  const TopologySpec& topology =
      !config.topology.flat() ? config.topology : workload->topology;
  if (!topology.flat()) {
    BESYNC_RETURN_IF_ERROR(topology.Validate(workload->num_caches));
  }
  if (!workload->faults.empty()) {
    BESYNC_RETURN_IF_ERROR(workload->faults.Validate(topology, workload->num_caches));
  }
  const std::unique_ptr<DivergenceMetric> metric = MakeMetric(config.metric);
  const std::unique_ptr<Scheduler> scheduler = MakeScheduler(config);
  return RunScheduler(workload, metric.get(), config.harness, scheduler.get());
}

Result<RunResult> RunExperiment(const ExperimentConfig& config) {
  Workload workload;
  BESYNC_ASSIGN_OR_RETURN(workload, MakeWorkload(config.workload));
  return RunExperimentOnWorkload(config, &workload);
}

}  // namespace besync
