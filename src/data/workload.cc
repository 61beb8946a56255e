#include "data/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace besync {

std::string InterestPatternToString(InterestPattern pattern) {
  switch (pattern) {
    case InterestPattern::kSingleCache:
      return "single-cache";
    case InterestPattern::kPartitionedBySource:
      return "partitioned";
    case InterestPattern::kFullReplication:
      return "full-replication";
    case InterestPattern::kZipfOverlap:
      return "zipf-overlap";
  }
  return "unknown";
}

std::vector<std::vector<int32_t>> SourcesByCache(const Workload& workload) {
  std::vector<std::vector<int32_t>> sources(
      static_cast<size_t>(workload.num_caches));
  // Objects are grouped by source and each spec's cache list is ascending,
  // so appending while deduplicating against the back keeps lists sorted.
  for (const ObjectSpec& spec : workload.objects) {
    for (int32_t cache : spec.caches) {
      auto& list = sources[cache];
      if (list.empty() || list.back() != spec.source_index) {
        list.push_back(spec.source_index);
      }
    }
  }
  return sources;
}

ObjectSpec CloneObjectSpec(const ObjectSpec& spec) {
  ObjectSpec clone;
  clone.index = spec.index;
  clone.source_index = spec.source_index;
  clone.caches = spec.caches;
  clone.lambda = spec.lambda;
  clone.initial_value = spec.initial_value;
  if (spec.process != nullptr) clone.process = spec.process->Clone();
  if (spec.weight != nullptr) clone.weight = spec.weight->Clone();
  if (spec.source_weight != nullptr) clone.source_weight = spec.source_weight->Clone();
  clone.max_divergence_rate = spec.max_divergence_rate;
  clone.refresh_cost = spec.refresh_cost;
  clone.rng_seed = spec.rng_seed;
  return clone;
}

Workload CloneWorkload(const Workload& workload) {
  Workload clone;
  clone.num_sources = workload.num_sources;
  clone.objects_per_source = workload.objects_per_source;
  clone.num_caches = workload.num_caches;
  clone.topology = workload.topology;  // plain data, copyable
  clone.has_fluctuating_weights = workload.has_fluctuating_weights;
  clone.read = workload.read;  // plain data, copyable
  clone.read_streams.reserve(workload.read_streams.size());
  for (const std::unique_ptr<ReadProcess>& stream : workload.read_streams) {
    clone.read_streams.push_back(stream != nullptr ? stream->Clone() : nullptr);
  }
  clone.faults = workload.faults;  // plain data, copyable
  clone.objects.reserve(workload.objects.size());
  for (const ObjectSpec& spec : workload.objects) {
    clone.objects.push_back(CloneObjectSpec(spec));
  }
  return clone;
}

namespace {

/// Assigns `spec->caches` for one object under the configured interest
/// pattern. `interest_rng` is drawn from only in kZipfOverlap mode, so the
/// default patterns leave the generator stream untouched.
void AssignInterest(const WorkloadConfig& config, Rng* interest_rng,
                    ObjectSpec* spec) {
  const int32_t primary =
      spec->source_index % static_cast<int32_t>(config.num_caches);
  switch (config.interest_pattern) {
    case InterestPattern::kSingleCache:
      spec->caches = {0};
      break;
    case InterestPattern::kPartitionedBySource:
      spec->caches = {primary};
      break;
    case InterestPattern::kFullReplication:
      spec->caches.resize(config.num_caches);
      for (int c = 0; c < config.num_caches; ++c) spec->caches[c] = c;
      break;
    case InterestPattern::kZipfOverlap: {
      const int degree = static_cast<int>(
          interest_rng->Zipf(config.num_caches, config.zipf_overlap_exponent));
      spec->caches.clear();
      for (int k = 0; k < degree; ++k) {
        spec->caches.push_back((primary + k) %
                               static_cast<int32_t>(config.num_caches));
      }
      std::sort(spec->caches.begin(), spec->caches.end());
      break;
    }
  }
}

}  // namespace

Status ValidateWorkloadConfig(const WorkloadConfig& config) {
  if (config.num_sources < 1) {
    return Status::InvalidArgument("num_sources must be >= 1, got ",
                                   config.num_sources);
  }
  if (config.objects_per_source < 1) {
    return Status::InvalidArgument("objects_per_source must be >= 1, got ",
                                   config.objects_per_source);
  }
  if (config.num_caches < 1) {
    return Status::InvalidArgument("num_caches must be >= 1, got ",
                                   config.num_caches);
  }
  if (config.interest_pattern == InterestPattern::kSingleCache &&
      config.num_caches != 1) {
    return Status::InvalidArgument(
        "interest_pattern kSingleCache requires num_caches == 1");
  }
  // Negated comparisons plus isfinite, so NaN and infinities fail too: a
  // NaN rate aborts the update process and an infinite one never advances.
  if (!(config.rate_lo >= 0.0 && config.rate_hi >= config.rate_lo) ||
      !std::isfinite(config.rate_hi)) {
    return Status::InvalidArgument("invalid rate range [", config.rate_lo, ", ",
                                   config.rate_hi, "]");
  }
  if (!(config.slow_rate >= 0.0) || !std::isfinite(config.slow_rate)) {
    return Status::InvalidArgument("slow_rate must be finite and >= 0, got ",
                                   config.slow_rate);
  }
  if (!(config.fast_rate >= 0.0) || !std::isfinite(config.fast_rate)) {
    return Status::InvalidArgument("fast_rate must be finite and >= 0, got ",
                                   config.fast_rate);
  }
  if (config.update_model == WorkloadConfig::UpdateModel::kBernoulli &&
      (config.rate_hi > 1.0 || config.fast_rate > 1.0)) {
    return Status::InvalidArgument(
        "Bernoulli update probabilities must be <= 1");
  }

  if (config.large_cost < 1) {
    return Status::InvalidArgument("large_cost must be >= 1");
  }
  if (config.relay_tiers < 0) {
    return Status::InvalidArgument("relay_tiers must be >= 0, got ",
                                   config.relay_tiers);
  }
  if (config.relay_tiers > 0 && config.relay_fanout < 1) {
    return Status::InvalidArgument("relay_fanout must be >= 1, got ",
                                   config.relay_fanout);
  }
  if (config.relay_bandwidth_factor < 0.0) {
    return Status::InvalidArgument("relay_bandwidth_factor must be >= 0");
  }
  // Negated comparisons so NaN fails them too.
  if (!(config.read.read_rate >= 0.0)) {
    return Status::InvalidArgument("read_rate must be >= 0, got ",
                                   config.read.read_rate);
  }
  if (!(config.read.capacity >= 0)) {
    return Status::InvalidArgument("read capacity must be >= 0, got ",
                                   config.read.capacity);
  }
  if (config.read.read_rate > 0.0 && !(config.read.zipf_exponent > 0.0)) {
    return Status::InvalidArgument("zipf_exponent must be > 0, got ",
                                   config.read.zipf_exponent);
  }
  if (!(config.read.pull_retry_interval > 0.0)) {
    return Status::InvalidArgument("pull_retry_interval must be > 0, got ",
                                   config.read.pull_retry_interval);
  }
  if (config.fault.cache_crashes < 0 || config.fault.relay_failures < 0 ||
      config.fault.link_flaps < 0 || config.fault.slowdowns < 0) {
    return Status::InvalidArgument("fault event counts must be >= 0");
  }
  if (config.fault.enabled()) {
    if (config.fault.crash_duration <= 0.0 ||
        config.fault.relay_fail_duration <= 0.0 ||
        config.fault.flap_duration <= 0.0 || config.fault.slow_duration <= 0.0) {
      return Status::InvalidArgument("fault durations must be > 0");
    }
    if (config.fault.slowdowns > 0 &&
        (config.fault.slow_factor <= 0.0 || config.fault.slow_factor > 1.0)) {
      return Status::InvalidArgument("fault slow_factor must be in (0, 1]");
    }
    if (config.fault.crash_cache >= config.num_caches) {
      return Status::InvalidArgument("fault crash_cache ", config.fault.crash_cache,
                                     " outside the ", config.num_caches, " caches");
    }
    if (config.fault.relay_failures > 0 && config.relay_tiers <= 0) {
      return Status::InvalidArgument(
          "fault relay_failures require a relay topology (relay_tiers > 0)");
    }
  }
  return Status::OK();
}

Result<Workload> MakeWorkload(const WorkloadConfig& config) {
  BESYNC_RETURN_IF_ERROR(ValidateWorkloadConfig(config));
  Rng rng(config.seed);
  const int64_t total =
      static_cast<int64_t>(config.num_sources) * config.objects_per_source;

  // Random half-splits for rate, weight and cost skew, drawn independently
  // ("an independently- and randomly-selected half", Section 4.3).
  std::vector<bool> fast_half(total, false);
  std::vector<bool> heavy_half(total, false);
  std::vector<bool> large_half(total, false);
  {
    std::vector<int64_t> ids(total);
    for (int64_t i = 0; i < total; ++i) ids[i] = i;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) fast_half[ids[i]] = true;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) heavy_half[ids[i]] = true;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) large_half[ids[i]] = true;
  }

  Workload workload;
  workload.num_sources = config.num_sources;
  workload.objects_per_source = config.objects_per_source;
  workload.num_caches = config.num_caches;
  if (config.relay_tiers > 0) {
    workload.topology =
        MakeRelayTree(config.num_caches, config.relay_fanout, config.relay_tiers);
    workload.topology.relay_bandwidth_factor = config.relay_bandwidth_factor;
    if (config.fault.relay_failures > 0) {
      // Failing relays re-home their children to a same-tier backup (falling
      // back to tier-1 promotion where a tier has a single relay). Draws no
      // randomness; declared only when the schedule can actually fail one.
      AssignBackupParents(&workload.topology);
    }
  }
  workload.has_fluctuating_weights = config.weight_fluctuation_amplitude > 0.0;
  // Read-path knobs travel on the workload; the streams themselves are
  // built at run time from read.seed, so this consumes no generator
  // randomness (read-enabled workloads carry identical update streams).
  workload.read = config.read;
  // Fault events draw from their own fault.seed stream (none at all when
  // disabled), so enabling faults leaves the object specs and update
  // streams below bit-identical.
  workload.faults =
      MakeFaultSchedule(config.fault, config.num_caches, workload.topology);
  BESYNC_RETURN_IF_ERROR(
      workload.faults.Validate(workload.topology, config.num_caches));
  workload.objects.reserve(total);

  // Interest assignment uses a dedicated stream so the default single-cache
  // path consumes no randomness and stays bit-identical to the historical
  // generator output.
  Rng interest_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);

  for (int64_t i = 0; i < total; ++i) {
    ObjectSpec spec;
    spec.index = i;
    spec.source_index = static_cast<int32_t>(i / config.objects_per_source);
    AssignInterest(config, &interest_rng, &spec);

    switch (config.rate_distribution) {
      case RateDistribution::kUniform:
        spec.lambda = rng.Uniform(config.rate_lo, config.rate_hi);
        break;
      case RateDistribution::kHalfSlowHalfFast:
        spec.lambda = fast_half[i] ? config.fast_rate : config.slow_rate;
        break;
    }

    switch (config.update_model) {
      case WorkloadConfig::UpdateModel::kPoisson:
        spec.process =
            std::make_unique<PoissonRandomWalkProcess>(spec.lambda, config.value_step);
        break;
      case WorkloadConfig::UpdateModel::kBernoulli:
        spec.process =
            std::make_unique<BernoulliRandomWalkProcess>(spec.lambda, config.value_step);
        break;
    }

    double base_weight = 1.0;
    if (config.weight_scheme == WeightScheme::kHalfHeavy && heavy_half[i]) {
      base_weight = config.heavy_weight;
    }
    spec.weight = MakeWeightFluctuation(
        base_weight, config.weight_fluctuation_amplitude, config.weight_period_min,
        config.weight_period_max, &rng);

    if (config.cost_scheme == CostScheme::kHalfLarge && large_half[i]) {
      spec.refresh_cost = config.large_cost;
    }

    // Random-walk values diverge at most `step` per update, so the maximum
    // divergence rate under the value-deviation metric is lambda * step
    // (used only by the Section 9 bounding policy).
    spec.max_divergence_rate = spec.lambda * config.value_step;

    spec.initial_value = 0.0;
    spec.rng_seed = rng.NextUint64();
    workload.objects.push_back(std::move(spec));
  }

  return workload;
}

}  // namespace besync
