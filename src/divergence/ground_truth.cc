#include "divergence/ground_truth.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

GroundTruth::GroundTruth(const Workload* workload, const DivergenceMetric* metric,
                         bool use_source_weights, Arena* arena)
    : workload_(workload), metric_(metric), use_source_weights_(use_source_weights) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK(metric != nullptr);
  replica_base_.reserve(workload->objects.size());
  size_t base = 0;
  for (const ObjectSpec& spec : workload->objects) {
    replica_base_.push_back(base);
    BESYNC_CHECK_GE(spec.num_replicas(), 1);
    base += static_cast<size_t>(spec.num_replicas());
  }
  num_entries_ = base;
  if (arena != nullptr) {
    entries_ = arena->AllocateArray<Entry>(num_entries_);
  } else {
    owned_entries_.resize(num_entries_);
    entries_ = owned_entries_.data();
  }
  // The ObjectSpec::caches contract — in range, ascending, duplicate-free —
  // makes a replica slot (a position in the list) name exactly one cache.
  for (size_t i = 0; i < workload->objects.size(); ++i) {
    const ObjectSpec& spec = workload->objects[i];
    for (int r = 0; r < spec.num_replicas(); ++r) {
      BESYNC_CHECK_GE(spec.caches[r], 0);
      BESYNC_CHECK_LT(spec.caches[r], workload->num_caches);
      if (r > 0) {
        BESYNC_CHECK_LT(spec.caches[r - 1], spec.caches[r])
            << "object " << i << ": caches must be ascending and duplicate-free";
      }
      entries_[replica_base_[i] + r].cache_id = spec.caches[r];
    }
  }
  const size_t caches = static_cast<size_t>(workload->num_caches);
  weighted_sum_.assign(caches, 0.0);
  unweighted_sum_.assign(caches, 0.0);
  weighted_integral_.assign(caches, 0.0);
  unweighted_integral_.assign(caches, 0.0);
}

const Fluctuation* GroundTruth::WeightFn(const ObjectSpec& spec) const {
  return use_source_weights_ && spec.source_weight ? spec.source_weight.get()
                                                   : spec.weight.get();
}

void GroundTruth::Initialize(double t) {
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    const ObjectSpec& spec = workload_->objects[i];
    const double weight = WeightFn(spec)->ValueAt(t);
    for (int r = 0; r < spec.num_replicas(); ++r) {
      Entry& entry = entries_[replica_base_[i] + r];
      entry.source_value = spec.initial_value;
      entry.source_version = 0;
      entry.cached_value = spec.initial_value;
      entry.cached_version = 0;
      entry.divergence = 0.0;
      entry.weight = weight;
    }
  }
  last_time_ = t;
  measure_start_ = t;
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  RebuildSums();
}

void GroundTruth::AdvanceTo(double t) {
  BESYNC_DCHECK(t >= last_time_);
  const double dt = t - last_time_;
  if (dt > 0.0) {
    for (size_t c = 0; c < weighted_sum_.size(); ++c) {
      weighted_integral_[c] += weighted_sum_[c] * dt;
      unweighted_integral_[c] += unweighted_sum_[c] * dt;
    }
    last_time_ = t;
  }
}

void GroundTruth::SetDivergence(Entry* entry, double divergence) {
  weighted_sum_[entry->cache_id] += (divergence - entry->divergence) * entry->weight;
  unweighted_sum_[entry->cache_id] += divergence - entry->divergence;
  entry->divergence = divergence;
}

void GroundTruth::RebuildSums() {
  std::fill(weighted_sum_.begin(), weighted_sum_.end(), 0.0);
  std::fill(unweighted_sum_.begin(), unweighted_sum_.end(), 0.0);
  for (size_t i = 0; i < num_entries_; ++i) {
    const Entry& entry = entries_[i];
    weighted_sum_[entry.cache_id] += entry.divergence * entry.weight;
    unweighted_sum_[entry.cache_id] += entry.divergence;
  }
}

void GroundTruth::OnSourceUpdate(size_t replica_base, int num_replicas, double t,
                                 double value, int64_t version) {
  BESYNC_DCHECK(replica_base + static_cast<size_t>(num_replicas) <= num_entries_);
  AdvanceTo(t);
  Entry* entries = entries_ + replica_base;
  for (int r = 0; r < num_replicas; ++r) {
    Entry& entry = entries[r];
    entry.source_value = value;
    entry.source_version = version;
    SetDivergence(&entry, metric_->Divergence(value, version, entry.cached_value,
                                              entry.cached_version));
  }
}

void GroundTruth::OnCacheApply(ObjectIndex index, int32_t replica, double t,
                               double value, int64_t version) {
  BESYNC_DCHECK(replica >= 0 && replica < workload_->objects[index].num_replicas());
  AdvanceTo(t);
  Entry& entry = entries_[replica_base_[index] + static_cast<size_t>(replica)];
  // Refreshes may be delivered out of order relative to newer content only
  // in CGM-style protocols; never regress the cached version.
  if (version < entry.cached_version) return;
  entry.cached_value = value;
  entry.cached_version = version;
  SetDivergence(&entry, metric_->Divergence(entry.source_value, entry.source_version,
                                            value, version));
}

void GroundTruth::OnCacheApply(ObjectIndex index, double t, double value,
                               int64_t version) {
  OnCacheApply(index, /*replica=*/0, t, value, version);
}

void GroundTruth::RefreshWeights(double t) {
  AdvanceTo(t);
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    const ObjectSpec& spec = workload_->objects[i];
    const double weight = WeightFn(spec)->ValueAt(t);
    for (int r = 0; r < spec.num_replicas(); ++r) {
      entries_[replica_base_[i] + r].weight = weight;
    }
  }
  RebuildSums();
}

void GroundTruth::StartMeasurement(double t) {
  AdvanceTo(t);
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  measure_start_ = t;
  RebuildSums();
}

void GroundTruth::FinishMeasurement(double t) { AdvanceTo(t); }

double GroundTruth::TotalWeightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  double total = 0.0;
  for (double integral : weighted_integral_) total += integral;
  // Guard against tiny negative values from float cancellation when the
  // true integral is ~0.
  return std::max(0.0, total / duration);
}

double GroundTruth::PerCacheWeightedAverage(int32_t cache_id) const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return std::max(0.0, weighted_integral_[cache_id] / duration);
}

double GroundTruth::PerObjectWeightedAverage() const {
  return num_entries_ == 0
             ? 0.0
             : TotalWeightedAverage() / static_cast<double>(num_entries_);
}

double GroundTruth::PerObjectUnweightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0 || num_entries_ == 0) return 0.0;
  double total = 0.0;
  for (double integral : unweighted_integral_) total += integral;
  return std::max(0.0, total / duration / static_cast<double>(num_entries_));
}

}  // namespace besync
