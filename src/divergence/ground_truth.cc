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
  const size_t num_slots = num_entries_ + workload->objects.size();
  if (arena != nullptr) {
    slots_ = arena->AllocateArray<Slot>(num_slots);
  } else {
    owned_slots_.resize(num_slots);
    slots_ = owned_slots_.data();
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
      slots_[EntrySlot(static_cast<ObjectIndex>(i), r)].entry =
          Entry{0.0, 0, 0.0, spec.caches[r]};
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
    Slot* slots = slots_ + RecordSlot(static_cast<ObjectIndex>(i), replica_base_[i]);
    slots[0].object = ObjectTruth{spec.initial_value, 0, WeightFn(spec)->ValueAt(t)};
    for (int r = 0; r < spec.num_replicas(); ++r) {
      Entry& entry = slots[1 + r].entry;
      entry.cached_value = spec.initial_value;
      entry.cached_version = 0;
      entry.divergence = 0.0;
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

void GroundTruth::SetDivergence(Entry* entry, double divergence, double weight) {
  weighted_sum_[entry->cache_id] += (divergence - entry->divergence) * weight;
  unweighted_sum_[entry->cache_id] += divergence - entry->divergence;
  entry->divergence = divergence;
}

void GroundTruth::RebuildSums() {
  std::fill(weighted_sum_.begin(), weighted_sum_.end(), 0.0);
  std::fill(unweighted_sum_.begin(), unweighted_sum_.end(), 0.0);
  // Replica order, object by object: the order of one pass over a flat
  // entry table.
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    const Slot* slots = slots_ + RecordSlot(static_cast<ObjectIndex>(i), replica_base_[i]);
    const double weight = slots[0].object.weight;
    for (int r = 1; r <= workload_->objects[i].num_replicas(); ++r) {
      const Entry& entry = slots[r].entry;
      weighted_sum_[entry.cache_id] += entry.divergence * weight;
      unweighted_sum_[entry.cache_id] += entry.divergence;
    }
  }
}

void GroundTruth::OnSourceUpdate(ObjectIndex index, size_t replica_base,
                                 int num_replicas, double t, double value,
                                 int64_t version) {
  BESYNC_DCHECK(replica_base == replica_base_[index]);
  BESYNC_DCHECK(num_replicas == workload_->objects[index].num_replicas());
  AdvanceTo(t);
  Slot* slots = slots_ + RecordSlot(index, replica_base);
  ObjectTruth& object = slots[0].object;
  object.source_value = value;
  object.source_version = version;
  const double weight = object.weight;
  for (int r = 1; r <= num_replicas; ++r) {
    Entry& entry = slots[r].entry;
    SetDivergence(&entry,
                  metric_->Divergence(value, version, entry.cached_value,
                                      entry.cached_version),
                  weight);
  }
}

void GroundTruth::OnCacheApply(ObjectIndex index, int32_t replica, double t,
                               double value, int64_t version) {
  BESYNC_DCHECK(replica >= 0 && replica < workload_->objects[index].num_replicas());
  AdvanceTo(t);
  Slot* slots = slots_ + RecordSlot(index, replica_base_[index]);
  Entry& entry = slots[1 + replica].entry;
  // Refreshes may be delivered out of order relative to newer content only
  // in CGM-style protocols; never regress the cached version.
  if (version < entry.cached_version) return;
  entry.cached_value = value;
  entry.cached_version = version;
  const ObjectTruth& object = slots[0].object;
  SetDivergence(&entry,
                metric_->Divergence(object.source_value, object.source_version, value,
                                    version),
                object.weight);
}

void GroundTruth::OnCacheApply(ObjectIndex index, double t, double value,
                               int64_t version) {
  OnCacheApply(index, /*replica=*/0, t, value, version);
}

void GroundTruth::RefreshWeights(double t) {
  AdvanceTo(t);
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    slots_[RecordSlot(static_cast<ObjectIndex>(i), replica_base_[i])].object.weight =
        WeightFn(workload_->objects[i])->ValueAt(t);
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
