#ifndef BESYNC_DIVERGENCE_GROUND_TRUTH_H_
#define BESYNC_DIVERGENCE_GROUND_TRUTH_H_

#include <cstdint>
#include <vector>

#include "data/workload.h"
#include "divergence/metric.h"
#include "util/arena.h"
#include "util/prefetch.h"

namespace besync {

/// Ground-truth divergence accounting: tracks the *actual* contents of every
/// cache replica (which lag behind the sources whenever refresh messages
/// queue in the network) against the live source values, and integrates
/// weighted and unweighted divergence exactly over time.
///
/// One accounting entry exists per (object, cache) replica, as given by the
/// workload's interest map; the single-cache topology degenerates to one
/// entry per object. What every replica of an object shares — the live
/// source value and version and the weight — is kept once per object, in a
/// record just ahead of the object's entries. Sums and integrals are
/// maintained per cache, and the reported objective is the sum over caches
/// — Σ_c Σ_{i at c} of the time-averaged weighted divergence of replica
/// (i, c).
///
/// Divergence is piecewise constant between events, so the integrals are
/// maintained event-incrementally in O(#replicas) per source update and
/// O(1) per cache apply; fluctuating weights are re-evaluated periodically
/// via RefreshWeights() (the paper's standing assumption is that weights
/// change slowly relative to refresh timescales, Section 3.3).
class GroundTruth {
 public:
  /// `workload` and `metric` must outlive this object. When
  /// `use_source_weights` is set, objects that define a source_weight are
  /// weighted by it instead of the cache weight (competitive experiments,
  /// Section 7). When `arena` is non-null the slot table lives in it (the
  /// harness passes its run arena so it shares the flat hot-path layout);
  /// `arena` must then outlive this object. Null keeps self-owned storage —
  /// standalone uses need no arena.
  GroundTruth(const Workload* workload, const DivergenceMetric* metric,
              bool use_source_weights = false, Arena* arena = nullptr);

  /// Initializes every replica = source state (synchronized) at time `t`.
  void Initialize(double t);

  /// Records that source object `index` now has (value, version); every
  /// replica of the object diverges accordingly.
  void OnSourceUpdate(ObjectIndex index, double t, double value, int64_t version) {
    OnSourceUpdate(index, replica_base_[index], workload_->objects[index].num_replicas(),
                   t, value, version);
  }

  /// The same update with the object's flat replica range given: replicas
  /// `replica_base` .. `replica_base + num_replicas - 1`. Replicas are
  /// numbered object-major in ObjectSpec::caches order, so the base is the
  /// number of replicas of all lower-indexed objects — the offset of the
  /// object's trackers in the harness's flat tracker array. Skips the
  /// per-object spec and base-table loads of the index-only form.
  void OnSourceUpdate(ObjectIndex index, size_t replica_base, int num_replicas, double t,
                      double value, int64_t version);

  /// Prefetches the first lines of object `index`'s record and entries
  /// (its flat replica range as in the range form of OnSourceUpdate), at
  /// most kPrefetchLineCap of them. A cache hint for an update that fires
  /// soon; changes no state.
  void PrefetchReplicas(ObjectIndex index, size_t replica_base, int num_replicas) const {
    PrefetchRange(slots_ + RecordSlot(index, replica_base),
                  static_cast<size_t>(num_replicas + 1) * sizeof(Slot));
  }

  /// Records that the cache holding object `index`'s replica slot `replica`
  /// (its cache is ObjectSpec::caches[replica]) applied a refresh carrying
  /// (value, version) — the message content, which may itself be stale if
  /// the object changed again while the message was queued.
  void OnCacheApply(ObjectIndex index, int32_t replica, double t, double value,
                    int64_t version);

  /// Single-cache convenience: applies at the object's first replica.
  void OnCacheApply(ObjectIndex index, double t, double value, int64_t version);

  /// Re-evaluates all weights at time `t` (no-op work-wise for constant
  /// weights, but always rebuilds the running sums to bound float drift).
  void RefreshWeights(double t);

  /// Starts the measurement window (end of warm-up): zeroes accumulators.
  void StartMeasurement(double t);

  /// Closes integration at time `t` (call once at the end of the run).
  void FinishMeasurement(double t);

  // --- results (valid after FinishMeasurement) ---

  double measurement_duration() const { return last_time_ - measure_start_; }
  int num_caches() const { return static_cast<int>(weighted_integral_.size()); }
  int64_t total_replicas() const { return static_cast<int64_t>(num_entries_); }

  /// Σ over caches and replicas of the time-average of W(t)·D(t) — the
  /// paper's objective, generalized to the multi-cache topology.
  double TotalWeightedAverage() const;
  /// Contribution of one cache to TotalWeightedAverage().
  double PerCacheWeightedAverage(int32_t cache_id) const;
  /// TotalWeightedAverage() / number of replicas.
  double PerObjectWeightedAverage() const;
  /// Unweighted counterpart (Figure 6 reports unweighted staleness).
  double PerObjectUnweightedAverage() const;

  // --- live replica state (read by CGM estimators etc.) ---
  // The ObjectIndex-only forms read the object's first replica (exact for
  // single-cache topologies, where every object has one replica).

  double cached_value(ObjectIndex index) const {
    return slots_[EntrySlot(index, 0)].entry.cached_value;
  }
  int64_t cached_version(ObjectIndex index) const {
    return slots_[EntrySlot(index, 0)].entry.cached_version;
  }
  double source_value(ObjectIndex index) const {
    return slots_[RecordSlot(index, replica_base_[index])].object.source_value;
  }
  int64_t source_version(ObjectIndex index) const {
    return slots_[RecordSlot(index, replica_base_[index])].object.source_version;
  }
  double current_divergence(ObjectIndex index) const {
    return slots_[EntrySlot(index, 0)].entry.divergence;
  }
  /// Table position of the entry of object `index`'s replica slot
  /// `replica`, for callers that resolve their entries once up front and
  /// then read them with replica_divergence.
  size_t EntrySlot(ObjectIndex index, int32_t replica) const {
    return RecordSlot(index, replica_base_[index]) + 1 + static_cast<size_t>(replica);
  }
  /// Divergence of the replica whose entry is at table position `slot`
  /// (EntrySlot). Unchecked.
  double replica_divergence(size_t slot) const { return slots_[slot].entry.divergence; }

  /// Instantaneous Σ W * D over cache `cache_id`'s replicas — the running
  /// sum the time integrals integrate. Divergence is piecewise constant
  /// between update/apply events, so this is exact at any time with no
  /// AdvanceTo: reading it never perturbs the integration points (the
  /// observability sampler depends on that).
  double CurrentWeightedSum(int32_t cache_id) const {
    return weighted_sum_[cache_id];
  }

 private:
  /// Integrates the running sums up to `t`; every event entry point calls
  /// it first.
  void AdvanceTo(double t);

  /// One replica: what its cache holds and how far that is from the source.
  struct Entry {
    double cached_value;
    int64_t cached_version;
    double divergence;
    int32_t cache_id;
  };
  static_assert(sizeof(Entry) == 32, "two replica entries per cache line");

  /// One object: the live source state and the weight, the same for every
  /// replica of the object.
  struct ObjectTruth {
    double source_value;
    int64_t source_version;
    double weight;
  };

  /// One 32-byte position of the table, which runs object by object: the
  /// object's record, then one entry per replica. A single-replica object's
  /// record and entry are adjacent (one update touches one 64-byte span);
  /// a widely replicated object pays for its record once.
  union Slot {
    ObjectTruth object;
    Entry entry;
  };
  static_assert(sizeof(Slot) == 32, "a record or an entry per 32-byte slot");

  /// Table position of object `index`'s record: one record and
  /// `replica_base` entries precede it for each lower-indexed object.
  static size_t RecordSlot(ObjectIndex index, size_t replica_base) {
    return replica_base + static_cast<size_t>(index);
  }

  /// Replaces an entry's divergence, maintaining the running sums; `weight`
  /// is the entry's object's.
  void SetDivergence(Entry* entry, double divergence, double weight);
  /// Rebuilds the running sums from scratch (bounds accumulation error).
  void RebuildSums();
  const Fluctuation* WeightFn(const ObjectSpec& spec) const;

  const Workload* workload_;
  const DivergenceMetric* metric_;
  bool use_source_weights_;
  /// Per object, in index order: its record, then one entry per (object,
  /// cache) replica in the order of its ObjectSpec::caches list. Points
  /// into the constructor's arena when one was given, else into
  /// owned_slots_.
  Slot* slots_ = nullptr;
  size_t num_entries_ = 0;
  std::vector<Slot> owned_slots_;
  /// Replicas of all lower-indexed objects, per object (size = #objects).
  std::vector<size_t> replica_base_;
  // Running sums / integrals, one slot per cache.
  std::vector<double> weighted_sum_;    // Σ D * W at current time, per cache
  std::vector<double> unweighted_sum_;  // Σ D at current time, per cache
  std::vector<double> weighted_integral_;
  std::vector<double> unweighted_integral_;
  double last_time_ = 0.0;
  double measure_start_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_DIVERGENCE_GROUND_TRUTH_H_
