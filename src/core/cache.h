#ifndef BESYNC_CORE_CACHE_H_
#define BESYNC_CORE_CACHE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.h"

namespace besync {

/// One cache's role in the cooperative protocol (Section 5): learn the
/// thresholds of its interested sources from piggybacked refresh messages,
/// monitor cache-side bandwidth utilization, and spend any surplus on
/// positive feedback messages, targeting the sources with the highest local
/// thresholds first. In the multi-cache topology every cache runs one
/// independent CacheAgent over the sources that replicate objects at it.
class CacheAgent {
 public:
  /// Cache `cache_id` cooperating with the given ascending list of source
  /// ids (the sources with at least one object replicated at this cache).
  CacheAgent(int32_t cache_id, std::vector<int32_t> sources);

  /// Single-cache convenience: cache 0 over all sources 0..num_sources-1.
  explicit CacheAgent(int num_sources);

  int32_t cache_id() const { return cache_id_; }
  int num_sources() const { return static_cast<int>(source_ids_.size()); }

  /// Records a delivered refresh message (learns the piggybacked threshold).
  void RecordRefresh(const Message& message, double t);

  /// Selects up to `limit` distinct sources for positive feedback: highest
  /// known thresholds first ("the sources with the highest local thresholds
  /// are selected to receive feedback"); sources whose thresholds are still
  /// unknown sort first so they are bootstrapped quickly; ties go to the
  /// least recently fed source. Marks the selected sources as fed at `now`
  /// and returns how many it selected; feedback_target(k) is the k-th, in
  /// selection order, until the next call.
  int SelectFeedbackTargets(int64_t limit, double now);
  /// Source id of the k-th target of the last SelectFeedbackTargets call.
  int32_t feedback_target(int k) const { return source_ids_[scratch_[k]]; }

  /// Last threshold piggybacked by source `j` (a source id), or +infinity
  /// if none seen.
  double known_threshold(int j) const { return sources_[SlotOf(j)].threshold; }

 private:
  struct SourceInfo {
    double threshold = std::numeric_limits<double>::infinity();
    bool known = false;
    double last_fed = -std::numeric_limits<double>::infinity();
  };

  int SlotOf(int32_t source_id) const;

  int32_t cache_id_ = 0;
  /// Ascending source ids this cache cooperates with; slot k holds state for
  /// source_ids_[k].
  std::vector<int32_t> source_ids_;
  /// source id -> slot (-1 for uninterested sources).
  std::vector<int32_t> slot_of_source_;
  std::vector<SourceInfo> sources_;
  /// Slots in selection order: the last selection's targets first. Sorted
  /// in place by each call, never reallocated.
  std::vector<int> scratch_;
};

}  // namespace besync

#endif  // BESYNC_CORE_CACHE_H_
