#include "core/cache.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace besync {

CacheAgent::CacheAgent(int32_t cache_id, std::vector<int32_t> sources)
    : cache_id_(cache_id), source_ids_(std::move(sources)) {
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK(!source_ids_.empty());
  int32_t max_id = -1;
  for (size_t k = 0; k < source_ids_.size(); ++k) {
    BESYNC_CHECK_GE(source_ids_[k], 0);
    if (k > 0) BESYNC_CHECK_GT(source_ids_[k], source_ids_[k - 1]);
    max_id = source_ids_[k];
  }
  slot_of_source_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (size_t k = 0; k < source_ids_.size(); ++k) {
    slot_of_source_[source_ids_[k]] = static_cast<int32_t>(k);
  }
  sources_.resize(source_ids_.size());
  scratch_.resize(source_ids_.size());
  for (size_t k = 0; k < source_ids_.size(); ++k) scratch_[k] = static_cast<int>(k);
}

namespace {
std::vector<int32_t> AllSources(int num_sources) {
  std::vector<int32_t> ids(static_cast<size_t>(num_sources));
  for (int j = 0; j < num_sources; ++j) ids[j] = j;
  return ids;
}
}  // namespace

CacheAgent::CacheAgent(int num_sources)
    : CacheAgent(/*cache_id=*/0, AllSources(num_sources)) {
  BESYNC_CHECK_GE(num_sources, 1);
}

int CacheAgent::SlotOf(int32_t source_id) const {
  BESYNC_DCHECK(source_id >= 0 &&
                source_id < static_cast<int32_t>(slot_of_source_.size()));
  const int slot = slot_of_source_[source_id];
  BESYNC_DCHECK(slot >= 0) << "source " << source_id
                           << " does not cooperate with cache " << cache_id_;
  return slot;
}

void CacheAgent::RecordRefresh(const Message& message, double /*t*/) {
  const int slot = SlotOf(message.source_index);
  if (message.piggyback_threshold > 0.0) {
    sources_[slot].threshold = message.piggyback_threshold;
    sources_[slot].known = true;
  }
}

int CacheAgent::SelectFeedbackTargets(int64_t limit, double now) {
  if (limit <= 0) return 0;
  const int64_t m = static_cast<int64_t>(sources_.size());
  const int take = static_cast<int>(std::min(limit, m));

  auto better = [this](int a, int b) {
    const SourceInfo& sa = sources_[a];
    const SourceInfo& sb = sources_[b];
    if (sa.threshold != sb.threshold) return sa.threshold > sb.threshold;
    return sa.last_fed < sb.last_fed;
  };
  if (take < m) {
    std::nth_element(scratch_.begin(), scratch_.begin() + take, scratch_.end(), better);
    std::sort(scratch_.begin(), scratch_.begin() + take, better);
  }
  for (int k = 0; k < take; ++k) sources_[scratch_[k]].last_fed = now;
  return take;
}

}  // namespace besync
