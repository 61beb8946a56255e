#ifndef BESYNC_UTIL_FIFO_H_
#define BESYNC_UTIL_FIFO_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace besync {

/// First-in first-out queue over one vector: pushes append, pops advance a
/// head index. It allocates nothing until its first push (a std::deque
/// allocates its map and a first node on construction, and again for the
/// husk a move leaves behind), and it reclaims the consumed prefix, so the
/// vector holds at most about twice the live entries (plus kMinCompact).
template <typename T>
class Fifo {
 public:
  /// Consumed entries tolerated before a push compacts them away.
  static constexpr size_t kMinCompact = 16;

  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  /// Entries the vector holds, consumed ones included (tests check the
  /// compaction bound against it).
  size_t held() const { return items_.size(); }

  const T& front() const {
    BESYNC_DCHECK(!empty());
    return items_[head_];
  }

  void push_back(const T& value) {
    // Compacting only once the consumed prefix is at least half the vector
    // moves no more entries than were popped since the last compaction.
    if (head_ >= kMinCompact && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(value);
  }

  void pop_front() {
    BESYNC_DCHECK(!empty());
    if (++head_ == items_.size()) clear();
  }

  /// Drops every entry; keeps the capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_FIFO_H_
