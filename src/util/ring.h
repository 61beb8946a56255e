#ifndef BESYNC_UTIL_RING_H_
#define BESYNC_UTIL_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace besync {

/// First-in first-out queue over a circular buffer whose capacity is a power
/// of two: pushes write at the tail, pops advance the head, and a full
/// buffer doubles, moving the entries in order to the front of the new one.
/// It allocates nothing until its first push (a std::deque allocates its map
/// and a first node on construction, and again for the husk a move leaves
/// behind) and keeps its capacity when it drains, so a queue that fills and
/// drains every tick allocates only while it grows past its largest size so
/// far. Entries are indexed from the head; erase() takes one out of the
/// middle and keeps the order of the rest.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Slots the buffer holds (0 before the first push, then a power of two).
  size_t capacity() const { return items_.size(); }

  /// The `i`-th entry from the head (0 is the front).
  T& operator[](size_t i) {
    BESYNC_DCHECK(i < size_);
    return items_[(head_ + i) & (items_.size() - 1)];
  }
  const T& operator[](size_t i) const {
    BESYNC_DCHECK(i < size_);
    return items_[(head_ + i) & (items_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(const T& value) {
    if (size_ == items_.size()) Grow();
    items_[(head_ + size_) & (items_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    BESYNC_DCHECK(!empty());
    head_ = (head_ + 1) & static_cast<uint32_t>(items_.size() - 1);
    --size_;
  }

  /// Removes the `i`-th entry, shifting whichever side of it is shorter
  /// one slot toward the gap, so the other entries keep their order.
  void erase(size_t i) {
    BESYNC_DCHECK(i < size_);
    if (i < size_ / 2) {
      for (size_t k = i; k > 0; --k) (*this)[k] = std::move((*this)[k - 1]);
      pop_front();
    } else {
      for (size_t k = i; k + 1 < size_; ++k) (*this)[k] = std::move((*this)[k + 1]);
      --size_;
    }
  }

  /// Drops every entry; keeps the capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  void Grow() {
    std::vector<T> items(items_.empty() ? kMinCapacity : 2 * items_.size());
    for (size_t k = 0; k < size_; ++k) items[k] = std::move((*this)[k]);
    items_.swap(items);
    head_ = 0;
  }

  std::vector<T> items_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_RING_H_
