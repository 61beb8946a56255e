#ifndef BESYNC_NET_MESSAGE_POOL_H_
#define BESYNC_NET_MESSAGE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.h"
#include "util/logging.h"

namespace besync {

/// A slot in a MessagePool.
using MessageHandle = int32_t;

/// The messages in flight on one network. A message is written once, when
/// its sender enqueues it, and read in place by every hop and by the sink
/// that applies it; link queues and relay stores move its 4-byte handle in
/// between. Slots live in fixed-size chunks, so a slot never moves: a
/// reference handed to a delivery sink stays valid while the sink enqueues
/// more messages. Released slots are reused last in, first out, so the next
/// send writes the slot the last delivery just read.
///
/// Each acquired slot is released exactly once, by whoever holds its handle
/// when the message leaves the network (DESIGN.md, "In-flight messages live
/// in one pool"). Debug builds check every access and release against a
/// per-slot live flag.
class MessagePool {
 public:
  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  /// Takes a free slot, resets it to a default Message and returns its
  /// handle; the sender writes the message in place.
  MessageHandle Acquire() {
    const MessageHandle handle = TakeSlot();
    Slot(handle) = Message{};
    return handle;
  }

  /// Moves `message` into a free slot and returns the slot's handle.
  MessageHandle Acquire(Message&& message) {
    const MessageHandle handle = TakeSlot();
    Slot(handle) = std::move(message);
    return handle;
  }

  /// Returns a slot to the free list; its handle is dead from here on.
  void Release(MessageHandle handle) {
    CheckLive(handle);
#ifndef NDEBUG
    live_[handle] = 0;
#endif
    free_.push_back(handle);
  }

  Message& operator[](MessageHandle handle) {
    CheckLive(handle);
    return Slot(handle);
  }
  const Message& operator[](MessageHandle handle) const {
    CheckLive(handle);
    return chunks_[handle >> kChunkShift][handle & kChunkMask];
  }

  /// Slots acquired and not yet released: the messages in flight.
  size_t live() const { return static_cast<size_t>(slots_) - free_.size(); }
  /// Slots ever handed out (live or on the free list).
  size_t slots() const { return static_cast<size_t>(slots_); }

 private:
  static constexpr int kChunkShift = 8;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr MessageHandle kChunkMask = static_cast<MessageHandle>(kChunkSize - 1);

  /// The next free handle (the last released first), marked live.
  MessageHandle TakeSlot() {
    MessageHandle handle;
    if (!free_.empty()) {
      handle = free_.back();
      free_.pop_back();
    } else {
      if (static_cast<size_t>(slots_) == chunks_.size() * kChunkSize) {
        chunks_.push_back(std::make_unique<Message[]>(kChunkSize));
      }
      handle = slots_++;
    }
#ifndef NDEBUG
    if (live_.size() < static_cast<size_t>(slots_)) live_.resize(slots_, 0);
    live_[handle] = 1;
#endif
    return handle;
  }

  Message& Slot(MessageHandle handle) {
    return chunks_[handle >> kChunkShift][handle & kChunkMask];
  }

  void CheckLive(MessageHandle handle) const {
#ifndef NDEBUG
    BESYNC_CHECK(handle >= 0 && handle < slots_ && live_[handle] != 0)
        << "message handle " << handle << " is not live";
#else
    (void)handle;
#endif
  }

  std::vector<std::unique_ptr<Message[]>> chunks_;
  /// Released handles; the back is reused first.
  std::vector<MessageHandle> free_;
  MessageHandle slots_ = 0;
#ifndef NDEBUG
  std::vector<uint8_t> live_;
#endif
};

}  // namespace besync

#endif  // BESYNC_NET_MESSAGE_POOL_H_
