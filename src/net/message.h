#ifndef BESYNC_NET_MESSAGE_H_
#define BESYNC_NET_MESSAGE_H_

#include <cstdint>
#include <vector>

namespace besync {

/// One additional object refresh piggybacked on a batched refresh message
/// (Section 10.1: "amortize network bandwidth by packaging several data
/// objects into the same message").
struct RefreshPayload {
  int64_t object_index = -1;
  double value = 0.0;
  int64_t version = 0;
  /// Replica slot of the object at the message's cache (see
  /// Message::replica).
  int32_t replica = -1;
};

/// Message kinds exchanged between sources and the cache. Following the
/// paper's simulation model, "all messages have the same size, and each
/// message requires 1 unit of bandwidth" (Section 6).
enum class MessageKind {
  /// Source -> cache: a refreshed object value (cooperative protocol).
  kRefresh,
  /// Cache -> source: poll request (CGM baselines, Section 6.3).
  kPollRequest,
  /// Source -> cache: poll response carrying the current value (CGM).
  kPollResponse,
  /// Source -> cache: invalidation notification (SyncProtocolKind::
  /// kInvalidation). Carries no value — only the object index (plus any
  /// batch-mates in `extra_refreshes`, values/versions ignored) — so it is
  /// cheap (`cost` 1, kInvalidateCost in core/source.cc). Marks the
  /// replica invalid; the next read misses and pulls. Traverses the same
  /// downstream links (and relay trees, and loss draws) as refreshes.
  kInvalidate,
};

/// A unit-size source -> cache protocol message (refresh, poll response,
/// invalidation); cache -> source mail travels as ControlMessage. Fields
/// not meaningful for a given kind are left at their defaults.
struct Message {
  MessageKind kind = MessageKind::kRefresh;
  /// Originating source.
  int32_t source_index = -1;
  /// Destination cache. 0 in the paper's single-cache topology.
  int32_t cache_id = 0;
  /// Refresh-shaped messages: the object's replica slot at `cache_id`, i.e.
  /// the position of `cache_id` in ObjectSpec::caches. Stamped by the
  /// sender so the apply addresses the replica without a search; -1 on
  /// messages that apply nothing. Sits in what would otherwise be padding.
  int32_t replica = -1;
  /// Global object index within the workload (refresh / poll).
  int64_t object_index = -1;
  /// Object value carried by refresh / poll-response messages.
  double value = 0.0;
  /// Source-side update count at send time (drives the lag metric and the
  /// staleness version check at the cache).
  int64_t version = 0;
  /// Simulated send time.
  double send_time = 0.0;
  /// The sender's local refresh threshold, piggybacked on refresh messages
  /// so the cache can target feedback at the highest-threshold sources
  /// (Section 5).
  double piggyback_threshold = 0.0;
  /// Poll responses: time of the most recent source update (CGM1's
  /// last-modified-time estimator input); negative if never updated.
  double last_update_time = -1.0;
  /// Transmission cost in bandwidth units (object sizes may differ,
  /// Section 10.1). Default: the paper's unit-size model.
  int64_t cost = 1;
  /// Refresh priority at emission time (the priority-queue key that made
  /// the source send this refresh). Relays running the priority-preserving
  /// forwarding policy order their store by it; FIFO forwarding and the
  /// flat topology ignore it.
  double forward_priority = 0.0;
  /// True on kRefresh messages that answer a miss-triggered pull (read
  /// path) rather than a source-initiated push. Pull responses traverse
  /// the same links and budgets as pushes; the flag only attributes the
  /// consumed bandwidth (Link's pull/push unit counters) and routes the
  /// delivery to the cache store's pending-read resolution.
  bool is_pull = false;
  /// Additional refreshes batched into this message (empty for the default
  /// one-object-per-message model). The primary fields describe the first
  /// object; a batch of k objects still costs `cost` units — that is the
  /// amortization being studied.
  std::vector<RefreshPayload> extra_refreshes;
};

/// A cache -> source pull request from the read path: a client read found
/// the object evicted (or invalid), so the cache demands a fetch. The
/// upstream channel's compact record, carrying only what the source acts
/// on. The response is a regular kRefresh with `is_pull` set, contending
/// for the same link budgets as pushed refreshes. Positive feedback
/// (Section 5) is no message at all: it is a bit on the source's channel
/// (SourceAgent::DepositFeedback).
struct ControlMessage {
  /// Target source.
  int32_t source_index = -1;
  /// Originating leaf cache.
  int32_t cache_id = 0;
  /// Object requested.
  int64_t object_index = -1;
  /// Simulated send time.
  double send_time = 0.0;
};

}  // namespace besync

#endif  // BESYNC_NET_MESSAGE_H_
