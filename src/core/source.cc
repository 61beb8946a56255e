#include "core/source.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/prefetch.h"

namespace besync {
namespace {

/// Predictive sampling never samples one object more often than this.
constexpr double kMinSamplingGap = 1.0;
/// Link cost of one kInvalidate message: invalidations carry no value, so
/// they are cheap relative to refreshes of costly objects.
constexpr int64_t kInvalidateCost = 1;
/// OnObjectUpdate's lookahead over the object's channels: the Channel
/// record kUpdateChannelAhead channels ahead, its slot_of line
/// kUpdateSlotAhead channels ahead, then (the slot known by then) the
/// replica's LocalState and the queue push position kUpdateStateAhead
/// channels ahead.
constexpr int kUpdateChannelAhead = 16;
constexpr int kUpdateSlotAhead = 8;
constexpr int kUpdateStateAhead = 4;

}  // namespace

SourceAgent::SourceAgent(int index, const SourceAgentConfig& config,
                         double expected_feedback_period, const PriorityPolicy* policy,
                         const SyncProtocol* protocol, Harness* harness,
                         SchedulerStats* tally)
    : index_(index),
      config_(config),
      policy_(policy),
      protocol_(protocol),
      harness_(harness),
      tally_(tally),
      expected_feedback_period_(expected_feedback_period) {
  BESYNC_CHECK(policy != nullptr);
  BESYNC_CHECK(protocol != nullptr);
  BESYNC_CHECK(harness != nullptr);
  BESYNC_CHECK(tally != nullptr);
  BESYNC_CHECK_GT(expected_feedback_period, 0.0);
  BESYNC_CHECK_GE(config.max_batch, 1);
}

void SourceAgent::AddObject(ObjectIndex index) {
  if (members_.empty()) {
    first_member_ = index;
  } else {
    BESYNC_CHECK_EQ(index, first_member_ + static_cast<ObjectIndex>(members_.size()))
        << "source objects must be contiguous";
  }
  members_.push_back(index);
}

void SourceAgent::SetFeedbackPeriods(std::vector<double> periods_by_cache) {
  BESYNC_CHECK(channels_.empty()) << "SetFeedbackPeriods must precede Start";
  feedback_periods_by_cache_ = std::move(periods_by_cache);
}

void SourceAgent::BuildChannels() {
  channels_.clear();
  // Distinct cache ids across this source's objects, ascending. Per-object
  // cache lists are sorted, so a flat collect + sort + unique suffices.
  std::vector<int32_t> cache_ids;
  for (ObjectIndex index : members_) {
    const ObjectSpec& spec = *harness_->object(index).spec;
    cache_ids.insert(cache_ids.end(), spec.caches.begin(), spec.caches.end());
  }
  std::sort(cache_ids.begin(), cache_ids.end());
  cache_ids.erase(std::unique(cache_ids.begin(), cache_ids.end()), cache_ids.end());
  BESYNC_CHECK(!cache_ids.empty()) << "source " << index_ << " has no objects";

  channels_.reserve(cache_ids.size());
  Arena* arena = harness_->arena();
  // Scratch reused across channels; the arena copies are exact-sized.
  std::vector<ObjectIndex> channel_members;
  std::vector<int32_t> channel_replicas;
  // Channels are built in ascending cache id and every member's cache list
  // is ascending, so member k's next replica slot is cursor[k]: a merge
  // over the lists, where a replica_slot() search per (channel, member)
  // pair would walk each list once per channel.
  std::vector<int32_t> cursor(members_.size(), 0);
  for (int32_t cache_id : cache_ids) {
    double period = expected_feedback_period_;
    if (cache_id < static_cast<int32_t>(feedback_periods_by_cache_.size()) &&
        feedback_periods_by_cache_[cache_id] > 0.0) {
      period = feedback_periods_by_cache_[cache_id];
    }
    Channel channel(cache_id, config_.threshold, period);
    channel.slot_of = arena->AllocateArray<int32_t>(members_.size(), -1);
    channel_members.clear();
    channel_replicas.clear();
    for (size_t k = 0; k < members_.size(); ++k) {
      const ObjectIndex index = members_[k];
      const std::vector<int32_t>& caches = harness_->object(index).spec->caches;
      const int32_t replica = cursor[k];
      if (replica == static_cast<int32_t>(caches.size()) ||
          caches[replica] != cache_id) {
        continue;
      }
      ++cursor[k];
      channel.slot_of[k] = static_cast<int32_t>(channel_members.size());
      channel_members.push_back(index);
      channel_replicas.push_back(replica);
    }
    channel.num_members = static_cast<int32_t>(channel_members.size());
    channel.members = arena->AllocateArray<ObjectIndex>(channel_members.size());
    channel.replica_slots = arena->AllocateArray<int32_t>(channel_replicas.size());
    std::copy(channel_members.begin(), channel_members.end(), channel.members);
    std::copy(channel_replicas.begin(), channel_replicas.end(),
              channel.replica_slots);
    channel.locals = arena->AllocateArray<LocalState>(channel_members.size());
    if (config_.monitor == MonitorMode::kSampling) {
      channel.sampled = arena->AllocateArray<SampledTracker>(channel_members.size());
    }
    if (protocol_->emits_invalidations()) {
      channel.invalid_state =
          arena->AllocateArray<uint8_t>(channel_members.size(), uint8_t{kReplicaFresh});
    }
    channels_.push_back(std::move(channel));
  }
  channel_of_cache_.assign(static_cast<size_t>(cache_ids.back()) + 1, -1);
  for (size_t k = 0; k < channels_.size(); ++k) {
    channel_of_cache_[channels_[k].cache_id] = static_cast<int32_t>(k);
  }
  const size_t words = (channels_.size() + 63) / 64;
  queued_ = arena->AllocateArray<uint64_t>(words, uint64_t{0});
  visit_ = arena->AllocateArray<int32_t>(channels_.size());
  feedback_ = arena->AllocateArray<uint64_t>(words, uint64_t{0});
}

SourceAgent::Channel* SourceAgent::ChannelFor(int32_t cache_id) {
  if (static_cast<size_t>(cache_id) >= channel_of_cache_.size()) return nullptr;
  const int32_t k = channel_of_cache_[cache_id];
  return k < 0 ? nullptr : &channels_[k];
}

int SourceAgent::ChannelSlot(const Channel& channel, ObjectIndex index) const {
  BESYNC_DCHECK(index >= first_member_);
  BESYNC_DCHECK(index < first_member_ + static_cast<ObjectIndex>(members_.size()));
  const int32_t slot = channel.slot_of[index - first_member_];
  BESYNC_DCHECK(slot >= 0) << "object " << index << " not replicated at cache "
                           << channel.cache_id;
  return slot;
}

SourceAgent::LocalState& SourceAgent::local(Channel* channel, ObjectIndex index) {
  return channel->locals[ChannelSlot(*channel, index)];
}

SourceAgent::ChannelEpoch SourceAgent::MakeEpochFn(const Channel* channel) const {
  return ChannelEpoch{channel->locals, channel->slot_of, first_member_};
}

PriorityContext SourceAgent::ObjectContext(ObjectIndex index, double now,
                                           bool use_source_weight) const {
  // Reads only the object's hot record unless the object has a fluctuating
  // weight or a non-unit cost.
  const ObjectRuntime& object = harness_->object(index);
  PriorityContext context;
  context.weight = use_source_weight ? harness_->SourceWeightAt(index, now)
                                     : harness_->WeightAt(index, now);
  if (config_.cost_aware_priority && object.costly) {
    // Section 10.1: non-uniform costs enter the weight inversely.
    context.weight /= static_cast<double>(object.spec->refresh_cost);
  }
  context.max_divergence_rate = object.max_divergence_rate;
  context.lambda_estimate = object.lambda;
  return context;
}

void SourceAgent::SetReplicaContext(const Channel& channel, int32_t slot,
                                    const ObjectRuntime& object,
                                    PriorityContext* context) const {
  context->tracker = &object.tracker(channel.replica_slots[slot]);
  context->history_rate = channel.locals[slot].history.rate();
}

PriorityContext SourceAgent::MakeContext(const Channel& channel, ObjectIndex index,
                                         double now, bool use_source_weight) const {
  PriorityContext context = ObjectContext(index, now, use_source_weight);
  SetReplicaContext(channel, ChannelSlot(channel, index), harness_->object(index),
                    &context);
  return context;
}

double SourceAgent::ChannelPriority(const Channel& channel, ObjectIndex index,
                                    double now) const {
  return policy_->Priority(MakeContext(channel, index, now, /*use_source_weight=*/false),
                           now);
}

double SourceAgent::ChannelSourcePriority(const Channel& channel, ObjectIndex index,
                                          double now) const {
  return policy_->Priority(MakeContext(channel, index, now, /*use_source_weight=*/true),
                           now);
}

void SourceAgent::Start(Simulation* sim, double tick_length) {
  sim_ = sim;
  tick_length_ = tick_length;
  BuildChannels();
  rekeys_on_update_ = push_protocol() && config_.monitor == MonitorMode::kTrigger &&
                      !policy_->time_varying();
  // Invalidation / TTL sources never consult the push priority machinery:
  // skipping the wake-up seeding and sampling schedules keeps those runs
  // free of the events (and RNG draws) that only feed threshold pushes.
  if (!push_protocol()) return;
  if (policy_->time_varying()) {
    for (Channel& channel : channels_) {
      for (int32_t s = 0; s < channel.num_members; ++s) {
        PushWake(&channel, channel.members[s], 0.0);
      }
    }
  }
  if (config_.monitor == MonitorMode::kSampling) {
    BESYNC_CHECK(sim->has_handler(kSampleEvent))
        << "sampling source " << index_ << " started without RegisterSampleEventHandler";
    BESYNC_CHECK_LT(index_, 1 << 24) << "sample payloads hold a 24-bit source index";
    uint64_t next_base = 0;
    for (Channel& channel : channels_) {
      channel.sample_base = static_cast<uint32_t>(next_base);
      next_base += static_cast<uint64_t>(channel.num_members);
    }
    BESYNC_CHECK_LE(next_base, uint64_t{1} << 32) << "source " << index_
                                                  << " has too many replicas to sample";
    Rng* rng = harness_->scheduler_rng();
    // Object-major so the single-cache draw sequence (one offset per object)
    // is preserved; each replica gets its own staggered schedule.
    for (size_t k = 0; k < members_.size(); ++k) {
      for (int c = 0; c < num_channels(); ++c) {
        const int32_t slot = channels_[c].slot_of[k];
        if (slot < 0) continue;
        // Stagger initial samples so sampling load is spread over time.
        const double offset = rng->Uniform(0.0, config_.sampling_interval);
        sim->ScheduleAt(offset, kSampleEvent, SamplePayload(channels_[c], slot));
      }
    }
  }
}

uint64_t SourceAgent::SamplePayload(const Channel& channel, int32_t slot) const {
  return (static_cast<uint64_t>(index_) << 32) |
         (channel.sample_base + static_cast<uint32_t>(slot));
}

void SourceAgent::RecordTrace(TraceEventKind kind, double t, int32_t cache_id,
                              ObjectIndex index, int64_t version, bool is_pull) {
  TraceEvent event;
  event.kind = kind;
  event.t = t;
  event.source = index_;
  event.cache = cache_id;
  event.object = index;
  event.version = version;
  event.is_pull = is_pull;
  trace_->Record(event);
}

void SourceAgent::OnObjectUpdate(ObjectIndex index, double t) {
  if (trace_ != nullptr) {
    // One enqueue per interested replica: the update is now pending toward
    // each cache replicating the object (whatever machinery — threshold
    // queue, wake-up, invalidation FIFO, or TTL aging — carries it there).
    const int64_t version = harness_->object(index).state.version;
    for (const Channel& channel : channels_) {
      if (channel.slot_of[index - first_member_] < 0) continue;
      RecordTrace(TraceEventKind::kEnqueue, t, channel.cache_id, index, version,
                  /*is_pull=*/false);
    }
  }
  const ObjectIndex offset = index - first_member_;
  if (!push_protocol()) {
    // TTL: updates are silent — replicas age out on their own. Invalidation:
    // queue one notification per replica per staleness episode; a replica
    // already queued or notified costs nothing until a pull refills it.
    if (protocol_->emits_invalidations()) {
      for (Channel& channel : channels_) {
        const int32_t slot = channel.slot_of[offset];
        if (slot < 0) continue;
        if (channel.invalid_state[slot] != kReplicaFresh) continue;
        channel.invalid_state[slot] = kInvalidateQueued;
        channel.invalidate_queue.push_back(slot);
        MarkQueued(&channel);
      }
    }
    return;
  }
  if (config_.monitor == MonitorMode::kSampling) return;  // source is blind
  if (policy_->time_varying()) {
    // The update may have moved the threshold crossing earlier; re-arm.
    if (!policy_->update_sensitive()) return;
    for (Channel& channel : channels_) {
      const int32_t slot = channel.slot_of[offset];
      if (slot < 0) continue;
      ++channel.locals[slot].epoch;
      PushWake(&channel, index, t);
    }
    return;
  }
  // The object-level half of the priority context is the same for every
  // replica; only the tracker and the history rate differ per channel.
  const ObjectRuntime& object = harness_->object(index);
  PriorityContext context = ObjectContext(index, t, /*use_source_weight=*/false);
  PriorityContext source_context;
  if (secondary_enabled_) {
    source_context = ObjectContext(index, t, /*use_source_weight=*/true);
  }
  const int num = num_channels();
  for (int k = 0; k < num; ++k) {
    // Lookahead (PrefetchUpdate skips objects with many replicas): the
    // channel record, then its slot_of line, then the replica state and
    // queue push position that slot addresses.
    if (k + kUpdateChannelAhead < num) {
      __builtin_prefetch(&channels_[k + kUpdateChannelAhead].slot_of);
    }
    if (k + kUpdateSlotAhead < num) {
      __builtin_prefetch(&channels_[k + kUpdateSlotAhead].slot_of[offset]);
    }
    if (k + kUpdateStateAhead < num) {
      const Channel& ahead = channels_[k + kUpdateStateAhead];
      const int32_t ahead_slot = ahead.slot_of[offset];
      if (ahead_slot >= 0) {
        __builtin_prefetch(&ahead.locals[ahead_slot], /*rw=*/1);
        ahead.queue.PrefetchPush();
      }
    }
    Channel& channel = channels_[k];
    const int32_t slot = channel.slot_of[offset];
    if (slot < 0) continue;
    LocalState& state = channel.locals[slot];
    ++state.epoch;
    SetReplicaContext(channel, slot, object, &context);
    // MaybeCompact below keeps the queue within one push of its trigger.
    channel.queue.ReserveForPush(CompactTrigger(channel) + 1);
    channel.queue.Push(policy_->Priority(context, t), index, state.epoch);
    if (secondary_enabled_) {
      SetReplicaContext(channel, slot, object, &source_context);
      channel.secondary_queue.Push(policy_->Priority(source_context, t), index,
                                   state.epoch);
    }
    MarkQueued(&channel);
    MaybeCompact(&channel);
  }
}

void SourceAgent::PrefetchUpdate(ObjectIndex index) const {
  if (!rekeys_on_update_) return;
  const int32_t replicas = harness_->object(index).num_replicas;
  if (replicas > kPrefetchLineCap) return;
  const ObjectIndex offset = index - first_member_;
  int32_t found = 0;
  for (const Channel& channel : channels_) {
    const int32_t slot = channel.slot_of[offset];
    if (slot < 0) continue;
    __builtin_prefetch(&channel.locals[slot], /*rw=*/1);
    channel.queue.PrefetchPush();
    if (++found == replicas) return;
  }
}

size_t SourceAgent::CompactTrigger(const Channel& channel) {
  return 4 * static_cast<size_t>(channel.num_members) + 64;
}

void SourceAgent::MaybeCompact(Channel* channel) {
  const size_t trigger = CompactTrigger(*channel);
  const ChannelEpoch epoch_fn = MakeEpochFn(channel);
  if (channel->queue.size() > trigger) channel->queue.Compact(epoch_fn);
  if (secondary_enabled_ && channel->secondary_queue.size() > trigger) {
    channel->secondary_queue.Compact(epoch_fn);
  }
}

void SourceAgent::HandleSampleEvent(uint32_t sample_id, double t) {
  // The channel whose id range holds sample_id: the last one starting at or
  // before it.
  const auto after = std::upper_bound(
      channels_.begin(), channels_.end(), sample_id,
      [](uint32_t id, const Channel& channel) { return id < channel.sample_base; });
  BESYNC_DCHECK(after != channels_.begin());
  const int channel_index = static_cast<int>(after - channels_.begin()) - 1;
  OnSampleEvent(channel_index,
                static_cast<int32_t>(sample_id - channels_[channel_index].sample_base), t);
}

void SourceAgent::OnSampleEvent(int channel_index, int32_t slot, double t) {
  Channel& channel = channels_[channel_index];
  const ObjectIndex index = channel.members[slot];
  LocalState& state = channel.locals[slot];
  SampledTracker& sampled = channel.sampled[slot];
  // Direct measurement: the source compares its live value against the copy
  // it last shipped to this cache — exactly what the exact tracker's current
  // divergence is.
  const double divergence =
      harness_->object(index).tracker(channel.replica_slots[slot]).current_divergence();
  sampled.AddSample(t, divergence);
  ++state.epoch;
  const double weight = harness_->WeightAt(index, t);
  channel.queue.Push(sampled.EstimatedPriority(t) * weight, index, state.epoch);
  MarkQueued(&channel);
  MaybeCompact(&channel);
  ScheduleNextSample(channel_index, slot, t);
}

void SourceAgent::ScheduleNextSample(int channel_index, int32_t slot, double now) {
  const Channel& channel = channels_[channel_index];
  double next = now + config_.sampling_interval;
  if (config_.predictive_sampling) {
    const double weight = harness_->WeightAt(channel.members[slot], now);
    const double predicted =
        channel.sampled[slot].PredictCrossTime(channel.controller.threshold(), weight, now);
    // Sample "somewhat before" the predicted crossing, but never more often
    // than the minimum gap and never later than the base interval.
    const double candidate = std::max(now + kMinSamplingGap, predicted * 0.95);
    next = std::min(next, candidate);
  }
  sim_->ScheduleAt(next, kSampleEvent, SamplePayload(channel, slot));
}

void SourceAgent::DepositFeedback(int32_t cache_id, double granted_rate) {
  const Channel* channel = ChannelFor(cache_id);
  BESYNC_CHECK(channel != nullptr)
      << "feedback from cache " << cache_id << " reached source " << index_
      << " which has no objects there";
  const size_t k = static_cast<size_t>(channel - channels_.data());
  const uint64_t bit = uint64_t{1} << (k & 63);
  BESYNC_DCHECK((feedback_[k >> 6] & bit) == 0)
      << "cache " << cache_id << " fed source " << index_ << " twice in one tick";
  feedback_[k >> 6] |= bit;
  if (granted_rate > 0.0) pending_grant_ = granted_rate;
}

int64_t SourceAgent::ApplyFeedback(double t, const Network& network) {
  const bool time_varying = policy_->time_varying();
  int64_t hops = 0;
  const size_t words = (channels_.size() + 63) / 64;
  for (size_t word = 0; word < words; ++word) {
    for (uint64_t bits = feedback_[word]; bits != 0; bits &= bits - 1) {
      Channel* channel = &channels_[word * 64 + __builtin_ctzll(bits)];
      ++control_received_;
      hops += network.control_hops(channel->cache_id);
      channel->controller.OnFeedback(t, at_full_capacity_);
      if (time_varying) {
        // The threshold may have dropped: re-arm this channel's wake-ups so
        // crossings that are now earlier are not missed.
        for (int32_t s = 0; s < channel->num_members; ++s) {
          ++channel->locals[s].epoch;
          PushWake(channel, channel->members[s], t);
        }
      }
    }
    feedback_[word] = 0;
  }
  if (pending_grant_ > 0.0) {
    granted_rate_ = pending_grant_;
    pending_grant_ = 0.0;
  }
  return hops;
}

void SourceAgent::PushWake(Channel* channel, ObjectIndex index, double now) {
  const PriorityContext context =
      MakeContext(*channel, index, now, /*use_source_weight=*/false);
  const double cross =
      policy_->ThresholdCrossTime(context, channel->controller.threshold(), now);
  if (!std::isfinite(cross)) return;
  channel->wake_queue.Push(cross, index, local(channel, index).epoch);
  MarkQueued(channel);
}

void SourceAgent::Ship(Channel* channel, int32_t slot, double now, bool is_pull,
                       Message* message) {
  const ObjectIndex index = channel->members[slot];
  const int32_t replica = channel->replica_slots[slot];
  LocalState& state = channel->locals[slot];
  // Record the finishing interval's realized divergence rate before the
  // tracker resets (feeds the history-extended policy).
  {
    const DivergenceTracker& tracker = harness_->object(index).tracker(replica);
    state.history.OnRefresh(now - tracker.last_refresh_time(), tracker.IntegralTo(now));
  }
  harness_->MakeRefreshMessage(index, replica, now, message);
  message->is_pull = is_pull;
  if (channel->sampled != nullptr) channel->sampled[slot].OnRefresh(now);
  if (trace_ != nullptr) {
    RecordTrace(TraceEventKind::kSend, now, channel->cache_id, index, message->version,
                is_pull);
  }
  // The replica is fresh now: any queued push entry dies lazily instead of
  // re-sending the value just shipped.
  ++state.epoch;
  // Under the invalidation protocol the refill closes the staleness
  // episode: the next update queues a new notification, and any
  // notification still queued for this slot dies lazily at send time.
  if (channel->invalid_state != nullptr) {
    channel->invalid_state[slot] = kReplicaFresh;
  }
  // Time-varying policies are driven by wake-ups, and the epoch bump just
  // killed this object's armed entry; re-arm from the new t_last, or the
  // object would never be pushed again (for non-update-sensitive policies
  // updates do not re-arm).
  if (push_protocol() && policy_->time_varying()) {
    PushWake(channel, index, now);
  }
}

void SourceAgent::EmitRefresh(Channel* channel, const QueueEntry& head,
                              const QueueEntry* mates, size_t num_mates, int64_t cost,
                              bool bump_threshold, double now, Link* cache_link) {
  // Threshold bumping applies only to refreshes governed by the threshold
  // protocol; it precedes the ships so a re-armed wake-up sees the
  // post-increase threshold.
  if (bump_threshold) channel->controller.OnRefreshSent(now);
  cache_link->Emplace([&](Message& message) {
    Ship(channel, ChannelSlot(*channel, head.index), now, /*is_pull=*/false, &message);
    if (num_mates > 0) {
      Message part;
      for (size_t k = 0; k < num_mates; ++k) {
        Ship(channel, ChannelSlot(*channel, mates[k].index), now, /*is_pull=*/false,
             &part);
        message.extra_refreshes.push_back(
            RefreshPayload{part.object_index, part.value, part.version, part.replica});
      }
    }
    message.cost = cost;
    // Piggyback the current (post-increase) threshold: the freshest
    // information the cache can have about this source.
    message.piggyback_threshold = channel->controller.threshold();
    // Entries are popped in priority order, so the head holds the maximum.
    message.forward_priority = head.key;
  });
  tally_->refreshes_sent += 1 + static_cast<int64_t>(num_mates);
  channel->last_emit_time = now;
}

void SourceAgent::ServePull(ObjectIndex index, int32_t cache_id, double now,
                            Link* source_link, Link* first_hop) {
  ++control_received_;
  Channel* channel = ChannelFor(cache_id);
  BESYNC_CHECK(channel != nullptr)
      << "source " << index_ << " has no channel for cache " << cache_id;
  int64_t cost = 0;
  first_hop->Emplace([&](Message& message) {
    Ship(channel, ChannelSlot(*channel, index), now, /*is_pull=*/true, &message);
    message.piggyback_threshold = channel->controller.threshold();
    // Demand traffic: priority-preserving relays forward pulls ahead of any
    // queued push.
    message.forward_priority = std::numeric_limits<double>::infinity();
    cost = message.cost;
  });
  source_link->ConsumeAllowingDebt(cost);
}

void SourceAgent::OnCacheRestart(int32_t cache_id, double now,
                                 RecoveryPolicy policy,
                                 std::vector<ObjectIndex>* resynced) {
  Channel* channel = ChannelFor(cache_id);
  if (channel == nullptr) return;  // no objects at that cache
  const bool priority_recovery = policy == RecoveryPolicy::kRecoveryPriority;
  // A re-crash during an unfinished recovery supersedes it: the FIFO is
  // rebuilt from scratch (each replica appears once).
  if (priority_recovery) channel->recovery_queue.clear();
  for (int32_t slot = 0; slot < channel->num_members; ++slot) {
    const ObjectIndex index = channel->members[slot];
    resynced->push_back(index);
    if (trace_ != nullptr) {
      // The crash re-enqueues the replica: its next refresh (recovery FIFO,
      // re-entered threshold queue, or demand pull) re-ships current state.
      RecordTrace(TraceEventKind::kEnqueue, now, cache_id, index,
                  harness_->object(index).state.version, /*is_pull=*/false);
    }
    if (channel->invalid_state != nullptr) {
      // The crash is the notification: the restarted cache knows it holds
      // nothing valid, so the source's replica model moves to "notified" —
      // further updates are free until a refill closes the episode.
      channel->invalid_state[slot] = kInvalidateSent;
    }
    if (priority_recovery) {
      channel->recovery_queue.push_back(slot);
      continue;
    }
    // Naive re-enqueue: the replica rejoins the threshold machinery at its
    // current (pre-crash, still-accruing) priority. Invalidation / TTL
    // sources push nothing — those replicas refill through demand pulls.
    if (!push_protocol()) continue;
    LocalState& state = channel->locals[slot];
    ++state.epoch;
    if (policy_->time_varying()) {
      PushWake(channel, index, now);
      continue;
    }
    channel->queue.Push(ChannelPriority(*channel, index, now), index, state.epoch);
    if (secondary_enabled_) {
      channel->secondary_queue.Push(ChannelSourcePriority(*channel, index, now),
                                    index, state.epoch);
    }
    MarkQueued(channel);
  }
  if (!priority_recovery && push_protocol() && !policy_->time_varying()) {
    MaybeCompact(channel);
  }
}

int64_t SourceAgent::SendRecovery(double now, Link* source_link, Link* cache_link,
                                  int channel_index) {
  BESYNC_DCHECK(channel_index >= 0 && channel_index < num_channels());
  Channel* channel = &channels_[channel_index];
  int64_t sent = 0;
  while (!channel->recovery_queue.empty()) {
    const ObjectIndex index = channel->members[channel->recovery_queue.front()];
    const int64_t cost = harness_->object(index).spec->refresh_cost;
    if (!source_link->TryConsumeAllowingDeficit(cost)) break;
    channel->recovery_queue.pop_front();
    // The refill closes an invalidation episode exactly like a pull (Ship).
    EmitRefresh(channel, QueueEntry{std::numeric_limits<double>::infinity(), index, 0},
                nullptr, 0, cost, /*bump_threshold=*/false, now, cache_link);
    ++sent;
  }
  return sent;
}

int64_t SourceAgent::SendPhase(double now, Link* source_link, Network* network) {
  BESYNC_DCHECK(UnqueuedChannelsIdle());
  BESYNC_DCHECK(push_protocol() || protocol_->emits_invalidations());
  // The flag accumulates across the channels: they share the source link.
  at_full_capacity_ = false;
  // Draining one channel pushes only to that channel's queues, so the set
  // of channels to visit is fixed before the first drain.
  const size_t words = (channels_.size() + 63) / 64;
  size_t count = 0;
  for (size_t word = 0; word < words; ++word) {
    for (uint64_t bits = queued_[word]; bits != 0; bits &= bits - 1) {
      visit_[count++] = static_cast<int32_t>(word * 64 + __builtin_ctzll(bits));
    }
  }
  const bool time_varying = policy_->time_varying();
  int64_t sent = 0;
  for (size_t i = 0; i < count; ++i) {
    const int32_t k = visit_[i];
    Channel* channel = &channels_[k];
    // Messages enter the network at the cache's tier-1 ancestor edge (the
    // cache link itself when flat) and are relayed the rest of the way.
    Link* first_hop = &network->first_hop_link(channel->cache_id);
    if (!push_protocol()) {
      sent += SendInvalidations(channel, now, source_link, first_hop);
    } else if (time_varying) {
      sent += SendRefreshesTimeVarying(channel, now, source_link, first_hop);
    } else {
      sent += Drain(channel, /*primary=*/true, std::numeric_limits<int64_t>::max(), now,
                    source_link, first_hop);
    }
    if (channel->queue.empty() && channel->wake_queue.empty() &&
        channel->invalidate_queue.empty()) {
      queued_[static_cast<size_t>(k) >> 6] &= ~(uint64_t{1} << (k & 63));
    }
  }
  return sent;
}

bool SourceAgent::UnqueuedChannelsIdle() const {
  for (int k = 0; k < num_channels(); ++k) {
    const Channel& channel = channels_[k];
    if (!channel_queued(k) &&
        (!channel.queue.empty() || !channel.wake_queue.empty() ||
         !channel.invalidate_queue.empty())) {
      return false;
    }
  }
  return true;
}

int64_t SourceAgent::SendInvalidations(Channel* channel, double now, Link* source_link,
                                       Link* cache_link) {
  const int max_batch = protocol_->config().max_invalidate_batch;
  int64_t messages = 0;
  while (true) {
    // Lazy tombstones first: entries whose state left kInvalidateQueued (a
    // pull refilled the replica) are dropped before any budget is spent.
    Ring<int32_t>& queue = channel->invalidate_queue;
    while (!queue.empty() &&
           channel->invalid_state[queue.front()] != kInvalidateQueued) {
      queue.pop_front();
    }
    if (queue.empty()) break;
    if (!source_link->TryConsumeAllowingDeficit(kInvalidateCost)) {
      at_full_capacity_ = true;
      break;
    }
    cache_link->Emplace([&](Message& message) {
      message.kind = MessageKind::kInvalidate;
      message.source_index = index_;
      message.cache_id = channel->cache_id;
      message.send_time = now;
      message.cost = kInvalidateCost;
      // Notifications are tiny control traffic: priority-preserving relays
      // move them ahead of queued pushes, like pull responses.
      message.forward_priority = std::numeric_limits<double>::infinity();
      int packed = 0;
      while (packed < max_batch && !queue.empty()) {
        const int32_t slot = queue.front();
        queue.pop_front();
        if (channel->invalid_state[slot] != kInvalidateQueued) continue;
        channel->invalid_state[slot] = kInvalidateSent;
        const ObjectIndex object = channel->members[slot];
        // Stamped like a refresh, so the cache finds the replica in O(1).
        const int32_t replica = channel->replica_slots[slot];
        if (packed == 0) {
          message.object_index = object;
          message.replica = replica;
        } else {
          message.extra_refreshes.push_back(RefreshPayload{object, 0.0, 0, replica});
        }
        ++packed;
        ++tally_->invalidations_sent;
        if (trace_ != nullptr) {
          RecordTrace(TraceEventKind::kInvalidateSend, now, channel->cache_id,
                      object, /*version=*/0, /*is_pull=*/false);
        }
      }
    });
    channel->last_emit_time = now;
    ++messages;
  }
  return messages;
}

int64_t SourceAgent::SendSecondary(double now, int64_t max_count, Link* source_link,
                                   Link* cache_link, int channel_index) {
  BESYNC_CHECK(secondary_enabled_);
  return Drain(&channels_[channel_index], /*primary=*/false, max_count, now,
               source_link, cache_link);
}

int64_t SourceAgent::Drain(Channel* channel, bool primary, int64_t max_messages,
                           double now, Link* source_link, Link* cache_link) {
  LazyMaxHeap& queue = primary ? channel->queue : channel->secondary_queue;
  const int max_batch = primary ? config_.max_batch : 1;
  const ChannelEpoch epoch_fn = MakeEpochFn(channel);
  // Non-positive keys always wait; primary keys also wait below the live
  // threshold, which rises with every message sent.
  const auto waits = [&](const QueueEntry& entry) {
    return (primary && entry.key < channel->controller.threshold()) ||
           entry.key <= 0.0;
  };
  // The head travels in a local; only batch mates use the reused scratch,
  // so an unbatched drain never touches the heap allocator.
  std::vector<QueueEntry>& mates = scratch_batch_;
  int64_t messages = 0;
  QueueEntry head;
  while (messages < max_messages && queue.PopValid(epoch_fn, &head)) {
    if (waits(head)) {
      queue.Restore(head);
      break;
    }
    mates.clear();
    QueueEntry entry;
    while (static_cast<int>(mates.size()) + 1 < max_batch &&
           queue.PopValid(epoch_fn, &entry)) {
      if (waits(entry)) {
        queue.Restore(entry);
        break;
      }
      mates.push_back(entry);
    }
    const bool full = static_cast<int>(mates.size()) + 1 == max_batch;
    // Partial batches wait (delaying refreshes artificially, Section 10.1)
    // until the flush deadline expires.
    const bool hold = !full && now - channel->last_emit_time < config_.max_batch_delay;
    // A batch of one keeps its object's cost: large objects may start
    // transmitting on the last sliver of budget and spill into the next
    // tick (deficit carryover at the link). A batched message costs 1 —
    // the amortization.
    const int64_t cost =
        max_batch > 1 ? 1 : harness_->object(head.index).spec->refresh_cost;
    if (hold || !source_link->TryConsumeAllowingDeficit(cost)) {
      queue.Restore(head);
      for (const QueueEntry& mate : mates) queue.Restore(mate);
      if (!hold) at_full_capacity_ = true;
      break;
    }
    EmitRefresh(channel, head, mates.data(), mates.size(), cost, primary, now,
                cache_link);
    ++messages;
    if (!full) break;  // the queue is drained below the batch size
  }
  return messages;
}

int64_t SourceAgent::SendRefreshesTimeVarying(Channel* channel, double now,
                                              Link* source_link, Link* cache_link) {
  const ChannelEpoch epoch_fn = MakeEpochFn(channel);
  // Collect all wake-ups that are due and compute their live priorities
  // (reused scratch; the unstable sort below is over exactly the same
  // entries in the same pre-sort order as a fresh vector would hold).
  std::vector<QueueEntry>& due = scratch_due_;
  due.clear();
  QueueEntry entry;
  while (channel->wake_queue.PopDue(now, epoch_fn, &entry)) {
    entry.key = ChannelPriority(*channel, entry.index, now);
    due.push_back(entry);
  }
  std::sort(due.begin(), due.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return a.key > b.key; });

  int64_t sent = 0;
  for (size_t k = 0; k < due.size(); ++k) {
    const QueueEntry& candidate = due[k];
    const bool over_threshold =
        candidate.key >= channel->controller.threshold() && candidate.key > 0.0;
    const int64_t cost = harness_->object(candidate.index).spec->refresh_cost;
    if (over_threshold && !at_full_capacity_ &&
        source_link->TryConsumeAllowingDeficit(cost)) {
      EmitRefresh(channel, candidate, nullptr, 0, cost, /*bump_threshold=*/true, now,
                  cache_link);
      ++sent;
      continue;
    }
    if (over_threshold) at_full_capacity_ = true;
    // Not sent: re-check no earlier than the next tick, or at the newly
    // predicted crossing if that is later.
    const PriorityContext context =
        MakeContext(*channel, candidate.index, now, /*use_source_weight=*/false);
    const double cross =
        policy_->ThresholdCrossTime(context, channel->controller.threshold(), now);
    if (!std::isfinite(cross)) continue;
    channel->wake_queue.Push(std::max(cross, now + tick_length_), candidate.index,
                             candidate.epoch);
  }
  return sent;
}

namespace {

void DispatchSampleEvent(void* agents, uint64_t payload, double t) {
  auto& list = *static_cast<std::vector<std::unique_ptr<SourceAgent>>*>(agents);
  SourceAgent& agent = *list[payload >> 32];
  BESYNC_DCHECK(static_cast<uint64_t>(agent.index()) == payload >> 32);
  agent.HandleSampleEvent(static_cast<uint32_t>(payload), t);
}

}  // namespace

void RegisterSampleEventHandler(Simulation* sim,
                                std::vector<std::unique_ptr<SourceAgent>>* agents) {
  sim->RegisterHandler(kSampleEvent, &DispatchSampleEvent, agents);
}

}  // namespace besync
