#include "core/source.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace besync {
namespace {

/// Predictive sampling never samples one object more often than this.
constexpr double kMinSamplingGap = 1.0;

}  // namespace

SourceAgent::SourceAgent(int index, const SourceAgentConfig& config,
                         double expected_feedback_period, const PriorityPolicy* policy,
                         Harness* harness, SchedulerStats* tally)
    : index_(index),
      config_(config),
      policy_(policy),
      harness_(harness),
      tally_(tally),
      expected_feedback_period_(expected_feedback_period) {
  BESYNC_CHECK(policy != nullptr);
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

void SourceAgent::SetSyncProtocol(const SyncProtocol* protocol) {
  BESYNC_CHECK(channels_.empty()) << "SetSyncProtocol must precede Start";
  protocol_ = protocol;
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
    if (protocol_ != nullptr && protocol_->emits_invalidations()) {
      channel.invalid_state =
          arena->AllocateArray<uint8_t>(channel_members.size(), uint8_t{kReplicaFresh});
    }
    channels_.push_back(std::move(channel));
  }
  channel_of_cache_.assign(static_cast<size_t>(cache_ids.back()) + 1, -1);
  for (size_t k = 0; k < channels_.size(); ++k) {
    channel_of_cache_[channels_[k].cache_id] = static_cast<int32_t>(k);
  }
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

PriorityContext SourceAgent::MakeContext(const Channel& channel, ObjectIndex index,
                                         double now, bool use_source_weight) const {
  const int slot = ChannelSlot(channel, index);
  // Reads only the object's hot record unless the object has a fluctuating
  // weight or a non-unit cost.
  const ObjectRuntime& object = harness_->object(index);
  const DivergenceTracker& tracker = object.tracker(channel.replica_slots[slot]);
  PriorityContext context;
  context.tracker = &tracker;
  context.weight = use_source_weight ? harness_->SourceWeightAt(index, now)
                                     : harness_->WeightAt(index, now);
  if (config_.cost_aware_priority && object.costly) {
    // Section 10.1: non-uniform costs enter the weight inversely.
    context.weight /= static_cast<double>(object.spec->refresh_cost);
  }
  context.max_divergence_rate = object.max_divergence_rate;
  context.history_rate = channel.locals[slot].history.rate();
  context.lambda_estimate = EstimateLambda(
      config_.lambda_mode, object.lambda, object.state.version, now,
      tracker.updates_since_refresh(), now - tracker.last_refresh_time());
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

double SourceAgent::ComputePriority(ObjectIndex index, double now) const {
  // Channel 0's view is only *the* priority when it is the only channel: on
  // a multi-cache source the per-replica trackers and thresholds disagree,
  // so silently answering from channels_.front() would be wrong for every
  // other cache. Multi-channel callers must name the channel.
  BESYNC_CHECK_EQ(num_channels(), 1)
      << "ComputePriority(index, now) is single-channel only; source " << index_
      << " has " << num_channels() << " cache channels — use the channel overload";
  return ChannelPriority(channels_.front(), index, now);
}

double SourceAgent::ComputePriority(ObjectIndex index, double now, int channel) const {
  BESYNC_CHECK_GE(channel, 0);
  BESYNC_CHECK_LT(channel, num_channels());
  return ChannelPriority(channels_[channel], index, now);
}

double SourceAgent::ComputeSourcePriority(ObjectIndex index, double now) const {
  BESYNC_CHECK_EQ(num_channels(), 1)
      << "ComputeSourcePriority(index, now) is single-channel only; source "
      << index_ << " has " << num_channels()
      << " cache channels — use the channel overload";
  return ChannelSourcePriority(channels_.front(), index, now);
}

double SourceAgent::ComputeSourcePriority(ObjectIndex index, double now,
                                          int channel) const {
  BESYNC_CHECK_GE(channel, 0);
  BESYNC_CHECK_LT(channel, num_channels());
  return ChannelSourcePriority(channels_[channel], index, now);
}

void SourceAgent::Start(Simulation* sim, double tick_length) {
  sim_ = sim;
  tick_length_ = tick_length;
  BuildChannels();
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
  if (!push_protocol()) {
    // TTL: updates are silent — replicas age out on their own. Invalidation:
    // queue one notification per replica per staleness episode; a replica
    // already queued or notified costs nothing until a pull refills it.
    if (protocol_->emits_invalidations()) {
      for (Channel& channel : channels_) {
        const int32_t slot = channel.slot_of[index - first_member_];
        if (slot < 0) continue;
        if (channel.invalid_state[slot] != kReplicaFresh) continue;
        channel.invalid_state[slot] = kInvalidateQueued;
        channel.invalidate_queue.push_back(slot);
      }
    }
    return;
  }
  if (config_.monitor == MonitorMode::kSampling) return;  // source is blind
  for (Channel& channel : channels_) {
    const int32_t slot = channel.slot_of[index - first_member_];
    if (slot < 0) continue;
    LocalState& state = channel.locals[slot];
    if (policy_->time_varying()) {
      if (policy_->update_sensitive()) {
        // The update may have moved the threshold crossing earlier; re-arm.
        ++state.epoch;
        PushWake(&channel, index, t);
      }
      continue;
    }
    ++state.epoch;
    channel.queue.Push(ChannelPriority(channel, index, t), index, state.epoch);
    if (secondary_enabled_) {
      channel.secondary_queue.Push(ChannelSourcePriority(channel, index, t), index,
                                   state.epoch);
    }
    MaybeCompact(&channel);
  }
}

void SourceAgent::MaybeCompact(Channel* channel) {
  const size_t trigger = 4 * static_cast<size_t>(channel->num_members) + 64;
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

void SourceAgent::OnFeedback(const ControlMessage& message, double t) {
  ++control_received_;
  Channel* channel = ChannelFor(message.cache_id);
  BESYNC_CHECK(channel != nullptr)
      << "feedback from cache " << message.cache_id << " reached source " << index_
      << " which has no objects there";
  channel->controller.OnFeedback(t, at_full_capacity_);
  if (message.granted_rate > 0.0) granted_rate_ = message.granted_rate;
  if (policy_->time_varying()) {
    // The threshold may have dropped: re-arm this channel's wake-ups so
    // crossings that are now earlier are not missed.
    for (int32_t s = 0; s < channel->num_members; ++s) {
      const ObjectIndex index = channel->members[s];
      ++local(channel, index).epoch;
      PushWake(channel, index, t);
    }
  }
}

void SourceAgent::PushWake(Channel* channel, ObjectIndex index, double now) {
  const PriorityContext context =
      MakeContext(*channel, index, now, /*use_source_weight=*/false);
  const double cross =
      policy_->ThresholdCrossTime(context, channel->controller.threshold(), now);
  if (!std::isfinite(cross)) return;
  channel->wake_queue.Push(cross, index, local(channel, index).epoch);
}

Message SourceAgent::Ship(Channel* channel, int32_t slot, double now, bool is_pull) {
  const ObjectIndex index = channel->members[slot];
  const int32_t replica = channel->replica_slots[slot];
  LocalState& state = channel->locals[slot];
  // Record the finishing interval's realized divergence rate before the
  // tracker resets (feeds the history-extended policy).
  {
    const DivergenceTracker& tracker = harness_->object(index).tracker(replica);
    state.history.OnRefresh(now - tracker.last_refresh_time(), tracker.IntegralTo(now));
  }
  Message message = harness_->MakeRefreshMessage(index, replica, now);
  message.is_pull = is_pull;
  if (channel->sampled != nullptr) channel->sampled[slot].OnRefresh(now);
  if (trace_ != nullptr) {
    RecordTrace(TraceEventKind::kSend, now, channel->cache_id, index, message.version,
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
  return message;
}

void SourceAgent::EmitRefresh(Channel* channel, const QueueEntry& head,
                              const QueueEntry* mates, size_t num_mates, int64_t cost,
                              bool bump_threshold, double now, Link* cache_link) {
  // Threshold bumping applies only to refreshes governed by the threshold
  // protocol; it precedes the ships so a re-armed wake-up sees the
  // post-increase threshold.
  if (bump_threshold) channel->controller.OnRefreshSent(now);
  Message message = Ship(channel, ChannelSlot(*channel, head.index), now,
                         /*is_pull=*/false);
  for (size_t k = 0; k < num_mates; ++k) {
    const Message part =
        Ship(channel, ChannelSlot(*channel, mates[k].index), now, /*is_pull=*/false);
    message.extra_refreshes.push_back(
        RefreshPayload{part.object_index, part.value, part.version, part.replica});
  }
  message.cost = cost;
  // Piggyback the current (post-increase) threshold: the freshest
  // information the cache can have about this source.
  message.piggyback_threshold = channel->controller.threshold();
  // Entries are popped in priority order, so the head holds the maximum.
  message.forward_priority = head.key;
  cache_link->Enqueue(std::move(message));
  tally_->refreshes_sent += 1 + static_cast<int64_t>(num_mates);
  channel->last_emit_time = now;
}

Message SourceAgent::ServePull(ObjectIndex index, int32_t cache_id, double now) {
  ++control_received_;
  Channel* channel = ChannelFor(cache_id);
  BESYNC_CHECK(channel != nullptr)
      << "source " << index_ << " has no channel for cache " << cache_id;
  Message message = Ship(channel, ChannelSlot(*channel, index), now, /*is_pull=*/true);
  message.piggyback_threshold = channel->controller.threshold();
  // Demand traffic: priority-preserving relays forward pulls ahead of any
  // queued push.
  message.forward_priority = std::numeric_limits<double>::infinity();
  return message;
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

int64_t SourceAgent::SendRefreshes(double now, Link* source_link, Link* cache_link,
                                   int channel_index) {
  BESYNC_DCHECK(channel_index >= 0 && channel_index < num_channels());
  Channel* channel = &channels_[channel_index];
  // Channel 0 opens the source's send phase for this tick; the flag then
  // accumulates across the remaining channels (they share the source link).
  if (channel_index == 0) at_full_capacity_ = false;
  if (policy_->time_varying()) {
    return SendRefreshesTimeVarying(channel, now, source_link, cache_link);
  }
  return Drain(channel, /*primary=*/true, std::numeric_limits<int64_t>::max(), now,
               source_link, cache_link);
}

int64_t SourceAgent::SendInvalidations(double now, Link* source_link,
                                       Link* cache_link, int channel_index) {
  BESYNC_DCHECK(channel_index >= 0 && channel_index < num_channels());
  BESYNC_CHECK(protocol_ != nullptr && protocol_->emits_invalidations());
  Channel* channel = &channels_[channel_index];
  // Same tick-opening contract as SendRefreshes: channel 0 clears the
  // shared full-capacity flag, the remaining channels accumulate into it.
  if (channel_index == 0) at_full_capacity_ = false;
  const int64_t cost = protocol_->config().invalidate_cost;
  const int max_batch = protocol_->config().max_invalidate_batch;
  int64_t messages = 0;
  while (true) {
    // Lazy tombstones first: entries whose state left kInvalidateQueued (a
    // pull refilled the replica) are dropped before any budget is spent.
    Fifo<int32_t>& queue = channel->invalidate_queue;
    while (!queue.empty() &&
           channel->invalid_state[queue.front()] != kInvalidateQueued) {
      queue.pop_front();
    }
    if (queue.empty()) break;
    if (!source_link->TryConsumeAllowingDeficit(cost)) {
      at_full_capacity_ = true;
      break;
    }
    Message message;
    message.kind = MessageKind::kInvalidate;
    message.source_index = index_;
    message.cache_id = channel->cache_id;
    message.send_time = now;
    message.cost = cost;
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
      if (packed == 0) {
        message.object_index = object;
      } else {
        message.extra_refreshes.push_back(RefreshPayload{object, 0.0, 0});
      }
      ++packed;
      ++tally_->invalidations_sent;
      if (trace_ != nullptr) {
        RecordTrace(TraceEventKind::kInvalidateSend, now, channel->cache_id,
                    object, /*version=*/0, /*is_pull=*/false);
      }
    }
    channel->last_emit_time = now;
    cache_link->Enqueue(std::move(message));
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
