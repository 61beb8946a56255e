#ifndef BESYNC_CORE_SOURCE_H_
#define BESYNC_CORE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/harness.h"
#include "core/threshold.h"
#include "fault/fault_schedule.h"
#include "net/link.h"
#include "net/network.h"
#include "obs/trace.h"
#include "priority/history.h"
#include "priority/priority.h"
#include "priority/priority_queue.h"
#include "priority/sampling.h"
#include "protocol/sync_protocol.h"
#include "util/ring.h"

namespace besync {

/// How a source learns the priorities of its modified objects (Section 8.2).
enum class MonitorMode {
  /// Trigger-based: the source recomputes an object's priority exactly when
  /// an update occurs.
  kTrigger,
  /// Sampling-based (Section 8.2.1): the source periodically samples each
  /// object's divergence and works with estimated priorities.
  kSampling,
};

/// Per-source configuration for the cooperative protocol.
struct SourceAgentConfig {
  ThresholdConfig threshold;
  MonitorMode monitor = MonitorMode::kTrigger;
  /// Base interval between divergence samples (sampling mode).
  double sampling_interval = 10.0;
  /// Sampling mode: schedule the next sample at the predicted
  /// threshold-crossing time when that is sooner than the base interval
  /// (Section 8.2.1's prediction formula), but never sooner than one
  /// second after the current sample.
  bool predictive_sampling = false;
  /// Divide priorities by the object's refresh cost (Section 10.1: "a
  /// factor inversely proportional to cost"). Identity for unit costs.
  bool cost_aware_priority = true;
  /// Maximum refreshes packaged into one unit-cost message (Section 10.1
  /// batching extension); >= 1. 1 = the paper's one-object-per-message
  /// model, where each message costs its object's refresh cost. Batching
  /// requires unit refresh costs.
  int max_batch = 1;
  /// A partial batch is flushed once the oldest eligible refresh has waited
  /// this long since the source's previous emission to the same cache.
  double max_batch_delay = 5.0;
};

/// One cooperating data source S_j: monitors the refresh priorities of its
/// local objects and, for every cache c that replicates any of them,
/// maintains an independent local refresh threshold T_{j,c} with its own
/// priority queue over the objects replicated at c (the paper's Section 5
/// protocol is the one-cache special case T_j = T_{j,0}). Whenever it has
/// source-side bandwidth available it refreshes, per cache, its
/// highest-priority objects whose priority exceeds that cache's threshold.
/// Feedback from cache c adjusts T_{j,c} only.
class SourceAgent {
 public:
  /// `policy`, `protocol`, `harness` and `tally` must outlive the agent;
  /// `protocol` is the consistency protocol driving this source's
  /// emissions. `expected_feedback_period` is the fallback P_feedback used
  /// for every cache channel not covered by SetFeedbackPeriods(). The agent
  /// counts the objects it sends (refreshes_sent, invalidations_sent) on
  /// `tally`.
  SourceAgent(int index, const SourceAgentConfig& config,
              double expected_feedback_period, const PriorityPolicy* policy,
              const SyncProtocol* protocol, Harness* harness, SchedulerStats* tally);

  int index() const { return index_; }
  /// Number of cache channels (caches replicating >= 1 of this source's
  /// objects). Valid after Start().
  int num_channels() const { return static_cast<int>(channels_.size()); }
  /// Cache id of channel `k` (channels are in ascending cache-id order).
  int32_t channel_cache_id(int k) const { return channels_[k].cache_id; }
  /// Local threshold T_{j,c} of channel `k` (channel 0 is the only channel
  /// in the paper's single-cache topology).
  double threshold(int k = 0) const { return channels_[k].controller.threshold(); }
  ThresholdController& controller(int k = 0) { return channels_[k].controller; }
  bool at_full_capacity() const { return at_full_capacity_; }
  double granted_rate() const { return granted_rate_; }
  /// Control messages (feedback and pull requests) this source has handled
  /// since construction; never reset.
  int64_t control_received() const { return control_received_; }
  size_t num_objects() const { return members_.size(); }
  /// Entries (live + lazily-invalidated stale) in channel `k`'s priority
  /// queue. MaybeCompact() keeps this bounded by 4x the channel's live
  /// object count (+ a small constant), independent of how many updates the
  /// run processed — pinned by the heap-growth regression test.
  size_t queue_size(int k = 0) const { return channels_[k].queue.size(); }
  /// Live objects replicated at channel `k`'s cache.
  size_t channel_num_objects(int k = 0) const {
    return static_cast<size_t>(channels_[k].num_members);
  }
  /// Channel `k`'s members, ascending (channel_num_objects(k) of them), and
  /// each member's replica slot at the channel's cache
  /// (ObjectSpec::replica_slot). Introspection for tests.
  const ObjectIndex* channel_members(int k) const { return channels_[k].members; }
  const int32_t* channel_replica_slots(int k) const {
    return channels_[k].replica_slots;
  }

  /// Registers an object hosted by this source. Objects of one source must
  /// form a contiguous index range (as produced by the workload generators).
  void AddObject(ObjectIndex index);

  /// Per-cache expected feedback periods, indexed by cache id (e.g. number
  /// of sources interested in cache c divided by B_c). Call before Start();
  /// caches beyond the vector fall back to the constructor scalar.
  void SetFeedbackPeriods(std::vector<double> periods_by_cache);

  /// Run-start hook: builds the per-cache channels from the workload's
  /// interest map and seeds the monitoring machinery (initial wake-ups for
  /// time-varying policies, sampling schedules).
  void Start(Simulation* sim, double tick_length);

  /// Trigger-mode notification that object `index` was updated at time `t`.
  void OnObjectUpdate(ObjectIndex index, double t);

  /// Look-ahead for OnObjectUpdate(index, ...), installed through
  /// Harness::SetUpdatePrefetcher. When updates re-key the primary queue
  /// (a push protocol under trigger monitoring with a time-invariant
  /// policy), prefetches each of the object's channels' replica state and
  /// queue push position. Objects with more than kPrefetchLineCap replicas
  /// are skipped: their channel walk would cost more than it hides, and
  /// OnObjectUpdate prefetches a few channels ahead inside its own walk.
  /// Prefetches only; changes nothing.
  void PrefetchUpdate(ObjectIndex index) const;

  /// Fires the sampling event of flat sample id `sample_id` (the low 32
  /// bits of a kSampleEvent payload; see RegisterSampleEventHandler).
  void HandleSampleEvent(uint32_t sample_id, double t);

  /// Handles a positive feedback message received at time `t`; the
  /// message's cache_id selects which threshold T_{j,c} is adjusted.
  void OnFeedback(const ControlMessage& message, double t);

  /// The source's tick send phase. Clears the full-capacity flag, then
  /// visits every channel with queued work in ascending channel order and
  /// emits into the `network` link where that channel's cache is entered
  /// (Network::first_hop_link), while the shared budget of `source_link`
  /// allows: over-threshold refreshes from the primary queue (push,
  /// time-invariant policy), due wake-ups (push, time-varying policy) or
  /// pending notifications (invalidation, up to max_invalidate_batch
  /// replicas per kInvalidate message). A channel whose primary, wake and
  /// invalidation queues are all empty is skipped: draining it would change
  /// nothing. Returns the number of messages sent. Requires a push or an
  /// invalidation protocol.
  int64_t SendPhase(double now, Link* source_link, Network* network);

  /// Whether channel `k` is on the send phase's visit list: set by every
  /// push to its primary, wake or invalidation queue, cleared when a send
  /// phase leaves all three empty.
  bool channel_queued(int k) const {
    return (queued_[static_cast<size_t>(k) >> 6] >> (k & 63) & 1) != 0;
  }
  /// The invariant that makes skipping exact: every channel that is not
  /// queued has empty primary, wake and invalidation queues. Debug builds
  /// check it at every send phase.
  bool UnqueuedChannelsIdle() const;

  /// Enables the secondary, source-objective priority queues used by the
  /// competitive protocol (Section 7): updates are additionally prioritized
  /// under the source's own weighting scheme.
  void EnableSecondaryQueue() { secondary_enabled_ = true; }

  /// Sends up to `max_count` refreshes picked by the *source's own* priority
  /// scheme, bypassing the threshold (these consume the bandwidth share the
  /// cache granted the source for its own objectives). Does not bump the
  /// threshold controller. Returns the number sent.
  int64_t SendSecondary(double now, int64_t max_count, Link* source_link,
                        Link* cache_link, int channel = 0);

  /// Fault hook: cache `cache_id` restarted empty at `now`; every replica
  /// this source keeps there must be re-shipped. Appends the affected
  /// object indices to `resynced` (the scheduler's outstanding-resync set).
  /// Under kNaiveReenqueue the replicas simply rejoin the normal threshold
  /// machinery at their current priorities — they wait their turn behind
  /// ordinary refresh traffic, and low-priority replicas may never be
  /// re-pushed at all. Under kRecoveryPriority they enter a dedicated
  /// recovery FIFO drained by SendRecovery ahead of the send phase.
  /// Invalidation sources additionally mark the replicas notified (the
  /// crash told the cache everything it holds is gone). No-op when the
  /// source has no objects at the cache.
  void OnCacheRestart(int32_t cache_id, double now, RecoveryPolicy policy,
                      std::vector<ObjectIndex>* resynced);

  /// Recovery send phase (kRecoveryPriority): emits one refresh per queued
  /// replica of channel `channel`'s recovery FIFO while the shared source
  /// link grants budget, at infinite forward priority (relays move resync
  /// traffic like demand pulls). No threshold bumping — recovery traffic
  /// must not inflate T_{j,c}. Returns the number sent. Runs for every
  /// protocol: recovery is a server-initiated fill even when steady-state
  /// refreshes are pull-only.
  int64_t SendRecovery(double now, Link* source_link, Link* cache_link,
                       int channel = 0);
  /// Replicas still awaiting a recovery refresh on channel `k`.
  size_t recovery_queue_size(int k = 0) const {
    return channels_[k].recovery_queue.size();
  }

  /// Serves a miss-triggered pull of `index` toward `cache_id` (read path):
  /// performs the same per-replica bookkeeping as a push (Ship) but bumps
  /// no threshold and counts no push. Writes the refresh-shaped response
  /// into `first_hop` (the link where the cache is entered): is_pull set,
  /// the channel's current threshold piggybacked, and infinite
  /// forward_priority so priority-preserving relays move demand traffic
  /// first. Its cost is charged to `source_link` as debt: a pull is never
  /// dropped, it throttles the source's next pushes instead.
  void ServePull(ObjectIndex index, int32_t cache_id, double now, Link* source_link,
                 Link* first_hop);

  /// Observability wiring (obs/trace.h): records this source's lifecycle
  /// events — update enqueues, refresh sends, invalidation sends, resync
  /// re-enqueues — into `trace`. Null (the default) disables recording at
  /// the cost of one pointer test per hook. Sources record only into their
  /// own buffer.
  void SetTraceBuffer(TraceBuffer* trace) { trace_ = trace; }

 private:
  /// Per-replica monitoring state kept under every monitor mode: the
  /// lazy-heap epoch and the history rate, both read on every trigger-mode
  /// update (the history rate through the priority context). Two fit in
  /// one cache line; the sampling-mode tracker lives in its own per-channel
  /// table (Channel::sampled).
  struct LocalState {
    uint64_t epoch = 0;
    HistoryRateEstimator history;
  };
  static_assert(sizeof(LocalState) <= 32, "two replicas' LocalState per cache line");

  /// The source's model of one replica under the invalidation protocol:
  /// fresh (the cache holds the live value as far as the source shipped it),
  /// queued (an update happened, the notification awaits bandwidth), or
  /// sent (notified — further updates are free until a pull refills it).
  /// A lost notification strands the replica in kInvalidateSent: the source
  /// believes the cache knows, the cache believes the replica is valid —
  /// the valid-but-stale hazard pinned in tests/protocol_test.cc.
  enum ReplicaNotifyState : uint8_t {
    kReplicaFresh = 0,
    kInvalidateQueued = 1,
    kInvalidateSent = 2,
  };

  /// Per-cache protocol state: threshold controller T_{j,c}, the priority
  /// queues over the objects replicated at the cache, and the per-replica
  /// monitoring state. The fixed-size per-object tables (members, slot_of,
  /// replica_slots, locals, sampled, invalid_state) are arena spans carved
  /// from the harness run arena by BuildChannels — sized once from the
  /// interest map, never resized, and freed wholesale with the run.
  struct Channel {
    Channel(int32_t cache, const ThresholdConfig& config, double feedback_period)
        : cache_id(cache), controller(config, feedback_period, /*start_time=*/0.0) {}

    int32_t cache_id;
    ThresholdController controller;
    /// Objects replicated at this cache (ascending global indices).
    ObjectIndex* members = nullptr;
    int32_t num_members = 0;
    /// Sampling mode: the channel's first flat sample id (its slots take
    /// ids sample_base .. sample_base + num_members - 1, channel-major).
    uint32_t sample_base = 0;
    /// Source-local object offset -> channel slot, -1 if not replicated
    /// (size = the source's total object count).
    int32_t* slot_of = nullptr;
    /// Replica slot of each channel member at this cache (tracker index).
    int32_t* replica_slots = nullptr;
    LocalState* locals = nullptr;
    /// Sampling mode only: each member's sampled divergence estimate (null
    /// under trigger monitoring).
    SampledTracker* sampled = nullptr;
    /// Event-keyed queue: priority recomputed on updates (or samples).
    LazyMaxHeap queue;
    /// Competitive mode: the same objects keyed by the source's own priority.
    LazyMaxHeap secondary_queue;
    /// Time-varying policies: wake-ups at predicted threshold crossings.
    TimeMinHeap wake_queue;
    double last_emit_time = 0.0;
    /// Invalidation protocol only: per-member ReplicaNotifyState (arena
    /// span, null otherwise) and the FIFO of channel slots awaiting a
    /// notification. Entries whose state moved off kInvalidateQueued
    /// (a pull refilled the replica first) die lazily at send time.
    uint8_t* invalid_state = nullptr;
    Ring<int32_t> invalidate_queue;
    /// Channel slots awaiting a recovery refresh after the cache crashed
    /// (RecoveryPolicy::kRecoveryPriority only; drained by SendRecovery).
    Ring<int32_t> recovery_queue;
  };

  /// Inlined epoch resolver over a channel's local-state table. A plain
  /// struct (not a type-erased EpochFn) so the heap templates inline the
  /// lookup — the staleness check runs once per heap comparison on the
  /// send-phase hot path.
  struct ChannelEpoch {
    const LocalState* locals;
    const int32_t* slot_of;
    ObjectIndex first_member;
    uint64_t operator()(ObjectIndex index) const {
      return locals[slot_of[index - first_member]].epoch;
    }
  };

  void BuildChannels();
  /// The channel of cache `cache_id`, or null when this source has no
  /// objects there. O(1) through channel_of_cache_.
  Channel* ChannelFor(int32_t cache_id);
  int ChannelSlot(const Channel& channel, ObjectIndex index) const;
  LocalState& local(Channel* channel, ObjectIndex index);
  ChannelEpoch MakeEpochFn(const Channel* channel) const;
  PriorityContext MakeContext(const Channel& channel, ObjectIndex index, double now,
                              bool use_source_weight) const;
  double ChannelPriority(const Channel& channel, ObjectIndex index, double now) const;
  double ChannelSourcePriority(const Channel& channel, ObjectIndex index,
                               double now) const;

  /// kSampleEvent payload of `channel`'s slot `slot`.
  uint64_t SamplePayload(const Channel& channel, int32_t slot) const;
  void OnSampleEvent(int channel_index, int32_t slot, double t);
  void ScheduleNextSample(int channel_index, int32_t slot, double now);
  /// The per-replica half of every refresh — push, batch mate, pull or
  /// recovery: closes the replica's history interval, writes the refresh
  /// into `message` (resetting the tracker) with is_pull set, resets the
  /// sampled estimate, records kSend, bumps the epoch, marks an
  /// invalidation replica fresh and re-arms a time-varying wake-up.
  void Ship(Channel* channel, int32_t slot, double now, bool is_pull, Message* message);
  /// Sends one message carrying `head` and its `num_mates` batch mates to
  /// `channel`'s cache through `cache_link`, the cache's tier-1 edge, at
  /// `cost` (budget already secured). Threshold bumping applies only to
  /// refreshes governed by the threshold protocol. `head.key` is stamped on
  /// the message for priority-preserving relay forwarding.
  void EmitRefresh(Channel* channel, const QueueEntry& head, const QueueEntry* mates,
                   size_t num_mates, int64_t cost, bool bump_threshold, double now,
                   Link* cache_link);
  /// Re-arms the wake-up entry of `index` (time-varying policies).
  void PushWake(Channel* channel, ObjectIndex index, double now);
  /// Puts `channel` on the send phase's visit list (channel_queued); every
  /// push to its primary, wake or invalidation queue calls it.
  void MarkQueued(const Channel* channel) {
    const size_t k = static_cast<size_t>(channel - channels_.data());
    queued_[k >> 6] |= uint64_t{1} << (k & 63);
  }
  /// The two send-phase lookahead stages for a channel about to be
  /// drained: its record and heap fronts (two channels ahead), then its
  /// front entry's LocalState and DivergenceTracker (one ahead, once the
  /// front is in cache). Hints only; change nothing.
  void PrefetchChannel(const Channel& channel) const;
  void PrefetchFront(const Channel& channel) const;
  /// Whether the push-refresh machinery (queues, wake-ups, sampling) drives
  /// this source.
  bool push_protocol() const { return protocol_->emits_push_refreshes(); }
  /// Records one lifecycle event into trace_ (callers test trace_ first).
  void RecordTrace(TraceEventKind kind, double t, int32_t cache_id,
                   ObjectIndex index, int64_t version, bool is_pull);
  /// The one queue drain: pops `channel`'s primary queue (threshold-gated,
  /// batches of up to max_batch, threshold bumped per message) or its
  /// secondary queue (ungated, unbatched, no bump), sending while the source
  /// link grants budget and fewer than `max_messages` messages went out.
  /// Returns the number of messages sent.
  int64_t Drain(Channel* channel, bool primary, int64_t max_messages, double now,
                Link* source_link, Link* cache_link);
  int64_t SendRefreshesTimeVarying(Channel* channel, double now, Link* source_link,
                                   Link* cache_link);
  /// Drains `channel`'s pending-invalidation queue into kInvalidate
  /// messages (up to max_invalidate_batch replica notifications each)
  /// while the shared source-side budget allows. Returns the number of
  /// messages emitted.
  int64_t SendInvalidations(Channel* channel, double now, Link* source_link,
                            Link* cache_link);
  void MaybeCompact(Channel* channel);

  int index_;
  SourceAgentConfig config_;
  const PriorityPolicy* policy_;
  const SyncProtocol* protocol_;
  Harness* harness_;
  SchedulerStats* tally_;
  double expected_feedback_period_;
  std::vector<double> feedback_periods_by_cache_;
  std::vector<ObjectIndex> members_;
  ObjectIndex first_member_ = -1;
  std::vector<Channel> channels_;
  /// Cache id -> index into channels_, -1 where this source has no objects
  /// (sized to the largest channel cache id + 1).
  std::vector<int32_t> channel_of_cache_;
  /// One bit per channel (channel_queued), and the list SendPhase expands
  /// them into (num_channels entries). Arena spans carved by BuildChannels,
  /// like the channel tables: a heap block allocated mid-run moved
  /// `update_heavy`'s glibc heap history (DESIGN.md).
  uint64_t* queued_ = nullptr;
  int32_t* visit_ = nullptr;
  bool secondary_enabled_ = false;
  /// Set by Start: OnObjectUpdate pushes a fresh primary-queue entry per
  /// replica (push protocol, trigger monitoring, time-invariant policy).
  bool rekeys_on_update_ = false;
  double tick_length_ = 1.0;
  bool at_full_capacity_ = false;
  double granted_rate_ = 0.0;
  int64_t control_received_ = 0;
  Simulation* sim_ = nullptr;
  /// This source's trace buffer; null unless observability tracing is on.
  TraceBuffer* trace_ = nullptr;
  /// Send-phase scratch, reused across ticks so the per-tick loops do not
  /// reallocate (batch mates and due time-varying wake-ups).
  std::vector<QueueEntry> scratch_batch_;
  std::vector<QueueEntry> scratch_due_;
};

/// Installs the kSampleEvent handler of `sim` (sim/simulation.h). A
/// sampling event's payload is the agent's source index in the bits above
/// 32 and the agent's flat (channel, slot) sample id below; the handler
/// routes it to `(*agents)[source]`, so `agents` must hold every sampling
/// agent at the position of its index() and outlive the simulation's
/// events. Register once, before any sampling agent Start()s.
void RegisterSampleEventHandler(Simulation* sim,
                                std::vector<std::unique_ptr<SourceAgent>>* agents);

}  // namespace besync

#endif  // BESYNC_CORE_SOURCE_H_
