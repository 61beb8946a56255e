#include "core/system.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {
namespace {

/// The observability time series carries per-cache divergence columns for
/// the first `min(num_caches, kMaxPerCacheSeries)` caches; its total
/// column always covers all of them.
constexpr int kMaxPerCacheSeries = 8;

/// Records the kDeliver + kApply pair for a refresh-shaped message (primary
/// payload and batch mates) at the apply site; kDeliver and kApply share the
/// timestamp because the engine applies at arrival.
void RecordDeliveryTrace(TraceBuffer* trace, const Message& message, double t) {
  TraceEvent event;
  event.t = t;
  event.source = message.source_index;
  event.cache = message.cache_id;
  event.object = message.object_index;
  event.version = message.version;
  event.is_pull = message.is_pull;
  event.kind = TraceEventKind::kDeliver;
  trace->Record(event);
  event.kind = TraceEventKind::kApply;
  trace->Record(event);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    event.object = payload.object_index;
    event.version = payload.version;
    event.kind = TraceEventKind::kDeliver;
    trace->Record(event);
    event.kind = TraceEventKind::kApply;
    trace->Record(event);
  }
}

}  // namespace

CooperativeScheduler::CooperativeScheduler(const CooperativeConfig& config)
    : config_(config),
      policy_(MakePolicy(config.policy)),
      protocol_(SyncProtocol::Make(config.protocol)) {}

Status CooperativeScheduler::Validate(const Workload& workload) const {
  const int num_caches = std::max(config_.num_caches, workload.num_caches);
  const TopologySpec& topology = RunTopology(workload);
  if (!topology.flat()) BESYNC_RETURN_IF_ERROR(topology.Validate(num_caches));
  if (!workload.faults.empty()) {
    BESYNC_RETURN_IF_ERROR(workload.faults.Validate(topology, num_caches));
  }
  // Every edge's budget: past kMaxTickBudget, BandwidthModel::BudgetForTick
  // overflows its integer budget and the edge delivers nothing. The bound
  // is per second of bandwidth here (the scheduler never sees the tick);
  // ValidateExperimentConfig bounds the configured averages per tick. The
  // error names the field that set the edge's bandwidth.
  const EdgeBandwidths edges = ResolveEdgeBandwidths(RunNetworkConfig(workload));
  const auto explicit_value = [](const std::vector<double>& values, int node) {
    return node < static_cast<int>(values.size()) && values[node] > 0.0;
  };
  const auto check = [](const char* field, const char* edge, int node, double bandwidth) {
    if (bandwidth <= kMaxTickBudget) return Status::OK();
    return Status::InvalidArgument(field, " gives the ", edge, " of node ", node,
                                   " a bandwidth of ", bandwidth,
                                   " messages/s; it must be <= ", kMaxTickBudget);
  };
  for (int c = 0; c < num_caches; ++c) {
    const char* field = explicit_value(topology.edge_bandwidth, c) ? "edge_bandwidth"
                        : explicit_value(config_.cache_bandwidths, c)
                            ? "cache_bandwidths"
                            : "cache_bandwidth_avg";
    BESYNC_RETURN_IF_ERROR(check(field, "leaf edge", c, edges.leaf[c]));
  }
  for (size_t r = 0; r < edges.relay_ingress.size(); ++r) {
    const int node = num_caches + static_cast<int>(r);
    const char* ingress = explicit_value(topology.edge_bandwidth, node)
                              ? "edge_bandwidth"
                              : "relay_bandwidth_factor";
    BESYNC_RETURN_IF_ERROR(check(ingress, "relay ingress edge", node,
                                 edges.relay_ingress[r]));
    const char* egress = explicit_value(topology.relay_egress_bandwidth, node)
                             ? "relay_egress_bandwidth"
                             : ingress;
    BESYNC_RETURN_IF_ERROR(check(egress, "relay egress edge", node,
                                 edges.relay_egress[r]));
  }
  return Status::OK();
}

NetworkConfig CooperativeScheduler::RunNetworkConfig(const Workload& workload) const {
  NetworkConfig net_config;
  net_config.num_sources = workload.num_sources;
  net_config.num_caches = std::max(config_.num_caches, workload.num_caches);
  net_config.cache_bandwidth_avg = config_.cache_bandwidth_avg;
  net_config.cache_bandwidth_overrides = config_.cache_bandwidths;
  net_config.source_bandwidth_avg = config_.source_bandwidth_avg;
  net_config.bandwidth_change_rate = config_.bandwidth_change_rate;
  net_config.topology = RunTopology(workload);
  return net_config;
}

const TopologySpec& CooperativeScheduler::RunTopology(const Workload& workload) const {
  // The config's topology wins over the workload's; both default to flat —
  // the historical one-hop star.
  return !config_.topology.flat() ? config_.topology : workload.topology;
}

void CooperativeScheduler::Initialize(Harness* harness) {
  harness_ = harness;
  const Workload& workload = harness->workload();
  BESYNC_CHECK_OK(Validate(workload));
  const int m = workload.num_sources;
  const double tick = harness->config().tick_length;
  const int num_caches = std::max(config_.num_caches, workload.num_caches);
  const TopologySpec& topology = RunTopology(workload);

  network_ = std::make_unique<Network>(RunNetworkConfig(workload),
                                       harness->scheduler_rng());
  // Leaf-edge loss first, in cache order — the historical RNG consumption —
  // then relay-edge loss (extra draws only on lossy relay edges, so a
  // pass-through tree leaves the seed stream untouched).
  for (int c = 0; c < num_caches; ++c) {
    const double rate =
        topology.EdgeValue(topology.edge_loss, c, config_.loss_rate);
    if (rate > 0.0) {
      network_->cache_link(c).SetLossRate(rate,
                                          harness->scheduler_rng()->NextUint64());
    }
  }
  relays_.clear();
  for (int n = num_caches; n < network_->num_nodes(); ++n) {
    const double rate = topology.EdgeValue(topology.edge_loss, n, 0.0);
    if (rate > 0.0) {
      network_->edge_link(n).SetLossRate(rate,
                                         harness->scheduler_rng()->NextUint64());
    }
    relays_.push_back(std::make_unique<RelayAgent>(
        n, config_.relay_forward, topology.EdgeValue(topology.edge_latency, n, 0.0),
        &network_->message_pool()));
  }

  // Per cache: the ascending source ids with >= 1 object replicated there.
  std::vector<std::vector<int32_t>> sources_by_cache = SourcesByCache(workload);
  sources_by_cache.resize(static_cast<size_t>(num_caches));

  // The workload's fault schedule; empty keeps every fault hook cold.
  fault_events_ = workload.faults.Sorted();
  fault_cursor_ = 0;
  resync_.clear();
  if (!fault_events_.empty()) {
    resync_.assign(static_cast<size_t>(num_caches), ResyncState{});
  }
  tally_ = SchedulerStats{};
  resync_digest_.Reset();

  // The paper's P_feedback estimate, per cache: sources interested in the
  // cache / the cache's average bandwidth. Floored at one tick: feedback is
  // delivered at tick granularity, so a shorter expected period would
  // spuriously trigger the flooding accelerator in every steady-state tick.
  std::vector<double> feedback_periods(static_cast<size_t>(num_caches), 0.0);
  for (int c = 0; c < num_caches; ++c) {
    const double bandwidth = network_->cache_link(c).average_bandwidth();
    const double interested = static_cast<double>(sources_by_cache[c].size());
    feedback_periods[c] =
        interested > 0.0 ? std::max(interested / bandwidth, tick) : tick;
  }

  caches_.clear();
  caches_.reserve(num_caches);
  for (int c = 0; c < num_caches; ++c) {
    // A cache no source is interested in stays idle (null agent).
    caches_.push_back(sources_by_cache[c].empty()
                          ? nullptr
                          : std::make_unique<CacheAgent>(c, sources_by_cache[c]));
  }

  sources_.clear();
  sources_.reserve(m);
  for (int j = 0; j < m; ++j) {
    sources_.push_back(std::make_unique<SourceAgent>(
        j, config_.source, feedback_periods[0], policy_.get(), protocol_.get(),
        harness, &tally_));
    sources_[j]->SetFeedbackPeriods(feedback_periods);
  }

  object_source_.resize(workload.objects.size());
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    const int32_t j = workload.objects[i].source_index;
    object_source_[i] = j;
    sources_[j]->AddObject(static_cast<ObjectIndex>(i));
  }
  if (config_.source.monitor == MonitorMode::kSampling) {
    RegisterSampleEventHandler(&harness->simulation(), &sources_);
  }
  for (auto& source : sources_) source->Start(&harness->simulation(), tick);
  harness->SetUpdatePrefetcher(&CooperativeScheduler::PrefetchUpdate, this);

  source_order_.resize(m);
  for (int j = 0; j < m; ++j) source_order_[j] = j;

  // The client read side: per-cache streams, stores and pull bookkeeping.
  // Inert — no RNG created, no stream state — unless the workload
  // configures reads, a finite tier capacity, a validity-tracking
  // protocol (invalidation / TTL state lives next to residency), or a
  // fault schedule with cache crashes (crashes flow through the stores).
  bool has_cache_faults = false;
  for (const FaultEvent& event : fault_events_) {
    if (event.kind == FaultEventKind::kCacheCrash) {
      has_cache_faults = true;
      break;
    }
  }
  read_path_.Initialize(harness, num_caches, &tally_, protocol_.get(),
                        has_cache_faults);

  // Observability (config_.obs.enabled only): build the collector, fix the
  // time-series columns, and hand every recording site its per-entity trace
  // buffer. Disabled, nothing is allocated and every hook in the engine
  // stays a single cold null test.
  obs_.reset();
  obs_row_.clear();
  if (config_.obs.enabled) {
    obs_ = std::make_unique<ObsCollector>(config_.obs, m, num_caches,
                                          static_cast<int>(relays_.size()), tick);
    std::vector<std::string> columns;
    columns.push_back("total_weighted_divergence");
    const int per_cache = std::min(num_caches, kMaxPerCacheSeries);
    for (int c = 0; c < per_cache; ++c) {
      columns.push_back("cache_divergence_" + std::to_string(c));
    }
    columns.push_back("source_queue_depth");
    columns.push_back("recovery_queue_depth");
    columns.push_back("link_queue");
    columns.push_back("link_deficit");
    columns.push_back("link_utilization");
    columns.push_back("relay_store");
    columns.push_back("reads");
    columns.push_back("read_hits");
    columns.push_back("staleness_mean");
    columns.push_back("pending_pulls");
    columns.push_back("resync_outstanding");
    obs_->series()->Configure(std::move(columns), config_.obs.sample_interval,
                              config_.obs.max_samples);
    obs_row_.assign(obs_->series()->columns().size(), 0.0);
    if (obs_->trace_enabled()) {
      for (int j = 0; j < m; ++j) {
        sources_[j]->SetTraceBuffer(obs_->source_buffer(j));
      }
      std::vector<TraceBuffer*> cache_buffers(static_cast<size_t>(num_caches));
      for (int c = 0; c < num_caches; ++c) {
        cache_buffers[c] = obs_->cache_buffer(c);
        network_->cache_link(c).SetTrace(obs_->cache_buffer(c), c);
      }
      read_path_.SetTraceBuffers(std::move(cache_buffers));
      for (size_t r = 0; r < relays_.size(); ++r) {
        TraceBuffer* buffer = obs_->relay_buffer(static_cast<int>(r));
        relays_[r]->SetTraceBuffer(buffer);
        network_->edge_link(relays_[r]->node_id()).SetTrace(buffer,
                                                            relays_[r]->node_id());
      }
    }
  }
}

void CooperativeScheduler::OnObjectUpdate(ObjectIndex index, double t) {
  sources_[object_source_[index]]->OnObjectUpdate(index, t);
}

void CooperativeScheduler::PrefetchUpdate(void* scheduler, ObjectIndex index,
                                          bool fires_next) {
  const auto& self = *static_cast<const CooperativeScheduler*>(scheduler);
  if (!fires_next) {
    __builtin_prefetch(&self.object_source_[index]);
    return;
  }
  self.sources_[self.object_source_[index]]->PrefetchUpdate(index);
}

CacheAgent& CooperativeScheduler::cache(int c) {
  BESYNC_CHECK(caches_[c] != nullptr)
      << "cache " << c << " has no interested sources (no agent)";
  return *caches_[c];
}

RelayAgent& CooperativeScheduler::relay(int32_t node) {
  const int offset = node - num_caches();
  BESYNC_CHECK_GE(offset, 0);
  BESYNC_CHECK_LT(offset, num_relays());
  return *relays_[offset];
}

double CooperativeScheduler::FeedbackGrant(int /*source_index*/) const { return 0.0; }

void CooperativeScheduler::SendPhase(double t) {
  // Random source visiting order so no source systematically wins the race
  // for queue positions on a shared cache link.
  harness_->scheduler_rng()->Shuffle(&source_order_);
  for (int j : source_order_) {
    sources_[j]->SendPhase(t, &network_->source_link(j), network_.get());
  }
}

void CooperativeScheduler::RelayPhase(double t) {
  // Parents before children: with pass-through relays a refresh injected
  // this tick cascades all the way to its leaf edge within the tick. Only
  // handles move: ingress edge -> store -> next edge.
  const MessagePool& pool = network_->message_pool();
  for (int32_t node : network_->downstream_relays()) {
    RelayAgent& agent = relay(node);
    network_->edge_link(node).DeliverHandles(
        [&](MessageHandle handle) { agent.OnArrival(handle, t); });
    Link* egress = &network_->relay_egress(node);
    tally_.relays_forwarded += agent.Forward(
        t, [egress](int64_t cost) { return egress->TryConsumeAllowingDeficit(cost); },
        [&](MessageHandle handle) {
          const int32_t cache_id = pool[handle].cache_id;
          const int32_t hop = network_->TryNextHop(node, cache_id);
          // hop < 0: a failover re-homed this leaf while the message sat
          // here (e.g. its old parent recovered), so this relay no longer
          // routes to it. Restart the journey at the leaf's tier-1 edge.
          Link& next = hop >= 0 ? network_->edge_link(hop)
                                : network_->first_hop_link(cache_id);
          next.EnqueueHandle(handle);
        });
  }
}

void CooperativeScheduler::Tick(double t) {
  PhaseTimer* const timer = config_.phase_timer;
  {
    PhaseTimer::Scope phase(timer, PhaseTimer::Phase::kBeginTick);

    // 0. Scripted faults due by now fire before the links begin the tick,
    //    so a link partitioned at t has zero budget for the whole tick.
    ApplyDueFaults(t);

    const double tick = harness_->config().tick_length;
    network_->BeginTick(t, tick);

    // 1. Serve the pull requests sent last tick, then apply last tick's
    //    feedback; feedback from cache c adjusts T_{j,c} only. In a tree
    //    the relays forward control traffic up to the tier-1 edges within
    //    the tick, so control latency stays one tick at any depth.
    //    Pulls-then-feedback is the deposit order on every channel (a cache
    //    sends its pulls before its feedback), and feedback touches only
    //    its own channel and per-source counters (DESIGN.md, "Feedback as
    //    channel state").
    tally_.relay_control_moved += network_->control_mail_hops();
    for (const ControlMessage& request : network_->control_mail()) {
      ServePull(request, t);
    }
    for (const auto& source : sources_) {
      tally_.relay_control_moved += source->ApplyFeedback(t, *network_);
    }
  }

  {
    PhaseTimer::Scope phase(timer, PhaseTimer::Phase::kSend);

    // 1b. Recovery refreshes for restarted caches (kRecoveryPriority) go
    //     out ahead of the regular send phase: the cold cache's refill
    //     spends the source budgets first, deferring ordinary pushes.
    if (!fault_events_.empty() &&
        config_.recovery_policy == RecoveryPolicy::kRecoveryPriority) {
      RecoveryPhase(t);
    }

    // 2. Sources emit into the tier-1 edges of their target caches:
    //    refreshes for over-threshold objects (push protocols), pending
    //    invalidation notifications (invalidation), or nothing at all (TTL
    //    — replicas age out with no source traffic, and no send-order
    //    randomness is drawn).
    if (protocol_->emits_push_refreshes() || protocol_->emits_invalidations()) {
      SendPhase(t);
    }
  }

  // 2b. Relays store-and-forward queued refreshes hop by hop toward the
  //     leaves, each under its own ingress-edge and egress budgets.
  {
    PhaseTimer::Scope phase(timer, PhaseTimer::Phase::kRelay);
    RelayPhase(t);
  }

  // 3. Every cache-side link delivers queued refreshes within its budget,
  //    cache by cache in ascending id order.
  const bool reads = read_path_.enabled();
  {
    PhaseTimer::Scope phase(timer, PhaseTimer::Phase::kDeliverApply);
    for (int c = 0; c < num_caches(); ++c) {
      CacheAgent* cache = caches_[c].get();
      if (cache == nullptr) continue;
      if (cache_down(c)) {
        // Crashed cache: the wire still delivers (budget spent, loss drawn,
        // delivery counted) but every message is lost at the dead process.
        network_->cache_link(c).DeliverQueued([](const Message&) {});
        continue;
      }
      const bool track_resync = !resync_.empty() && resync_[c].open;
      TraceBuffer* const trace = obs_ != nullptr ? obs_->cache_buffer(c) : nullptr;
      network_->cache_link(c).DeliverQueued([&](const Message& message) {
        if (message.kind == MessageKind::kInvalidate) {
          read_path_.OnInvalidateDelivered(message, t);
        } else {
          if (trace != nullptr) RecordDeliveryTrace(trace, message, t);
          harness_->DeliverRefresh(message, t);
          // A batched message counts one refresh per carried object.
          tally_.refreshes_delivered +=
              1 + static_cast<int64_t>(message.extra_refreshes.size());
          cache->RecordRefresh(message, t);
          if (reads) read_path_.OnRefreshDelivered(message, t);
          if (track_resync) NoteResyncDelivery(c, message, t);
        }
      });
    }
  }

  // 3b. Client reads up to this tick are served from the (just refreshed)
  //     caches; misses queue pull requests, which then go upstream within
  //     each leaf edge's remaining budget — after this tick's deliveries,
  //     ahead of the surplus feedback below.
  if (reads) {
    PhaseTimer::Scope phase(timer, PhaseTimer::Phase::kReadPath);
    read_path_.ProcessReads(t);
    read_path_.SendPullRequests(t, network_.get());
  }

  // 4. Surplus cache-side bandwidth becomes positive feedback, aimed per
  //    cache at the sources with the highest local thresholds there. Only
  //    the push protocols run it: invalidation / TTL sources have no
  //    thresholds to steer, so feedback would spend bandwidth on nothing.
  {
    PhaseTimer::Scope feedback_phase(timer, PhaseTimer::Phase::kFeedback);
    if (protocol_->emits_push_refreshes()) {
      for (int c = 0; c < num_caches(); ++c) {
        CacheAgent* cache = caches_[c].get();
        if (cache == nullptr) continue;
        // A dead process sends no feedback.
        if (cache_down(c)) continue;
        Link& link = network_->cache_link(c);
        const int64_t surplus = link.remaining_budget();
        if (surplus <= 0) continue;
        const int num_targets = cache->SelectFeedbackTargets(surplus, t);
        tally_.feedback_sent += num_targets;
        for (int k = 0; k < num_targets; ++k) {
          const int32_t j = cache->feedback_target(k);
          // Feedback consumes the (otherwise idle) surplus capacity.
          const int64_t granted = link.ConsumeBudget(1);
          BESYNC_DCHECK(granted == 1);
          sources_[j]->DepositFeedback(c, FeedbackGrant(j));
        }
      }
    }
  }

  // 5. End-of-tick observability: register the tick on the phase-slice
  //    grid and sample the time series when one is due. Runs after every
  //    phase so the sampled state is the tick's final state; reads only
  //    const accessors and draws no randomness (DESIGN.md, "Observability
  //    without perturbation").
  if (obs_ != nullptr) ObsOnTickEnd(t);
}

void CooperativeScheduler::ApplyDueFaults(double t) {
  while (fault_cursor_ < fault_events_.size() &&
         fault_events_[fault_cursor_].time <= t) {
    ApplyFaultEvent(fault_events_[fault_cursor_], t);
    ++fault_cursor_;
  }
}

void CooperativeScheduler::ApplyFaultEvent(const FaultEvent& event, double t) {
  if (obs_ != nullptr && obs_->main_buffer() != nullptr) {
    // Scripted faults are run-level events: they go to the main buffer,
    // stamped with the target node (also mirrored into `cache` for cache
    // faults so cache-filtered traces keep their fault context).
    TraceEvent trace;
    trace.kind = TraceEventKind::kFault;
    trace.t = t;
    trace.node = event.node;
    trace.aux = static_cast<int64_t>(event.kind);
    trace.value = event.factor;
    if (event.kind == FaultEventKind::kCacheCrash ||
        event.kind == FaultEventKind::kCacheRestart ||
        event.kind == FaultEventKind::kLinkDown ||
        event.kind == FaultEventKind::kLinkUp ||
        event.kind == FaultEventKind::kSlowDown ||
        event.kind == FaultEventKind::kSlowRecover) {
      trace.cache = event.node;
    }
    obs_->main_buffer()->Record(trace);
  }
  switch (event.kind) {
    case FaultEventKind::kCacheCrash: {
      const int c = event.node;
      if (cache_down(c)) return;  // already down
      ++tally_.cache_crashes;
      read_path_.OnCacheCrash(c, t);
      // A crash mid-recovery abandons the episode (its duration is never
      // recorded); the next restart opens a fresh one.
      resync_[c].open = false;
      resync_[c].remaining = 0;
      return;
    }
    case FaultEventKind::kCacheRestart: {
      const int c = event.node;
      if (!cache_down(c)) return;  // never crashed / already back
      ++tally_.cache_restarts;
      read_path_.OnCacheRestart(c);
      // Every source re-ships (or at least re-tracks) its replicas at the
      // cold cache; the union is this restart's outstanding set.
      resync_scratch_.clear();
      for (auto& source : sources_) {
        source->OnCacheRestart(c, t, config_.recovery_policy, &resync_scratch_);
      }
      ResyncState& resync = resync_[c];
      if (resync.outstanding.empty()) {
        resync.outstanding.assign(harness_->workload().objects.size(), 0);
      } else {
        std::fill(resync.outstanding.begin(), resync.outstanding.end(), 0);
      }
      resync.remaining = 0;
      for (ObjectIndex index : resync_scratch_) {
        if (resync.outstanding[index] == 0) {
          resync.outstanding[index] = 1;
          ++resync.remaining;
        }
      }
      resync.start = t;
      resync.open = resync.remaining > 0;
      if (resync.open && obs_ != nullptr && obs_->main_buffer() != nullptr) {
        TraceEvent trace;
        trace.kind = TraceEventKind::kResyncStart;
        trace.t = t;
        trace.cache = c;
        trace.node = c;
        trace.aux = resync.remaining;
        obs_->main_buffer()->Record(trace);
      }
      return;
    }
    case FaultEventKind::kRelayFail: {
      const int32_t node = event.node;
      if (!network_->relay_alive(node)) return;
      ++tally_.relay_failures;
      // Everything the relay held: its store (received, not forwarded yet)
      // and its ingress queue (in flight toward it), in that order.
      std::vector<MessageHandle> stranded = relay(node).TakeStored();
      const std::vector<MessageHandle> queued = network_->edge_link(node).TakeQueue();
      stranded.insert(stranded.end(), queued.begin(), queued.end());
      network_->FailRelay(node);  // reroute
      MessagePool& pool = network_->message_pool();
      for (const MessageHandle handle : stranded) {
        if (config_.relay_store_policy == RelayStorePolicy::kDrain) {
          // Re-enter the tree at the message's (new) first hop, behind that
          // edge's existing backlog.
          network_->first_hop_link(pool[handle].cache_id).EnqueueHandle(handle);
        } else {
          pool.Release(handle);  // kDrop: it dies with the relay
        }
      }
      return;
    }
    case FaultEventKind::kRelayRecover:
      if (network_->relay_alive(event.node)) return;
      network_->RecoverRelay(event.node);
      return;
    case FaultEventKind::kLinkDown:
      if (!network_->cache_link(event.node).is_down()) {
        ++tally_.link_down_events;
      }
      network_->cache_link(event.node).SetDown(true);
      return;
    case FaultEventKind::kLinkUp:
      network_->cache_link(event.node).SetDown(false);
      return;
    case FaultEventKind::kSlowDown:
      ++tally_.slowdown_events;
      network_->cache_link(event.node).SetBandwidthFactor(event.factor);
      return;
    case FaultEventKind::kSlowRecover:
      network_->cache_link(event.node).SetBandwidthFactor(1.0);
      return;
  }
}

void CooperativeScheduler::RecoveryPhase(double t) {
  for (size_t j = 0; j < sources_.size(); ++j) {
    SourceAgent& agent = *sources_[j];
    Link* source_link = &network_->source_link(static_cast<int>(j));
    for (int k = 0; k < agent.num_channels(); ++k) {
      if (agent.recovery_queue_size(k) == 0) continue;
      const int32_t c = agent.channel_cache_id(k);
      // Re-crashed before the refill finished: hold the queue (the next
      // restart rebuilds it anyway) instead of shipping into a dead node.
      if (cache_down(c)) continue;
      agent.SendRecovery(t, source_link, &network_->first_hop_link(c), k);
    }
  }
}

void CooperativeScheduler::NoteResyncDelivery(int c, const Message& message,
                                              double t) {
  ResyncState& resync = resync_[c];
  const auto note = [&](ObjectIndex index) {
    if (resync.outstanding[index] == 0) return;
    resync.outstanding[index] = 0;
    --resync.remaining;
    ++tally_.resync_deliveries;
  };
  note(message.object_index);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    note(payload.object_index);
  }
  if (resync.remaining == 0) {
    // Fires for the closing delivery AND every further tracked delivery of
    // this tick (track_resync is latched at tick start): the episode
    // duration enters the digest once per such message, matching the
    // historical accounting exactly.
    if (resync.open && obs_ != nullptr) {
      // First closing call only (resync.open is still set).
      TraceBuffer* const trace = obs_->cache_buffer(c);
      if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::kResyncDone;
        event.t = t;
        event.cache = c;
        event.node = c;
        event.value = t - resync.start;
        trace->Record(event);
      }
    }
    resync.open = false;
    resync_digest_.Add(t - resync.start);
  }
}

void CooperativeScheduler::OnMeasurementStart(double /*t*/) {
  network_->ResetStats();
  for (auto& relay : relays_) relay->ResetStats();
  read_path_.OnMeasurementStart();
  // Every count re-zeroes in one assignment, the resync digest with it; an
  // episode still open at the boundary stays open (it closes — and is
  // recorded — inside the window).
  tally_ = SchedulerStats{};
  resync_digest_.Reset();
}

void CooperativeScheduler::ServePull(const ControlMessage& request, double t) {
  // The source does the per-object bookkeeping (tracker reset, threshold
  // piggyback, push-entry invalidation, demand forward priority). Demand
  // traffic consumes the same source-side budget as pushes, debt allowed.
  // From the tier-1 edge on, the response is an ordinary queued message
  // under the same per-edge budgets as pushed refreshes.
  sources_[request.source_index]->ServePull(
      request.object_index, request.cache_id, t,
      &network_->source_link(request.source_index),
      &network_->first_hop_link(request.cache_id));
}

void CooperativeScheduler::Finalize(double /*t*/) {
  network_->FinishTick();
  BESYNC_DCHECK(network_->message_pool().live() == messages_in_flight());
}

size_t CooperativeScheduler::messages_in_flight() const {
  size_t in_flight = network_->queued_messages();
  for (const auto& relay : relays_) in_flight += relay->store_size();
  return in_flight;
}

void CooperativeScheduler::ObsOnTickEnd(double t) {
  obs_->NoteTick(t);
  if (obs_->series()->Due(t)) ObsSample(t);
}

void CooperativeScheduler::ObsSample(double t) {
  // Column order mirrors the Configure() call in Initialize exactly. Every
  // read below is a const accessor over state the tick already settled:
  // no RNG draws, no lazy evaluation, no mutation — sampling cannot move a
  // single bit of the run.
  std::vector<double>& row = obs_row_;
  size_t i = 0;
  const GroundTruth& truth = harness_->ground_truth();
  double total = 0.0;
  for (int c = 0; c < num_caches(); ++c) total += truth.CurrentWeightedSum(c);
  row[i++] = total;
  const int per_cache = std::min(num_caches(), kMaxPerCacheSeries);
  for (int c = 0; c < per_cache; ++c) row[i++] = truth.CurrentWeightedSum(c);
  double queue_depth = 0.0, recovery_depth = 0.0;
  for (const auto& source : sources_) {
    for (int k = 0; k < source->num_channels(); ++k) {
      queue_depth += static_cast<double>(source->queue_size(k));
      recovery_depth += static_cast<double>(source->recovery_queue_size(k));
    }
  }
  row[i++] = queue_depth;
  row[i++] = recovery_depth;
  double link_queue = 0.0, link_deficit = 0.0, used = 0.0, capacity = 0.0;
  for (int c = 0; c < num_caches(); ++c) {
    const Link& link = network_->cache_link(c);
    link_queue += static_cast<double>(link.queue_size());
    link_deficit +=
        static_cast<double>(std::max<int64_t>(-link.remaining_budget(), 0));
    used += link.utilization().used();
    capacity += link.utilization().capacity();
  }
  row[i++] = link_queue;
  row[i++] = link_deficit;
  row[i++] = capacity > 0.0 ? used / capacity : 0.0;
  double relay_store = 0.0;
  for (const auto& relay : relays_) {
    relay_store += static_cast<double>(relay->store_size());
  }
  row[i++] = relay_store;
  row[i++] = static_cast<double>(tally_.reads_total);
  row[i++] = static_cast<double>(tally_.read_hits);
  row[i++] = read_path_.StalenessMeanSoFar();
  row[i++] = static_cast<double>(tally_.pull_requests_sent - tally_.pulls_delivered);
  double outstanding = 0.0;
  for (const ResyncState& resync : resync_) {
    if (resync.open) outstanding += static_cast<double>(resync.remaining);
  }
  row[i++] = outstanding;
  BESYNC_DCHECK(i == row.size());
  obs_->series()->Append(t, row);
}

std::shared_ptr<ObsOutput> CooperativeScheduler::TakeObsOutput() {
  if (obs_ == nullptr) return nullptr;
  return obs_->Finish();
}

SchedulerStats CooperativeScheduler::stats() const {
  // The counts are the tally itself; everything below is derived.
  SchedulerStats stats = tally_;
  int64_t channels = 0;
  for (const auto& source : sources_) {
    for (int k = 0; k < source->num_channels(); ++k) {
      stats.mean_threshold += source->threshold(k);
      ++channels;
    }
  }
  if (channels > 0) stats.mean_threshold /= static_cast<double>(channels);
  // Aggregate across cache links: utilization by capacity, queue length by
  // sample count, maximum over maxima (degenerates to the single link's own
  // statistics at one cache).
  double used = 0.0, capacity = 0.0, queue_sum = 0.0;
  int64_t queue_count = 0;
  for (int c = 0; c < network_->num_caches(); ++c) {
    const Link& link = network_->cache_link(c);
    used += link.utilization().used();
    capacity += link.utilization().capacity();
    queue_sum += link.queue_length_stat().sum();
    queue_count += link.queue_length_stat().count();
    stats.max_cache_queue = std::max(stats.max_cache_queue,
                                     static_cast<int64_t>(link.max_queue_size()));
  }
  stats.cache_utilization = capacity > 0.0 ? used / capacity : 0.0;
  stats.avg_cache_queue =
      queue_count > 0 ? queue_sum / static_cast<double>(queue_count) : 0.0;
  // The store-wait sums stay per relay and are summed here in relay order:
  // one shared accumulator would change the floating-point order.
  double relay_delay_sum = 0.0, relay_transit_sum = 0.0;
  for (const auto& relay : relays_) {
    relay_delay_sum += relay->total_queue_delay();
    relay_transit_sum += relay->total_transit_delay();
    stats.max_relay_store = std::max(
        stats.max_relay_store, static_cast<int64_t>(relay->max_store_size()));
  }
  if (stats.relays_forwarded > 0) {
    stats.relay_queue_delay_mean =
        relay_delay_sum / static_cast<double>(stats.relays_forwarded);
    stats.relay_transit_delay_mean =
        relay_transit_sum / static_cast<double>(stats.relays_forwarded);
  }
  if (read_path_.enabled()) {
    read_path_.WriteStats(&stats);
    // Push-vs-pull bandwidth split over every cache-side edge (leaf links
    // plus relay ingress edges — the links pulls and pushes contend on).
    for (int n = 0; n < network_->num_nodes(); ++n) {
      const Link& link = network_->edge_link(n);
      stats.pull_units_delivered += link.pull_units_delivered();
      stats.push_units_delivered += link.push_units_delivered();
    }
    const int64_t total_units =
        stats.pull_units_delivered + stats.push_units_delivered;
    stats.pull_bandwidth_share =
        total_units > 0 ? static_cast<double>(stats.pull_units_delivered) /
                              static_cast<double>(total_units)
                        : 0.0;
  }
  for (const ResyncState& resync : resync_) {
    if (resync.open) stats.resync_pending += resync.remaining;
  }
  if (!resync_digest_.empty()) {
    stats.time_to_resync_mean = resync_digest_.mean();
    stats.time_to_resync_p95 = resync_digest_.Quantile(0.95);
  }
  return stats;
}

Result<RunResult> RunScheduler(const Workload* workload, const DivergenceMetric* metric,
                               const HarnessConfig& harness_config,
                               Scheduler* scheduler) {
  if (workload == nullptr || metric == nullptr || scheduler == nullptr) {
    return Status::InvalidArgument("RunScheduler: null argument");
  }
  BESYNC_RETURN_IF_ERROR(ValidateHarnessConfig(harness_config));
  BESYNC_RETURN_IF_ERROR(scheduler->Validate(*workload));
  Harness harness(workload, metric, harness_config);
  BESYNC_RETURN_IF_ERROR(harness.Run(scheduler));
  RunResult result;
  result.scheduler_name = scheduler->name();
  result.total_weighted_divergence = harness.ground_truth().TotalWeightedAverage();
  result.per_cache_weighted.reserve(workload->num_caches);
  for (int c = 0; c < workload->num_caches; ++c) {
    result.per_cache_weighted.push_back(harness.ground_truth().PerCacheWeightedAverage(c));
  }
  result.per_object_weighted = harness.ground_truth().PerObjectWeightedAverage();
  result.per_object_unweighted = harness.ground_truth().PerObjectUnweightedAverage();
  result.total_replicas = harness.ground_truth().total_replicas();
  result.scheduler = scheduler->stats();
  result.obs = scheduler->TakeObsOutput();
  return result;
}

}  // namespace besync
