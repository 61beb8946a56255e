#include "read/read_path.h"

#include <limits>

#include "util/logging.h"

namespace besync {

void ReadPath::Initialize(Harness* harness, int num_caches,
                          const SyncProtocol* protocol, bool has_cache_faults) {
  harness_ = harness;
  const Workload& workload = harness->workload();
  config_ = workload.read;
  protocol_ = protocol;
  validity_tracked_ = protocol != nullptr && protocol->tracks_validity();
  reads_enabled_ = workload.reads_enabled();
  enabled_ = reads_enabled_ || config_.capacity > 0 || validity_tracked_ ||
             has_cache_faults;
  caches_.clear();
  reads_ = hits_ = misses_ = pull_requests_ = pulls_delivered_ = 0;
  miss_latency_sum_ = 0.0;
  miss_latency_count_ = 0;
  invalidations_received_ = 0;
  crash_dropped_pulls_ = 0;
  if (!enabled_) return;

  if (!workload.read_streams.empty()) {
    BESYNC_CHECK_EQ(static_cast<int>(workload.read_streams.size()),
                    workload.num_caches)
        << "read_streams must have one entry per cache";
  }

  // Ascending member list per cache (the objects a client of that cache
  // can read — its replicas).
  std::vector<std::vector<ObjectIndex>> members(static_cast<size_t>(num_caches));
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    for (int32_t cache : workload.objects[i].caches) {
      members[cache].push_back(static_cast<ObjectIndex>(i));
    }
  }

  caches_.reserve(static_cast<size_t>(num_caches));
  for (int c = 0; c < num_caches; ++c) {
    CacheState state(
        CacheStore(config_.capacity, config_.eviction, std::move(members[c])));
    state.cache_id = c;
    const int64_t n = state.store.num_members();
    // Private per-cache read RNG, derived from the read seed only — enabling
    // reads never perturbs the workload or scheduler streams.
    state.rng = Rng(config_.seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(c) + 1));
    if (n > 0) {
      if (c < static_cast<int>(workload.read_streams.size()) &&
          workload.read_streams[c] != nullptr) {
        state.stream = workload.read_streams[c].get();
        state.stream->Reset();
      } else if (config_.read_rate > 0.0) {
        // Per-cache skew rotation: cache c's hottest rank lands n*c/caches
        // slots further along the member list, so caches exercise
        // different hot sets.
        const int64_t rotation =
            config_.rotate_popularity
                ? (static_cast<int64_t>(c) * n) / std::max(num_caches, 1)
                : 0;
        state.owned_stream = std::make_unique<PoissonZipfReadProcess>(
            config_.read_rate, config_.zipf_exponent, rotation);
        state.stream = state.owned_stream.get();
      }
    }
    state.next_read_time = state.stream != nullptr
                               ? state.stream->NextReadTime(0.0, &state.rng)
                               : std::numeric_limits<double>::infinity();
    // Validity-tracking protocols make even unbounded stores missable (an
    // invalid/expired replica reads as a miss), so they need pending-pull
    // slots and per-replica sync state alongside residency.
    if (!state.store.unbounded() || validity_tracked_ || has_cache_faults) {
      state.pending.resize(static_cast<size_t>(n));
    }
    if (validity_tracked_) {
      state.store.EnableSyncState(protocol_->initial_lease_expiry());
    }
    caches_.push_back(std::move(state));
  }
}

double ReadPath::ReplicaDivergence(const CacheState& cache, ObjectIndex index) const {
  return harness_->ground_truth().current_divergence(index, cache.cache_id);
}

void ReadPath::ProcessReads(double t) {
  if (!reads_enabled_) return;
  // Global time order across caches (ties to the lowest cache id), so the
  // staleness digest's insertion order — and therefore its compressed state
  // — is a pure function of the run.
  while (true) {
    CacheState* next = nullptr;
    for (CacheState& cache : caches_) {
      if (cache.stream == nullptr || cache.next_read_time > t) continue;
      if (next == nullptr || cache.next_read_time < next->next_read_time) {
        next = &cache;
      }
    }
    if (next == nullptr) break;
    const double read_time = next->next_read_time;
    const int64_t slot =
        next->stream->NextObjectSlot(next->store.num_members(), &next->rng);
    // A crashed cache's clients keep issuing reads (the stream and its RNG
    // advance deterministically) but the reads go nowhere: no hit/miss
    // accounting, no pulls.
    if (!next->down) HandleRead(next, slot, read_time);
    next->next_read_time = next->stream->NextReadTime(read_time, &next->rng);
  }
}

void ReadPath::HandleRead(CacheState* cache, int64_t slot, double t) {
  ++reads_;
  const bool fresh =
      !validity_tracked_ || protocol_->ReplicaFresh(cache->store.sync_state(slot), t);
  if (fresh && cache->store.resident(slot)) {
    ++hits_;
    cache->store.TouchRead(slot, t);
    cache->staleness.Add(ReplicaDivergence(*cache, cache->store.member(slot)));
    return;
  }
  ++misses_;
  PendingPull& pending = cache->pending[slot];
  pending.active = true;
  ++pending.waiting_reads;
  pending.waiting_time_sum += t;
  // First miss queues a pull request; a request that has been outstanding
  // past the retry interval (e.g. the response was lost) is re-queued.
  const bool stale_request =
      pending.requested && t - pending.last_request_time >= config_.pull_retry_interval;
  if (!pending.enqueued && (!pending.requested || stale_request)) {
    cache->request_queue.push_back(slot);
    pending.enqueued = true;
  }
}

void ReadPath::SendPullRequests(double t, Network* network) {
  if (!reads_enabled_) return;
  const Workload& workload = harness_->workload();
  for (CacheState& cache : caches_) {
    if (cache.request_queue.empty()) continue;
    Link& link = network->cache_link(cache.cache_id);
    while (!cache.request_queue.empty()) {
      const int64_t slot = cache.request_queue.front();
      PendingPull& pending = cache.pending[slot];
      if (!pending.active || !pending.enqueued) {
        // Resolved (or superseded) while queued; drop without spending.
        cache.request_queue.pop_front();
        continue;
      }
      // Pull requests contend for the same leaf-edge budget as deliveries:
      // they run after this tick's refreshes but before surplus feedback.
      if (!link.TryConsumeAllowingDeficit(1)) break;
      cache.request_queue.pop_front();
      pending.enqueued = false;
      pending.requested = true;
      pending.last_request_time = t;
      const ObjectIndex index = cache.store.member(slot);
      ControlMessage request;
      request.kind = MessageKind::kPullRequest;
      request.source_index = workload.objects[index].source_index;
      request.cache_id = cache.cache_id;
      request.object_index = index;
      request.send_time = t;
      network->SendToSource(request);
      ++pull_requests_;
      if (TraceBuffer* trace = trace_for(cache.cache_id)) {
        TraceEvent event;
        event.kind = TraceEventKind::kPullRequest;
        event.t = t;
        event.source = request.source_index;
        event.cache = cache.cache_id;
        event.object = index;
        event.is_pull = true;
        trace->Record(event);
      }
    }
  }
}

void ReadPath::OnRefreshDelivered(const Message& message, double t) {
  if (!enabled_) return;
  CacheState& cache = caches_[message.cache_id];
  ResolveDelivery(&cache, message.object_index, t, message.is_pull);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    ResolveDelivery(&cache, payload.object_index, t, message.is_pull);
  }
}

void ReadPath::ResolveDelivery(CacheState* cache, ObjectIndex index, double t,
                               bool is_pull) {
  const int64_t slot = cache->store.SlotOf(index);
  if (slot < 0) return;
  if (is_pull) ++pulls_delivered_;
  const int64_t evicted =
      cache->store.Install(slot, t, [this, cache](ObjectIndex member) {
        return ReplicaDivergence(*cache, member);
      });
  if (evicted >= 0) {
    if (TraceBuffer* trace = trace_for(cache->cache_id)) {
      TraceEvent event;
      event.kind = TraceEventKind::kEvict;
      event.t = t;
      event.cache = cache->cache_id;
      event.object = cache->store.member(evicted);
      event.aux = index;  // the install that displaced it
      trace->Record(event);
    }
  }
  // Any delivery re-validates the replica: a pull response closes an
  // invalid episode, and a TTL delivery renews the lease.
  if (validity_tracked_) {
    protocol_->OnRefreshApplied(&cache->store.sync_state(slot), t);
  }
  if (cache->pending.empty()) return;
  PendingPull& pending = cache->pending[slot];
  if (!pending.active) return;
  // Every read waiting on this replica is served the just-applied value;
  // its staleness is the replica's divergence right now (the content may
  // itself have gone stale in the queue — that is the point).
  if (pending.waiting_reads > 0) {
    cache->staleness.Add(ReplicaDivergence(*cache, index), pending.waiting_reads);
  }
  miss_latency_sum_ +=
      static_cast<double>(pending.waiting_reads) * t - pending.waiting_time_sum;
  miss_latency_count_ += pending.waiting_reads;
  pending = PendingPull{};
}

void ReadPath::OnInvalidateDelivered(const Message& message, double t) {
  BESYNC_CHECK(validity_tracked_)
      << "kInvalidate delivered without a validity-tracking protocol";
  CacheState& cache = caches_[message.cache_id];
  ApplyInvalidate(&cache, message.object_index, t);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    ApplyInvalidate(&cache, payload.object_index, t);
  }
}

void ReadPath::ApplyInvalidate(CacheState* cache, ObjectIndex index, double t) {
  const int64_t slot = cache->store.SlotOf(index);
  if (slot < 0) return;
  protocol_->OnInvalidate(&cache->store.sync_state(slot), t);
  ++invalidations_received_;
  if (TraceBuffer* trace = trace_for(cache->cache_id)) {
    TraceEvent event;
    event.kind = TraceEventKind::kInvalidateApply;
    event.t = t;
    event.cache = cache->cache_id;
    event.object = index;
    trace->Record(event);
  }
}

void ReadPath::OnCacheCrash(int cache_id, double now) {
  BESYNC_CHECK(enabled_) << "cache crash with the read path disabled";
  CacheState& cache = caches_[cache_id];
  cache.down = true;
  cache.store.Crash();
  // Cancel the pending pulls. A response already in flight still installs
  // its content on arrival (the wire does not know the process died), but
  // the reads that were waiting on it perished with the cache — resolving
  // them later would be a phantom hit served by a dead process.
  for (PendingPull& pending : cache.pending) {
    if (pending.active) ++crash_dropped_pulls_;
    pending = PendingPull{};
  }
  cache.request_queue.clear();
  if (validity_tracked_) {
    for (int64_t slot = 0; slot < cache.store.num_members(); ++slot) {
      protocol_->OnCacheRestart(&cache.store.sync_state(slot), now);
    }
  }
}

void ReadPath::OnCacheRestart(int cache_id) {
  BESYNC_CHECK(enabled_) << "cache restart with the read path disabled";
  caches_[cache_id].down = false;
}

void ReadPath::OnMeasurementStart() {
  if (!enabled_) return;
  reads_ = hits_ = misses_ = pull_requests_ = pulls_delivered_ = 0;
  miss_latency_sum_ = 0.0;
  miss_latency_count_ = 0;
  invalidations_received_ = 0;
  crash_dropped_pulls_ = 0;
  for (CacheState& cache : caches_) {
    cache.staleness.Reset();
    cache.store.ResetCounters();
    // Warmup reads no longer count: pulls still in flight keep resolving
    // residency, but the reads waiting on them were never added to the
    // measured totals, so they must not inject staleness/latency samples.
    for (PendingPull& pending : cache.pending) {
      pending.waiting_reads = 0;
      pending.waiting_time_sum = 0.0;
    }
  }
}

double ReadPath::StalenessMeanSoFar() const {
  double weighted = 0.0;
  int64_t count = 0;
  for (const CacheState& cache : caches_) {
    if (cache.staleness.empty()) continue;
    weighted +=
        cache.staleness.mean() * static_cast<double>(cache.staleness.count());
    count += cache.staleness.count();
  }
  return count > 0 ? weighted / static_cast<double>(count) : 0.0;
}

ReadPathCounters ReadPath::Counters() const {
  ReadPathCounters counters;
  if (!enabled_) return counters;
  counters.reads = reads_;
  counters.hits = hits_;
  counters.misses = misses_;
  counters.pull_requests = pull_requests_;
  counters.pulls_delivered = pulls_delivered_;
  counters.invalidations_received = invalidations_received_;
  QuantileDigest merged;
  for (const CacheState& cache : caches_) {
    counters.evictions += cache.store.evictions();
    merged.Merge(cache.staleness);
  }
  counters.staleness_mean = merged.mean();
  counters.staleness_p50 = merged.Quantile(0.50);
  counters.staleness_p95 = merged.Quantile(0.95);
  counters.staleness_p99 = merged.Quantile(0.99);
  counters.miss_latency_mean =
      miss_latency_count_ > 0
          ? miss_latency_sum_ / static_cast<double>(miss_latency_count_)
          : 0.0;
  return counters;
}

}  // namespace besync
