#include "read/read_path.h"

#include <limits>
#include <map>

#include "util/logging.h"

namespace besync {
namespace {

/// A pull left unanswered this long (e.g. the response was lost on a lossy
/// link) is re-requested by the next missing read.
constexpr double kPullRetryInterval = 10.0;

}  // namespace

void ReadPath::Initialize(Harness* harness, int num_caches, SchedulerStats* tally,
                          const SyncProtocol* protocol, bool has_cache_faults) {
  BESYNC_CHECK(tally != nullptr);
  BESYNC_CHECK(protocol != nullptr);
  harness_ = harness;
  truth_ = &harness->ground_truth();
  tally_ = tally;
  const Workload& workload = harness->workload();
  config_ = workload.read;
  protocol_ = protocol;
  validity_tracked_ = protocol->tracks_validity();
  reads_enabled_ = workload.reads_enabled();
  enabled_ = reads_enabled_ || config_.capacity > 0 || validity_tracked_ ||
             has_cache_faults;
  caches_.clear();
  miss_latency_sum_ = 0.0;
  miss_latency_count_ = 0;
  if (!enabled_) return;

  if (!workload.read_streams.empty()) {
    BESYNC_CHECK_EQ(static_cast<int>(workload.read_streams.size()),
                    workload.num_caches)
        << "read_streams must have one entry per cache";
  }

  // Ascending member list per cache (the objects a client of that cache
  // can read — its replicas), each member's ground-truth entry, and the
  // entry-indexed store slot table deliveries resolve through. The ground
  // truth holds one record per object and one entry per replica.
  const size_t num_entries =
      static_cast<size_t>(workload.total_replicas()) + workload.objects.size();
  BESYNC_CHECK_LE(num_entries, size_t{std::numeric_limits<int32_t>::max()});
  std::vector<std::vector<ObjectIndex>> members(static_cast<size_t>(num_caches));
  std::vector<std::vector<uint32_t>> entries(static_cast<size_t>(num_caches));
  store_slot_ = harness->arena()->AllocateArray<int32_t>(num_entries, -1);
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    const std::vector<int32_t>& caches = workload.objects[i].caches;
    for (size_t r = 0; r < caches.size(); ++r) {
      const auto index = static_cast<ObjectIndex>(i);
      const size_t entry = truth_->EntrySlot(index, static_cast<int32_t>(r));
      store_slot_[entry] = static_cast<int32_t>(members[caches[r]].size());
      members[caches[r]].push_back(index);
      entries[caches[r]].push_back(static_cast<uint32_t>(entry));
    }
  }

  // One popularity table per distinct member count, shared by every cache
  // of that size: the tables are immutable and hold one double per rank.
  std::map<int64_t, std::shared_ptr<const ZipfDistribution>> popularity;
  caches_.reserve(static_cast<size_t>(num_caches));
  for (int c = 0; c < num_caches; ++c) {
    CacheState state(
        CacheStore(config_.capacity, config_.eviction, std::move(members[c])));
    state.cache_id = c;
    state.replica_entry = std::move(entries[c]);
    if (config_.eviction == EvictionPolicy::kDivergenceAware) {
      state.divergence_of = [this, c](int64_t slot) {
        return ReplicaDivergence(caches_[c], slot);
      };
    }
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
        // slots further along the member list, so multi-cache workloads do
        // not all hammer the same objects.
        const int64_t rotation = (static_cast<int64_t>(c) * n) / std::max(num_caches, 1);
        std::shared_ptr<const ZipfDistribution>& table = popularity[n];
        if (table == nullptr) {
          table = std::make_shared<const ZipfDistribution>(n, config_.zipf_exponent);
        }
        state.owned_stream =
            std::make_unique<PoissonZipfReadProcess>(config_.read_rate, table, rotation);
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

void ReadPath::ProcessReads(double t) {
  if (!reads_enabled_) return;
  // Cache by cache, each in its own time order. Order across caches is not
  // observable: a read touches only its cache's store, pending pulls,
  // request queue and staleness digest, bumps integer tally counts, and
  // reads a ground truth that nothing changes during this loop. The
  // digests merge in cache order (WriteStats), so each digest's insertion
  // order — all its compressed state depends on — is its own cache's.
  for (CacheState& cache : caches_) {
    if (cache.stream == nullptr) continue;
    // Draw every read due this tick first, in the one-at-a-time order (the
    // slot, then the next read time, on cache.rng): HandleRead draws
    // nothing and cannot change cache.down, so serving the batch afterwards
    // in the same order serves the same reads. Each drawn slot's store,
    // sync, pending and entry lines are prefetched as it is drawn, and its
    // ground-truth entry once the entry index has arrived, so the serve
    // pass does not stall on one dependent load after another.
    due_reads_.clear();
    const int64_t num_members = cache.store.num_members();
    while (cache.next_read_time <= t) {
      const double read_time = cache.next_read_time;
      const int64_t slot = cache.stream->NextObjectSlot(num_members, &cache.rng);
      // A crashed cache's clients keep issuing reads (the stream and its
      // RNG advance deterministically) but the reads go nowhere: no
      // hit/miss accounting, no pulls.
      if (!cache.down) {
        due_reads_.push_back({slot, read_time});
        cache.store.Prefetch(slot);
        if (!cache.pending.empty()) __builtin_prefetch(&cache.pending[slot], /*rw=*/1);
        __builtin_prefetch(&cache.replica_entry[slot]);
      }
      cache.next_read_time = cache.stream->NextReadTime(read_time, &cache.rng);
    }
    for (const DueRead& read : due_reads_) {
      truth_->PrefetchEntry(cache.replica_entry[read.slot]);
    }
    for (const DueRead& read : due_reads_) HandleRead(&cache, read.slot, read.time);
  }
}

void ReadPath::HandleRead(CacheState* cache, int64_t slot, double t) {
  ++tally_->reads_total;
  const bool fresh = !validity_tracked_ || cache->store.sync_state(slot).Fresh(t);
  if (fresh && cache->store.resident(slot)) {
    ++tally_->read_hits;
    cache->store.TouchRead(slot, t);
    cache->staleness.Add(ReplicaDivergence(*cache, slot));
    return;
  }
  ++tally_->read_misses;
  PendingPull& pending = cache->pending[slot];
  pending.active = true;
  ++pending.waiting_reads;
  pending.waiting_time_sum += t;
  // First miss queues a pull request; a request that has been outstanding
  // past the retry interval (e.g. the response was lost) is re-queued.
  const bool stale_request =
      pending.requested && t - pending.last_request_time >= kPullRetryInterval;
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
      ++tally_->pull_requests_sent;
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
  ResolveDelivery(&cache, message.object_index, message.replica, t, message.is_pull);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    ResolveDelivery(&cache, payload.object_index, payload.replica, t, message.is_pull);
  }
}

int64_t ReadPath::DeliverySlot(const CacheState& cache, ObjectIndex index,
                               int32_t replica) const {
  BESYNC_DCHECK(replica >= 0 &&
                replica < harness_->workload().objects[index].num_replicas() &&
                harness_->workload().objects[index].caches[replica] == cache.cache_id)
      << "object " << index << " delivered to cache " << cache.cache_id
      << " with replica stamp " << replica;
  const int64_t slot = store_slot(index, replica);
  BESYNC_DCHECK(slot >= 0 && slot == cache.store.SlotOf(index))
      << "store slot table disagrees with SlotOf for object " << index;
  return slot;
}

void ReadPath::ResolveDelivery(CacheState* cache, ObjectIndex index, int32_t replica,
                               double t, bool is_pull) {
  const int64_t slot = DeliverySlot(*cache, index, replica);
  if (is_pull) ++tally_->pulls_delivered;
  const int64_t evicted = cache->store.Install(slot, t, cache->divergence_of);
  if (evicted >= 0) {
    ++tally_->cache_evictions;
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
    cache->staleness.Add(ReplicaDivergence(*cache, slot), pending.waiting_reads);
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
  ApplyInvalidate(&cache, message.object_index, message.replica, t);
  for (const RefreshPayload& payload : message.extra_refreshes) {
    ApplyInvalidate(&cache, payload.object_index, payload.replica, t);
  }
}

void ReadPath::ApplyInvalidate(CacheState* cache, ObjectIndex index, int32_t replica,
                               double t) {
  const int64_t slot = DeliverySlot(*cache, index, replica);
  protocol_->OnInvalidate(&cache->store.sync_state(slot), t);
  ++tally_->invalidations_received;
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
    if (pending.active) ++tally_->crash_dropped_pulls;
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
  miss_latency_sum_ = 0.0;
  miss_latency_count_ = 0;
  for (CacheState& cache : caches_) {
    cache.staleness.Reset();
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

void ReadPath::WriteStats(SchedulerStats* stats) const {
  QuantileDigest merged;
  for (const CacheState& cache : caches_) merged.Merge(cache.staleness);
  stats->read_staleness_mean = merged.mean();
  stats->read_staleness_p50 = merged.Quantile(0.50);
  stats->read_staleness_p95 = merged.Quantile(0.95);
  stats->read_staleness_p99 = merged.Quantile(0.99);
  stats->read_miss_latency_mean =
      miss_latency_count_ > 0
          ? miss_latency_sum_ / static_cast<double>(miss_latency_count_)
          : 0.0;
}

}  // namespace besync
