#include "fault/fault_schedule.h"

#include <algorithm>

#include "util/random.h"

namespace besync {

std::string FaultEventKindToString(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kCacheCrash:
      return "cache-crash";
    case FaultEventKind::kCacheRestart:
      return "cache-restart";
    case FaultEventKind::kRelayFail:
      return "relay-fail";
    case FaultEventKind::kRelayRecover:
      return "relay-recover";
    case FaultEventKind::kLinkDown:
      return "link-down";
    case FaultEventKind::kLinkUp:
      return "link-up";
    case FaultEventKind::kSlowDown:
      return "slow-down";
    case FaultEventKind::kSlowRecover:
      return "slow-recover";
  }
  return "unknown";
}

std::string RecoveryPolicyToString(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kNaiveReenqueue:
      return "naive";
    case RecoveryPolicy::kRecoveryPriority:
      return "priority";
  }
  return "unknown";
}

std::string RelayStorePolicyToString(RelayStorePolicy policy) {
  switch (policy) {
    case RelayStorePolicy::kDrop:
      return "drop";
    case RelayStorePolicy::kDrain:
      return "drain";
  }
  return "unknown";
}

std::vector<FaultEvent> FaultSchedule::Sorted() const {
  std::vector<FaultEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return sorted;
}

Status FaultSchedule::Validate(const TopologySpec& topology, int num_caches) const {
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.time < 0.0) {
      return Status::InvalidArgument("fault event ", i, " has negative time ",
                                     event.time);
    }
    switch (event.kind) {
      case FaultEventKind::kCacheCrash:
      case FaultEventKind::kCacheRestart:
      case FaultEventKind::kLinkDown:
      case FaultEventKind::kLinkUp:
      case FaultEventKind::kSlowDown:
      case FaultEventKind::kSlowRecover:
        if (event.node < 0 || event.node >= num_caches) {
          return Status::InvalidArgument(
              "fault event ", i, " (", FaultEventKindToString(event.kind),
              ") targets node ", event.node, " outside the ", num_caches,
              " leaf caches");
        }
        break;
      case FaultEventKind::kRelayFail:
      case FaultEventKind::kRelayRecover:
        if (topology.flat() || event.node < topology.num_leaves ||
            event.node >= topology.num_nodes()) {
          return Status::InvalidArgument(
              "fault event ", i, " (", FaultEventKindToString(event.kind),
              ") targets node ", event.node,
              " which is not a relay of the topology");
        }
        break;
    }
    if (event.kind == FaultEventKind::kSlowDown &&
        (event.factor <= 0.0 || event.factor > 1.0)) {
      return Status::InvalidArgument("fault event ", i,
                                     " has slow factor ", event.factor,
                                     " outside (0, 1]");
    }
  }
  return Status::OK();
}

std::string FaultSchedule::Label() const {
  if (events.empty()) return "none";
  int crashes = 0, relays = 0, flaps = 0, slows = 0;
  for (const FaultEvent& event : events) {
    switch (event.kind) {
      case FaultEventKind::kCacheCrash:
        ++crashes;
        break;
      case FaultEventKind::kRelayFail:
        ++relays;
        break;
      case FaultEventKind::kLinkDown:
        ++flaps;
        break;
      case FaultEventKind::kSlowDown:
        ++slows;
        break;
      default:
        break;
    }
  }
  return "faults(crash=" + std::to_string(crashes) +
         ",relay=" + std::to_string(relays) + ",flap=" + std::to_string(flaps) +
         ",slow=" + std::to_string(slows) + ")";
}

namespace {

/// Downtime between each relay failure and its recovery (seconds).
constexpr double kRelayFailDuration = 20.0;

double DrawStart(const FaultScheduleConfig& config, Rng* rng) {
  if (config.window_end <= config.window_start) return config.window_start;
  return rng->Uniform(config.window_start, config.window_end);
}

}  // namespace

FaultSchedule MakeFaultSchedule(const FaultScheduleConfig& config, int num_caches,
                                const TopologySpec& topology) {
  FaultSchedule schedule;
  // Disabled configs touch no randomness at all, so a fault-free
  // WorkloadConfig builds the exact same Workload bytes as before the
  // fault layer existed.
  if (!config.enabled()) return schedule;

  Rng rng(config.seed);
  for (int k = 0; k < config.cache_crashes; ++k) {
    const int32_t cache =
        config.crash_cache >= 0
            ? config.crash_cache
            : static_cast<int32_t>(rng.UniformInt(0, num_caches - 1));
    const double start = DrawStart(config, &rng);
    schedule.events.push_back(
        {start, FaultEventKind::kCacheCrash, cache, 1.0});
    schedule.events.push_back(
        {start + config.crash_duration, FaultEventKind::kCacheRestart, cache, 1.0});
  }
  for (int k = 0; k < config.relay_failures; ++k) {
    // Flat topologies have no relays to fail; draw nothing so the stream
    // stays aligned with the other event classes, and let Validate reject
    // the (caller-error) combination downstream.
    if (topology.num_relays() <= 0) break;
    const int32_t relay = static_cast<int32_t>(
        rng.UniformInt(topology.num_leaves, topology.num_nodes() - 1));
    const double start = DrawStart(config, &rng);
    schedule.events.push_back({start, FaultEventKind::kRelayFail, relay, 1.0});
    schedule.events.push_back(
        {start + kRelayFailDuration, FaultEventKind::kRelayRecover, relay, 1.0});
  }
  for (int k = 0; k < config.link_flaps; ++k) {
    const int32_t cache = static_cast<int32_t>(rng.UniformInt(0, num_caches - 1));
    const double start = DrawStart(config, &rng);
    schedule.events.push_back({start, FaultEventKind::kLinkDown, cache, 1.0});
    schedule.events.push_back(
        {start + config.flap_duration, FaultEventKind::kLinkUp, cache, 1.0});
  }
  for (int k = 0; k < config.slowdowns; ++k) {
    const int32_t cache = static_cast<int32_t>(rng.UniformInt(0, num_caches - 1));
    const double start = DrawStart(config, &rng);
    schedule.events.push_back(
        {start, FaultEventKind::kSlowDown, cache, config.slow_factor});
    schedule.events.push_back(
        {start + config.slow_duration, FaultEventKind::kSlowRecover, cache, 1.0});
  }
  return schedule;
}

}  // namespace besync
