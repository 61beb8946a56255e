#include "core/harness.h"

#include <cmath>
#include <new>
#include <type_traits>
#include <typeinfo>

#include "data/update_process.h"
#include "util/logging.h"
#include "util/prefetch.h"

namespace besync {

double NextWeightRefreshDeadline(double t, double interval) {
  BESYNC_CHECK_GT(interval, 0.0);
  return (std::floor(t / interval) + 1.0) * interval;
}

Status ValidateHarnessConfig(const HarnessConfig& config) {
  // Negated comparisons so NaN fails too.
  if (!(std::isfinite(config.tick_length) && config.tick_length > 0.0)) {
    return Status::InvalidArgument("tick_length must be finite and > 0, got ",
                                   config.tick_length);
  }
  if (!(std::isfinite(config.warmup) && config.warmup >= 0.0)) {
    return Status::InvalidArgument("warmup must be finite and >= 0, got ", config.warmup);
  }
  if (!(std::isfinite(config.measure) && config.measure > 0.0)) {
    return Status::InvalidArgument("measure must be finite and > 0, got ",
                                   config.measure);
  }
  return Status::OK();
}

ObjectRuntime::ObjectRuntime(const ObjectSpec* s)
    : rng(s->rng_seed),
      lambda(s->lambda),
      max_divergence_rate(s->max_divergence_rate),
      spec(s) {
  // Exact type matches only: a subclass may override the draws.
  if (s->process != nullptr &&
      typeid(*s->process) == typeid(PoissonRandomWalkProcess)) {
    const auto& walk = static_cast<const PoissonRandomWalkProcess&>(*s->process);
    update_kind = UpdateKind::kPoissonWalk;
    update_rate = walk.rate();
    update_step = walk.step();
  }
  if (s->weight != nullptr && typeid(*s->weight) == typeid(ConstantFluctuation)) {
    constant_weight = true;
    weight = s->weight->ValueAt(0.0);
  }
  costly = s->refresh_cost > 1;
}

Harness::Harness(const Workload* workload, const DivergenceMetric* metric,
                 const HarnessConfig& config)
    : workload_(workload),
      metric_(metric),
      config_(config),
      scheduler_rng_(config.seed) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK(metric != nullptr);
  const Status valid = ValidateHarnessConfig(config);
  BESYNC_CHECK(valid.ok()) << valid.ToString();
  owned_ground_truth_ =
      std::make_unique<GroundTruth>(workload, metric, /*use_source_weights=*/false,
                                    &arena_);
  primary_ground_truth_ = owned_ground_truth_.get();
  ground_truths_.push_back(primary_ground_truth_);
  static_assert(std::is_trivially_destructible_v<ObjectRuntime>,
                "ObjectRuntime lives in the arena, which runs no destructors");
  const size_t num_objects = workload->objects.size();
  auto* objects = static_cast<ObjectRuntime*>(
      arena_.Allocate(num_objects * sizeof(ObjectRuntime), alignof(ObjectRuntime)));
  size_t total_replicas = 0;
  for (size_t i = 0; i < num_objects; ++i) {
    const ObjectSpec& spec = workload->objects[i];
    ::new (objects + i) ObjectRuntime(&spec);
    total_replicas += static_cast<size_t>(spec.num_replicas());
  }
  objects_ = ArenaArray<ObjectRuntime>(objects, num_objects);
  trackers_ = arena_.AllocateArray<DivergenceTracker>(total_replicas, metric);
  DivergenceTracker* trackers = trackers_;
  for (ObjectRuntime& object : objects_) {
    object.trackers = trackers;
    object.num_replicas = static_cast<int32_t>(object.spec->num_replicas());
    trackers += object.num_replicas;
  }
  sim_.RegisterHandler(kObjectUpdateEvent, &Harness::DispatchUpdate, this,
                       &Harness::PrefetchUpdate);
}

void Harness::AddGroundTruth(GroundTruth* ground_truth) {
  BESYNC_CHECK(!ran_) << "AddGroundTruth must precede Run";
  BESYNC_CHECK(ground_truth != nullptr);
  BESYNC_CHECK_EQ(ground_truth->total_replicas(), primary_ground_truth_->total_replicas())
      << "an added ground truth must cover this harness's replicas";
  ground_truths_.push_back(ground_truth);
}

double Harness::SourceWeightAt(ObjectIndex index, double t) const {
  const ObjectSpec& spec = *objects_[index].spec;
  return spec.source_weight ? spec.source_weight->ValueAt(t) : WeightAt(index, t);
}

Message Harness::MakeRefreshMessage(ObjectIndex index, int32_t replica, double t) {
  ObjectRuntime& object = objects_[index];
  BESYNC_DCHECK(replica >= 0 && replica < object.num_replicas);
  Message message;
  message.kind = MessageKind::kRefresh;
  message.source_index = object.spec->source_index;
  message.cache_id = object.spec->caches[replica];
  message.replica = replica;
  message.object_index = index;
  message.value = object.state.value;
  message.version = object.state.version;
  message.send_time = t;
  message.last_update_time = object.state.last_update_time;
  message.cost = object.spec->refresh_cost;
  object.tracker(replica).OnRefresh(t, object.state.value, object.state.version);
  return message;
}

Message Harness::MakeRefreshMessage(ObjectIndex index, double t) {
  return MakeRefreshMessage(index, /*replica=*/0, t);
}

void Harness::DeliverRefresh(const Message& message, double t) {
  BESYNC_DCHECK(message.object_index >= 0);
  BESYNC_DCHECK(objects_[message.object_index].spec->caches[message.replica] ==
                message.cache_id);
  for (GroundTruth* ground_truth : ground_truths_) {
    ground_truth->OnCacheApply(message.object_index, message.replica, t, message.value,
                               message.version);
    for (const RefreshPayload& payload : message.extra_refreshes) {
      ground_truth->OnCacheApply(payload.object_index, payload.replica, t,
                                 payload.value, payload.version);
    }
  }
}

void Harness::RefreshInstant(ObjectIndex index, double t) {
  for (int32_t r = 0; r < objects_[index].num_replicas; ++r) {
    const Message message = MakeRefreshMessage(index, r, t);
    DeliverRefresh(message, t);
  }
}

void Harness::DispatchUpdate(void* harness, uint64_t index, double t) {
  static_cast<Harness*>(harness)->OnUpdateEvent(static_cast<ObjectIndex>(index), t);
}

void Harness::PrefetchUpdate(void* harness, uint64_t index, bool fires_next) {
  const Harness& self = *static_cast<const Harness*>(harness);
  const ObjectRuntime& object = self.objects_[index];
  if (!fires_next) {
    PrefetchRange(&object, sizeof(ObjectRuntime));
    return;
  }
  PrefetchRange(object.trackers,
                static_cast<size_t>(object.num_replicas) * sizeof(DivergenceTracker));
  const size_t replica_base = static_cast<size_t>(object.trackers - self.trackers_);
  for (const GroundTruth* ground_truth : self.ground_truths_) {
    ground_truth->PrefetchReplicas(static_cast<ObjectIndex>(index), replica_base,
                                   object.num_replicas);
  }
}

void Harness::OnUpdateEvent(ObjectIndex index, double t) {
  ObjectRuntime& object = objects_[index];
  if (object.update_kind == ObjectRuntime::UpdateKind::kPoissonWalk) {
    // PoissonRandomWalkProcess::ApplyUpdate, inline.
    object.state.value +=
        object.rng.Bernoulli(0.5) ? object.update_step : -object.update_step;
  } else {
    object.state.value = object.spec->process->ApplyUpdate(object.state.value, &object.rng);
  }
  ++object.state.version;
  object.state.last_update_time = t;
  for (int r = 0; r < object.num_replicas; ++r) {
    object.trackers[r].OnUpdate(t, object.state.value, object.state.version);
  }
  const size_t replica_base = static_cast<size_t>(object.trackers - trackers_);
  for (GroundTruth* ground_truth : ground_truths_) {
    ground_truth->OnSourceUpdate(index, replica_base, object.num_replicas, t,
                                 object.state.value, object.state.version);
  }
  scheduler_->OnObjectUpdate(index, t);
  ScheduleNextUpdate(object, index, t);
}

void Harness::ScheduleNextUpdate(ObjectRuntime& object, ObjectIndex index, double now) {
  double next;
  if (object.update_kind == ObjectRuntime::UpdateKind::kPoissonWalk) {
    // PoissonRandomWalkProcess::NextUpdateTime, inline.
    if (object.update_rate <= 0.0) return;
    next = now + object.rng.Exponential(object.update_rate);
  } else {
    next = object.spec->process->NextUpdateTime(now, &object.rng);
  }
  if (!std::isfinite(next)) return;
  sim_.ScheduleAt(next, kObjectUpdateEvent, static_cast<uint64_t>(index));
}

Status Harness::Run(Scheduler* scheduler) {
  if (ran_) return Status::FailedPrecondition("Harness::Run called twice");
  ran_ = true;
  BESYNC_CHECK(scheduler != nullptr);
  scheduler_ = scheduler;

  // Initialize object state and synchronized cache contents at t = 0.
  for (ObjectRuntime& object : objects_) {
    object.spec->process->Reset();
    object.state.value = object.spec->initial_value;
    object.state.version = 0;
    object.state.last_update_time = -1.0;
    for (int r = 0; r < object.num_replicas; ++r) {
      object.trackers[r].OnRefresh(0.0, object.state.value, 0);
    }
  }
  for (GroundTruth* ground_truth : ground_truths_) ground_truth->Initialize(0.0);
  for (size_t i = 0; i < objects_.size(); ++i) {
    ScheduleNextUpdate(objects_[i], static_cast<ObjectIndex>(i), 0.0);
  }
  scheduler->Initialize(this);

  const double end = end_time();
  const double tick = config_.tick_length;
  bool measuring = config_.warmup <= 0.0;
  double next_weight_refresh = config_.weight_refresh_interval;

  double t = 0.0;
  while (t < end) {
    const double next = std::min(t + tick, end);
    sim_.RunUntil(next);
    scheduler->Tick(next);
    if (workload_->has_fluctuating_weights && next >= next_weight_refresh) {
      for (GroundTruth* ground_truth : ground_truths_) {
        ground_truth->RefreshWeights(next);
      }
      // Catch up past every interval boundary the tick crossed: a fixed
      // `+= interval` falls unboundedly behind `t` when
      // tick_length > weight_refresh_interval.
      next_weight_refresh =
          NextWeightRefreshDeadline(next, config_.weight_refresh_interval);
    }
    if (!measuring && next >= config_.warmup) {
      for (GroundTruth* ground_truth : ground_truths_) {
        ground_truth->StartMeasurement(next);
      }
      scheduler->OnMeasurementStart(next);
      measuring = true;
    }
    t = next;
  }
  for (GroundTruth* ground_truth : ground_truths_) ground_truth->FinishMeasurement(end);
  scheduler->Finalize(end);
  return Status::OK();
}

}  // namespace besync
