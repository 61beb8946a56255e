#include "data/buoy_trace.h"

#include <algorithm>
#include <utility>

#include "data/weight.h"
#include "util/logging.h"

namespace besync {
namespace {

/// Each buoy reports a 2-component wind vector.
constexpr int kComponentsPerBuoy = 2;
/// Value range clamp: "generally in the range of 0-10".
constexpr double kMinValue = 0.0;
constexpr double kMaxValue = 10.0;
/// Per-buoy long-run mean drawn uniformly from [kMeanLo, kMeanHi].
constexpr double kMeanLo = 3.0;
constexpr double kMeanHi = 7.0;
/// Per-component innovation stddev drawn uniformly from
/// [kVolatilityLo, kVolatilityHi] (units per measurement step).
constexpr double kVolatilityLo = 0.1;
constexpr double kVolatilityHi = 0.9;
/// Mean-reversion fraction per measurement step.
constexpr double kReversion = 0.05;
/// Longest trace generated, in measurement steps: 2^20 steps of 10 minutes
/// is about 20 years, 16 MiB per wind component. A longer run length is
/// rejected before anything is allocated (and before the step count is
/// converted to an integer).
constexpr int64_t kMaxBuoyTraceSteps = int64_t{1} << 20;

}  // namespace

Result<std::vector<std::vector<TracePoint>>> GenerateBuoyTraces(
    const BuoyTraceConfig& config) {
  if (config.num_buoys < 1) {
    return Status::InvalidArgument("buoy trace needs >= 1 buoy");
  }
  if (!(config.duration > 0.0)) {  // negated so NaN fails too
    return Status::InvalidArgument("invalid buoy trace timing");
  }
  // Negated so NaN fails too.
  if (!(config.duration / kBuoyMeasurementInterval <=
        static_cast<double>(kMaxBuoyTraceSteps))) {
    return Status::InvalidArgument("buoy trace duration must span at most ",
                                   kMaxBuoyTraceSteps, " measurement steps");
  }

  Rng rng(config.seed);
  const int64_t steps =
      static_cast<int64_t>(config.duration / kBuoyMeasurementInterval);
  std::vector<std::vector<TracePoint>> traces;
  traces.reserve(static_cast<size_t>(config.num_buoys) * kComponentsPerBuoy);

  for (int b = 0; b < config.num_buoys; ++b) {
    // Per-buoy regime: the two wind components of one buoy share a mean
    // level but have independent volatilities.
    const double mean = rng.Uniform(kMeanLo, kMeanHi);
    for (int c = 0; c < kComponentsPerBuoy; ++c) {
      const double sigma = rng.Uniform(kVolatilityLo, kVolatilityHi);
      std::vector<TracePoint> trace;
      trace.reserve(steps);
      double value = std::clamp(rng.Normal(mean, sigma * 2.0), kMinValue, kMaxValue);
      for (int64_t k = 1; k <= steps; ++k) {
        // Discretized Ornstein-Uhlenbeck step, clamped to the physical range.
        value += kReversion * (mean - value) + rng.Normal(0.0, sigma);
        value = std::clamp(value, kMinValue, kMaxValue);
        trace.push_back(
            TracePoint{static_cast<double>(k) * kBuoyMeasurementInterval, value});
      }
      traces.push_back(std::move(trace));
    }
  }
  return traces;
}

Result<Workload> MakeBuoyWorkload(const BuoyTraceConfig& config) {
  std::vector<std::vector<TracePoint>> traces;
  BESYNC_ASSIGN_OR_RETURN(traces, GenerateBuoyTraces(config));

  Rng rng(config.seed ^ 0x5eedb0a7ULL);
  Workload workload;
  workload.num_sources = config.num_buoys;
  workload.objects_per_source = kComponentsPerBuoy;
  workload.has_fluctuating_weights = false;
  workload.objects.reserve(traces.size());

  for (size_t i = 0; i < traces.size(); ++i) {
    ObjectSpec spec;
    spec.index = static_cast<ObjectIndex>(i);
    spec.source_index = static_cast<int32_t>(i / kComponentsPerBuoy);
    // The first trace value doubles as the initial (synchronized) value.
    spec.initial_value = traces[i].empty() ? 0.0 : traces[i].front().value;
    auto process = std::make_unique<TraceProcess>(std::move(traces[i]));
    spec.lambda = process->rate();
    spec.process = std::move(process);
    spec.weight = MakeConstantWeight(1.0);
    // Wind values move at most (max - min) per measurement; a practical
    // bound rate for Section 9 style policies.
    spec.max_divergence_rate = (kMaxValue - kMinValue) / kBuoyMeasurementInterval;
    spec.rng_seed = rng.NextUint64();
    workload.objects.push_back(std::move(spec));
  }
  return workload;
}

}  // namespace besync
