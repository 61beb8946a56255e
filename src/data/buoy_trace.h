#ifndef BESYNC_DATA_BUOY_TRACE_H_
#define BESYNC_DATA_BUOY_TRACE_H_

#include <cstdint>
#include <vector>

#include "data/update_process.h"
#include "data/workload.h"
#include "util/result.h"

namespace besync {

/// Synthetic stand-in for the TAO-array wind-buoy data of Section 6.2.1.
///
/// The paper monitors wind vectors from m = 40 ocean buoys (Pacific Marine
/// Environmental Laboratory, January 2000), each reporting a 2-component
/// wind vector every 10 minutes for 7 days. That archive is not available
/// offline, so we generate statistically comparable traces with a
/// mean-reverting AR(1) (discretized Ornstein-Uhlenbeck) process per
/// component, calibrated to the paper's description: values "generally in
/// the range of 0-10, with typical values of around 5". Per-buoy means and
/// volatilities are heterogeneous so that refresh prioritization matters.
/// See DESIGN.md, "Substitutions".
struct BuoyTraceConfig {
  int num_buoys = 40;
  /// Total trace duration in seconds (paper: 7 days; the first day is used
  /// as warm-up by the experiment harness, not here).
  double duration = 7.0 * 86400.0;
  uint64_t seed = 2000;
};

/// Seconds between measurements (paper: every 10 minutes).
constexpr double kBuoyMeasurementInterval = 600.0;

/// Generates one trace per object (num_buoys * 2 wind components, grouped
/// by buoy). Deterministic given the config.
Result<std::vector<std::vector<TracePoint>>> GenerateBuoyTraces(
    const BuoyTraceConfig& config);

/// Builds a Workload whose objects replay the generated buoy traces: one
/// source per buoy, one object per wind component, all weights 1
/// (the paper: "All data values were equally weighted").
Result<Workload> MakeBuoyWorkload(const BuoyTraceConfig& config);

}  // namespace besync

#endif  // BESYNC_DATA_BUOY_TRACE_H_
