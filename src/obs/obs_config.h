#ifndef BESYNC_OBS_OBS_CONFIG_H_
#define BESYNC_OBS_OBS_CONFIG_H_

namespace besync {

/// Off-by-default observability knobs carried on `CooperativeConfig` /
/// `ExperimentConfig`. With `enabled == false` (the default) the engine
/// allocates no observer state and every instrumentation hook is a single
/// null-pointer test, so observability compiled in but disabled is bitwise
/// inert: goldens, runner JSON/CSV, and BENCH_*.json bytes are unchanged.
///
/// With `enabled == true` the collectors only *read* engine state (no
/// generator or scheduler randomness is drawn, no shared state is mutated),
/// so run results stay byte-identical to a disabled run; see DESIGN.md
/// "Observability without perturbation".
struct ObsConfig {
  /// Master switch: sample the per-tick time series (and allocate the
  /// collector). Everything below is ignored when false.
  bool enabled = false;

  /// Simulation-time spacing between time-series samples, in seconds.
  /// Samples land on the first tick whose time reaches the next multiple;
  /// intervals finer than the tick length degrade to one sample per tick.
  double sample_interval = 1.0;
  /// Fixed sample budget: when the series would exceed this many rows, every
  /// other retained row is dropped and the effective interval doubles
  /// (deterministic decimation — no randomness, no dependence on thread
  /// count). <= 1 means unbounded.
  int max_samples = 512;

  /// Record message-lifecycle trace events (requires `enabled`).
  bool trace = false;
  /// Trace window in simulation time; events outside are not recorded.
  /// `trace_end < 0` means unbounded.
  double trace_start = 0.0;
  double trace_end = -1.0;
};

}  // namespace besync

#endif  // BESYNC_OBS_OBS_CONFIG_H_
