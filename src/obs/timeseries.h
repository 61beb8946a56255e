#ifndef BESYNC_OBS_TIMESERIES_H_
#define BESYNC_OBS_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace besync {

/// A fixed-budget multi-column time series: named columns, one row per
/// sample, and deterministic decimation when the budget fills. Appends are
/// pure functions of the appended sequence — no randomness, no wall clock —
/// so the retained rows are identical across runs.
///
/// Downsampling: when the row count reaches `max_samples` (>= 2), every
/// odd-indexed retained row is dropped (rows 0, 2, 4, ... survive) and the
/// effective sampling interval doubles, so the series always spans the whole
/// run at a uniform-but-coarsening grid instead of truncating the tail.
class TimeSeries {
 public:
  struct Row {
    double t = 0.0;
    std::vector<double> values;
  };

  /// `max_samples <= 1` disables the budget (every sample is retained).
  void Configure(std::vector<std::string> columns, double sample_interval,
                 int max_samples);

  /// True when a sample is due at simulation time `t` (first call after
  /// each multiple of the effective interval). Configure() must have run.
  bool Due(double t) const { return t >= next_time_; }

  /// Appends one row (`values.size()` must equal the column count) and
  /// advances the schedule; decimates if the budget is now full.
  void Append(double t, const std::vector<double>& values);

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  double sample_interval() const { return base_interval_; }
  /// Current grid spacing: `sample_interval * 2^k` after k decimations.
  double effective_interval() const { return effective_interval_; }
  /// Total rows discarded by decimation (not a data loss indicator — the
  /// survivors still cover the full time span).
  int64_t samples_dropped() const { return dropped_; }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  double base_interval_ = 1.0;
  double effective_interval_ = 1.0;
  double next_time_ = 0.0;
  int max_samples_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace besync

#endif  // BESYNC_OBS_TIMESERIES_H_
