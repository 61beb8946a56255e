#ifndef BESYNC_CORE_THRESHOLD_H_
#define BESYNC_CORE_THRESHOLD_H_

namespace besync {

/// Parameters of the adaptive threshold-setting algorithm (Section 5).
struct ThresholdConfig {
  /// Initial local threshold T_j. "Because our algorithm is adaptive, any
  /// initial values for the T_j's can be used" — runs include a warm-up.
  double initial = 1.0;
  /// Multiplicative increase factor alpha applied on every refresh sent.
  /// The paper's tuned value is 1.1 (Section 6.1).
  double increase = 1.1;
  /// Multiplicative decrease factor omega applied on positive feedback.
  /// The paper's tuned value is 10 (Section 6.1).
  double decrease = 10.0;
};

/// Clamps protecting the threshold against numerical runaway; wide enough
/// to never bind in sane configurations.
constexpr double kMinThreshold = 1e-12;
constexpr double kMaxThreshold = 1e15;

/// One source's local refresh threshold T_j and its adaptation rules
/// (Section 5):
///
///  - On every refresh sent: T_j := T_j * (alpha * delta), where the
///    flooding accelerator delta = max(1, t_feedback / P_feedback) kicks in
///    when feedback has been absent for longer than the expected feedback
///    period P_feedback ("used to accelerate the rate of threshold increase
///    in cases where network flooding is likely").
///  - On positive feedback: T_j := T_j / omega — unless the source is
///    already sending at the full capacity of its source-side bandwidth, in
///    which case T_j is left unmodified (footnote 3: avoids queue build-ups
///    that would flood the cache when source bandwidth returns).
struct ThresholdController {
 public:
  /// `expected_feedback_period` is P_feedback, estimated as (number of
  /// sources) / (average cache-side bandwidth); "it need only be a rough
  /// estimate". `start_time` seeds the last-feedback clock.
  ThresholdController(const ThresholdConfig& config, double expected_feedback_period,
                      double start_time);

  double threshold() const { return threshold_; }
  double last_feedback_time() const { return last_feedback_time_; }

  /// The flooding accelerator delta at time `now`.
  double DeltaFactor(double now) const;

  /// Applies the multiplicative increase for a refresh sent at `now`.
  void OnRefreshSent(double now);

  /// Handles a positive feedback message received at `now`.
  /// `at_full_capacity`: whether the source was sending at full source-side
  /// capacity (suppresses the decrease but still resets the feedback clock).
  void OnFeedback(double now, bool at_full_capacity);

  /// Forces the threshold (used by tests and by competitive variants).
  void SetThreshold(double value);

 private:
  void Clamp();

  ThresholdConfig config_;
  double expected_feedback_period_;
  double threshold_;
  double last_feedback_time_;
};

}  // namespace besync

#endif  // BESYNC_CORE_THRESHOLD_H_
