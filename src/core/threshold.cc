#include "core/threshold.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

ThresholdController::ThresholdController(const ThresholdConfig& config,
                                         double expected_feedback_period,
                                         double start_time)
    : config_(config),
      expected_feedback_period_(expected_feedback_period),
      threshold_(config.initial),
      last_feedback_time_(start_time) {
  BESYNC_CHECK_GT(config.initial, 0.0);
  BESYNC_CHECK_GT(config.increase, 1.0);
  BESYNC_CHECK_GT(config.decrease, 1.0);
  BESYNC_CHECK_GT(expected_feedback_period, 0.0);
}

double ThresholdController::DeltaFactor(double now) const {
  const double since_feedback = now - last_feedback_time_;
  if (since_feedback <= expected_feedback_period_) return 1.0;
  return since_feedback / expected_feedback_period_;
}

void ThresholdController::OnRefreshSent(double now) {
  threshold_ *= config_.increase * DeltaFactor(now);
  Clamp();
}

void ThresholdController::OnFeedback(double now, bool at_full_capacity) {
  last_feedback_time_ = now;
  if (at_full_capacity) return;  // footnote 3: do not lower while saturated
  threshold_ /= config_.decrease;
  Clamp();
}

void ThresholdController::SetThreshold(double value) {
  BESYNC_CHECK_GT(value, 0.0);
  threshold_ = value;
  Clamp();
}

void ThresholdController::Clamp() {
  threshold_ = std::clamp(threshold_, kMinThreshold, kMaxThreshold);
}

}  // namespace besync
