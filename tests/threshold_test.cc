#include <gtest/gtest.h>

#include "core/threshold.h"

namespace besync {
namespace {

ThresholdConfig DefaultConfig() {
  ThresholdConfig config;
  config.initial = 1.0;
  config.increase = 1.1;
  config.decrease = 10.0;
  return config;
}

TEST(ThresholdControllerTest, StartsAtInitial) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), 1.0);
}

TEST(ThresholdControllerTest, RefreshMultipliesByAlpha) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.OnRefreshSent(1.0);  // within the expected feedback period
  EXPECT_DOUBLE_EQ(controller.threshold(), 1.1);
  controller.OnRefreshSent(2.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), 1.1 * 1.1);
}

TEST(ThresholdControllerTest, FeedbackDividesByOmega) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.OnRefreshSent(1.0);
  controller.OnFeedback(2.0, /*at_full_capacity=*/false);
  EXPECT_DOUBLE_EQ(controller.threshold(), 1.1 / 10.0);
}

TEST(ThresholdControllerTest, FullCapacitySuppressesDecrease) {
  // Footnote 3: a source already saturating its source-side bandwidth must
  // not lower its threshold (it would only build up a local backlog).
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.OnRefreshSent(1.0);
  const double before = controller.threshold();
  controller.OnFeedback(2.0, /*at_full_capacity=*/true);
  EXPECT_DOUBLE_EQ(controller.threshold(), before);
  // But the feedback clock still resets (delta accounting).
  EXPECT_DOUBLE_EQ(controller.last_feedback_time(), 2.0);
}

TEST(ThresholdControllerTest, DeltaIsOneWithinExpectedPeriod) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(5.0), 1.0);
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(10.0), 1.0);
}

TEST(ThresholdControllerTest, DeltaAcceleratesWhenFeedbackOverdue) {
  // delta = t_feedback / P_feedback once feedback is overdue (Section 5):
  // likely flooding, so back off faster.
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(30.0), 3.0);
  controller.OnRefreshSent(30.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), 1.1 * 3.0);
}

TEST(ThresholdControllerTest, FeedbackResetsDeltaClock) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.OnFeedback(100.0, false);
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(105.0), 1.0);
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(130.0), 3.0);
}

TEST(ThresholdControllerTest, ClampsAtBounds) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.SetThreshold(kMinThreshold / 100.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMinThreshold);
  controller.SetThreshold(kMinThreshold * 100.0);
  for (int i = 0; i < 100; ++i) controller.OnFeedback(i, false);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMinThreshold);
  controller.SetThreshold(kMaxThreshold / 100.0);
  for (int i = 0; i < 1000; ++i) controller.OnRefreshSent(100.0 + i);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMaxThreshold);
  controller.SetThreshold(kMaxThreshold * 100.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMaxThreshold);
}

TEST(ThresholdControllerTest, DeltaFactorClampsAtMaxThresholdBoundary) {
  // The flooding accelerator delta can be arbitrarily large when feedback is
  // long overdue; the resulting multiplicative increase must saturate
  // exactly at kMaxThreshold instead of running away.
  ThresholdController controller(DefaultConfig(), /*expected_feedback_period=*/1.0, 0.0);
  controller.SetThreshold(kMaxThreshold / 1000.0);
  // Feedback overdue by 1e6 periods: delta alone would lift the threshold
  // by 1.1e6, far beyond the clamp.
  EXPECT_DOUBLE_EQ(controller.DeltaFactor(1e6), 1e6);
  controller.OnRefreshSent(1e6);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMaxThreshold);
  // Pinned at the boundary: further overdue increases stay put...
  controller.OnRefreshSent(2e6);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMaxThreshold);
  // ...and DeltaFactor itself keeps reporting the raw ratio (it is the
  // threshold that clamps, not the accelerator).
  EXPECT_GT(controller.DeltaFactor(3e6), 1.0);
  // One feedback steps down from the boundary by exactly omega.
  controller.OnFeedback(3e6, /*at_full_capacity=*/false);
  EXPECT_DOUBLE_EQ(controller.threshold(), kMaxThreshold / 10.0);
}

TEST(ThresholdControllerTest, SetThresholdOverrides) {
  ThresholdController controller(DefaultConfig(), 10.0, 0.0);
  controller.SetThreshold(42.0);
  EXPECT_DOUBLE_EQ(controller.threshold(), 42.0);
}

TEST(ThresholdControllerTest, EquilibriumRatioMatchesPaperParameters) {
  // With alpha = 1.1 and omega = 10, one feedback decrease offsets about
  // ln(10)/ln(1.1) ~ 24 refresh increases — the order-of-magnitude gap the
  // paper chose "due to the fact that increases ... are much more common
  // than decreases" (Section 6.1).
  ThresholdController controller(DefaultConfig(), 1000.0, 0.0);
  const double start = controller.threshold();
  for (int i = 0; i < 24; ++i) controller.OnRefreshSent(0.0);
  controller.OnFeedback(0.0, false);
  EXPECT_NEAR(controller.threshold() / start, 1.0, 0.05);
}

}  // namespace
}  // namespace besync
