#ifndef BESYNC_NET_BANDWIDTH_H_
#define BESYNC_NET_BANDWIDTH_H_

#include <memory>

#include "util/fluctuation.h"

namespace besync {

/// Largest one-tick budget (average bandwidth x tick length, in messages) a
/// run may configure: 2^53, the largest count a double holds exactly. Well
/// below 2^63, past which BudgetForTick's cast to int64_t is undefined (an
/// infinite bandwidth there delivered nothing at all).
constexpr double kMaxTickBudget = 9007199254740992.0;

/// Converts a continuous bandwidth signal (messages/second) into an integer
/// per-tick message budget. Fractional capacity carries over between ticks
/// as credit, so e.g. 0.5 msg/s with 1-second ticks yields one message every
/// other tick rather than zero forever.
class BandwidthModel {
 public:
  explicit BandwidthModel(std::unique_ptr<Fluctuation> signal);

  /// Integer message budget for the tick [tick_start, tick_start + tick_len).
  /// Must be called with non-overlapping, forward-moving ticks.
  int64_t BudgetForTick(double tick_start, double tick_len);

  /// Instantaneous bandwidth at time t (messages/second).
  double RateAt(double t) const { return signal_->ValueAt(t); }

  /// Long-run average bandwidth (messages/second).
  double average() const { return signal_->average(); }

 private:
  std::unique_ptr<Fluctuation> signal_;
  double credit_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_NET_BANDWIDTH_H_
