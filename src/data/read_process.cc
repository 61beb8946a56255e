#include "data/read_process.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace besync {

std::string EvictionPolicyToString(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kLfu:
      return "lfu";
    case EvictionPolicy::kDivergenceAware:
      return "divergence";
  }
  return "unknown";
}

PoissonZipfReadProcess::PoissonZipfReadProcess(
    double rate, std::shared_ptr<const ZipfDistribution> popularity, int64_t rotation)
    : rate_(rate), popularity_(std::move(popularity)), rotation_(rotation) {
  BESYNC_CHECK_GT(rate, 0.0);
  BESYNC_CHECK(popularity_ != nullptr);
  BESYNC_CHECK_GE(rotation, 0);
}

double PoissonZipfReadProcess::NextReadTime(double now, Rng* rng) {
  return now + rng->Exponential(rate_);
}

int64_t PoissonZipfReadProcess::NextObjectSlot(int64_t num_slots, Rng* rng) {
  BESYNC_CHECK_EQ(num_slots, popularity_->n());
  const int64_t rank = popularity_->Draw(rng);
  return (rank - 1 + rotation_) % num_slots;
}

TraceReadProcess::TraceReadProcess(std::vector<ReadTracePoint> points)
    : points_(std::move(points)) {
  for (size_t i = 1; i < points_.size(); ++i) {
    BESYNC_CHECK_GE(points_[i].time, points_[i - 1].time)
        << "read trace must be time-ordered";
  }
  if (points_.size() >= 2) {
    const double span = points_.back().time - points_.front().time;
    if (span > 0.0) {
      rate_ = static_cast<double>(points_.size() - 1) / span;
    }
  }
}

double TraceReadProcess::NextReadTime(double now, Rng* /*rng*/) {
  // Skip points strictly before `now`; a point *at* `now` is still
  // returned so several reads sharing one timestamp all replay (the caller
  // consumes one point per NextObjectSlot, so the loop always advances).
  while (cursor_ < points_.size() && points_[cursor_].time < now) ++cursor_;
  if (cursor_ >= points_.size()) return std::numeric_limits<double>::infinity();
  return points_[cursor_].time;
}

int64_t TraceReadProcess::NextObjectSlot(int64_t num_slots, Rng* /*rng*/) {
  BESYNC_CHECK_GE(num_slots, 1);
  BESYNC_CHECK_LT(cursor_, points_.size());
  const int64_t slot = points_[cursor_].slot;
  ++cursor_;
  return std::min(std::max<int64_t>(slot, 0), num_slots - 1);
}

std::unique_ptr<ReadProcess> TraceReadProcess::Clone() const {
  auto clone = std::make_unique<TraceReadProcess>(points_);
  clone->cursor_ = cursor_;
  return clone;
}

}  // namespace besync
