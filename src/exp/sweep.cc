#include "exp/sweep.h"

#include <cstdio>

#include "util/logging.h"

namespace besync {

std::vector<double> LinSpace(double lo, double hi, int count) {
  BESYNC_CHECK_GE(count, 1);
  if (count == 1) return {lo};
  std::vector<double> values(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (int i = 0; i < count; ++i) values[i] = lo + step * i;
  return values;
}

SweepProgress::SweepProgress(std::string label, int total)
    : label_(std::move(label)), total_(total) {}

void SweepProgress::Step() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++done_;
  std::fprintf(stderr, "\r%s: %d/%d", label_.c_str(), done_, total_);
  std::fflush(stderr);
}

void SweepProgress::Finish() { std::fprintf(stderr, "\n"); }

}  // namespace besync
