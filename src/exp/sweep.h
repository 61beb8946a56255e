#ifndef BESYNC_EXP_SWEEP_H_
#define BESYNC_EXP_SWEEP_H_

#include <mutex>
#include <string>
#include <vector>

namespace besync {

/// `count` evenly spaced values from `lo` to `hi` inclusive.
std::vector<double> LinSpace(double lo, double hi, int count);

/// Simple stderr progress line for long sweeps: "label: k/n". Thread-safe:
/// Step() may be called concurrently from experiment-runner workers.
class SweepProgress {
 public:
  SweepProgress(std::string label, int total);
  /// Marks one configuration finished and reprints the progress line.
  void Step();
  void Finish();

 private:
  std::string label_;
  int total_;
  int done_ = 0;  // guarded by mutex_
  std::mutex mutex_;
};

}  // namespace besync

#endif  // BESYNC_EXP_SWEEP_H_
