#ifndef BESYNC_DATA_UPDATE_PROCESS_H_
#define BESYNC_DATA_UPDATE_PROCESS_H_

#include <memory>
#include <vector>

#include "util/random.h"

namespace besync {

/// Generates the update stream of one source data object: when updates occur
/// and how each update mutates the value. Instances are per-object and may
/// hold cursor state (trace replay); the random draws come from the caller's
/// per-object RNG so update streams are identical across schedulers run on
/// the same seed.
class UpdateProcess {
 public:
  virtual ~UpdateProcess() = default;

  /// Time of the next update strictly after `now`; +infinity if none.
  virtual double NextUpdateTime(double now, Rng* rng) = 0;

  /// Applies one update (at the time previously returned by NextUpdateTime)
  /// and returns the new value.
  virtual double ApplyUpdate(double current_value, Rng* rng) = 0;

  /// Long-run average update rate (updates/second); the lambda parameter
  /// available to oracles and to the CGM "ideal cache-based" baseline.
  virtual double rate() const = 0;

  /// Rewinds any internal cursor state so the same workload object can be
  /// run under several schedulers. Stateless processes need not override.
  virtual void Reset() {}

  /// Deep copy, including any cursor state: given identical subsequent RNG
  /// draws, the clone produces exactly the update stream the original would
  /// have produced. Enables CloneWorkload (data/workload.h), which fans one
  /// workload out across concurrently running jobs.
  virtual std::unique_ptr<UpdateProcess> Clone() const = 0;
};

/// Poisson-timed random walk: updates arrive as a Poisson process with rate
/// lambda; each update increments or decrements the value by `step` with
/// equal probability (paper Sections 4.3, 6.2).
class PoissonRandomWalkProcess : public UpdateProcess {
 public:
  PoissonRandomWalkProcess(double lambda, double step = 1.0);

  double NextUpdateTime(double now, Rng* rng) override;
  double ApplyUpdate(double current_value, Rng* rng) override;
  double rate() const override { return lambda_; }
  std::unique_ptr<UpdateProcess> Clone() const override {
    return std::make_unique<PoissonRandomWalkProcess>(lambda_, step_);
  }

  double step() const { return step_; }

 private:
  double lambda_;
  double step_;
};

/// Per-second Bernoulli random walk: at each integer time the object is
/// updated with probability p ("each simulated object O_i was updated with
/// probability p_i each second", Section 4.3). p = 1 reproduces the paper's
/// "updated consistently every second" objects.
class BernoulliRandomWalkProcess : public UpdateProcess {
 public:
  BernoulliRandomWalkProcess(double probability, double step = 1.0);

  double NextUpdateTime(double now, Rng* rng) override;
  double ApplyUpdate(double current_value, Rng* rng) override;
  double rate() const override { return probability_; }
  std::unique_ptr<UpdateProcess> Clone() const override {
    return std::make_unique<BernoulliRandomWalkProcess>(probability_, step_);
  }

 private:
  double probability_;
  double step_;
};

/// Poisson random walk whose rate toggles between `rate_a` and `rate_b`
/// every `regime_length` seconds (starting in regime A). Used by the
/// history-priority ablation (Section 10.1 discusses trading adaptiveness
/// for longer-history predictions; regime switches are exactly where that
/// trade bites).
class RegimeSwitchingProcess : public UpdateProcess {
 public:
  RegimeSwitchingProcess(double rate_a, double rate_b, double regime_length,
                         double step = 1.0);

  double NextUpdateTime(double now, Rng* rng) override;
  double ApplyUpdate(double current_value, Rng* rng) override;
  /// Long-run average rate (the mean of the two regime rates).
  double rate() const override { return 0.5 * (rate_a_ + rate_b_); }
  std::unique_ptr<UpdateProcess> Clone() const override {
    return std::make_unique<RegimeSwitchingProcess>(rate_a_, rate_b_, regime_length_,
                                                    step_);
  }

  /// Rate in force at time `t`.
  double RateAt(double t) const;

 private:
  double rate_a_;
  double rate_b_;
  double regime_length_;
  double step_;
};

/// Deterministic one-sided drift: the value increases by `step` exactly
/// every 1/lambda seconds. Under the value-deviation metric the divergence
/// of such an object is (up to discretization) lambda*step*(t - t_last) —
/// i.e. it *equals* the Section 9 divergence bound with rate
/// R = lambda*step. Used by the divergence-bounding experiments: minimizing
/// the average bound on any workload is equivalent to minimizing actual
/// divergence on the drift workload with matching rates.
class DriftProcess : public UpdateProcess {
 public:
  DriftProcess(double lambda, double step = 1.0);

  double NextUpdateTime(double now, Rng* rng) override;
  double ApplyUpdate(double current_value, Rng* rng) override;
  double rate() const override { return lambda_; }
  std::unique_ptr<UpdateProcess> Clone() const override {
    return std::make_unique<DriftProcess>(lambda_, step_);
  }

 private:
  double lambda_;
  double step_;
};

/// One timestamped point of a replayed measurement trace.
struct TracePoint {
  double time = 0.0;
  double value = 0.0;
};

/// Replays a fixed, time-ordered trace of (time, value) measurements (the
/// wind-buoy experiment, Section 6.2.1). Holds a cursor advanced by
/// ApplyUpdate.
class TraceProcess : public UpdateProcess {
 public:
  explicit TraceProcess(std::vector<TracePoint> points);

  double NextUpdateTime(double now, Rng* rng) override;
  double ApplyUpdate(double current_value, Rng* rng) override;
  double rate() const override { return rate_; }
  void Reset() override { cursor_ = 0; }
  /// Copies the full point vector and the current cursor position.
  std::unique_ptr<UpdateProcess> Clone() const override;

  size_t num_points() const { return points_.size(); }

 private:
  std::vector<TracePoint> points_;
  size_t cursor_ = 0;
  double rate_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_DATA_UPDATE_PROCESS_H_
