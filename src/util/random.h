#ifndef BESYNC_UTIL_RANDOM_H_
#define BESYNC_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace besync {

/// Deterministic pseudo-random number generator (xoshiro256++) with the
/// distributions needed by the workload generators and simulators.
///
/// All experiment code takes an explicit seed so every run is reproducible.
/// The generator is cheap to copy; independent streams should be derived via
/// `Fork()`, which produces a statistically independent child generator.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64, so that nearby
  /// seeds produce unrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform random 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Poisson-distributed count with the given mean. Uses Knuth's method for
  /// small means and a transformed-rejection method for large means.
  int64_t Poisson(double mean);

  /// Normal (Gaussian) with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Derives an independent child generator (for per-source / per-object
  /// streams whose draws must not depend on iteration order elsewhere).
  Rng Fork();

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

 private:
  /// Marks "no cached normal": Box-Muller outputs are always finite, so a
  /// NaN sentinel replaces a separate flag and keeps Rng at 40 bytes (it
  /// sits in every ObjectRuntime).
  static constexpr double kNoCachedNormal = std::numeric_limits<double>::quiet_NaN();

  uint64_t state_[4];
  // Cached second value from the Box-Muller transform.
  double cached_normal_ = kNoCachedNormal;
};

/// Zipf-distributed integers in [1, n]: P(k) proportional to 1/k^s, for
/// s > 0. Draws come from rejection sampling against the continuous
/// envelope 1/x^s on [0.5, n + 0.5]: invert the envelope's integral h at a
/// uniform point, round to the nearest rank k, and accept with probability
/// k^-s / x^-s. Everything that depends only on (n, s) — h(0.5), the
/// envelope total, 1/(1 - s) and the pmf k^-s — is computed once here, so a
/// draw costs two `pow` calls per attempt. Immutable once built; share one
/// instance between every stream of the same shape.
class ZipfDistribution {
 public:
  /// Requires n >= 1 and s > 0. Holds n doubles.
  ZipfDistribution(int64_t n, double s);

  int64_t n() const { return n_; }

  /// One rank in [1, n]. n == 1 draws nothing; otherwise each attempt
  /// draws one NextDouble() for the envelope point and, when that rounds to
  /// a rank in [1, n], a second for the acceptance test.
  int64_t Draw(Rng* rng) const;

 private:
  int64_t n_;
  double exponent_;
  /// 1 - s and 1 / (1 - s); unused when s == 1, where h is log and its
  /// inverse exp.
  double one_minus_s_;
  double inv_one_minus_s_;
  /// h(0.5) and h(n + 0.5) - h(0.5): the envelope's range.
  double h_half_;
  double total_;
  /// pmf_[k] = k^-s for k in [1, n]; pmf_[0] is unused.
  std::vector<double> pmf_;
};

}  // namespace besync

#endif  // BESYNC_UTIL_RANDOM_H_
