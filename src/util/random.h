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

/// Below this |1 - s| the Zipf fast path is off and every draw runs the
/// exact expressions. Near s = 1 the edge keys (k + 1/2)^(1-s) crowd
/// within |1 - s| * ln(n + 1/2) of 1, neighbouring edges sit only
/// |1 - s| / (k + 1/2) apart, and at |1 - s| = 2^-20 over 10^5 ranks the
/// top ranks' intervals are a few guard bands wide: more and more draws
/// would fall back, so the table would cost more than it saves. s == 1 is
/// not in this band: it has its own log/exp form, which is well conditioned.
constexpr double kZipfMinAbsOneMinusS = 0x1p-20;

/// Relative guard band of the Zipf fast path around each edge key. The
/// exact path rounds x = pow(a, 1/(1-s)) (or exp(u)) to the nearest rank,
/// and the table path sees the same double a, so the two can disagree only
/// where the error of that libm call could carry x across a half-integer.
/// With E the relative error of pow, exp and log (glibc: under 1 ulp, so
/// E <= 2^-52), the rank is decided once a sits outside an edge key A_k
/// by a relative margin of 2E|1 - s| (pow's error mapped back through the
/// exponent) plus the key's own error, E + ln(n + 1/2) |1 - s| 2^-53 (pow,
/// and 1/(1/(1-s)) differing from 1 - s by an ulp). The band used is
/// kZipfEdgeGuard * (1 + |1 - s| (1 + ln(n + 1))), at least 2^11 times
/// that margin; for s == 1 the same absolute band covers exp and log.
constexpr double kZipfEdgeGuard = 0x1p-40;

/// Zipf-distributed integers in [1, n]: P(k) proportional to 1/k^s, for
/// s > 0. Draws come from rejection sampling against the continuous
/// envelope 1/x^s on [0.5, n + 0.5]: invert the envelope's integral h at a
/// uniform point, round to the nearest rank k, and accept with probability
/// k^-s / x^-s. Everything that depends only on (n, s) — h(0.5), the
/// envelope total, 1/(1 - s) and the pmf k^-s — is computed once here.
///
/// Fast path (DESIGN.md, "Batched reads, exact Zipf fast path,
/// entry-indexed store slots"): the inverse is x = a^(1/(1-s)) with
/// a = 1 + u(1 - s) (x = e^u when s == 1), monotone in a, so the rank is
/// the interval of a between the edge keys of x = k + 1/2. A guide table
/// finds that interval without `pow`, and a per-rank floor under the
/// acceptance ratio accepts without the second `pow`. Within kZipfEdgeGuard
/// (relative) of an edge, and when the floor does not decide, the draw
/// evaluates today's exact expressions on the same a, so every rank and
/// every uniform consumed is the same as the two-`pow` loop's. Immutable
/// once built; share one instance between every stream of the same shape.
class ZipfDistribution {
 public:
  /// Requires n >= 1 and s > 0. Holds about 28 bytes per rank.
  ZipfDistribution(int64_t n, double s);

  int64_t n() const { return n_; }
  /// True when draws use the edge table (false for n == 1 and for
  /// |1 - s| in (0, kZipfMinAbsOneMinusS)).
  bool fast_path() const { return !ranks_.empty(); }

  /// One rank in [1, n]. n == 1 draws nothing; otherwise each attempt
  /// draws one NextDouble() for the envelope point and, when that rounds to
  /// a rank in [1, n], a second for the acceptance test.
  int64_t Draw(Rng* rng) const;

 private:
  /// Per rank k in [0, n]: the key of the envelope point x = k + 1/2 (the
  /// upper edge of rank k; the lower edge of rank k + 1), and a lower bound
  /// on rank k's acceptance ratio k^-s / x^-s over x in [k - 1/2, k + 1/2]
  /// (unused for k == 0). One line holds both, so the rank search and the
  /// acceptance test read the same entry.
  struct Rank {
    double upper_edge;
    double accept_floor;
  };

  /// x for the envelope argument `a` (1 + u(1 - s), or u when s == 1):
  /// the exact expression of the two-`pow` loop.
  double Invert(double a) const;
  /// The rank whose edge interval holds key `key`, or -1 when `key` lies
  /// within guard_ of an edge. 0 and n + 1 mean below 1/2 and above
  /// n + 1/2: the attempt is rejected.
  int64_t FastRank(double key) const;
  /// Guide cell of `key`: monotone non-decreasing in `key`.
  size_t GuideCell(double key) const;

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
  /// Fast path (empty when off). Keys are sign * a, ascending in rank:
  /// sign is -1 when s > 1, where a falls as x grows.
  double key_sign_ = 1.0;
  /// Absolute half-width of the band around each edge key in which the
  /// rank is left to the exact expression.
  double guard_ = 0.0;
  std::vector<Rank> ranks_;
  /// guide_[c] = the first edge index whose GuideCell is >= c; no edge
  /// below it exceeds any key of cell c, so the scan may start there.
  std::vector<int32_t> guide_;
  double guide_origin_ = 0.0;
  double guide_scale_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_RANDOM_H_
