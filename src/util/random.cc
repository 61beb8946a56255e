#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace besync {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256++ by Blackman & Vigna.
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BESYNC_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextUint64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value;
  do {
    value = NextUint64();
  } while (value >= limit);
  return lo + static_cast<int64_t>(value % range);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double rate) {
  BESYNC_CHECK_GT(rate, 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  BESYNC_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    int64_t count = -1;
    double product = 1.0;
    do {
      product *= NextDouble();
      ++count;
    } while (product > limit);
    return count;
  }
  // Atkinson's rejection method via the logistic envelope, adequate for the
  // simulation workloads here (mean >= 30).
  const double c = 0.767 - 3.36 / mean;
  const double beta = M_PI / std::sqrt(3.0 * mean);
  const double alpha = beta * mean;
  const double k = std::log(c) - mean - std::log(beta);
  while (true) {
    const double u = NextDouble();
    if (u <= 0.0 || u >= 1.0) continue;
    const double x = (alpha - std::log((1.0 - u) / u)) / beta;
    const int64_t n = static_cast<int64_t>(std::floor(x + 0.5));
    if (n < 0) continue;
    const double v = NextDouble();
    if (v <= 0.0) continue;
    const double y = alpha - beta * x;
    const double temp = 1.0 + std::exp(y);
    const double lhs = y + std::log(v / (temp * temp));
    const double rhs = k + n * std::log(mean) - std::lgamma(n + 1.0);
    if (lhs <= rhs) return n;
  }
}

double Rng::Normal(double mean, double stddev) {
  if (!std::isnan(cached_normal_)) {
    const double cached = cached_normal_;
    cached_normal_ = kNoCachedNormal;
    return mean + stddev * cached;
  }
  // Box-Muller.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  return mean + stddev * radius * std::cos(theta);
}

Rng Rng::Fork() { return Rng(NextUint64()); }

ZipfDistribution::ZipfDistribution(int64_t n, double s)
    : n_(n),
      exponent_(s),
      one_minus_s_(1.0 - s),
      inv_one_minus_s_(1.0 / (1.0 - s)) {
  BESYNC_CHECK_GE(n, 1);
  BESYNC_CHECK_GT(s, 0.0);
  const auto h = [this](double x) {
    return exponent_ == 1.0 ? std::log(x)
                            : (std::pow(x, one_minus_s_) - 1.0) / one_minus_s_;
  };
  h_half_ = h(0.5);
  total_ = h(static_cast<double>(n) + 0.5) - h_half_;
  pmf_.assign(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t k = 1; k <= n; ++k) pmf_[k] = std::pow(static_cast<double>(k), -s);

  if (n == 1 || n >= std::numeric_limits<int32_t>::max() ||
      (s != 1.0 && std::fabs(one_minus_s_) < kZipfMinAbsOneMinusS)) {
    return;
  }
  // Edge keys: sign * a at x = k + 1/2, where a = (k + 1/2)^(1-s) (log for
  // s == 1). Computed from the same 1 - s the exact path's a uses.
  key_sign_ = s > 1.0 ? -1.0 : 1.0;
  const double log_n = std::log(static_cast<double>(n) + 1.0);
  const auto key_at = [&](double x) {
    return s == 1.0 ? std::log(x) : key_sign_ * std::pow(x, one_minus_s_);
  };
  ranks_.resize(static_cast<size_t>(n) + 1);
  double max_abs_key = 0.0;
  for (int64_t k = 0; k <= n; ++k) {
    Rank& rank = ranks_[k];
    rank.upper_edge = key_at(static_cast<double>(k) + 0.5);
    max_abs_key = std::max(max_abs_key, std::fabs(rank.upper_edge));
    // Over x in [k - 1/2, k + 1/2] the ratio (x / k)^s is least at
    // k - 1/2. The computed ratio is within a few ulps of the real one, as
    // is this floor's pow; the factor keeps the floor safely below both.
    rank.accept_floor =
        k == 0 ? 0.0
               : std::pow((static_cast<double>(k) - 0.5) / static_cast<double>(k), s) *
                     (1.0 - kZipfEdgeGuard * (2.0 + s));
    // The guide and the scan need strictly ascending edges; a shape whose
    // edges collide in double keeps the exact path.
    if (k > 0 && !(rank.upper_edge > ranks_[k - 1].upper_edge)) {
      ranks_.clear();
      return;
    }
  }
  guard_ = s == 1.0 ? kZipfEdgeGuard * (1.0 + log_n)
                    : kZipfEdgeGuard * (1.0 + std::fabs(one_minus_s_) * (1.0 + log_n)) *
                          max_abs_key;
  // One guide cell per rank over [edge 0, edge n]: a is uniform in u, so
  // a draw scans about one edge past its cell's first.
  const size_t cells = static_cast<size_t>(n) + 1;
  guide_origin_ = ranks_.front().upper_edge;
  guide_scale_ = static_cast<double>(cells) / (ranks_.back().upper_edge - guide_origin_);
  guide_.resize(cells);
  size_t edge = 0;
  for (size_t c = 0; c < cells; ++c) {
    while (edge < ranks_.size() && GuideCell(ranks_[edge].upper_edge) < c) ++edge;
    guide_[c] = static_cast<int32_t>(edge);
  }
}

double ZipfDistribution::Invert(double a) const {
  return exponent_ == 1.0 ? std::exp(a) : std::pow(a, inv_one_minus_s_);
}

size_t ZipfDistribution::GuideCell(double key) const {
  const double cell = (key - guide_origin_) * guide_scale_;
  if (!(cell > 0.0)) return 0;
  const size_t last = guide_.size() - 1;
  // Through int64_t: x86-64 converts a double to a signed integer in one
  // instruction, to an unsigned one only with a branch.
  return cell >= static_cast<double>(last) ? last
                                           : static_cast<size_t>(static_cast<int64_t>(cell));
}

int64_t ZipfDistribution::FastRank(double key) const {
  // First edge above key: key lies in [edge j - 1, edge j), rank j's
  // interval. Every edge before the guide's start is below key.
  size_t j = static_cast<size_t>(guide_[GuideCell(key)]);
  while (j < ranks_.size() && ranks_[j].upper_edge <= key) ++j;
  if (j < ranks_.size() && key > ranks_[j].upper_edge - guard_) return -1;
  if (j > 0 && key < ranks_[j - 1].upper_edge + guard_) return -1;
  return static_cast<int64_t>(j);
}

int64_t ZipfDistribution::Draw(Rng* rng) const {
  if (n_ == 1) return 1;
  while (true) {
    const double u = h_half_ + rng->NextDouble() * total_;
    const double a = exponent_ == 1.0 ? u : 1.0 + u * one_minus_s_;
    // Outside the guard bands the table's rank is llround(Invert(a)); in a
    // band (or with the fast path off) the exact expression decides.
    int64_t k = fast_path() ? FastRank(key_sign_ * a) : -1;
    const bool decided = k >= 0;
    double x = 0.0;
    if (!decided) {
      x = Invert(a);
      k = static_cast<int64_t>(std::llround(x));
    }
    if (k < 1 || k > n_) continue;
    const double v = rng->NextDouble();
    if (decided) {
      // x is within [k - 1/2, k + 1/2), so the exact ratio is above the
      // floor: the exact test would accept too.
      if (v <= ranks_[k].accept_floor) return k;
      x = Invert(a);
    }
    // Accept with probability proportional to the ratio of the pmf to the
    // envelope density at k.
    const double ratio = pmf_[k] / std::pow(x, -exponent_);
    if (v <= ratio) return k;
  }
}

}  // namespace besync
