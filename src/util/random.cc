#include "util/random.h"

#include <cmath>

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

int64_t Rng::Zipf(int64_t n, double s) {
  BESYNC_CHECK_GE(n, 1);
  // Rejection-inversion sampling (Hormann & Derflinger) works for any s > 0,
  // but a simple inverse-CDF walk is fine for the n used in examples; use
  // the rejection method from Gray's formulation for efficiency.
  // Here: rejection sampling against the continuous envelope 1/x^s.
  if (n == 1) return 1;
  const double exponent = s;
  // Precompute normalization pieces of the envelope.
  auto h = [exponent](double x) {
    return exponent == 1.0 ? std::log(x) : (std::pow(x, 1.0 - exponent) - 1.0) / (1.0 - exponent);
  };
  auto h_inv = [exponent](double y) {
    return exponent == 1.0 ? std::exp(y)
                           : std::pow(1.0 + y * (1.0 - exponent), 1.0 / (1.0 - exponent));
  };
  const double total = h(static_cast<double>(n) + 0.5) - h(0.5);
  while (true) {
    const double u = h(0.5) + NextDouble() * total;
    const double x = h_inv(u);
    const int64_t k = static_cast<int64_t>(std::llround(x));
    if (k < 1 || k > n) continue;
    // Accept with probability proportional to the ratio of the pmf to the
    // envelope density at k.
    const double ratio = std::pow(static_cast<double>(k), -exponent) /
                         std::pow(x, -exponent);
    if (NextDouble() <= ratio) return k;
  }
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace besync
