#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/fluctuation.h"
#include "util/random.h"
#include "util/result.h"
#include "util/ring.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace besync {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, DoublesPrintInShortestRoundTripForm) {
  // std::to_string's %f printed 1.2e301 as 302 digits and 1e-300 as
  // "0.000000"; integers keep their form.
  EXPECT_EQ(Status::InvalidArgument("bandwidth ", 1.2e301).message(), "bandwidth 1.2e+301");
  EXPECT_EQ(Status::InvalidArgument("interval ", 1e-300).message(), "interval 1e-300");
  EXPECT_EQ(Status::InvalidArgument("q ", 0.25).message(), "q 0.25");
  EXPECT_EQ(Status::InvalidArgument("rate ", 0.1, " of ", 1e6).message(), "rate 0.1 of 1e+06");
  EXPECT_EQ(Status::InvalidArgument("warmup ", 100.0).message(), "warmup 100");
  EXPECT_EQ(Status::InvalidArgument("x ", std::numeric_limits<double>::infinity()).message(),
            "x inf");
  EXPECT_EQ(Status::InvalidArgument("n ", int64_t{-7}, " ", 3u).message(), "n -7 3");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad value: ", 42);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad value: 42");
  EXPECT_EQ(status.ToString(), "Invalid argument: bad value: 42");
}

TEST(StatusTest, CopyPreservesContent) {
  Status status = Status::NotFound("object ", 7);
  Status copy = status;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), status.message());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Status FailsIfNegative(int value) {
  if (value < 0) return Status::OutOfRange("negative: ", value);
  return Status::OK();
}

Status Caller(int value) {
  BESYNC_RETURN_IF_ERROR(FailsIfNegative(value));
  return Status::Internal("should not be reached on failure");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(-1).IsOutOfRange());
  EXPECT_TRUE(Caller(1).IsInternal());  // fell through to the sentinel
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-3);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.ValueOr(-1), -1);
}

Result<int> ChainedParse(int value) {
  BESYNC_ASSIGN_OR_RETURN(int doubled, ParsePositive(value));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*ChainedParse(5), 11);
  EXPECT_FALSE(ChainedParse(0).ok());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a.NextUint64() != b.NextUint64();
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(6, 0);
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(0, 5)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 6.0, 5.0 * std::sqrt(kDraws / 6.0));
  }
}

TEST(RngTest, ExponentialHasCorrectMean) {
  Rng rng(31);
  const double rate = 2.5;
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / kDraws, 1.0 / rate, 0.01);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MatchesMeanAndVariance) {
  const double mean = GetParam();
  Rng rng(11 + static_cast<uint64_t>(mean * 1000));
  RunningStat stat;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    stat.Add(static_cast<double>(rng.Poisson(mean)));
  }
  // Poisson: mean == variance.
  EXPECT_NEAR(stat.mean(), mean, 4.0 * std::sqrt(mean / kDraws) + 0.01);
  EXPECT_NEAR(stat.variance(), mean, 0.12 * mean + 0.05);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 40.0, 200.0));

TEST(RngTest, NormalMoments) {
  Rng rng(77);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Normal(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(ZipfDistributionTest, FavorsSmallRanks) {
  const ZipfDistribution zipf(10, 1.0);
  EXPECT_EQ(zipf.n(), 10);
  Rng rng(5);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = zipf.Draw(&rng);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 10);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], 0);
  // Ratio c1/c2 should be close to 2 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.35);
}

TEST(ZipfDistributionTest, MatchesParentDrawStream) {
  // Draws recorded from the per-call sampler this table replaced
  // (Rng::Zipf(n, s), which recomputed its envelope on every draw): the
  // first 64 ranks from Rng(seed), then the generator's next NextUint64,
  // which pins how many uniforms the 64 draws consumed. The precomputed
  // table must reproduce both bit for bit, or every read stream moves.
  struct Case {
    int64_t n;
    double s;
    uint64_t seed;
    std::vector<int64_t> draws;
    uint64_t next;
  };
  const Case cases[] = {
      {1, 0.8, 101,
       {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
       0xb7acc4f2509454b9ULL},
      {2, 0.8, 102,
       {1, 2, 1, 1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1,
        1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1,
        1, 1, 1, 1, 1, 1, 2, 2, 1, 2},
       0xfd760d0f9a69dc36ULL},
      {10, 1.0, 103,
       {1, 2, 1, 2, 4, 5, 1, 4, 2, 4, 2, 1, 1, 3, 10, 5, 2, 1, 1, 3, 1, 8, 3, 4, 4, 10,
        1, 2, 4, 1, 7, 2, 6, 2, 1, 5, 1, 2, 5, 1, 4, 6, 2, 2, 1, 1, 1, 2, 7, 2, 6, 1, 4,
        9, 10, 7, 3, 8, 6, 2, 1, 5, 3, 7},
       0xdecdcf55803ca897ULL},
      {50, 1.0, 104,
       {1, 1, 23, 2, 6, 23, 6, 31, 1, 1, 5, 1, 2, 1, 1, 1, 1, 3, 3, 5, 1, 31, 4, 1, 2,
        2, 20, 2, 32, 16, 11, 8, 2, 49, 7, 1, 12, 22, 1, 5, 25, 16, 3, 17, 5, 30, 6, 1,
        33, 3, 20, 28, 32, 1, 7, 43, 5, 33, 1, 41, 1, 5, 6, 7},
       0x62407158f02999c6ULL},
      {100, 1.2, 105,
       {1, 22, 45, 22, 1, 1, 6, 38, 13, 36, 2, 1, 4, 2, 1, 57, 17, 22, 2, 1, 1, 1, 2, 7,
        5, 1, 12, 6, 11, 1, 29, 72, 8, 4, 50, 6, 12, 5, 1, 1, 44, 15, 2, 1, 17, 16, 1,
        25, 3, 1, 1, 41, 39, 15, 46, 1, 70, 1, 1, 1, 1, 33, 1, 8},
       0x1ba97ddd85fb2334ULL},
      {2000, 0.8, 106,
       {2, 204, 340, 27, 3, 315, 11, 260, 1686, 778, 10, 482, 193, 107, 52, 52, 1043,
        132, 185, 9, 132, 349, 431, 438, 193, 1379, 1725, 15, 869, 62, 401, 1087, 173,
        283, 24, 71, 1200, 49, 5, 420, 210, 701, 20, 310, 301, 587, 170, 730, 1955, 272,
        487, 1, 672, 1476, 59, 487, 49, 20, 830, 9, 79, 254, 1, 71},
       0xd60453a7524fcf97ULL},
  };
  for (const Case& c : cases) {
    const ZipfDistribution zipf(c.n, c.s);
    Rng rng(c.seed);
    std::vector<int64_t> draws;
    for (size_t i = 0; i < c.draws.size(); ++i) draws.push_back(zipf.Draw(&rng));
    EXPECT_EQ(draws, c.draws) << "n=" << c.n << " s=" << c.s;
    EXPECT_EQ(rng.NextUint64(), c.next) << "n=" << c.n << " s=" << c.s;
  }
}

/// The two-`pow` rejection loop the table's fast path must reproduce:
/// the sampler as it stood before the edge table, kept here as the
/// reference for ranks and uniforms consumed.
class ReferenceZipf {
 public:
  ReferenceZipf(int64_t n, double s)
      : n_(n), s_(s), one_minus_s_(1.0 - s), inv_one_minus_s_(1.0 / (1.0 - s)) {
    h_half_ = H(0.5);
    total_ = H(static_cast<double>(n) + 0.5) - h_half_;
  }

  int64_t Draw(Rng* rng) const {
    if (n_ == 1) return 1;
    while (true) {
      const double u = h_half_ + rng->NextDouble() * total_;
      const double x =
          s_ == 1.0 ? std::exp(u) : std::pow(1.0 + u * one_minus_s_, inv_one_minus_s_);
      const int64_t k = static_cast<int64_t>(std::llround(x));
      if (k < 1 || k > n_) continue;
      const double ratio = std::pow(static_cast<double>(k), -s_) / std::pow(x, -s_);
      if (rng->NextDouble() <= ratio) return k;
    }
  }

 private:
  double H(double x) const {
    return s_ == 1.0 ? std::log(x) : (std::pow(x, one_minus_s_) - 1.0) / one_minus_s_;
  }

  int64_t n_;
  double s_;
  double one_minus_s_;
  double inv_one_minus_s_;
  double h_half_ = 0.0;
  double total_ = 0.0;
};

TEST(ZipfDistributionTest, FastPathMatchesTwoPowLoop) {
  // Every rank, and the generator state after 2^20 draws, must equal the
  // reference loop's, including shapes near s = 1 on both sides, s = 1
  // itself (the log/exp form) and the largest accepted exponent.
  constexpr int kDraws = 1 << 20;
  const double exponents[] = {0.5, 0.8, 0.999, 1.0, 1.001, 1.2, 2.0, 5.0};
  const int64_t sizes[] = {1, 2, 37, 2000, 100000};
  uint64_t seed = 1000;
  for (const double s : exponents) {
    for (const int64_t n : sizes) {
      const ZipfDistribution zipf(n, s);
      const ReferenceZipf reference_zipf(n, s);
      EXPECT_EQ(zipf.fast_path(), n > 1) << "n=" << n << " s=" << s;
      Rng fast(++seed);
      Rng reference(seed);
      int64_t mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        const int64_t k = zipf.Draw(&fast);
        if (k != reference_zipf.Draw(&reference)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;
      EXPECT_EQ(fast.NextUint64(), reference.NextUint64()) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfDistributionTest, IllConditionedShapesKeepTheExactPath) {
  // Within kZipfMinAbsOneMinusS of s = 1 (but not at it) the table is off;
  // the draws still follow the reference loop.
  for (const double s : {1.0 - 0x1p-21, 1.0 + 0x1p-21}) {
    const ZipfDistribution zipf(2000, s);
    const ReferenceZipf reference_zipf(2000, s);
    EXPECT_FALSE(zipf.fast_path()) << "s=" << s;
    Rng fast(9);
    Rng reference(9);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(zipf.Draw(&fast), reference_zipf.Draw(&reference)) << "s=" << s;
    }
    EXPECT_EQ(fast.NextUint64(), reference.NextUint64());
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream should not equal the parent's continued stream.
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += parent.NextUint64() != child.NextUint64();
  EXPECT_GT(differing, 60);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(8);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  rng.Shuffle(&values);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_EQ(stat.count(), 8);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(TimeWeightedMeanTest, WeightsByDuration) {
  TimeWeightedMean mean;
  mean.Add(1.0, 3.0);  // value 1 for 3 s
  mean.Add(5.0, 1.0);  // value 5 for 1 s
  EXPECT_DOUBLE_EQ(mean.mean(), 2.0);
  EXPECT_DOUBLE_EQ(mean.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(mean.integral(), 8.0);
}

TEST(TimeWeightedMeanTest, IgnoresNonPositiveDurations) {
  TimeWeightedMean mean;
  mean.Add(100.0, 0.0);
  mean.Add(100.0, -1.0);
  EXPECT_DOUBLE_EQ(mean.mean(), 0.0);
}

TEST(UtilizationStatTest, Ratio) {
  UtilizationStat stat;
  stat.Add(3, 10);
  stat.Add(7, 10);
  EXPECT_DOUBLE_EQ(stat.utilization(), 0.5);
}

// ----------------------------------------------------------- Fluctuation

TEST(FluctuationTest, ConstantIsConstant) {
  ConstantFluctuation fluctuation(4.2);
  EXPECT_DOUBLE_EQ(fluctuation.ValueAt(0.0), 4.2);
  EXPECT_DOUBLE_EQ(fluctuation.ValueAt(1e6), 4.2);
  EXPECT_DOUBLE_EQ(fluctuation.average(), 4.2);
}

TEST(FluctuationTest, SineStaysPositiveAndAveragesToBase) {
  SineFluctuation fluctuation(10.0, 0.5, 100.0, 0.3);
  double sum = 0.0;
  const int kSteps = 10000;
  for (int i = 0; i < kSteps; ++i) {
    const double v = fluctuation.ValueAt(i * 0.1);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 15.0 + 1e-9);
    sum += v;
  }
  // 10000 * 0.1 = 1000 s = 10 whole periods: the average is exact.
  EXPECT_NEAR(sum / kSteps, 10.0, 0.05);
}

TEST(FluctuationTest, BandwidthFactoryRespectsChangeRate) {
  Rng rng(1);
  auto fluctuation = MakeBandwidthFluctuation(100.0, 0.25, &rng);
  // Max relative derivative = amplitude * 2*pi / period must equal mB.
  auto* sine = dynamic_cast<SineFluctuation*>(fluctuation.get());
  ASSERT_NE(sine, nullptr);
  const double max_rate =
      sine->relative_amplitude() * 2.0 * M_PI / sine->period();
  EXPECT_NEAR(max_rate, 0.25, 1e-9);
}

TEST(FluctuationTest, BandwidthFactoryZeroRateIsConstant) {
  Rng rng(1);
  auto fluctuation = MakeBandwidthFluctuation(100.0, 0.0, &rng);
  EXPECT_NE(dynamic_cast<ConstantFluctuation*>(fluctuation.get()), nullptr);
}

TEST(FluctuationTest, WeightFactoryDrawsWithinBounds) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    auto weight = MakeWeightFluctuation(2.0, 0.8, 100.0, 1000.0, &rng);
    EXPECT_DOUBLE_EQ(weight->average(), 2.0);
    for (double t : {0.0, 50.0, 123.0, 999.0}) {
      EXPECT_GT(weight->ValueAt(t), 0.0);
      EXPECT_LT(weight->ValueAt(t), 2.0 * 1.81);
    }
  }
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--count", "7", "--verbose"};
  Flags flags;
  ASSERT_TRUE(Flags::Parse(5, const_cast<char**>(argv),
                           {"alpha", "count", "verbose"}, &flags)
                  .ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags;
  EXPECT_TRUE(Flags::Parse(2, const_cast<char**>(argv), {"alpha"}, &flags)
                  .IsInvalidArgument());
}

TEST(FlagsTest, RejectsPositionalArgument) {
  const char* argv[] = {"prog", "oops"};
  Flags flags;
  EXPECT_FALSE(Flags::Parse(2, const_cast<char**>(argv), {"alpha"}, &flags).ok());
}

/// Parses one `--name=value` pair against the known flags alpha/count/on.
Flags ParseOne(const char* arg) {
  const char* argv[] = {"prog", arg};
  Flags flags;
  EXPECT_TRUE(Flags::Parse(2, const_cast<char**>(argv), {"alpha", "count", "on"},
                           &flags)
                  .ok());
  return flags;
}

TEST(FlagsTest, TypedGettersAcceptWellFormedValues) {
  EXPECT_EQ(ParseOne("--count=-42").GetInt("count", 0), -42);
  EXPECT_EQ(ParseOne("--count=9223372036854775807").GetInt("count", 0),
            INT64_MAX);
  EXPECT_DOUBLE_EQ(ParseOne("--alpha=2.5e-3").GetDouble("alpha", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(ParseOne("--alpha=7").GetDouble("alpha", 0.0), 7.0);
  for (const char* yes : {"--on=true", "--on=1", "--on=yes", "--on"}) {
    EXPECT_TRUE(ParseOne(yes).GetBool("on", false)) << yes;
  }
  for (const char* no : {"--on=false", "--on=0", "--on=no"}) {
    EXPECT_FALSE(ParseOne(no).GetBool("on", true)) << no;
  }
}

TEST(FlagsDeathTest, IntRejectsJunkEmptyAndOverflow) {
  EXPECT_EXIT(ParseOne("--count=1x").GetInt("count", 0),
              ::testing::ExitedWithCode(2), "--count: expected an integer, got '1x'");
  EXPECT_EXIT(ParseOne("--count=").GetInt("count", 0), ::testing::ExitedWithCode(2),
              "--count: expected an integer");
  EXPECT_EXIT(ParseOne("--count=1.5").GetInt("count", 0),
              ::testing::ExitedWithCode(2), "expected an integer");
  EXPECT_EXIT(ParseOne("--count= 3").GetInt("count", 0), ::testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(ParseOne("--count=9223372036854775808").GetInt("count", 0),
              ::testing::ExitedWithCode(2), "in range");
}

TEST(FlagsDeathTest, DoubleRejectsJunkEmptyAndOverflow) {
  EXPECT_EXIT(ParseOne("--alpha=1x").GetDouble("alpha", 0.0),
              ::testing::ExitedWithCode(2), "--alpha: expected a number, got '1x'");
  EXPECT_EXIT(ParseOne("--alpha=abc").GetDouble("alpha", 0.0),
              ::testing::ExitedWithCode(2), "expected a number");
  EXPECT_EXIT(ParseOne("--alpha=").GetDouble("alpha", 0.0),
              ::testing::ExitedWithCode(2), "expected a number");
  EXPECT_EXIT(ParseOne("--alpha=1e999").GetDouble("alpha", 0.0),
              ::testing::ExitedWithCode(2), "in range");
}

TEST(FlagsDeathTest, BoolRejectsAnythingButTheSixSpellings) {
  EXPECT_EXIT(ParseOne("--on=ture").GetBool("on", false), ::testing::ExitedWithCode(2),
              "--on: expected true/false/1/0/yes/no, got 'ture'");
  EXPECT_EXIT(ParseOne("--on=").GetBool("on", false), ::testing::ExitedWithCode(2),
              "expected true/false");
  EXPECT_EXIT(ParseOne("--on=TRUE").GetBool("on", false), ::testing::ExitedWithCode(2),
              "expected true/false");
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({TablePrinter::Cell("x"), TablePrinter::Cell(1.5)});
  table.AddRow({TablePrinter::Cell("longer"), TablePrinter::Cell(int64_t{42})});
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(TablePrinterTest, CellFormatsDoubles) {
  EXPECT_EQ(TablePrinter::Cell(1.5), "1.5");
  EXPECT_EQ(TablePrinter::Cell(2.0), "2.0");
  EXPECT_EQ(TablePrinter::Cell(0.12345), "0.1235");  // 4 decimals, rounded
  EXPECT_EQ(TablePrinter::Cell(std::nan("")), "nan");
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter table({"a", "b"});
  table.AddRow({"plain", "with,comma"});
  table.AddRow({"quote\"inside", "line"});
  std::ostringstream os;
  table.WriteCsv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
}

// ------------------------------------------------------------------ Ring

std::vector<int> Contents(const Ring<int>& ring) {
  std::vector<int> contents;
  for (size_t i = 0; i < ring.size(); ++i) contents.push_back(ring[i]);
  return contents;
}

TEST(RingTest, AllocatesOnFirstPushAndWrapsAround) {
  Ring<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  const size_t capacity = ring.capacity();
  ASSERT_EQ(capacity, 8u);
  // Pop and push past the end of the buffer: the tail wraps to its front.
  for (int i = 6; i < 30; ++i) {
    EXPECT_EQ(ring.front(), i - 6);
    ring.pop_front();
    ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), capacity);  // steady size, no growth
  EXPECT_EQ(Contents(ring), (std::vector<int>{24, 25, 26, 27, 28, 29}));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);  // a drained ring keeps its buffer
}

TEST(RingTest, GrowthWhileWrappedKeepsOrder) {
  Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  for (int i = 0; i < 5; ++i) ring.pop_front();
  for (int i = 8; i < 13; ++i) ring.push_back(i);  // head at 5, tail wrapped
  ASSERT_EQ(ring.size(), ring.capacity());
  ring.push_back(13);  // full and wrapped: grows
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(Contents(ring), (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
}

TEST(RingTest, EraseFromTheMiddleWhileWrappedKeepsOrder) {
  // The relay store's kPriority pick: an entry anywhere in a wrapped ring.
  for (size_t pick = 0; pick < 7; ++pick) {
    Ring<int> ring;
    for (int i = 0; i < 8; ++i) ring.push_back(i);
    for (int i = 0; i < 6; ++i) ring.pop_front();
    for (int i = 8; i < 13; ++i) ring.push_back(i);  // 6..12, wrapped
    std::vector<int> expected = Contents(ring);
    ring.erase(pick);
    expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(pick));
    EXPECT_EQ(Contents(ring), expected) << "pick " << pick;
    ring.push_back(99);  // the tail is still where the rest expects it
    EXPECT_EQ(ring[ring.size() - 1], 99);
  }
}

/// Against std::deque over random pushes, pops, erases and clears, with
/// phases that swing the length from 0 to hundreds and back.
TEST(RingTest, MatchesDeque) {
  Ring<int> ring;
  std::deque<int> reference;
  Rng rng(17);
  int next = 0;
  for (int step = 0; step < 200000; ++step) {
    const bool push_phase = (step / 997) % 2 == 0;
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.0005) {
      ring.clear();
      reference.clear();
    } else if (u < 0.05) {
      if (reference.empty()) continue;
      const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(reference.size()) - 1));
      ring.erase(i);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (u < (push_phase ? 0.7 : 0.3)) {
      ring.push_back(next);
      reference.push_back(next);
      ++next;
    } else if (!reference.empty()) {
      ASSERT_EQ(ring.front(), reference.front());
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(ring.front(), reference.front());
      ASSERT_EQ(ring[reference.size() - 1], reference.back());
    }
  }
  EXPECT_EQ(Contents(ring), std::vector<int>(reference.begin(), reference.end()));
}

}  // namespace
}  // namespace besync
