#include <cmath>
#include <cstdint>
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

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(5);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = rng.Zipf(10, 1.0);
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

}  // namespace
}  // namespace besync
