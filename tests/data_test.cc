#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "data/buoy_trace.h"
#include "data/update_process.h"
#include "data/weight.h"
#include "data/workload.h"

namespace besync {
namespace {

TEST(PoissonProcessTest, InterArrivalMeanMatchesRate) {
  PoissonRandomWalkProcess process(2.0);
  Rng rng(1);
  double t = 0.0;
  const int kEvents = 50000;
  for (int i = 0; i < kEvents; ++i) t = process.NextUpdateTime(t, &rng);
  EXPECT_NEAR(t / kEvents, 0.5, 0.01);  // mean gap = 1/lambda
  EXPECT_DOUBLE_EQ(process.rate(), 2.0);
}

TEST(PoissonProcessTest, ZeroRateNeverFires) {
  PoissonRandomWalkProcess process(0.0);
  Rng rng(1);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(0.0, &rng)));
}

TEST(PoissonProcessTest, RandomWalkStepsAreUnit) {
  PoissonRandomWalkProcess process(1.0);
  Rng rng(2);
  double value = 0.0;
  int ups = 0;
  for (int i = 0; i < 10000; ++i) {
    const double next = process.ApplyUpdate(value, &rng);
    EXPECT_DOUBLE_EQ(std::abs(next - value), 1.0);
    ups += next > value;
    value = next;
  }
  EXPECT_NEAR(ups / 10000.0, 0.5, 0.02);  // symmetric walk
}

TEST(BernoulliProcessTest, UpdatesOnIntegerSeconds) {
  BernoulliRandomWalkProcess process(0.5);
  Rng rng(3);
  double t = 0.3;
  for (int i = 0; i < 1000; ++i) {
    t = process.NextUpdateTime(t, &rng);
    EXPECT_DOUBLE_EQ(t, std::floor(t));  // integer times only
  }
}

TEST(BernoulliProcessTest, ProbabilityOneFiresEverySecond) {
  BernoulliRandomWalkProcess process(1.0);
  Rng rng(4);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng), 1.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.0, &rng), 2.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.5, &rng), 2.0);
}

TEST(BernoulliProcessTest, LongRunRateMatchesProbability) {
  const double p = 0.2;
  BernoulliRandomWalkProcess process(p);
  Rng rng(5);
  double t = 0.0;
  int count = 0;
  while (t < 100000.0) {
    t = process.NextUpdateTime(t, &rng);
    if (t < 100000.0) ++count;
  }
  EXPECT_NEAR(count / 100000.0, p, 0.01);
}

TEST(TraceProcessTest, ReplaysPointsInOrder) {
  TraceProcess process({{1.0, 10.0}, {2.0, 20.0}, {4.0, 40.0}});
  Rng rng(1);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng), 1.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(0.0, &rng), 10.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.0, &rng), 2.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(10.0, &rng), 20.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(2.0, &rng), 4.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(20.0, &rng), 40.0);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(4.0, &rng)));
}

TEST(TraceProcessTest, ResetRewinds) {
  TraceProcess process({{1.0, 10.0}, {2.0, 20.0}});
  Rng rng(1);
  process.NextUpdateTime(0.0, &rng);
  process.ApplyUpdate(0.0, &rng);
  process.Reset();
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng), 1.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(0.0, &rng), 10.0);
}

TEST(TraceProcessTest, RateIsPointsOverSpan) {
  TraceProcess process({{0.0, 1.0}, {10.0, 2.0}, {20.0, 3.0}});
  EXPECT_DOUBLE_EQ(process.rate(), 0.1);  // 2 gaps over 20 s
}

TEST(ProductWeightTest, MultipliesFactors) {
  ProductWeight weight(MakeConstantWeight(3.0), MakeConstantWeight(2.0));
  EXPECT_DOUBLE_EQ(weight.ValueAt(0.0), 6.0);
  EXPECT_DOUBLE_EQ(weight.average(), 6.0);
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, RejectsInvalidConfig) {
  // Each bad field (NaN and infinite rates included) is an InvalidArgument
  // naming it, from ValidateWorkloadConfig and MakeWorkload alike.
  struct Case {
    const char* message;
    void (*apply)(WorkloadConfig*);
  };
  const Case cases[] = {
      {"num_sources", [](WorkloadConfig* c) { c->num_sources = 0; }},
      {"objects_per_source", [](WorkloadConfig* c) { c->objects_per_source = 0; }},
      {"num_caches", [](WorkloadConfig* c) { c->num_caches = 0; }},
      {"rate range", [](WorkloadConfig* c) { c->rate_lo = -1.0; }},
      {"rate range", [](WorkloadConfig* c) { c->rate_lo = std::nan(""); }},
      {"rate range", [](WorkloadConfig* c) { c->rate_hi = -1.0; }},
      {"rate range", [](WorkloadConfig* c) { c->rate_hi = std::nan(""); }},
      {"rate range", [](WorkloadConfig* c) { c->rate_hi = HUGE_VAL; }},
      {"slow_rate", [](WorkloadConfig* c) { c->slow_rate = -0.5; }},
      {"slow_rate", [](WorkloadConfig* c) { c->slow_rate = std::nan(""); }},
      {"slow_rate", [](WorkloadConfig* c) { c->slow_rate = HUGE_VAL; }},
      {"fast_rate", [](WorkloadConfig* c) { c->fast_rate = std::nan(""); }},
      {"fast_rate", [](WorkloadConfig* c) { c->fast_rate = HUGE_VAL; }},
      // A finite but huge update rate's events never let the run finish.
      {"rate_hi", [](WorkloadConfig* c) { c->rate_hi = 1e300; }},
      {"rate_hi", [](WorkloadConfig* c) { c->rate_hi = 2.0 * kMaxUpdateRate; }},
      {"slow_rate", [](WorkloadConfig* c) { c->slow_rate = 1e300; }},
      {"fast_rate", [](WorkloadConfig* c) { c->fast_rate = 1e300; }},
      {"relay_bandwidth_factor",
       [](WorkloadConfig* c) { c->relay_bandwidth_factor = -1.0; }},
      {"relay_bandwidth_factor",
       [](WorkloadConfig* c) { c->relay_bandwidth_factor = std::nan(""); }},
      {"relay_bandwidth_factor",
       [](WorkloadConfig* c) { c->relay_bandwidth_factor = HUGE_VAL; }},
      {"weight_fluctuation_amplitude",
       [](WorkloadConfig* c) { c->weight_fluctuation_amplitude = -0.1; }},
      {"weight_fluctuation_amplitude",
       [](WorkloadConfig* c) { c->weight_fluctuation_amplitude = 1.0; }},
      {"weight_fluctuation_amplitude",
       [](WorkloadConfig* c) { c->weight_fluctuation_amplitude = std::nan(""); }},
      {"heavy_weight", [](WorkloadConfig* c) { c->heavy_weight = -1.0; }},
      {"heavy_weight", [](WorkloadConfig* c) { c->heavy_weight = std::nan(""); }},
      {"heavy_weight", [](WorkloadConfig* c) { c->heavy_weight = HUGE_VAL; }},
      // A NaN crash duration never restarts its cache; a NaN or infinite
      // window injects no event at all.
      {"crash_duration",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.crash_duration = std::nan("");
       }},
      {"crash_duration",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.crash_duration = 0.0;
       }},
      {"flap_duration",
       [](WorkloadConfig* c) {
         c->fault.link_flaps = 1;
         c->fault.flap_duration = std::nan("");
       }},
      {"slow_duration",
       [](WorkloadConfig* c) {
         c->fault.slowdowns = 1;
         c->fault.slow_duration = std::nan("");
       }},
      {"slow_factor",
       [](WorkloadConfig* c) {
         c->fault.slowdowns = 1;
         c->fault.slow_factor = std::nan("");
       }},
      {"slow_factor",
       [](WorkloadConfig* c) {
         c->fault.slowdowns = 1;
         c->fault.slow_factor = 1.5;
       }},
      {"window_start",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.window_start = HUGE_VAL;
       }},
      {"window_start",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.window_start = std::nan("");
       }},
      {"window_start",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.window_start = -1.0;
       }},
      {"window_end",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.window_end = std::nan("");
       }},
      {"window_end",
       [](WorkloadConfig* c) {
         c->fault.cache_crashes = 1;
         c->fault.window_end = HUGE_VAL;
       }},
  };
  WorkloadConfig base;
  base.num_sources = 1;
  base.objects_per_source = 1;
  ASSERT_TRUE(ValidateWorkloadConfig(base).ok());
  ASSERT_TRUE(MakeWorkload(base).ok());
  // The bounds themselves are accepted.
  WorkloadConfig at_bounds = base;
  at_bounds.read.read_rate = kMaxReadRate;
  at_bounds.read.zipf_exponent = kMaxZipfExponent;
  at_bounds.rate_hi = kMaxUpdateRate;
  at_bounds.slow_rate = kMaxUpdateRate;
  at_bounds.fast_rate = kMaxUpdateRate;
  EXPECT_TRUE(ValidateWorkloadConfig(at_bounds).ok());
  for (const Case& c : cases) {
    WorkloadConfig config = base;
    c.apply(&config);
    const Status status = ValidateWorkloadConfig(config);
    EXPECT_TRUE(status.IsInvalidArgument()) << c.message << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.message), std::string::npos) << status.ToString();
    EXPECT_EQ(MakeWorkload(config).status().ToString(), status.ToString());
  }
}

TEST(WorkloadTest, RejectsInvalidReadConfig) {
  // Each bad read field (NaN included) is an InvalidArgument naming it.
  struct Case {
    const char* field;
    void (*apply)(ReadWorkloadConfig*);
  };
  const Case cases[] = {
      {"read_rate", [](ReadWorkloadConfig* r) { r->read_rate = -1.0; }},
      {"read_rate", [](ReadWorkloadConfig* r) { r->read_rate = std::nan(""); }},
      {"capacity", [](ReadWorkloadConfig* r) { r->capacity = -3; }},
      {"zipf_exponent",
       [](ReadWorkloadConfig* r) {
         r->read_rate = 1.0;
         r->zipf_exponent = 0.0;
       }},
      {"zipf_exponent",
       [](ReadWorkloadConfig* r) {
         r->read_rate = 1.0;
         r->zipf_exponent = std::nan("");
       }},
      // The rejection sampler's acceptance collapses at large exponents,
      // and an infinite or huge rate's gaps round away against the clock:
      // each would hang the read loop instead of failing.
      {"zipf_exponent",
       [](ReadWorkloadConfig* r) {
         r->read_rate = 1.0;
         r->zipf_exponent = 60.0;
       }},
      {"zipf_exponent",
       [](ReadWorkloadConfig* r) {
         r->read_rate = 1.0;
         r->zipf_exponent = std::numeric_limits<double>::infinity();
       }},
      {"read_rate",
       [](ReadWorkloadConfig* r) { r->read_rate = std::numeric_limits<double>::infinity(); }},
      {"read_rate", [](ReadWorkloadConfig* r) { r->read_rate = 1e20; }},
  };
  WorkloadConfig base;
  base.num_sources = 1;
  base.objects_per_source = 2;
  ASSERT_TRUE(MakeWorkload(base).ok());
  // The bounds themselves are accepted.
  WorkloadConfig at_bounds = base;
  at_bounds.read.read_rate = kMaxReadRate;
  at_bounds.read.zipf_exponent = kMaxZipfExponent;
  EXPECT_TRUE(ValidateWorkloadConfig(at_bounds).ok());
  for (const Case& c : cases) {
    WorkloadConfig config = base;
    c.apply(&config.read);
    const Status status = MakeWorkload(config).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c.field << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.field), std::string::npos) << status.ToString();
  }
}

TEST(WorkloadTest, RejectsBernoulliProbabilityAboveOne) {
  WorkloadConfig config;
  config.update_model = WorkloadConfig::UpdateModel::kBernoulli;
  config.rate_hi = 2.0;
  EXPECT_FALSE(MakeWorkload(config).ok());
}

TEST(WorkloadTest, ShapesAndGrouping) {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 5;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->total_objects(), 15);
  for (int64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(workload->objects[i].index, i);
    EXPECT_EQ(workload->objects[i].source_index, i / 5);
    EXPECT_NE(workload->objects[i].process, nullptr);
    EXPECT_NE(workload->objects[i].weight, nullptr);
  }
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  WorkloadConfig config;
  config.num_sources = 2;
  config.objects_per_source = 10;
  config.seed = 99;
  auto a = MakeWorkload(config);
  auto b = MakeWorkload(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t i = 0; i < a->total_objects(); ++i) {
    EXPECT_DOUBLE_EQ(a->objects[i].lambda, b->objects[i].lambda);
    EXPECT_EQ(a->objects[i].rng_seed, b->objects[i].rng_seed);
  }
}

TEST(WorkloadTest, UniformRatesWithinRange) {
  WorkloadConfig config;
  config.objects_per_source = 1000;
  config.rate_lo = 0.1;
  config.rate_hi = 0.9;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  double sum = 0.0;
  for (const auto& spec : workload->objects) {
    EXPECT_GE(spec.lambda, 0.1);
    EXPECT_LT(spec.lambda, 0.9);
    sum += spec.lambda;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.03);
}

TEST(WorkloadTest, HalfSlowHalfFastSplit) {
  WorkloadConfig config;
  config.objects_per_source = 100;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.slow_rate = 0.01;
  config.fast_rate = 1.0;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int slow = 0;
  int fast = 0;
  for (const auto& spec : workload->objects) {
    if (spec.lambda == 0.01) ++slow;
    if (spec.lambda == 1.0) ++fast;
  }
  EXPECT_EQ(slow, 50);
  EXPECT_EQ(fast, 50);
}

TEST(WorkloadTest, HalfHeavyWeights) {
  WorkloadConfig config;
  config.objects_per_source = 100;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.heavy_weight = 10.0;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int heavy = 0;
  for (const auto& spec : workload->objects) {
    const double w = spec.weight->average();
    EXPECT_TRUE(w == 1.0 || w == 10.0);
    heavy += w == 10.0;
  }
  EXPECT_EQ(heavy, 50);
}

TEST(WorkloadTest, WeightAndRateSplitsAreIndependent) {
  // With independent random halves, the overlap of heavy & fast should be
  // around 25% of objects, not 0% or 50%.
  WorkloadConfig config;
  config.objects_per_source = 1000;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int heavy_fast = 0;
  for (const auto& spec : workload->objects) {
    if (spec.weight->average() == 10.0 && spec.lambda == 1.0) ++heavy_fast;
  }
  EXPECT_GT(heavy_fast, 150);
  EXPECT_LT(heavy_fast, 350);
}

TEST(WorkloadTest, FluctuatingWeightsFlagged) {
  WorkloadConfig config;
  config.weight_fluctuation_amplitude = 0.5;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE(workload->has_fluctuating_weights);
}

// -------------------------------------------------------------- Buoy trace

TEST(BuoyTraceTest, ShapeAndRange) {
  BuoyTraceConfig config;
  config.num_buoys = 5;
  config.duration = 86400.0;  // 1 day
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces->size(), 10u);  // 5 buoys x 2 components
  for (const auto& trace : *traces) {
    EXPECT_EQ(trace.size(), 144u);  // 86400 / 600
    for (const auto& point : trace) {
      EXPECT_GE(point.value, 0.0);
      EXPECT_LE(point.value, 10.0);
    }
  }
}

TEST(BuoyTraceTest, TypicalValuesNearFive) {
  BuoyTraceConfig config;
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  double sum = 0.0;
  int64_t count = 0;
  for (const auto& trace : *traces) {
    for (const auto& point : trace) {
      sum += point.value;
      ++count;
    }
  }
  // The paper: values "generally in the range of 0-10, with typical values
  // of around 5".
  EXPECT_NEAR(sum / count, 5.0, 1.0);
}

TEST(BuoyTraceTest, MeasurementsEveryTenMinutes) {
  BuoyTraceConfig config;
  config.num_buoys = 1;
  config.duration = 6000.0;
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  const auto& trace = (*traces)[0];
  for (size_t k = 0; k < trace.size(); ++k) {
    EXPECT_DOUBLE_EQ(trace[k].time, 600.0 * (k + 1));
  }
}

TEST(BuoyTraceTest, WorkloadUsesOneSourcePerBuoy) {
  BuoyTraceConfig config;
  config.num_buoys = 4;
  config.duration = 86400.0;
  auto workload = MakeBuoyWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->num_sources, 4);
  EXPECT_EQ(workload->objects_per_source, 2);
  EXPECT_EQ(workload->total_objects(), 8);
  for (const auto& spec : workload->objects) {
    EXPECT_DOUBLE_EQ(spec.weight->average(), 1.0);  // equally weighted
    EXPECT_GT(spec.lambda, 0.0);
  }
}

TEST(BuoyTraceTest, DeterministicForSeed) {
  BuoyTraceConfig config;
  config.num_buoys = 2;
  config.duration = 36000.0;
  auto a = GenerateBuoyTraces(config);
  auto b = GenerateBuoyTraces(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    for (size_t k = 0; k < (*a)[i].size(); ++k) {
      EXPECT_DOUBLE_EQ((*a)[i][k].value, (*b)[i][k].value);
    }
  }
}

TEST(BuoyTraceTest, RejectsInvalidConfigs) {
  BuoyTraceConfig config;
  config.num_buoys = 0;
  EXPECT_FALSE(GenerateBuoyTraces(config).ok());
  config = BuoyTraceConfig{};
  config.duration = std::nan("");
  EXPECT_FALSE(GenerateBuoyTraces(config).ok());
  // A finite run length whose step count is out of bounds (here out of
  // int64_t range too) is an InvalidArgument, not an allocation abort.
  config = BuoyTraceConfig{};
  config.duration = 2e300;
  const auto huge = GenerateBuoyTraces(config);
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsInvalidArgument()) << huge.status().ToString();
  config.duration = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(GenerateBuoyTraces(config).status().IsInvalidArgument());
}

}  // namespace
}  // namespace besync
