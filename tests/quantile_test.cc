// QuantileDigest: exactness below the compression threshold, rank-bounded
// accuracy on large fixed-seed streams, deterministic merging, and exact
// extremes — the properties the read path's staleness percentiles rely on.

#include "util/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.h"

namespace besync {
namespace {

TEST(QuantileDigestTest, EmptyDigestIsZero) {
  QuantileDigest digest;
  EXPECT_TRUE(digest.empty());
  EXPECT_EQ(digest.count(), 0);
  EXPECT_EQ(digest.Quantile(0.5), 0.0);
  EXPECT_EQ(digest.min(), 0.0);
  EXPECT_EQ(digest.max(), 0.0);
  EXPECT_EQ(digest.mean(), 0.0);
}

TEST(QuantileDigestTest, ExactBelowCompression) {
  // n distinct values under the compression threshold: every centroid keeps
  // weight 1, so the midpoint quantiles are the values themselves.
  const int n = 100;
  std::vector<double> values(n);
  for (int i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  Rng rng(11);
  rng.Shuffle(&values);

  QuantileDigest digest(256);
  for (double value : values) digest.Add(value);
  ASSERT_EQ(digest.count(), n);
  for (int i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / n;
    EXPECT_DOUBLE_EQ(digest.Quantile(q), static_cast<double>(i + 1)) << "i=" << i;
  }
  EXPECT_EQ(digest.min(), 1.0);
  EXPECT_EQ(digest.max(), static_cast<double>(n));
  EXPECT_NEAR(digest.mean(), (n + 1) / 2.0, 1e-12);
}

/// Exact sorted-sample bracket for quantile q with rank slack `slack`:
/// the digest's answer must land between the sorted values at ranks
/// floor(q*n) -/+ slack.
void ExpectWithinRankWindow(const std::vector<double>& sorted, double q,
                            double digest_value, int64_t slack) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  const int64_t rank = static_cast<int64_t>(q * static_cast<double>(n));
  const int64_t lo = std::max<int64_t>(rank - slack, 0);
  const int64_t hi = std::min<int64_t>(rank + slack, n - 1);
  EXPECT_GE(digest_value, sorted[lo]) << "q=" << q;
  EXPECT_LE(digest_value, sorted[hi]) << "q=" << q;
}

TEST(QuantileDigestTest, LargeStreamMatchesSortedSampleWithinRankTolerance) {
  const int64_t n = 50000;
  Rng rng(1234);
  std::vector<double> values;
  values.reserve(n);
  QuantileDigest digest(256);
  for (int64_t i = 0; i < n; ++i) {
    // Mix of a heavy body and a long tail — the staleness-like shape.
    const double value = rng.Exponential(1.0) + 0.1 * rng.NextDouble();
    values.push_back(value);
    digest.Add(value);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(digest.count(), n);

  // Equal-weight bins of 256 give ~n/256 rank resolution; allow 2x that.
  const int64_t slack = 2 * (n / 256);
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    ExpectWithinRankWindow(values, q, digest.Quantile(q), slack);
  }
  EXPECT_EQ(digest.min(), values.front());
  EXPECT_EQ(digest.max(), values.back());
}

TEST(QuantileDigestTest, MergeIsDeterministic) {
  // Four shards of one fixed-seed stream, merged in a fixed order twice:
  // both merged digests must agree bitwise on every quantile.
  Rng rng(77);
  std::vector<QuantileDigest> shards_a(4, QuantileDigest(128));
  std::vector<QuantileDigest> shards_b(4, QuantileDigest(128));
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.Normal(10.0, 3.0));
  for (size_t i = 0; i < values.size(); ++i) {
    shards_a[i % 4].Add(values[i]);
    shards_b[i % 4].Add(values[i]);
  }
  QuantileDigest merged_a(128), merged_b(128);
  for (int s = 0; s < 4; ++s) {
    merged_a.Merge(shards_a[s]);
    merged_b.Merge(shards_b[s]);
  }
  ASSERT_EQ(merged_a.count(), merged_b.count());
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged_a.Quantile(q), merged_b.Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(merged_a.mean(), merged_b.mean());
  EXPECT_EQ(merged_a.min(), merged_b.min());
  EXPECT_EQ(merged_a.max(), merged_b.max());
}

TEST(QuantileDigestTest, MergedShardsTrackTheUnshardedDigest) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 30000; ++i) values.push_back(rng.Uniform(0.0, 100.0));

  QuantileDigest whole(256);
  std::vector<QuantileDigest> shards(3, QuantileDigest(256));
  for (size_t i = 0; i < values.size(); ++i) {
    whole.Add(values[i]);
    shards[i % 3].Add(values[i]);
  }
  QuantileDigest merged(256);
  for (const QuantileDigest& shard : shards) merged.Merge(shard);
  ASSERT_EQ(merged.count(), whole.count());

  std::sort(values.begin(), values.end());
  const int64_t slack = 2 * (static_cast<int64_t>(values.size()) / 256);
  for (double q : {0.5, 0.95, 0.99}) {
    ExpectWithinRankWindow(values, q, merged.Quantile(q), slack);
    ExpectWithinRankWindow(values, q, whole.Quantile(q), slack);
  }
}

TEST(QuantileDigestTest, WeightedAddAndReset) {
  QuantileDigest digest(64);
  digest.Add(1.0, 3);
  digest.Add(2.0, 1);
  EXPECT_EQ(digest.count(), 4);
  // Ranks 0..2 are the weight-3 value; the p50 midpoint sits inside it.
  EXPECT_DOUBLE_EQ(digest.Quantile(0.25), 1.0);
  EXPECT_NEAR(digest.mean(), 1.25, 1e-12);
  digest.Reset();
  EXPECT_TRUE(digest.empty());
  EXPECT_EQ(digest.Quantile(0.5), 0.0);
  digest.Add(7.0);
  EXPECT_EQ(digest.count(), 1);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.5), 7.0);
}

/// The digest as it compacted before merge compaction: every Compress
/// stable-sorts the whole centroid array, then rebins into a new vector.
/// Kept as the reference the merge must reproduce bit for bit.
class WholeSortDigest {
 public:
  void Add(double value, int64_t weight) {
    centroids_.push_back({value, weight});
    count_ += weight;
    if (centroids_.size() >= 2 * kCompression) Compress();
  }

  /// Quantile over a whole-sorted copy, as QuantileDigest::Quantile reads.
  std::vector<std::pair<double, int64_t>> Sorted() const {
    std::vector<std::pair<double, int64_t>> sorted = centroids_;
    StableSort(&sorted);
    return sorted;
  }

 private:
  static constexpr size_t kCompression = 256;

  static void StableSort(std::vector<std::pair<double, int64_t>>* centroids) {
    std::stable_sort(centroids->begin(), centroids->end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  void Compress() {
    StableSort(&centroids_);
    const double target = static_cast<double>(count_) / kCompression;
    std::vector<std::pair<double, int64_t>> packed;
    double mean = 0.0;
    int64_t weight = 0;
    double sum = 0.0;
    for (const auto& [value, w] : centroids_) {
      if (weight > 0 && static_cast<double>(weight + w) > target &&
          static_cast<double>(weight) >= 0.5 * target) {
        mean = sum / static_cast<double>(weight);
        packed.push_back({mean, weight});
        weight = 0;
        sum = 0.0;
      }
      weight += w;
      sum += value * static_cast<double>(w);
    }
    if (weight > 0) packed.push_back({sum / static_cast<double>(weight), weight});
    centroids_ = std::move(packed);
  }

  std::vector<std::pair<double, int64_t>> centroids_;
  int64_t count_ = 0;
};

TEST(QuantileDigestTest, MergeCompactionEqualsWholeArrayStableSort) {
  // Streams with many tied values (a handful of distinct values, and
  // ties between new samples and compacted bin means) and mixed weights:
  // every quantile must equal the one read from the whole-sort digest's
  // centroids, through many compactions.
  for (const int distinct : {1, 3, 17, 1000000}) {
    QuantileDigest digest;
    WholeSortDigest reference;
    Rng rng(static_cast<uint64_t>(distinct));
    for (int i = 0; i < 20000; ++i) {
      const double value =
          static_cast<double>(rng.UniformInt(0, distinct - 1)) * 0.125;
      const int64_t weight = rng.Bernoulli(0.2) ? rng.UniformInt(2, 40) : 1;
      digest.Add(value, weight);
      reference.Add(value, weight);
    }
    // Rebuild the reference's view through a fresh digest fed its sorted
    // centroids: with no compaction pending that digest reads them as is.
    const auto sorted = reference.Sorted();
    ASSERT_LT(sorted.size(), 512u);
    QuantileDigest replay;
    for (const auto& [value, weight] : sorted) replay.Add(value, weight);
    EXPECT_EQ(digest.count(), replay.count());
    // The tails interpolate toward the exact min and max, which the replay
    // sees only as bin means; the interior reads the centroids alone.
    for (int q = 10; q <= 990; ++q) {
      const double quantile = q / 1000.0;
      ASSERT_EQ(digest.Quantile(quantile), replay.Quantile(quantile))
          << "distinct=" << distinct << " q=" << quantile;
    }
  }
}

}  // namespace
}  // namespace besync
