#ifndef BESYNC_UTIL_QUANTILE_H_
#define BESYNC_UTIL_QUANTILE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace besync {

/// Deterministic streaming quantile digest: a bounded set of weighted
/// centroids over the observed values, compressed by equal-weight binning of
/// the value-sorted centroid list. Used by the read path for per-read
/// staleness percentiles (p50/p95/p99) without retaining every sample.
///
/// Determinism: the digest contains no randomness — its state is a pure
/// function of the sequence of Add/Merge calls, so single-threaded runs
/// (every runner job is one) reproduce quantiles bitwise, and merging the
/// same digests in the same order always yields the same result (pinned by
/// tests/quantile_test.cc).
///
/// Accuracy: exact while the number of distinct insertions stays at or
/// below `compression` (no bin ever holds two values); afterwards each
/// reported quantile is off by at most ~1/compression in rank. Min and max
/// are always exact.
class QuantileDigest {
 public:
  /// `compression` = maximum centroids retained after a compaction; larger
  /// is more accurate and more memory. Values < 8 are clamped up to 8.
  explicit QuantileDigest(int compression = 256);

  /// Adds one sample with weight `weight` (default one observation).
  void Add(double value, int64_t weight = 1);

  /// Folds `other` into this digest (equivalent to re-adding its centroids
  /// in value order). Deterministic: merging the same operands in the same
  /// order always produces the same digest.
  void Merge(const QuantileDigest& other);

  /// Total weight added so far.
  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Exact extremes of everything added (0 when empty).
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Weighted mean of everything added (exact up to float summation).
  double mean() const;

  /// Value at quantile q in [0, 1], linearly interpolated between centroid
  /// midpoints and clamped to the exact [min, max]. Returns 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  struct Centroid {
    double mean = 0.0;
    int64_t weight = 0;
  };

  /// Sorts pending adds into the centroid list and, if over budget,
  /// rebins to at most `compression_` equal-weight centroids.
  void Compress();

  int compression_;
  /// Value-sorted after every Compress; unsorted tail appended by Add.
  std::vector<Centroid> centroids_;
  /// Centroids in [0, sorted_) are sorted and compacted.
  size_t sorted_ = 0;
  /// Compress's merge target, swapped with centroids_; its capacity is
  /// reused from one compaction to the next.
  std::vector<Centroid> scratch_;
  int64_t count_ = 0;
  double weighted_sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace besync

#endif  // BESYNC_UTIL_QUANTILE_H_
