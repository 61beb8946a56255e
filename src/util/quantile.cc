#include "util/quantile.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

QuantileDigest::QuantileDigest(int compression)
    : compression_(std::max(compression, 8)) {
  centroids_.reserve(static_cast<size_t>(compression_) * 2 + 1);
}

void QuantileDigest::Add(double value, int64_t weight) {
  BESYNC_CHECK_GE(weight, 0);
  if (weight == 0) return;
  centroids_.push_back({value, weight});
  count_ += weight;
  weighted_sum_ += value * static_cast<double>(weight);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (centroids_.size() >= static_cast<size_t>(compression_) * 2) Compress();
}

void QuantileDigest::Merge(const QuantileDigest& other) {
  // Other's centroids are re-added in its internal (sorted-prefix, then
  // insertion) order — a pure function of the two operands, so repeated
  // merges of the same digests agree bitwise.
  for (const Centroid& centroid : other.centroids_) {
    Add(centroid.mean, centroid.weight);
  }
}

void QuantileDigest::Compress() {
  if (centroids_.size() <= static_cast<size_t>(sorted_)) return;
  // Value order, ties in insertion order (deterministic with duplicate
  // sample values): the result of a whole-array stable_sort. The prefix
  // is sorted, so stable-sorting only the tail and merging it after the
  // prefix on ties gives that same order. A prefix whose rebinned means
  // came out of order by a rounding (a bin's mean can land an ulp above
  // the next bin's) is not sorted; it takes the whole-array sort.
  const auto by_mean = [](const Centroid& a, const Centroid& b) { return a.mean < b.mean; };
  const auto prefix_end = centroids_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  if (std::is_sorted(centroids_.begin(), prefix_end, by_mean)) {
    std::stable_sort(prefix_end, centroids_.end(), by_mean);
    scratch_.resize(centroids_.size());
    std::merge(centroids_.begin(), prefix_end, prefix_end, centroids_.end(),
               scratch_.begin(), by_mean);
    centroids_.swap(scratch_);
  } else {
    std::stable_sort(centroids_.begin(), centroids_.end(), by_mean);
  }
  if (centroids_.size() > static_cast<size_t>(compression_)) {
    // Equal-weight rebinning: greedily pack value-adjacent centroids into
    // bins of ~count/compression weight each, in place — a bin is written
    // only after every centroid it holds has been read.
    const double target = static_cast<double>(count_) / compression_;
    size_t packed = 0;
    Centroid bin;
    double bin_sum = 0.0;
    for (const Centroid& centroid : centroids_) {
      if (bin.weight > 0 &&
          static_cast<double>(bin.weight + centroid.weight) > target &&
          static_cast<double>(bin.weight) >= 0.5 * target) {
        bin.mean = bin_sum / static_cast<double>(bin.weight);
        centroids_[packed++] = bin;
        bin = Centroid{};
        bin_sum = 0.0;
      }
      bin.weight += centroid.weight;
      bin_sum += centroid.mean * static_cast<double>(centroid.weight);
    }
    if (bin.weight > 0) {
      bin.mean = bin_sum / static_cast<double>(bin.weight);
      centroids_[packed++] = bin;
    }
    centroids_.resize(packed);
  }
  sorted_ = centroids_.size();
}

double QuantileDigest::mean() const {
  return count_ > 0 ? weighted_sum_ / static_cast<double>(count_) : 0.0;
}

double QuantileDigest::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Quantiles read a fully-compacted view; Compress is not const, so sort a
  // scratch copy when unsorted adds are pending (queries are rare — once per
  // stats() call — while adds are hot).
  const std::vector<Centroid>* centroids = &centroids_;
  std::vector<Centroid> scratch;
  if (sorted_ != centroids_.size()) {
    scratch = centroids_;
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const Centroid& a, const Centroid& b) { return a.mean < b.mean; });
    centroids = &scratch;
  }
  // Each centroid sits at the midpoint of its weight span; interpolate
  // between neighbours, clamping the tails to the exact extremes.
  const double rank = q * static_cast<double>(count_);
  double cumulative = 0.0;
  double previous_mean = min_;
  double previous_mid = 0.0;
  for (const Centroid& centroid : *centroids) {
    const double mid = cumulative + 0.5 * static_cast<double>(centroid.weight);
    if (rank <= mid) {
      const double span = mid - previous_mid;
      const double fraction = span > 0.0 ? (rank - previous_mid) / span : 1.0;
      return previous_mean + fraction * (centroid.mean - previous_mean);
    }
    cumulative += static_cast<double>(centroid.weight);
    previous_mean = centroid.mean;
    previous_mid = mid;
  }
  return max_;
}

void QuantileDigest::Reset() {
  centroids_.clear();
  sorted_ = 0;
  count_ = 0;
  weighted_sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

}  // namespace besync
