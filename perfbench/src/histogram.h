// Log-linear latency histogram with no dependencies.
//
// Values (nanoseconds) below 2^kSubBits land in exact unit buckets; above
// that, each power-of-two octave is split into 2^kSubBits equal buckets,
// so a reported percentile is within 1/2^(kSubBits+1) (0.4%) of the true
// sample. Percentiles use the nearest-rank rule and are refused when fewer
// than kMinBeyond samples lie above them: a tail figure resting on a
// handful of samples does not repeat from run to run.

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int64_t kMinBeyond = 10;

  Histogram() : buckets_(static_cast<size_t>(65) << kSubBits, 0) {}

  void Add(int64_t value) {
    if (value < 0) {
      value = 0;
    }
    ++buckets_[Index(static_cast<uint64_t>(value))];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  int64_t count() const { return count_; }

  /// Samples strictly above the nearest-rank position of quantile q.
  int64_t Beyond(double q) const { return count_ - Rank(q); }

  /// The q-quantile (0 < q < 1) as the midpoint of its bucket, or nullopt
  /// when fewer than kMinBeyond samples lie beyond it.
  std::optional<double> Percentile(double q) const {
    if (count_ == 0 || Beyond(q) < kMinBeyond) {
      return std::nullopt;
    }
    const int64_t rank = Rank(q);
    int64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += static_cast<int64_t>(buckets_[i]);
      if (seen >= rank) {
        return Midpoint(i);
      }
    }
    return std::nullopt;
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < (uint64_t{1} << kSubBits)) {
      return static_cast<size_t>(v);
    }
    const int e = 63 - std::countl_zero(v);
    const uint64_t sub =
        (v >> (e - kSubBits)) & ((uint64_t{1} << kSubBits) - 1);
    return (static_cast<size_t>(e - kSubBits + 1) << kSubBits) +
           static_cast<size_t>(sub);
  }

  static double Midpoint(size_t index) {
    const size_t block = index >> kSubBits;
    const uint64_t sub = index & ((size_t{1} << kSubBits) - 1);
    if (block == 0) {
      return static_cast<double>(sub);
    }
    const int shift = static_cast<int>(block) - 1;
    const double lower =
        std::ldexp(static_cast<double>((uint64_t{1} << kSubBits) + sub), shift);
    return lower + std::ldexp(1.0, shift) / 2.0;
  }

  int64_t Rank(double q) const {
    const auto rank =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(count_)));
    return rank < 1 ? 1 : rank;
  }

  std::vector<uint64_t> buckets_;
  int64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
