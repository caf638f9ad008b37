// Log-bucketed latency histogram. Values are non-negative int64 (we use
// nanoseconds of virtual time); buckets are powers of two, so 63 buckets
// cover the full range with ~2x relative error on quantiles, which is
// plenty for p50/p95/p99 reporting. Recording is O(1) with no allocation
// after construction — cheap enough to live on message hot paths.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace mad2::obs {

class Histogram {
 public:
  void record(std::int64_t value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const;

  /// Quantile in [0, 1], linearly interpolated inside the hit bucket.
  /// Returns 0 when empty.
  [[nodiscard]] std::int64_t percentile(double q) const;
  [[nodiscard]] std::int64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::int64_t p95() const { return percentile(0.95); }
  [[nodiscard]] std::int64_t p99() const { return percentile(0.99); }

  void reset();

  /// "count=12 p50=1.2us p95=3.4us p99=3.9us max=4.1us" (times in us).
  [[nodiscard]] std::string to_string() const;

  static constexpr std::size_t kBuckets = 64;
  /// Upper bound (inclusive) of bucket `index`.
  [[nodiscard]] static std::int64_t bucket_limit(std::size_t index);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t sum_ = 0;
};

}  // namespace mad2::obs
