#include "obs/histogram.hpp"

#include <bit>
#include <cstdio>

namespace mad2::obs {

namespace {

// Bucket 0 holds value 0; bucket i >= 1 holds (2^(i-1), 2^i].
std::size_t bucket_index(std::int64_t value) {
  if (value <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(value));
}

}  // namespace

std::int64_t Histogram::bucket_limit(std::size_t index) {
  if (index == 0) return 0;
  if (index >= 63) return INT64_MAX;
  return static_cast<std::int64_t>(1) << index;
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;
  ++buckets_[bucket_index(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::int64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile among count_ samples (1-based, ceil).
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_) + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;

  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    // Interpolate within (lower, upper] by the rank's position among the
    // bucket's samples; clamp to the recorded extremes so a one-bucket
    // histogram reports its true min/max rather than bucket edges.
    const std::int64_t lower = i == 0 ? 0 : bucket_limit(i - 1);
    const std::int64_t upper = bucket_limit(i);
    const double within = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets_[i]);
    double value = static_cast<double>(lower) +
                   within * static_cast<double>(upper - lower);
    if (value < static_cast<double>(min())) value = static_cast<double>(min());
    if (value > static_cast<double>(max_)) value = static_cast<double>(max_);
    return static_cast<std::int64_t>(value);
  }
  return max_;
}

void Histogram::reset() { *this = Histogram{}; }

std::string Histogram::to_string() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "count=%llu p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus",
                static_cast<unsigned long long>(count_),
                static_cast<double>(p50()) / 1000.0,
                static_cast<double>(p95()) / 1000.0,
                static_cast<double>(p99()) / 1000.0,
                static_cast<double>(max_) / 1000.0);
  return buffer;
}

}  // namespace mad2::obs
