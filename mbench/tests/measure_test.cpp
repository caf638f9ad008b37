// Unit tests of the benchmark's measurement helpers: the tail-percentile
// rule, the seeded input generators and the peak-RSS reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "measure.hpp"

namespace mbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // descending, so the helpers must sort
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(quantile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(quantile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(quantile(one_to(100), 1.0), 100.0);
  EXPECT_EQ(quantile(one_to(100), 0.0), 1.0);
}

TEST(TailPercentile, KeepsTargetWhenTenSamplesLieBeyond) {
  const Tail tail = tail_percentile(one_to(1000), 0.99);
  EXPECT_EQ(tail.q, 0.99);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.count, 1000u);
}

TEST(TailPercentile, FallsBackToHighestSupportedQuantile) {
  // 200 samples support at most q = 0.95: exactly ten lie beyond it.
  const Tail tail = tail_percentile(one_to(200), 0.99);
  EXPECT_DOUBLE_EQ(tail.q, 0.95);
  EXPECT_EQ(tail.value, 190.0);
  EXPECT_EQ(tail.count, 200u);
  const std::vector<double> values = one_to(200);
  std::size_t beyond = 0;
  for (double v : values) beyond += v > tail.value ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesReportsNothing) {
  const Tail tail = tail_percentile(one_to(10), 0.99);
  EXPECT_EQ(tail.q, 0.0);
  EXPECT_EQ(tail.value, 0.0);
  EXPECT_EQ(tail.count, 10u);
}

TEST(PingpongPlan, SameSeedSameSequence) {
  const std::vector<Request> a = pingpong_plan(42, 5000);
  const std::vector<Request> b = pingpong_plan(42, 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].body_bytes, b[i].body_bytes);
  }
}

TEST(PingpongPlan, DifferentSeedsDiffer) {
  const std::vector<Request> a = pingpong_plan(1, 1000);
  const std::vector<Request> b = pingpong_plan(2, 1000);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += a[i].body_bytes == b[i].body_bytes ? 1 : 0;
  }
  EXPECT_LT(same, a.size() / 2);
}

TEST(PingpongPlan, SizesAreLogUniformOverTheRange) {
  const std::vector<Request> plan = pingpong_plan(7, 20000);
  std::size_t small[2] = {0, 0};
  std::size_t large[2] = {0, 0};
  std::size_t per_channel[2] = {0, 0};
  for (const Request& r : plan) {
    ASSERT_GE(r.body_bytes, 4u);
    ASSERT_LE(r.body_bytes, 64u * 1024);
    ASSERT_LE(r.channel, 1u);
    ++per_channel[r.channel];
    small[r.channel] += r.body_bytes <= 256 ? 1 : 0;
    large[r.channel] += r.body_bytes > 32 * 1024 ? 1 : 0;
  }
  // Stratified over 2^2..2^16, each channel's empirical shares sit within
  // a slice of P(<= 256 B) = 6/14 and P(> 32 KiB) = 1/14.
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(per_channel[c], 10000u);
    EXPECT_NEAR(static_cast<double>(small[c]), 10000.0 * 6 / 14, 2.0);
    EXPECT_NEAR(static_cast<double>(large[c]), 10000.0 / 14, 2.0);
  }
}

TEST(PingpongPlan, ChannelsInterleave) {
  const std::vector<Request> plan = pingpong_plan(3, 1000);
  std::size_t switches = 0;
  for (std::size_t i = 1; i < plan.size(); ++i) {
    switches += plan[i].channel != plan[i - 1].channel ? 1 : 0;
  }
  EXPECT_GT(switches, 400u);  // shuffled, not two blocks
}

TEST(StratifiedLogSizes, RepeatsPerSeedAndCoversEverySlice) {
  mad2::Rng a(9);
  mad2::Rng b(9);
  const std::vector<std::uint32_t> x = stratified_log_sizes(a, 100, 4096, 32768);
  EXPECT_EQ(x, stratified_log_sizes(b, 100, 4096, 32768));
  std::vector<std::uint32_t> sorted = x;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Slice i of u maps to [4096 * 8^(i/100), 4096 * 8^((i+1)/100)].
    EXPECT_GE(sorted[i], std::floor(4096 * std::pow(8.0, i / 100.0)));
    EXPECT_LE(sorted[i], std::ceil(4096 * std::pow(8.0, (i + 1) / 100.0)));
  }
  EXPECT_NE(x, sorted);  // shuffled
}

TEST(PeakRss, GrowsWithTouchedMemory) {
  const double before = peak_rss_mb();
  EXPECT_GT(before, 0.0);
  constexpr std::size_t kBytes = 64u << 20;
  auto block = std::make_unique<char[]>(kBytes);
  std::memset(block.get(), 1, kBytes);
  volatile char sink = block[kBytes - 1];
  (void)sink;
  EXPECT_GE(peak_rss_mb(), before + 60.0);
}

}  // namespace
}  // namespace mbench
