#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace mbench {
namespace {

/// Fisher-Yates with the portable generator (std::shuffle's result
/// depends on the standard library).
template <typename T>
void shuffle(mad2::Rng& rng, std::vector<T>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.next_below(i)]);
  }
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Tail tail_percentile(const std::vector<double>& samples, double target,
                     std::size_t min_beyond) {
  Tail tail;
  tail.count = samples.size();
  if (samples.size() <= min_beyond) return tail;
  // With nearest rank, ceil(q n) samples sit at or below the q-quantile,
  // so n - ceil(q n) >= min_beyond holds for every q <= (n - min_beyond)/n.
  const double n = static_cast<double>(samples.size());
  tail.q = std::min(target, (n - static_cast<double>(min_beyond)) / n);
  tail.value = quantile(samples, tail.q);
  return tail;
}

std::vector<std::uint32_t> stratified_log_sizes(mad2::Rng& rng,
                                                std::size_t count,
                                                std::uint32_t lo,
                                                std::uint32_t hi) {
  std::vector<std::uint32_t> sizes(count);
  const double ratio = static_cast<double>(hi) / lo;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + rng.next_double()) /
                     static_cast<double>(count);
    const double size = static_cast<double>(lo) * std::pow(ratio, u);
    sizes[i] = std::clamp(static_cast<std::uint32_t>(std::llround(size)), lo,
                          hi);
  }
  shuffle(rng, sizes);
  return sizes;
}

std::vector<Request> pingpong_plan(std::uint64_t seed, std::size_t count) {
  mad2::Rng rng(seed);
  std::vector<Request> plan;
  for (std::uint32_t channel = 0; channel < 2; ++channel) {
    const std::size_t share = count / 2 + (channel == 0 ? count % 2 : 0);
    for (std::uint32_t bytes : stratified_log_sizes(rng, share, 4, 64 * 1024)) {
      plan.push_back(Request{channel, bytes});
    }
  }
  shuffle(rng, plan);
  return plan;
}

double host_now_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::host_self_ns(std::int64_t index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::int64_t covered = 0;
  for (const Span& child : spans_) {
    if (child.parent != index) continue;
    const std::int64_t lo = std::max(child.h_start, span.h_start);
    const std::int64_t hi = std::min(child.h_end, span.h_end);
    if (hi > lo) covered += hi - lo;
  }
  return (span.h_end - span.h_start) - covered;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"v_start_ns\": %lld, \"v_end_ns\": %lld, "
                 "\"h_start_ns\": %lld, \"h_end_ns\": %lld}\n",
                 static_cast<unsigned long long>(span.id), span.name.c_str(),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.v_start),
                 static_cast<long long>(span.v_end),
                 static_cast<long long>(span.h_start),
                 static_cast<long long>(span.h_end));
  }
  return std::fclose(out) == 0;
}

}  // namespace mbench
