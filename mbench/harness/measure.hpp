// Measurement helpers of the two-clock benchmark: tail percentiles that
// say how many samples back them, the seeded input generators, the
// peak-RSS reader, host clocks and the in-memory span log of traced runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mbench {

// ------------------------------------------------------------ statistics ---

/// Nearest-rank q-quantile (q in [0, 1]) of `samples`; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// A reported tail percentile: the quantile actually used, its value, and
/// the sample count behind it.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;
};

/// The `target` quantile when at least `min_beyond` samples lie beyond
/// it, else the highest quantile that still has `min_beyond` samples
/// beyond it (0 for fewer than `min_beyond` + 1 samples).
Tail tail_percentile(const std::vector<double>& samples, double target,
                     std::size_t min_beyond = 10);

// ----------------------------------------------------- seeded generators ---

/// `count` sizes log-uniform over [lo, hi] (lo * (hi/lo)^u), drawn by
/// stratified sampling: one u from each of `count` equal slices of [0, 1),
/// then shuffled. The seed picks every size and the order, while the
/// empirical distribution, and so every percentile a workload reports,
/// stays within one slice of the target for every seed.
std::vector<std::uint32_t> stratified_log_sizes(mad2::Rng& rng,
                                                std::size_t count,
                                                std::uint32_t lo,
                                                std::uint32_t hi);

/// One pingpong request: which channel (0 = SISCI, 1 = BIP) and the body.
struct Request {
  std::uint32_t channel = 0;
  std::uint32_t body_bytes = 0;
};

/// The pingpong request sequence, shuffled: half the requests on each
/// channel, each half's bodies stratified log-uniform over 4 B - 64 KiB.
/// A stronger skew toward small bodies puts the median latency on a
/// plateau of the short TMs, where it reads the same for every seed.
std::vector<Request> pingpong_plan(std::uint64_t seed, std::size_t count);

/// Pattern seed of message `seq` of flow `flow`: unique per (flow, seq),
/// so a duplicated, reordered or foreign payload never verifies.
inline std::uint64_t pattern_seed(std::uint32_t flow, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(flow) << 32) | seq;
}

// ------------------------------------------------------------ host side ---

/// Host seconds on a monotonic clock.
double host_now_s();
/// Host nanoseconds on the same clock.
std::int64_t host_now_ns();

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

// ------------------------------------------------------------------ spans ---

/// One traced interval on both clocks. `id` is the message the span
/// belongs to (0 for run-level spans); `parent` indexes the parent span in
/// the log (-1 for roots).
struct Span {
  std::uint64_t id = 0;
  std::string name;
  std::int64_t parent = -1;
  mad2::sim::Time v_start = 0;
  mad2::sim::Time v_end = 0;
  std::int64_t h_start = 0;
  std::int64_t h_end = 0;
};

class SpanLog {
 public:
  /// Append a span and return its index (for children's `parent`).
  std::int64_t add(Span span);
  /// Host self time of span `index`: its duration minus the part of it its
  /// direct children cover (children are assumed not to overlap).
  [[nodiscard]] std::int64_t host_self_ns(std::int64_t index) const;
  /// One JSON object per line. Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace mbench
