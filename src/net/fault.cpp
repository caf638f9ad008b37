#include "net/fault.hpp"

#include <cstdio>

#include "util/bytes.hpp"

namespace mad2::net {

void ReliabilityCounters::merge(const ReliabilityCounters& other) {
  data_frames += other.data_frames;
  retransmits += other.retransmits;
  acks_sent += other.acks_sent;
  dup_frames += other.dup_frames;
  corrupt_frames += other.corrupt_frames;
  give_ups += other.give_ups;
  if (other.max_rto > max_rto) max_rto = other.max_rto;
  rtt_samples += other.rtt_samples;
  // srtt is a snapshot, not a sum; keep the largest observed, and the
  // smallest non-zero floor.
  if (other.srtt > srtt) srtt = other.srtt;
  if (other.min_rtt != 0 && (min_rtt == 0 || other.min_rtt < min_rtt)) {
    min_rtt = other.min_rtt;
  }
}

std::string ReliabilityCounters::to_string() const {
  char line[256];
  std::snprintf(line, sizeof line,
                "reliability: %llu data frames, %llu retransmits, "
                "%llu acks, %llu dups dropped, %llu corrupt dropped, "
                "%llu give-ups, max rto %.1f us",
                static_cast<unsigned long long>(data_frames),
                static_cast<unsigned long long>(retransmits),
                static_cast<unsigned long long>(acks_sent),
                static_cast<unsigned long long>(dup_frames),
                static_cast<unsigned long long>(corrupt_frames),
                static_cast<unsigned long long>(give_ups),
                sim::to_us(max_rto));
  std::string out = line;
  if (rtt_samples != 0) {
    std::snprintf(line, sizeof line,
                  ", %llu rtt samples, srtt %.1f us, min rtt %.1f us",
                  static_cast<unsigned long long>(rtt_samples),
                  sim::to_us(srtt), sim::to_us(min_rtt));
    out += line;
  }
  return out;
}

const LinkFaults& FaultPlan::faults_for(std::uint32_t src,
                                        std::uint32_t dst) const {
  auto it = per_link_.find({src, dst});
  if (it != per_link_.end()) return it->second;
  return default_faults_;
}

void FaultPlan::partition(std::uint32_t a, std::uint32_t b, sim::Time from,
                          sim::Time until) {
  partition_one_way(a, b, from, until);
  partition_one_way(b, a, from, until);
}

void FaultPlan::partition_one_way(std::uint32_t src, std::uint32_t dst,
                                  sim::Time from, sim::Time until) {
  partitions_[{src, dst}].push_back(PartitionWindow{from, until});
}

bool FaultPlan::is_partitioned(std::uint32_t src, std::uint32_t dst,
                               sim::Time now) const {
  auto it = partitions_.find({src, dst});
  if (it == partitions_.end()) return false;
  for (const PartitionWindow& window : it->second) {
    if (now >= window.from && now < window.until) return true;
  }
  return false;
}

FaultPlan::Decision FaultPlan::decide(std::uint32_t src, std::uint32_t dst,
                                      sim::Time now) {
  ++counters_.shipped;
  Decision decision;
  if (is_partitioned(src, dst, now)) {
    // Partition drops are scripted, not probabilistic: no random draws, so
    // adding a partition does not shift the fault schedule of other links.
    decision.drop = true;
    decision.partition_drop = true;
    ++counters_.partition_dropped;
    return decision;
  }
  const LinkFaults& faults = faults_for(src, dst);
  if (!faults.any()) return decision;

  // Fixed draw order (drop, dup, corrupt, reorder, jitter) keeps the
  // random stream aligned: toggling one fault kind off only removes its
  // own draws for links where its rate was positive.
  if (faults.drop_rate > 0 && rng_.next_bool(faults.drop_rate)) {
    decision.drop = true;
    ++counters_.dropped;
    return decision;
  }
  if (faults.dup_rate > 0 && rng_.next_bool(faults.dup_rate)) {
    decision.duplicate = true;
    ++counters_.duplicated;
  }
  if (faults.corrupt_rate > 0 && rng_.next_bool(faults.corrupt_rate)) {
    decision.corrupt = true;
    decision.corrupt_offset = static_cast<std::uint32_t>(rng_.next_u64());
    decision.corrupt_xor =
        static_cast<std::uint8_t>(rng_.next_range(1, 255));
    ++counters_.corrupted;
  }
  if (faults.reorder_rate > 0 && faults.reorder_window > 0 &&
      rng_.next_bool(faults.reorder_rate)) {
    decision.hold_back = static_cast<std::uint32_t>(
        rng_.next_range(1, faults.reorder_window));
    decision.reorder_timeout = faults.reorder_timeout;
    ++counters_.reordered;
  }
  if (faults.jitter_rate > 0 && faults.jitter_max > 0 &&
      rng_.next_bool(faults.jitter_rate)) {
    decision.extra_delay = static_cast<sim::Duration>(
        rng_.next_below(static_cast<std::uint64_t>(faults.jitter_max) + 1));
    ++counters_.jittered;
  }
  return decision;
}

std::uint32_t wire_checksum(const std::byte* data, std::size_t size) {
  const std::uint64_t h = fnv1a({data, size});
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace mad2::net
