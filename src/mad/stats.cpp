#include "mad/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace mad2::mad {

namespace {

// Two samples with the same identity are snapshots of one monotonic
// counter family, possibly taken at different times; field-wise max keeps
// the most recent one instead of summing the duplicate.
hw::MemCounters newest(const hw::MemCounters& a, const hw::MemCounters& b) {
  hw::MemCounters out;
  out.memcpy_bytes = std::max(a.memcpy_bytes, b.memcpy_bytes);
  out.alloc_count = std::max(a.alloc_count, b.alloc_count);
  out.pool_recycle_count =
      std::max(a.pool_recycle_count, b.pool_recycle_count);
  out.reg_count = std::max(a.reg_count, b.reg_count);
  out.dereg_count = std::max(a.dereg_count, b.dereg_count);
  // pinned_bytes is a gauge, so "max" would resurrect freed pins: take it
  // from whichever snapshot saw more registration activity (i.e. is more
  // recent on this monotonic family).
  out.pinned_bytes = a.reg_count + a.dereg_count >= b.reg_count + b.dereg_count
                         ? a.pinned_bytes
                         : b.pinned_bytes;
  return out;
}

net::ReliabilityCounters newest(const net::ReliabilityCounters& a,
                                const net::ReliabilityCounters& b) {
  net::ReliabilityCounters out;
  out.data_frames = std::max(a.data_frames, b.data_frames);
  out.retransmits = std::max(a.retransmits, b.retransmits);
  out.acks_sent = std::max(a.acks_sent, b.acks_sent);
  out.dup_frames = std::max(a.dup_frames, b.dup_frames);
  out.corrupt_frames = std::max(a.corrupt_frames, b.corrupt_frames);
  out.give_ups = std::max(a.give_ups, b.give_ups);
  out.max_rto = std::max(a.max_rto, b.max_rto);
  out.rtt_samples = std::max(a.rtt_samples, b.rtt_samples);
  out.srtt = std::max(a.srtt, b.srtt);
  if (a.min_rtt == 0) {
    out.min_rtt = b.min_rtt;
  } else if (b.min_rtt == 0) {
    out.min_rtt = a.min_rtt;
  } else {
    out.min_rtt = std::min(a.min_rtt, b.min_rtt);
  }
  return out;
}

}  // namespace

void TrafficStats::merge(const TrafficStats& other) {
  messages_sent += other.messages_sent;
  messages_received += other.messages_received;
  switching.merge(other.switching);
  for (const auto& [tm, counters] : other.sent_by_tm) {
    sent_by_tm[tm].blocks += counters.blocks;
    sent_by_tm[tm].bytes += counters.bytes;
  }
  for (const auto& [tm, counters] : other.received_by_tm) {
    received_by_tm[tm].blocks += counters.blocks;
    received_by_tm[tm].bytes += counters.bytes;
  }
  for (const auto& [rail, counters] : other.rails) {
    RailCounters& mine = rails[rail];
    mine.bytes += counters.bytes;
    mine.segments += counters.segments;
    mine.resubmits += counters.resubmits;
    // Weights are snapshots, not sums; keep the largest observed.
    if (counters.weight > mine.weight) mine.weight = counters.weight;
  }
  for (const auto& [flow, counters] : other.flows) {
    FlowCounters& mine = flows[flow];
    mine.packets += counters.packets;
    mine.bytes += counters.bytes;
    // Depth high-water marks and control state are snapshots, not sums.
    mine.queue_depth_hwm =
        std::max(mine.queue_depth_hwm, counters.queue_depth_hwm);
    if (counters.cwnd > mine.cwnd) mine.cwnd = counters.cwnd;
    if (counters.srtt_us > mine.srtt_us) mine.srtt_us = counters.srtt_us;
    mine.replays += counters.replays;
    mine.dup_drops += counters.dup_drops;
  }
  // Link- and node-level counters dedupe by identity: two endpoints on
  // the same node (or sharing a reliable TCP port) report the *same*
  // underlying counters, so blind addition double-counts them. When the
  // incoming stats carry identity tags, fold per key and rebuild the flat
  // field from the deduped map; untagged stats keep the legacy blind add.
  if (!other.reliability_by_link.empty()) {
    for (const auto& [link, counters] : other.reliability_by_link) {
      auto [it, inserted] = reliability_by_link.emplace(link, counters);
      if (!inserted) it->second = newest(it->second, counters);
    }
    reliability = {};
    for (const auto& [link, counters] : reliability_by_link) {
      reliability.merge(counters);
    }
  } else {
    reliability.merge(other.reliability);
  }
  if (!other.mem_by_node.empty()) {
    for (const auto& [node, counters] : other.mem_by_node) {
      auto [it, inserted] = mem_by_node.emplace(node, counters);
      if (!inserted) it->second = newest(it->second, counters);
    }
    mem = {};
    for (const auto& [node, counters] : mem_by_node) {
      mem.merge(counters);
    }
  } else {
    mem.merge(other.mem);
  }
}

std::string TrafficStats::to_string() const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof line, "messages: %llu sent, %llu received\n",
                static_cast<unsigned long long>(messages_sent),
                static_cast<unsigned long long>(messages_received));
  out += line;
  for (const auto& [tm, counters] : sent_by_tm) {
    std::snprintf(line, sizeof line,
                  "  tx %-12s %8llu blocks %12llu bytes\n", tm.c_str(),
                  static_cast<unsigned long long>(counters.blocks),
                  static_cast<unsigned long long>(counters.bytes));
    out += line;
  }
  for (const auto& [tm, counters] : received_by_tm) {
    std::snprintf(line, sizeof line,
                  "  rx %-12s %8llu blocks %12llu bytes\n", tm.c_str(),
                  static_cast<unsigned long long>(counters.blocks),
                  static_cast<unsigned long long>(counters.bytes));
    out += line;
  }
  for (const auto& [rail, counters] : rails) {
    std::snprintf(line, sizeof line,
                  "  rail %-10s %8llu segs %12llu bytes %6llu resubmits "
                  "w=%.1f MB/s\n",
                  rail.c_str(),
                  static_cast<unsigned long long>(counters.segments),
                  static_cast<unsigned long long>(counters.bytes),
                  static_cast<unsigned long long>(counters.resubmits),
                  counters.weight);
    out += line;
  }
  for (const auto& [flow, counters] : flows) {
    std::snprintf(line, sizeof line,
                  "  flow %-10s %8llu pkts %12llu bytes q.hwm=%llu "
                  "cwnd=%.1f srtt=%.1f us\n",
                  flow.c_str(),
                  static_cast<unsigned long long>(counters.packets),
                  static_cast<unsigned long long>(counters.bytes),
                  static_cast<unsigned long long>(counters.queue_depth_hwm),
                  counters.cwnd, counters.srtt_us);
    out += line;
    if (counters.replays != 0 || counters.dup_drops != 0) {
      std::snprintf(line, sizeof line,
                    "    failover %llu replays %llu dup drops\n",
                    static_cast<unsigned long long>(counters.replays),
                    static_cast<unsigned long long>(counters.dup_drops));
      out += line;
    }
  }
  if (switching.fast_selects != 0) {
    std::snprintf(line, sizeof line,
                  "  switch %8llu fast selects "
                  "%12llu/%llu pack/unpack cpu ticks\n",
                  static_cast<unsigned long long>(switching.fast_selects),
                  static_cast<unsigned long long>(switching.pack_cpu_ticks),
                  static_cast<unsigned long long>(switching.unpack_cpu_ticks));
    out += line;
  }
  if (reliability.data_frames != 0 || reliability.give_ups != 0) {
    out += "  " + reliability.to_string() + "\n";
  }
  if (mem.memcpy_bytes != 0 || mem.alloc_count != 0 ||
      mem.pool_recycle_count != 0) {
    std::snprintf(line, sizeof line,
                  "  mem %12llu memcpy bytes %8llu allocs %8llu pool "
                  "recycles\n",
                  static_cast<unsigned long long>(mem.memcpy_bytes),
                  static_cast<unsigned long long>(mem.alloc_count),
                  static_cast<unsigned long long>(mem.pool_recycle_count));
    out += line;
  }
  if (mem.reg_count != 0 || mem.dereg_count != 0) {
    std::snprintf(line, sizeof line,
                  "  pin %12llu pinned bytes %8llu registrations %8llu "
                  "deregistrations\n",
                  static_cast<unsigned long long>(mem.pinned_bytes),
                  static_cast<unsigned long long>(mem.reg_count),
                  static_cast<unsigned long long>(mem.dereg_count));
    out += line;
  }
  return out;
}

}  // namespace mad2::mad
