#include "mad/stats.hpp"

namespace mad2::mad {

void TrafficStats::merge(const TrafficStats& other) {
  messages_sent += other.messages_sent;
  messages_received += other.messages_received;
  switching.fast_selects += other.switching.fast_selects;
  switching.pack_cpu_ticks += other.switching.pack_cpu_ticks;
  switching.unpack_cpu_ticks += other.switching.unpack_cpu_ticks;
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
}

}  // namespace mad2::mad
