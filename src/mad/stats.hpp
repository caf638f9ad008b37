// Per-connection / per-channel traffic statistics: which Transmission
// Module carried how many blocks and bytes, per direction. The Switch
// updates these on every pack/unpack, so they answer the tuning question
// the paper's flag system poses: "is my data actually taking the transfer
// method I think it is?"
//
// Only the Switch's and the rail scheduler's own counts live here. Other
// layers own theirs: node memory is hw::Node::mem(), link reliability the
// reliable endpoint's counters(), congestion flows
// fwd::VirtualChannel::flow_stats().
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace mad2::mad {

struct TmCounters {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

/// Striping activity of one rail (see mad/rail_set.hpp), as observed by
/// the connection whose blocks were striped. Both directions update it:
/// the sender when it posts segments, the receiver when it lands them.
struct RailCounters {
  /// Payload bytes this rail carried as striped segments.
  std::uint64_t bytes = 0;
  /// Striped segments posted on this rail.
  std::uint64_t segments = 0;
  /// Segments reassigned to surviving rails after this rail failed.
  std::uint64_t resubmits = 0;
  /// Scheduler weight (measured MB/s, EWMA) at the last striped block.
  double weight = 0.0;
};

/// Hot-path Switch accounting (see docs/PERFORMANCE.md): blocks routed
/// through the flat per-connection dispatch table, plus the virtual CPU
/// time the Switch's own bookkeeping charged. sim-ticks-per-message on the bench sidecars is
/// (pack_cpu_ticks / messages_sent) on the sending side.
struct SwitchCounters {
  std::uint64_t fast_selects = 0;    ///< blocks routed via the dispatch table
  std::uint64_t pack_cpu_ticks = 0;  ///< begin/pack/end charges, send side
  std::uint64_t unpack_cpu_ticks = 0;  ///< mirror, receive side
};

struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  SwitchCounters switching;
  /// Keyed by TM name (e.g. "bip-short", "sci-pio").
  std::map<std::string, TmCounters> sent_by_tm;
  std::map<std::string, TmCounters> received_by_tm;
  /// Striping activity per rail, keyed by the rail channel's name. Empty
  /// unless the connection's channel heads a rail set.
  std::map<std::string, RailCounters> rails;

  /// Add `other`'s counts; rail weights keep the larger snapshot.
  void merge(const TrafficStats& other);
};

}  // namespace mad2::mad
