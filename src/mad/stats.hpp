// Per-connection / per-channel traffic statistics: which Transmission
// Module carried how many blocks and bytes, per direction. The Switch
// updates these on every pack/unpack, so they answer the tuning question
// the paper's flag system poses: "is my data actually taking the transfer
// method I think it is?"
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "hw/node.hpp"
#include "net/fault.hpp"

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

/// End-to-end activity of one congestion-controlled flow (src -> dst
/// through a virtual channel; see mad/congestion.hpp). packets/bytes
/// count delivered traffic; the rest are snapshots of the control state:
/// queue_depth_hwm is the flow's high-water mark across every gateway
/// fair queue it crossed (boundedness evidence for tests — no trace-dump
/// parsing needed), cwnd/srtt_us the window and smoothed delay at
/// collection time.
struct FlowCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t queue_depth_hwm = 0;
  double cwnd = 0.0;
  double srtt_us = 0.0;
  /// Failover activity (resilient routing only; zero otherwise).
  std::uint64_t replays = 0;
  std::uint64_t dup_drops = 0;
};

/// Hot-path Switch accounting (see docs/PERFORMANCE.md): blocks routed
/// through the flat per-connection dispatch table, plus the virtual CPU
/// time the Switch's own bookkeeping charged. sim-ticks-per-message on the bench sidecars is
/// (pack_cpu_ticks / messages_sent) on the sending side.
struct SwitchCounters {
  std::uint64_t fast_selects = 0;    ///< blocks routed via the dispatch table
  std::uint64_t pack_cpu_ticks = 0;  ///< begin/pack/end charges, send side
  std::uint64_t unpack_cpu_ticks = 0;  ///< mirror, receive side

  void merge(const SwitchCounters& other) {
    fast_selects += other.fast_selects;
    pack_cpu_ticks += other.pack_cpu_ticks;
    unpack_cpu_ticks += other.unpack_cpu_ticks;
  }
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
  /// Congestion-controlled flows, keyed "src->dst". Empty unless the
  /// stats come from a virtual channel with the congestion stanza on
  /// (fwd::VirtualChannel::stats()).
  std::map<std::string, FlowCounters> flows;
  /// Ack/retransmit work done by the reliable shim under this endpoint's
  /// networks. Link-level: a TCP port's shim serves every channel crossing
  /// it, so channels on the same port report the same numbers. All zero on
  /// lossless fabrics.
  net::ReliabilityCounters reliability;
  /// Host-memory traffic of the endpoint's *node* (charged memcpy bytes,
  /// buffer-pool allocations/recycles). Node-level: every endpoint on the
  /// same node reports the same numbers, and merging endpoints that share
  /// a node double-counts — merge across nodes, not across channels.
  hw::MemCounters mem;

  /// Identity-tagged views of `reliability` and `mem`: which link
  /// ("network:port") / which node each sample came from. merge() dedupes
  /// by key — endpoints sharing a node or a reliable port contribute one
  /// sample, not one per endpoint — and recomputes the flat fields from
  /// the deduped maps. ChannelEndpoint::stats() tags both; hand-built
  /// stats with empty maps fall back to the legacy blind add.
  std::map<std::string, net::ReliabilityCounters> reliability_by_link;
  std::map<std::uint32_t, hw::MemCounters> mem_by_node;

  void merge(const TrafficStats& other);

  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace mad2::mad
