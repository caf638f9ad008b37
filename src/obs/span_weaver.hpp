// SpanWeaver: cross-node causal span reassembly for distributed madtrace.
//
// With trace-context propagation on (`trace propagation` stanza), every
// virtual-channel packet carries its flow seq and a HopStamp — per-hop
// enqueue/dequeue/wire timestamps — and the delivering endpoint replays
// the stamp into the trace ring as per-hop `hop.queue` / `hop.wire`
// events (one pair per hop the packet crossed). Each event encodes its packet identity in the two
// numeric args:
//
//   a0 = flow id            ((src << 32) | dst)
//   a1 = hop arg            ((seq & 0xffffffff) << 32 |
//                            (node & 0xffffff) << 8 | hop_index)
//
// The weaver groups those events by (flow, seq) back into one causally
// linked cross-node span per packet: hop 0 is the sender, the last hop the
// receiver, and for every hop the queue-residency time (enqueue ->
// dequeue) is split from the wire time (wire -> next hop's enqueue). That
// split is the per-hop congestion attribution a single-node timeline
// cannot show — a slow gateway surfaces as queue residency at exactly that
// hop.
//
// Output surfaces:
//   - weave():         structured WeavedSpans for tests and tools;
//   - export_metrics(): per-(src,dst,hop) queue/wire histograms;
//   - chrome_json():   a Perfetto-loadable timeline with one synthetic
//                      track per node and "s"/"t"/"f" flow arrows linking
//                      consecutive hops of each packet.
//
// Like the rest of obs, nothing here touches the simulator: the weaver
// consumes ring snapshots after the fact (one recorder, or one per
// simulated "process" merged via add_events).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mad2::obs {

/// Event names the propagation path records and the weaver consumes.
inline constexpr const char* kHopQueueEvent = "hop.queue";
inline constexpr const char* kHopWireEvent = "hop.wire";

/// Flow identity packing (same scheme the congestion layer hashes).
[[nodiscard]] constexpr std::uint64_t flow_id(std::uint32_t src,
                                              std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
[[nodiscard]] constexpr std::uint32_t flow_src(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32);
}
[[nodiscard]] constexpr std::uint32_t flow_dst(std::uint64_t id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

/// Hop-arg packing for the event's a1: sequence (truncated to 32 bits —
/// grouping only needs locality, not the full counter), the hop's node id
/// (24 bits, enough for the 1024-node scale tier), and the hop index.
[[nodiscard]] constexpr std::uint64_t hop_arg(std::uint64_t seq,
                                              std::uint32_t node,
                                              std::uint32_t hop) {
  return ((seq & 0xffffffffull) << 32) |
         ((static_cast<std::uint64_t>(node) & 0xffffffull) << 8) |
         (hop & 0xffull);
}
struct HopArg {
  std::uint32_t seq = 0;
  std::uint32_t node = 0;
  std::uint32_t hop = 0;
};
[[nodiscard]] constexpr HopArg decode_hop_arg(std::uint64_t a1) {
  return HopArg{static_cast<std::uint32_t>(a1 >> 32),
                static_cast<std::uint32_t>((a1 >> 8) & 0xffffffu),
                static_cast<std::uint32_t>(a1 & 0xffu)};
}

/// One hop of a reassembled packet journey.
struct HopSpan {
  std::uint32_t node = 0;  ///< node that held the packet at this hop
  std::uint32_t hop = 0;   ///< position along the route; 0 = sender
  sim::Time enqueue = 0;   ///< entered this hop's queue
  sim::Time dequeue = 0;   ///< left the queue (scheduler picked it)
  sim::Time wire = 0;      ///< handed to the wire toward the next hop
  /// Queue residency (dequeue - enqueue): sender pacing/window wait at
  /// hop 0, forwarding-queue wait at gateways, 0 at the delivery hop.
  sim::Duration queue_ns = 0;
  /// Wire + landing time to the next hop's enqueue; 0 on the last hop.
  sim::Duration wire_ns = 0;
};

/// One packet's cross-node causal span: every hop it crossed, in order.
struct WeavedSpan {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t seq = 0;
  std::vector<HopSpan> hops;

  [[nodiscard]] sim::Time start() const {
    return hops.empty() ? 0 : hops.front().enqueue;
  }
  [[nodiscard]] sim::Time end() const;
  [[nodiscard]] sim::Duration total_ns() const { return end() - start(); }
};

class SpanWeaver {
 public:
  /// Ingest a recorder's ring (snapshot taken here). May be called once
  /// per per-"process" recorder; events merge into one weave.
  void add(const TraceRecorder& recorder);
  /// Ingest an already-captured snapshot (offline weaving).
  void add_events(std::span<const TraceEvent> events);

  /// Reassemble: group hop events by (flow, seq), order hops along the
  /// route. Packets whose events were partially lost to ring wrap weave
  /// into partial spans (the dropped-events counter says how much trust
  /// to put in them). Deterministic order: by (src, dst, seq).
  [[nodiscard]] std::vector<WeavedSpan> weave() const;

  /// Per-(src,dst,hop) latency attribution histograms:
  ///   <prefix>.hop.<src>-<dst>.<hop>.queue   (queue residency, ns)
  ///   <prefix>.hop.<src>-<dst>.<hop>.wire    (wire + landing, ns)
  static void export_metrics(const std::vector<WeavedSpan>& spans,
                             const std::string& prefix,
                             MetricsRegistry* registry);

  /// Chrome/Perfetto JSON: per-node tracks carrying the hop spans plus
  /// "s"/"t"/"f" flow events linking hop k to hop k+1 of each packet.
  [[nodiscard]] static std::string chrome_json(
      const std::vector<WeavedSpan>& spans);
  static bool write_chrome_json(const std::vector<WeavedSpan>& spans,
                                const std::string& path);

 private:
  std::vector<TraceEvent> events_;
};

/// Weave the installed recorder's ring and write the cross-node timeline
/// to `path` (the SLO watchdog pairs this with dump_on_failure so a
/// breach ships both the raw ring and the weaved spans). Returns false
/// without an installed recorder or on I/O failure.
bool write_weaved_dump(const std::string& path);

}  // namespace mad2::obs
