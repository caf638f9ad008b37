// End-to-end congestion control and weighted-fair flow scheduling.
//
// The paper's flow control is per-link (credits in BIP, bounded windows in
// the reliable shim) — nothing limits how much traffic *converges* on a
// shared choke point. Under many-to-one (incast) patterns the gateways of
// a virtual channel build queues bounded only by sender count, and a
// latency-sensitive flow stalls behind every bulk flow's backlog
// (head-of-line blocking; the paper's stated future work: "some
// sophisticated bandwidth control mechanism is needed to regulate the
// incoming communication flow on gateways").
//
// Two mechanisms close the loop:
//
//  - CongestionWindow (this header): a per-flow end-to-end window with
//    delay-driven AIMD. Each data packet carries its send timestamp; the
//    receiver computes the end-to-end delay on delivery and feeds it back
//    into the sender's window (fibers share memory, so "feedback" is a
//    function call — the simulated analogue of the shim's seq/ack stamps
//    carrying the RTT signal, see net/reliable.hpp RTT sampling). While
//    the smoothed delay stays near the observed floor the window grows
//    additively; when it exceeds backlog_factor * floor the window is cut
//    multiplicatively, at most once per smoothed-RTT. Windows are seeded
//    from the driver's bandwidth self-report (Pmm::bandwidth_hint_mbs),
//    i.e. a bandwidth-delay product with an assumed millisecond RTT.
//
//  - Deficit round robin at the gateways' forwarding queues
//    (fwd::FairPacketQueue, fwd/fair_queue.hpp): every backlogged flow
//    gets an equal (or weighted) byte share of the outgoing hop, so no
//    flow starves behind another's backlog.
//
// Everything here is deterministic: the window's wake order derives from
// fiber wake order only, so traced virtual-time runs and madcheck explore
// schedules replay exactly. EXPRESS/short messages never pass through
// either mechanism — the fast path stays untouched (LCI's lesson: keep
// control logic off the short-message path).
#pragma once

#include <cstdint>

#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace mad2::mad {

/// The `congestion` config stanza (see mad/config_parser.hpp). Presence
/// of the stanza enables the machinery; everything defaults to off so
/// existing sessions and baselines are byte-for-byte unchanged.
struct CongestionConfig {
  bool enabled = false;
  /// Initial window in packets; 0 derives a bandwidth-delay product from
  /// the flow's driver bandwidth hint (see seed_window).
  std::size_t init_window = 0;
  /// Window clamp, in packets. min_window >= 1 keeps every flow live.
  std::size_t min_window = 1;
  std::size_t max_window = 64;
  /// Additive increase per delivered window's worth of packets.
  double gain = 1.0;
  /// Multiplicative decrease factor applied on congestion, in (0, 1).
  double decrease = 0.5;
  /// Congestion threshold: smoothed delay > backlog_factor * observed
  /// floor means queues are building. Must be > 1.
  double backlog_factor = 2.0;
  /// EWMA weight of a new delay sample in the smoothed delay.
  double rtt_alpha = 0.125;
  /// DRR deficit replenished per scheduling round, bytes.
  std::size_t quantum = 16 * 1024;
  /// Gateway forwarding-queue capacity in packets (replaces the
  /// pipeline_depth-bounded queue when congestion control is on).
  std::size_t gateway_queue = 16;
};

/// Window seed: the bandwidth-delay product of `bandwidth_mbs` with an
/// assumed 1 ms round trip, in `mtu`-sized packets, clamped to the
/// configured [min_window, max_window].
[[nodiscard]] double seed_window(const CongestionConfig& config,
                                 double bandwidth_mbs, std::size_t mtu);

/// Per-flow end-to-end congestion window. before_send() blocks the
/// sending fiber while a full window is in flight; on_delivered(delay)
/// is the feedback edge: it retires one packet, folds the delay sample
/// into the smoothed estimate, and adapts the window (AIMD).
class CongestionWindow {
 public:
  CongestionWindow(sim::Simulator* simulator, const CongestionConfig& config,
                   double initial);

  /// Block until the window has room, then account one packet in flight.
  void before_send();
  /// Feedback for one delivered packet that spent `delay` end to end.
  void on_delivered(sim::Duration delay);

  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] sim::Duration srtt() const { return srtt_; }
  [[nodiscard]] sim::Duration base_rtt() const { return base_rtt_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t decreases() const { return decreases_; }

 private:
  [[nodiscard]] std::size_t window_floor() const;

  sim::Simulator* simulator_;
  CongestionConfig config_;
  double cwnd_;
  std::size_t in_flight_ = 0;
  sim::Duration srtt_ = 0;      // 0 until the first sample
  sim::Duration base_rtt_ = 0;  // observed delay floor
  sim::Time next_decrease_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t decreases_ = 0;
  sim::WaitQueue room_;
};

}  // namespace mad2::mad
