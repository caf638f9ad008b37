// Reliable-delivery shim over a (possibly faulty) PacketFabric.
//
// The simulated interconnects of the paper are lossless, so the drivers
// assume every packet arrives intact, in order, exactly once. When a
// FaultPlan is attached to a fabric that assumption breaks; this shim wins
// it back with a classic ARQ protocol:
//
//  - every data frame carries a per-link sequence number and a checksum
//    over header + payload (wire_checksum);
//  - the receiver discards corrupt frames, buffers out-of-order frames,
//    deduplicates by sequence number, and acknowledges cumulatively (ack N
//    = "every frame <= N arrived"); acks are also piggybacked on data
//    frames flowing the other way;
//  - the sender keeps a bounded window of unacked frames and retransmits
//    on a per-frame timer with exponential backoff, capped at rto_max;
//  - after max_retransmits of one frame the link is declared dead: the
//    endpoint fails with an UNAVAILABLE Status, every blocked sender and
//    receiver is woken, and the optional error handler fires so a Session
//    can stop cleanly instead of deadlocking.
//
// Used by the TCP driver (net/tcp) when its fabric has faults, and
// directly by the seed-sweep property suites (tests/reliable_test).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/wire.hpp"
#include "sim/sync.hpp"
#include "util/seq_window.hpp"
#include "util/status.hpp"

namespace mad2::net {

struct ReliableParams {
  /// First retransmit timeout for a frame.
  sim::Duration rto_initial = sim::microseconds(200);
  /// Exponential backoff cap.
  sim::Duration rto_max = sim::milliseconds(10);
  /// Backoff factor applied per retransmit.
  double backoff = 2.0;
  /// Give-up threshold: retransmits of one frame before the link is
  /// declared dead.
  std::uint32_t max_retransmits = 40;
  /// Max unacked data frames per destination; send() blocks beyond it.
  std::size_t window = 32;
  /// Wire bytes charged per frame on top of the payload (shim header plus
  /// whatever framing the embedding driver wants accounted).
  std::size_t header_bytes = 21;
};

/// One shim frame. `channel` is an opaque multiplexing tag for the layer
/// above (the TCP driver puts its stream id there).
struct ReliableFrame {
  enum Kind : std::uint8_t { kData = 0, kAck = 1 };

  std::uint32_t src = 0;
  std::uint32_t channel = 0;
  std::uint8_t kind = kData;
  std::uint32_t seq = 0;  // data frames: per-link sequence, starting at 1
  std::uint32_t ack = 0;  // cumulative: every seq <= ack was received
  std::uint32_t checksum = 0;
  std::vector<std::byte> payload;

  /// Expose payload bytes to the fault layer for corruption.
  friend std::span<std::byte> fault_payload(ReliableFrame& frame) {
    return frame.payload;
  }
};

/// Header+payload checksum as it goes on the wire.
[[nodiscard]] std::uint32_t frame_checksum(const ReliableFrame& frame);

class ReliableEndpoint;

/// A fabric wrapped in per-port reliable endpoints. Port numbering follows
/// add_port() order, exactly like the raw fabric.
class ReliableNetwork {
 public:
  ReliableNetwork(sim::Simulator* simulator, FabricParams fabric_params,
                  ReliableParams params);
  ~ReliableNetwork();

  std::uint32_t add_port();
  [[nodiscard]] std::size_t port_count() const { return endpoints_.size(); }
  [[nodiscard]] ReliableEndpoint& endpoint(std::uint32_t port);
  [[nodiscard]] PacketFabric<ReliableFrame>& fabric() { return fabric_; }
  [[nodiscard]] const ReliableParams& params() const { return params_; }
  [[nodiscard]] sim::Simulator* simulator() const { return simulator_; }

  /// Called (at most once per endpoint) when a link is declared dead:
  /// (rank, peer) is the directed link whose sender gave up.
  void set_link_error_handler(LinkErrorHandler handler) {
    link_error_handler_ = std::move(handler);
  }

 private:
  friend class ReliableEndpoint;
  sim::Simulator* simulator_;
  ReliableParams params_;
  PacketFabric<ReliableFrame> fabric_;
  std::vector<std::unique_ptr<ReliableEndpoint>> endpoints_;
  LinkErrorHandler link_error_handler_;
};

class ReliableEndpoint {
 public:
  struct Message {
    std::uint32_t src = 0;
    std::uint32_t channel = 0;
    std::vector<std::byte> payload;
  };

  /// Reliably send one message to `dst`. Blocks while the send window to
  /// `dst` is full. Fails with UNAVAILABLE once the endpoint declared any
  /// of its links dead.
  Status send(std::uint32_t dst, std::uint32_t channel,
              std::vector<std::byte> payload);

  /// Blocking receive of the next in-order message from any peer. Fails
  /// with UNAVAILABLE once the endpoint declared a link dead and no
  /// already-delivered messages remain.
  Status recv(Message& out);

  /// Block until every data frame sent to `dst` has been acknowledged
  /// (or the link died). A send() that returned OK only means "queued in
  /// the window"; this is the delivered barrier.
  Status wait_drained(std::uint32_t dst);

  [[nodiscard]] bool pending() const { return !delivery_.empty(); }
  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  /// OK, or the first link failure this endpoint observed.
  [[nodiscard]] const Status& health() const { return health_; }
  [[nodiscard]] const ReliabilityCounters& counters() const {
    return counters_;
  }

  /// Smoothed round-trip time of the directed link to `peer`, sampled
  /// from the seq/ack stamps under Karn's rule (retransmitted frames are
  /// never sampled, so a retransmit's ack cannot be mistaken for the
  /// original's). 0 until the first clean sample. Retransmit timing is
  /// deliberately NOT driven by this estimate — RTO behavior is
  /// unchanged; the samples feed the congestion layer and telemetry.
  [[nodiscard]] sim::Duration srtt(std::uint32_t peer) const;
  /// Smallest clean RTT sample to `peer` (the delay floor). 0 = none.
  [[nodiscard]] sim::Duration min_rtt(std::uint32_t peer) const;

 private:
  friend class ReliableNetwork;
  ReliableEndpoint(ReliableNetwork* network, std::uint32_t rank);

  struct Outstanding {
    ReliableFrame frame;
    sim::Time deadline;
    sim::Duration rto;
    std::uint32_t retransmits = 0;
    sim::Time sent_at = 0;  // first transmission time (RTT sampling)
  };
  struct PeerTx {
    SeqSendWindow<Outstanding> outstanding{1};  // data seqs start at 1
    // RTT estimate of this directed link (see srtt()/min_rtt()).
    sim::Duration srtt = 0;
    sim::Duration min_rtt = 0;
    std::uint64_t rtt_samples = 0;
  };
  using PeerRx = SeqReceiveWindow<Message>;

  PeerRx& peer_rx(std::uint32_t peer);
  void rx_loop();
  void ack_loop();
  void retransmit_loop();
  void handle_data(ReliableFrame frame);
  void handle_ack(std::uint32_t peer, std::uint32_t ack);
  void sample_rtt(PeerTx& tx, sim::Duration rtt);
  void queue_ack(std::uint32_t peer);
  void fail_link(std::uint32_t peer, const Outstanding& frame);
  [[nodiscard]] std::uint64_t wire_bytes(const ReliableFrame& frame) const;

  ReliableNetwork* network_;
  std::uint32_t rank_;
  Status health_;
  ReliabilityCounters counters_;
  std::map<std::uint32_t, PeerTx> tx_;
  std::map<std::uint32_t, PeerRx> rx_;
  std::deque<Message> delivery_;
  // Pending cumulative acks, coalesced per peer between ack_loop rounds.
  std::deque<std::uint32_t> ack_order_;
  std::map<std::uint32_t, std::uint32_t> ack_value_;
  sim::WaitQueue rx_ready_;      // recv() waiters
  sim::WaitQueue window_room_;   // send() waiters
  sim::WaitQueue ack_pending_;   // ack_loop wakeups
  sim::WaitQueue timer_wakeup_;  // retransmit_loop wakeups
};

}  // namespace mad2::net
