// TCP over simulated Fast Ethernet (100 Mb/s).
//
// The commodity control/fallback network of the paper's clusters: every
// node pair gets reliable byte streams, with Linux-2.2-era kernel costs
// (syscall entry, checksum+copy) and MSS framing on a 12.5 MB/s wire.
// Calibration: raw one-way latency ~75 us, stream bandwidth ~11.5 MB/s.
//
// Flow control: each stream's receive window is the socket buffer size.
// The transmit fiber ships a frame only while the bytes it has shipped and
// the peer application has not yet read, plus that frame, fit in
// TcpParams::socket_buffer; every read returns its bytes to the sender at
// once (the window update carries no modelled ACK delay, since 64 KB is
// ~30x the ~2 KB bandwidth-delay product of the wire). So a stream holds
// at most one socket buffer of unread bytes at the receiver plus one in
// its own send buffer, and a sender whose peer stops reading parks.
//
// When a FaultPlan is attached (TcpParams::fabric::faults), frames ride
// the reliable-delivery shim (net/reliable) instead of the raw fabric —
// the kernel's seq/ack/retransmit machinery, collapsed to the shim — so
// the byte streams stay reliable over a lossy wire. A link that gives up
// retransmitting reports through set_link_error_handler().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "net/reliable.hpp"

namespace mad2::net {

struct TcpParams {
  sim::Duration send_syscall = sim::from_us(18.0);
  sim::Duration recv_syscall = sim::from_us(18.0);
  std::uint32_t mss = 1460;           // TCP payload per Ethernet frame
  std::uint32_t frame_overhead = 58;  // Ethernet + IP + TCP headers
  std::size_t socket_buffer = 64 * 1024;
  FabricParams fabric;
  /// Retransmission tuning, used only when fabric.faults is set.
  ReliableParams reliability;

  static TcpParams fast_ethernet();
};

class TcpPort;
class TcpStream;

/// One frame's payload, for stream `stream` of the sending rank `src`.
struct TcpPacket {
  std::uint32_t src;
  std::uint32_t stream;
  std::vector<std::byte> data;
};

/// One Ethernet segment: a fabric plus one TcpPort per node. Streams
/// between any node pair are created on demand (the mesh is implicit; no
/// connection establishment is modeled).
class TcpNetwork : public NicNetwork<TcpPort, TcpPacket, TcpParams> {
 public:
  static constexpr NicSpec kNic{"tcp", /*pci_slot=*/2};

  TcpNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
             TcpParams params);

  /// The reliable shim carrying this network's frames, or nullptr when the
  /// fabric is lossless (no FaultPlan attached).
  [[nodiscard]] ReliableNetwork* reliable() { return reliable_.get(); }

  /// Fires when a link gives up retransmitting, after every stream
  /// touching the dead link has been poisoned (see TcpStream::status()):
  /// `a` is the rank whose shim gave up, `b` the unresponsive peer. Never
  /// fires on a lossless fabric, which cannot fail.
  void set_link_error_handler(LinkErrorHandler handler) {
    link_error_handler_ = std::move(handler);
  }

 private:
  friend class TcpPort;
  friend class TcpStream;

  /// Reliable-shim link (a -> b) declared dead: tear down both directions
  /// of the affected streams — a real stack would collapse the connection
  /// pair via RSTs and keepalive timeouts — then report upward. `a` is
  /// recorded, so a stream opened on it later starts poisoned.
  void on_link_failed(std::uint32_t a, std::uint32_t b,
                      const Status& status);

  std::unique_ptr<ReliableNetwork> reliable_;
  // Ranks whose shim gave up, with their death Status, in failure order.
  std::vector<std::pair<std::uint32_t, Status>> dead_;
  LinkErrorHandler link_error_handler_;
};

/// One directed byte stream endpoint pair. Obtained from TcpPort::stream();
/// `stream_id` lets independent modules multiplex separate connections
/// between the same node pair (one per Madeleine channel). The transmit
/// fiber starts with the stream's first queued byte, so a stream that
/// never sends costs no fiber.
class TcpStream {
 public:
  /// Copy `data` into the socket buffer (blocking while full) and return.
  /// Transmission proceeds asynchronously in order.
  void send(std::span<const std::byte> data);

  /// Blocking read of exactly `out.size()` bytes.
  void recv(std::span<std::byte> out);

  /// Blocking read of at least one byte; returns the byte count.
  std::size_t recv_some(std::span<std::byte> out);

  [[nodiscard]] bool readable() const { return !rx_buffer_.empty(); }
  void wait_readable();
  /// Bytes delivered to this end and not yet read (at most socket_buffer).
  [[nodiscard]] std::size_t rx_buffered() const { return rx_buffer_.size(); }

  [[nodiscard]] std::uint32_t peer() const { return peer_; }

  // --- Failure-aware variants (the rail layer's data path) ---------------
  // The plain calls above park forever on a dead link (their callers rely
  // on the session tearing the simulation down). These unblock with the
  // link's Status instead, so a caller can fail over to another adapter.

  /// OK while the stream's link is healthy; the link's death Status after.
  [[nodiscard]] const Status& status() const { return failed_; }

  /// send(), but aborts with the link Status instead of blocking on the
  /// socket buffer of a dead link. Bytes accepted before the failure are
  /// still in flight.
  Status send_checked(std::span<const std::byte> data);

  /// recv_some(), but returns the link Status once the stream is poisoned
  /// *and* drained — buffered bytes always win over the failure.
  Status recv_some_checked(std::span<std::byte> out, std::size_t* got);

  /// Block until every byte accepted by send() has left the socket buffer,
  /// been handed to the shim or the fabric and — over a faulty fabric —
  /// been acknowledged by the peer's shim. OK from flush() therefore means
  /// delivered, not merely queued. The peer's receive window bounds
  /// delivery: with more than one socket buffer of bytes unread by the
  /// peer, flush() completes only while the other end reads.
  Status flush();

  // --- fastpath (mad/progress.hpp; see docs/PERFORMANCE.md) --------------
  // Small writes stage in a user-space buffer (one memcpy, no syscall) and
  // a later flush_pending() pushes the whole batch with a single kernel
  // crossing — writev-style coalescing. On the receive side, one syscall
  // drains everything the kernel buffered; reads served from that staged
  // drain are free until it is consumed. Ordering is preserved: any direct
  // send/flush first pushes the staged bytes.

  /// Opt this stream into staged receives (and mark it as batch-managed).
  void set_fastpath(bool on) { fast_ = on; }
  /// Stage `data` for the next flush_pending(); no syscall charge.
  void send_deferred(std::span<const std::byte> data);
  /// Push everything staged by send_deferred() with one syscall charge.
  void flush_pending();
  [[nodiscard]] std::size_t pending_bytes() const { return pending_.size(); }

 private:
  friend class TcpPort;
  friend class TcpNetwork;
  TcpStream(TcpPort* port, std::uint32_t peer, std::uint32_t stream_id);

  /// RAII writer turn: enqueue_tx() can park mid-copy on a full socket
  /// buffer, and two fibers interleaving mss-sized refills would corrupt
  /// the stream's byte order. Every span handed to enqueue_tx therefore
  /// lands under one of these, serializing writers per stream.
  struct TxWriter;

  void tx_loop();
  void on_frame(std::vector<std::byte> data);
  /// The buffer read of all three reads: move up to `out.size()` buffered
  /// bytes (at least one must be buffered) to `out`, within the fastpath's
  /// staged drain, and hand their window back to the sending end.
  std::size_t take_rx(std::span<std::byte> out);
  void fail(const Status& status);
  /// send() minus the syscall charge: checksum+copy into the socket
  /// buffer, blocking while it is full. Caller holds the TxWriter turn.
  /// A poisoned stream stops the copy and returns the link Status.
  Status enqueue_tx(std::span<const std::byte> data);
  /// flush_pending() body; caller holds the TxWriter turn.
  void flush_pending_locked();

  TcpPort* port_;
  std::uint32_t peer_;
  std::uint32_t stream_id_;
  Status failed_;
  std::deque<std::byte> tx_buffer_;
  std::deque<std::byte> rx_buffer_;
  // The peer's stream with the same id: it reads what this end ships and
  // ships what this end reads. Linked when the second of the pair is
  // created, which is before the first frame between them arrives.
  TcpStream* mirror_ = nullptr;
  // Shipped by tx_loop and not yet read by the peer application.
  std::size_t peer_unread_ = 0;
  sim::WaitQueue tx_room_;
  sim::WaitQueue tx_data_;
  sim::WaitQueue rx_data_;
  sim::WaitQueue tx_window_;  // tx_loop parked on a full receive window
  // tx_loop holds a frame taken from tx_buffer_ that it has not yet handed
  // to the shim or the fabric; flush() waits on tx_handed_off_ for it.
  bool tx_in_hand_ = false;
  sim::WaitQueue tx_handed_off_;
  bool tx_started_ = false;         // tx_loop spawned (first byte queued)
  bool fast_ = false;
  bool tx_writing_ = false;         // a TxWriter turn is in flight
  std::vector<std::byte> pending_;  // deferred-send staging
  // Batch being pushed by flush_pending(); swapped with pending_ so the
  // staging capacity survives the flush (no steady-state reallocation).
  std::vector<std::byte> pending_flushing_;
  std::size_t rx_staged_ = 0;       // bytes covered by the last recv syscall
};

class TcpPort : public NicPort<TcpNetwork, TcpPacket> {
 public:
  /// The stream to `peer` with the given id (created on demand; the peer's
  /// port materializes its own endpoint on first use or first data). A
  /// stream created after this rank or `peer` died starts poisoned.
  TcpStream& stream(std::uint32_t peer, std::uint32_t stream_id = 0);

  /// Streams created so far, in either direction.
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

  /// Block until `pred()` holds; re-evaluated after every frame delivered
  /// to any stream of this port (a select() across streams).
  void wait_any(const std::function<bool()>& pred);

 private:
  friend class TcpNetwork::NicNetwork;
  friend class TcpNetwork;
  friend class TcpStream;
  TcpPort(TcpNetwork* network, hw::Node* node, std::uint32_t rank);

  void rx_loop();

  // key: peer << 32 | stream_id
  std::map<std::uint64_t, std::unique_ptr<TcpStream>> streams_;
  sim::WaitQueue any_frame_;
};

}  // namespace mad2::net
