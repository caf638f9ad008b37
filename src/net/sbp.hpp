// SBP over simulated Fast Ethernet.
//
// SBP (Russell & Hatcher, "Efficient kernel support for reliable
// communication", SAC '98 — the paper's reference [14]) is the Section 6.1
// example of a protocol where *all* data must be written into specific
// preallocated buffers before being sent: there is no long-message /
// zero-copy path at all. Kernel-managed fixed-size buffer pools exist on
// both sides; senders acquire a tx buffer, fill it, and hand it back to
// the kernel; receivers get filled kernel buffers and must release them.
//
// Madeleine's SBP protocol module therefore runs everything through the
// static-copy BMM, and a gateway bridging two SBP-like networks pays the
// unavoidable extra copy the paper describes ("one extra copy cannot be
// avoided when both networks require static buffers").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "net/rx_queue.hpp"
#include "util/status.hpp"

namespace mad2::net {

struct SbpParams {
  std::uint32_t buffer_bytes = 4096;  // fixed kernel buffer size
  std::size_t tx_pool = 16;           // kernel tx buffers per port
  std::size_t rx_pool = 64;           // kernel rx buffers per port
  std::uint32_t header_bytes = 24;    // kernel framing
  sim::Duration send_cost = sim::from_us(6.0);  // lean kernel path
  sim::Duration recv_cost = sim::from_us(6.0);
  FabricParams fabric;

  static SbpParams fast_ethernet();
};

class SbpPort;

/// The used part of one kernel buffer.
struct SbpPacket {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t tag;
  std::vector<std::byte> data;
};

class SbpNetwork : public NicNetwork<SbpPort, SbpPacket, SbpParams> {
 public:
  static constexpr NicSpec kNic{"sbp", /*pci_slot=*/4};

  SbpNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
             SbpParams params);

 private:
  friend class SbpPort;
};

/// A kernel tx buffer on loan to the application.
struct SbpTxBuffer {
  std::span<std::byte> memory;  // capacity buffer_bytes
  std::uint64_t handle = 0;
};

/// A filled kernel rx buffer on loan to the application.
using SbpRxBuffer = RxSlot;

class SbpPort : public NicPort<SbpNetwork, SbpPacket> {
 public:
  /// Borrow an empty kernel tx buffer; blocks while the pool is empty.
  SbpTxBuffer acquire_tx_buffer();

  /// Transmit `used` bytes of a borrowed tx buffer to (dst, tag). The
  /// buffer returns to the kernel pool once the NIC has consumed it.
  /// The receiver must have a free rx buffer (overflow is a protocol
  /// error — Madeleine's SBP TM runs credits on top, like BIP-short).
  void send(std::uint32_t dst, std::uint32_t tag, SbpTxBuffer buffer,
            std::size_t used);

  /// Blocking: the next filled rx buffer on `tag` (any source).
  SbpRxBuffer recv(std::uint32_t tag);
  void release(const SbpRxBuffer& buffer) { inbox_.release(buffer.handle); }

  /// The kernel rx pool, queued by tag.
  [[nodiscard]] TaggedInbox& inbox() { return inbox_; }

 private:
  friend class SbpNetwork::NicNetwork;
  using Packet = SbpPacket;

  SbpPort(SbpNetwork* network, hw::Node* node, std::uint32_t rank);

  void rx_loop();

  // Kernel tx pool: reusable buffers + availability gate.
  std::vector<std::vector<std::byte>> tx_buffers_;
  std::vector<std::size_t> tx_free_;
  sim::Semaphore tx_available_;
  // Rx side: filled buffers parked until release().
  TaggedInbox inbox_;
};

}  // namespace mad2::net
