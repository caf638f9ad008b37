// BIP (Basic Interface for Parallelism) over a simulated Myrinet fabric.
//
// Faithful to the semantics the paper relies on (Prylli & Tourancheau,
// PC-NOW '98):
//  - short messages (< 1 kB) are buffered into a finite pool of internal
//    receive buffers; the receiver does not participate. Overflowing the
//    pool is a protocol error (real BIP: undefined behaviour) — Madeleine's
//    short TM must implement credit-based flow control on top.
//  - long messages are delivered directly to their final location with no
//    intermediate copy, but the receive MUST be posted before data arrives
//    (real BIP: strict sender/receiver synchronization) — Madeleine's long
//    TM implements the receiver-acknowledgment rendezvous on top.
//
// Calibration (Section 5.2.2): raw one-way latency ~5 us, asymptotic
// bandwidth ~126 MB/s (LANai 4.3, 32-bit PCI).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "net/rx_queue.hpp"
#include "util/status.hpp"

namespace mad2::net {

struct BipParams {
  /// Messages up to this size may use the short path (paper: < 1 kB).
  std::uint32_t short_max_bytes = 1024;
  /// NIC-level fragmentation of long messages.
  std::uint32_t long_mtu = 4096;
  /// Internal short-message buffers per tag; overflow aborts (see above).
  std::size_t short_host_slots = 64;
  /// Per-packet header on the wire.
  std::uint32_t header_bytes = 16;
  sim::Duration tx_overhead = sim::from_us(1.5);  // host send entry cost
  sim::Duration rx_overhead = sim::from_us(1.0);  // host recv exit cost
  /// Fixed cost of the long-message path, each side: buffer pinning, NIC
  /// rendezvous programming, and the strict sender/receiver
  /// synchronization BIP requires. This is what makes the paper's
  /// Madeleine/BIP curve sit at ~250 us for 16 kB (~60 MB/s) while still
  /// reaching 122 MB/s asymptotically — and what keeps SCI ahead of
  /// Myrinet below the ~16 kB crossover (Section 6.2.1).
  sim::Duration long_setup = sim::from_us(55.0);
  FabricParams fabric;

  /// Myrinet with LANai 4.3 NICs (the paper's testbed).
  static BipParams myrinet_lanai43();
};

class BipPort;

/// A Myrinet packet: a whole short message or one chunk of a long one.
struct BipPacket {
  enum class Kind : std::uint8_t { kShort, kLongChunk };
  Kind kind;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t tag;
  std::uint64_t offset;     // long chunks: position in the message
  std::uint64_t total_len;  // long chunks: full message length
  std::vector<std::byte> data;
};

/// One Myrinet network instance: a fabric plus one BipPort per node.
class BipNetwork : public NicNetwork<BipPort, BipPacket, BipParams> {
 public:
  static constexpr NicSpec kNic{"bip", /*pci_slot=*/0, /*stage_depth=*/4};

  BipNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
             BipParams params);

 private:
  friend class BipPort;
};

/// A zero-copy view of a received short message, backed by one of BIP's
/// internal buffers. Must be released to free the buffer slot.
using BipShortSlot = RxSlot;

class BipPort : public StagedNicPort<BipNetwork, BipPacket> {
 public:
  // --- Short messages -----------------------------------------------------
  /// Send `data` (<= short_max_bytes) to `dst` on `tag`. Returns when the
  /// host buffer is reusable. The receiver must have an internal buffer
  /// available (Madeleine's credit TM guarantees this).
  void send_short(std::uint32_t dst, std::uint32_t tag,
                  std::span<const std::byte> data);

  /// Blocking: dequeue the next short message on `tag` (any source),
  /// zero-copy. Call release_short() when done with the buffer.
  BipShortSlot recv_short(std::uint32_t tag);
  void release_short(const BipShortSlot& slot) {
    inbox_.release(slot.handle);
  }

  /// Convenience: blocking receive with copy-out. Returns byte count.
  std::size_t recv_short_copy(std::uint32_t tag, std::span<std::byte> out,
                              std::uint32_t* src = nullptr);

  /// The internal short-message buffers, queued by tag.
  [[nodiscard]] TaggedInbox& inbox() { return inbox_; }

  // --- Long messages -------------------------------------------------------
  /// Post a receive: incoming long data from (src, tag) lands directly in
  /// `out` (zero-copy). Multiple posts on the same (src, tag) queue up.
  void post_recv_long(std::uint32_t src, std::uint32_t tag,
                      std::span<std::byte> out);

  /// Block until the oldest posted receive on (src, tag) has fully
  /// arrived, and retire it.
  void wait_recv_long(std::uint32_t src, std::uint32_t tag);

  /// Long receives posted and not yet retired, over every (src, tag).
  [[nodiscard]] std::size_t posted_count() const;

  /// Send a long message. The receive MUST already be posted when data
  /// arrives; a chunk with no posted receive aborts (protocol error).
  /// Returns when the host buffer is reusable.
  void send_long(std::uint32_t dst, std::uint32_t tag,
                 std::span<const std::byte> data);

 private:
  friend class BipNetwork::NicNetwork;
  using Packet = BipPacket;

  BipPort(BipNetwork* network, hw::Node* node, std::uint32_t rank);

  void stage_packet(Packet packet);  // host DMA + hand to the tx fiber
  void rx_loop();

  TaggedInbox inbox_;
  std::map<std::uint64_t, PostedReceives> posted_;  // key: src << 32 | tag
};

}  // namespace mad2::net
