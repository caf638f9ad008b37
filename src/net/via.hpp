// VIA (Virtual Interface Architecture) over a simulated VI-capable NIC.
//
// The model the paper's VIA PMM targets (Dunning et al., IEEE Micro '98):
//  - communication happens on *virtual interfaces* (here: an implicit VI
//    per node pair) through send and receive descriptor queues;
//  - every receive buffer must be *posted* before the matching send
//    arrives; a send with no posted receive descriptor is a fatal VI error
//    (Madeleine's VIA TM prevents this with credits / rendezvous);
//  - all buffers must live in *registered* memory; registration is
//    expensive, so small transfers copy through preregistered pools while
//    large ones register the user buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "net/rx_queue.hpp"

namespace mad2::net {

struct ViaParams {
  sim::Duration doorbell = sim::from_us(0.8);     // post-send entry
  sim::Duration completion = sim::from_us(0.8);   // completion reaping
  sim::Duration register_base = sim::from_us(5.0);
  sim::Duration register_per_page = sim::nanoseconds(200);
  std::uint32_t page_bytes = 4096;
  std::uint32_t mtu = 4096;  // descriptor-level fragmentation
  std::uint32_t header_bytes = 16;
  FabricParams fabric;

  static ViaParams generic_nic();
};

/// Opaque registration handle.
struct ViaMemoryHandle {
  std::uint64_t id = 0;
};

/// A completed receive: the posted buffer and how many bytes landed in it.
struct ViaRecvCompletion {
  std::span<std::byte> buffer;
  std::size_t bytes = 0;
};

class ViaPort;

/// One MTU-sized piece of a send descriptor.
struct ViaPacket {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t vi;
  std::uint64_t offset;     // within the current send descriptor
  std::uint64_t total_len;  // descriptor length
  std::vector<std::byte> data;
};

class ViaNetwork : public NicNetwork<ViaPort, ViaPacket, ViaParams> {
 public:
  static constexpr NicSpec kNic{"via", /*pci_slot=*/3, /*stage_depth=*/4};

  ViaNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
             ViaParams params);

 private:
  friend class ViaPort;
};

class ViaPort : public StagedNicPort<ViaNetwork, ViaPacket> {
 public:
  /// Register a memory region (charged: base + per-page cost). The model
  /// does not enforce that send/post buffers are registered; the Madeleine
  /// VIA TM calls this where the real interface would require it.
  ViaMemoryHandle register_memory(std::span<const std::byte> region);
  void deregister(ViaMemoryHandle handle);

  /// Post a receive descriptor on VI number `vi` from `peer`. Descriptors
  /// are consumed strictly in post order per VI. Multiple VIs per peer let
  /// upper layers separate small/control traffic from bulk rendezvous
  /// transfers (as real VIA deployments do).
  void post_recv(std::uint32_t peer, std::span<std::byte> buffer,
                 std::uint32_t vi = 0);

  /// Send on VI `vi` to `peer`. The data lands in the oldest posted receive
  /// descriptor at the destination; if none is posted when data arrives,
  /// the VI is broken (fatal, as in real VIA). Returns when the host
  /// buffer is reusable.
  void send(std::uint32_t peer, std::span<const std::byte> data,
            std::uint32_t vi = 0);

  /// Reap the next receive completion on VI `vi` from `peer` (in post
  /// order). Blocks until one is complete.
  ViaRecvCompletion wait_recv(std::uint32_t peer, std::uint32_t vi = 0);

  /// True if a completed (unreaped) receive exists on VI `vi` from `peer`.
  [[nodiscard]] bool recv_ready(std::uint32_t peer,
                                std::uint32_t vi = 0) const;

  /// Number of receive descriptors currently posted (incl. in-fill) on VI
  /// `vi` from `peer` — lets the TM track credits.
  [[nodiscard]] std::size_t posted_count(std::uint32_t peer,
                                         std::uint32_t vi = 0) const;

  /// Block until `pred()` holds; re-evaluated after every completion on
  /// any VI of this port.
  void wait_any(const std::function<bool()>& pred);

 private:
  friend class ViaNetwork::NicNetwork;
  using Packet = ViaPacket;

  ViaPort(ViaNetwork* network, hw::Node* node, std::uint32_t rank);

  void rx_loop();

  std::map<std::uint64_t, PostedReceives> vis_;  // key: peer << 32 | vi
  sim::WaitQueue any_completion_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace mad2::net
