// SISCI over a simulated Dolphin SCI (D310) network.
//
// The SISCI programming model the paper's SISCI PMM targets:
//  - the receiver exports memory *segments*; senders map them and write
//    remotely with plain CPU stores (PIO). Writes to one remote node are
//    delivered in order; receivers detect data by polling flag words in
//    segment memory.
//  - a DMA engine exists but performs poorly on D310 NICs (paper: could
//    not exceed 35 MB/s), so Madeleine ships the DMA TM disabled.
//
// Cost model: PIO occupies the *sender's* CPU and its PCI bus in the PIO
// class (~85 MB/s sustained write-combined stores); on the receiving node
// the SCI NIC masters the writes into host memory (DMA class). This class
// split is what makes the gateway experiments come out right (Section 6.2.3:
// Myrinet receive DMA has priority over SCI PIO sends).
//
// Calibration (Section 5.2.1): raw one-way PIO latency ~2 us (Madeleine
// adds ~1.9 us -> 3.9 us), PIO bandwidth ~85 MB/s (Madeleine reaches 82),
// DMA <= ~38 MB/s engine rate.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "util/status.hpp"

namespace mad2::net {

struct SciParams {
  sim::Duration pio_setup = sim::from_us(0.2);      // per pio_write call
  sim::Duration dma_setup = sim::from_us(8.0);      // per dma_write call
  sim::Duration deliver_cost = sim::from_us(0.15);  // receiver-side visibility
  double dma_engine_mbs = 38.0;  // D310 DMA engine (paper: poor, <= 35 MB/s)
  std::uint32_t packet_bytes = 4096;  // pipelining granularity of writes
  std::uint32_t header_bytes = 8;     // per-packet address/route overhead
  FabricParams fabric;

  static SciParams dolphin_d310();
};

using SegmentId = std::uint32_t;

/// Handle to a mapped remote segment.
struct RemoteSegment {
  std::uint32_t node = 0;
  SegmentId segment = 0;
};

class SciPort;

/// One remote write, or one packet-sized piece of a longer one.
struct SciPacket {
  std::uint32_t src;
  std::uint32_t dst;
  SegmentId segment;
  std::uint64_t offset;
  std::vector<std::byte> data;
};

class SciNetwork : public NicNetwork<SciPort, SciPacket, SciParams> {
 public:
  static constexpr NicSpec kNic{"sci", /*pci_slot=*/1, /*stage_depth=*/4};

  SciNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
             SciParams params);

 private:
  friend class SciPort;
};

class SciPort : public StagedNicPort<SciNetwork, SciPacket> {
 public:
  /// Export a segment of `bytes`, locally backed. Returns its id
  /// (unique per port).
  SegmentId create_segment(std::size_t bytes);

  /// Raw access to a local segment's memory (receivers read data and
  /// flags here; zero-copy).
  std::span<std::byte> segment_memory(SegmentId segment);

  /// Map a segment exported by `node` for remote writes.
  RemoteSegment connect(std::uint32_t node, SegmentId segment);

  /// CPU-driven remote write (PIO). Charges the caller for the stores
  /// (local PCI bus, PIO class); data becomes visible remotely, in order,
  /// after wire transfer + remote-side delivery. Returns once the local
  /// write buffer has drained (the caller's data is reusable).
  void pio_write(const RemoteSegment& dst, std::uint64_t offset,
                 std::span<const std::byte> data);

  /// DMA-engine remote write. High setup cost and a slow engine — kept
  /// faithful to the D310 so the "DMA TM disabled by default" story holds.
  void dma_write(const RemoteSegment& dst, std::uint64_t offset,
                 std::span<const std::byte> data);

  /// Block until `pred()` holds for this segment. `pred` typically reads
  /// flag words via segment_memory(); it is re-evaluated after every remote
  /// write delivered into the segment.
  void wait_segment(SegmentId segment, const std::function<bool()>& pred);

  /// Block until `pred()` holds; re-evaluated after every remote write
  /// delivered into *any* segment of this port (channel-level polling
  /// across per-source rings).
  void wait_delivery(const std::function<bool()>& pred);

 private:
  friend class SciNetwork::NicNetwork;
  using Packet = SciPacket;

  SciPort(SciNetwork* network, hw::Node* node, std::uint32_t rank);

  void write_common(const RemoteSegment& dst, std::uint64_t offset,
                    std::span<const std::byte> data, bool dma);
  void rx_loop();

  struct Segment {
    Segment(std::size_t bytes, sim::Simulator* simulator)
        : memory(bytes), waiters(simulator) {}
    std::vector<std::byte> memory;
    sim::WaitQueue waiters;
  };

  SegmentId next_segment_ = 1;
  std::map<SegmentId, Segment> segments_;
  sim::WaitQueue any_delivery_;
};

}  // namespace mad2::net
