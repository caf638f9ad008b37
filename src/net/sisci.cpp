#include "net/sisci.hpp"

#include <algorithm>

namespace mad2::net {

SciParams SciParams::dolphin_d310() {
  SciParams p;
  p.fabric.name = "sci";
  p.fabric.wire_mbs = 150.0;  // SCI link; PCI PIO is the real bottleneck
  p.fabric.propagation = sim::from_us(1.2);
  p.fabric.per_packet = 0;
  p.fabric.wire_chunk_bytes = 4096;
  p.fabric.rx_slots = 64;
  return p;
}

SciNetwork::SciNetwork(sim::Simulator* simulator,
                       std::vector<hw::Node*> nodes, SciParams params)
    : NicNetwork(simulator, std::move(params)) {
  add_ports(this, nodes);
}

SciPort::SciPort(SciNetwork* network, hw::Node* node, std::uint32_t rank)
    : StagedNicPort(network, node, rank), any_delivery_(network->simulator_) {
  spawn_tx();
  spawn("rx", [this] { rx_loop(); });
}

SegmentId SciPort::create_segment(std::size_t bytes) {
  const SegmentId id = next_segment_++;
  segments_.try_emplace(id, bytes, network_->simulator_);
  return id;
}

std::span<std::byte> SciPort::segment_memory(SegmentId segment) {
  auto it = segments_.find(segment);
  MAD2_CHECK(it != segments_.end(), "unknown local segment");
  return it->second.memory;
}

RemoteSegment SciPort::connect(std::uint32_t node, SegmentId segment) {
  MAD2_CHECK(node < network_->size(), "connect to unknown node");
  return RemoteSegment{node, segment};
}

void SciPort::write_common(const RemoteSegment& dst, std::uint64_t offset,
                           std::span<const std::byte> data, bool dma) {
  const SciParams& params = network_->params_;
  node_->charge_cpu(dma ? params.dma_setup : params.pio_setup);
  // Fragment at packet granularity so long writes pipeline across the
  // local bus, the wire, and the remote bus.
  std::uint64_t done = 0;
  do {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(data.size() - done, params.packet_bytes);
    const std::uint64_t bus_bytes = chunk + params.header_bytes;
    if (dma) {
      // The DMA engine reads host memory as a bus master, rate-limited by
      // the (slow) engine itself.
      node_->pci_bus().transfer(
          bus_bytes, std::min(params.dma_engine_mbs,
                              node_->params().pci_dma_mbs),
          hw::TxClass::kDma, pci_initiator());
    } else {
      // CPU stores through the mapped window: PIO class, CPU initiator.
      node_->pci_bus().transfer(bus_bytes, node_->params().pci_pio_mbs,
                                hw::TxClass::kPio,
                                node_->cpu_initiator_id());
    }
    Packet packet;
    packet.src = rank_;
    packet.dst = dst.node;
    packet.segment = dst.segment;
    packet.offset = offset + done;
    packet.data.assign(data.begin() + done, data.begin() + done + chunk);
    tx_stage_.send(std::move(packet));
    done += chunk;
  } while (done < data.size());
}

void SciPort::pio_write(const RemoteSegment& dst, std::uint64_t offset,
                        std::span<const std::byte> data) {
  write_common(dst, offset, data, /*dma=*/false);
}

void SciPort::dma_write(const RemoteSegment& dst, std::uint64_t offset,
                        std::span<const std::byte> data) {
  write_common(dst, offset, data, /*dma=*/true);
}

void SciPort::rx_loop() {
  for (;;) {
    // The NIC chains queued incoming writes into one bus burst.
    for (Packet& packet : receive_burst()) {
      auto it = segments_.find(packet.segment);
      MAD2_CHECK(it != segments_.end(), "remote write to unknown segment");
      Segment& segment = it->second;
      MAD2_CHECK(
          packet.offset + packet.data.size() <= segment.memory.size(),
          "remote write out of segment bounds");
      std::copy(packet.data.begin(), packet.data.end(),
                segment.memory.begin() + packet.offset);
      node_->charge_cpu(network_->params_.deliver_cost);
      segment.waiters.notify_all();
    }
    any_delivery_.notify_all();
  }
}

void SciPort::wait_segment(SegmentId segment,
                           const std::function<bool()>& pred) {
  auto it = segments_.find(segment);
  MAD2_CHECK(it != segments_.end(), "wait on unknown segment");
  while (!pred()) it->second.waiters.wait();
}

void SciPort::wait_delivery(const std::function<bool()>& pred) {
  while (!pred()) any_delivery_.wait();
}

}  // namespace mad2::net
