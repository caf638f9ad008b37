#include "net/bip.hpp"

#include <algorithm>

namespace mad2::net {

BipParams BipParams::myrinet_lanai43() {
  BipParams p;
  p.fabric.name = "myrinet";
  p.fabric.wire_mbs = 160.0;  // Myrinet link, full duplex per port
  p.fabric.propagation = sim::nanoseconds(500);
  p.fabric.per_packet = sim::from_us(1.0);  // LANai firmware per packet
  p.fabric.wire_chunk_bytes = 4096;
  p.fabric.rx_slots = 200;  // ~1 MB SRAM / 4 kB packets (phys. buffering)
  return p;
}

BipNetwork::BipNetwork(sim::Simulator* simulator,
                       std::vector<hw::Node*> nodes, BipParams params)
    : NicNetwork(simulator, std::move(params)) {
  MAD2_CHECK(params_.long_mtu > 0, "long_mtu must be positive");
  add_ports(this, nodes);
}

// -------------------------------------------------------------- BipPort ---

BipPort::BipPort(BipNetwork* network, hw::Node* node, std::uint32_t rank)
    : StagedNicPort(network, node, rank),
      inbox_(network->simulator_, network->params_.short_host_slots,
             "BIP short buffer pool overflow: missing flow control "
             "(Madeleine's credit TM must bound in-flight shorts)",
             "release_short on unknown slot") {
  spawn_tx();
  spawn("rx", [this] { rx_loop(); });
}

void BipPort::stage_packet(Packet packet) {
  // The NIC pulls the data from host memory over PCI (bus-master DMA);
  // the caller regains its buffer once this completes.
  host_dma(packet.data.size());
  tx_stage_.send(std::move(packet));
}

void BipPort::send_short(std::uint32_t dst, std::uint32_t tag,
                         std::span<const std::byte> data) {
  MAD2_CHECK(data.size() <= network_->params_.short_max_bytes,
             "send_short oversized message");
  node_->charge_cpu(network_->params_.tx_overhead);
  Packet packet;
  packet.kind = Packet::Kind::kShort;
  packet.src = rank_;
  packet.dst = dst;
  packet.tag = tag;
  packet.offset = 0;
  packet.total_len = data.size();
  packet.data.assign(data.begin(), data.end());
  stage_packet(std::move(packet));
}

void BipPort::send_long(std::uint32_t dst, std::uint32_t tag,
                        std::span<const std::byte> data) {
  node_->charge_cpu(network_->params_.tx_overhead);
  node_->charge_cpu(network_->params_.long_setup);
  const std::uint64_t total = data.size();
  std::uint64_t offset = 0;
  do {
    const std::uint64_t chunk = std::min<std::uint64_t>(
        total - offset, network_->params_.long_mtu);
    Packet packet;
    packet.kind = Packet::Kind::kLongChunk;
    packet.src = rank_;
    packet.dst = dst;
    packet.tag = tag;
    packet.offset = offset;
    packet.total_len = total;
    packet.data.assign(data.begin() + offset, data.begin() + offset + chunk);
    stage_packet(std::move(packet));
    offset += chunk;
  } while (offset < total);
}

void BipPort::rx_loop() {
  for (;;) {
    // Chained receive DMA: when several packets are queued in NIC SRAM,
    // the LANai pushes them to host memory as one multi-descriptor burst.
    for (Packet& packet : receive_burst()) {
      if (packet.kind == Packet::Kind::kShort) {
        inbox_.deliver(packet.src, packet.tag, std::move(packet.data));
        continue;
      }
      queue_of(posted_, packet.src, packet.tag)
          .land(packet.offset, packet.data, packet.total_len,
                "BIP long chunk with no posted receive: missing rendezvous "
                "(Madeleine's long TM must synchronize sender and receiver)",
                "BIP long chunk overflows the posted receive buffer");
    }
  }
}

BipShortSlot BipPort::recv_short(std::uint32_t tag) {
  const BipShortSlot slot = inbox_.take(tag);
  node_->charge_cpu(network_->params_.rx_overhead);
  return slot;
}

std::size_t BipPort::recv_short_copy(std::uint32_t tag,
                                     std::span<std::byte> out,
                                     std::uint32_t* src) {
  BipShortSlot slot = recv_short(tag);
  MAD2_CHECK(out.size() >= slot.data.size(),
             "recv_short_copy output buffer too small");
  node_->charge_memcpy(slot.data.size());
  std::copy(slot.data.begin(), slot.data.end(), out.begin());
  if (src != nullptr) *src = slot.src;
  const std::size_t n = slot.data.size();
  release_short(slot);
  return n;
}

void BipPort::post_recv_long(std::uint32_t src, std::uint32_t tag,
                             std::span<std::byte> out) {
  // Posting pins the buffer and programs the NIC before the sender may
  // transmit (BIP's strict synchronization).
  node_->charge_cpu(network_->params_.long_setup);
  queue_of(posted_, src, tag).post(out);
}

void BipPort::wait_recv_long(std::uint32_t src, std::uint32_t tag) {
  queue_of(posted_, src, tag).take("wait_recv_long with nothing posted");
  node_->charge_cpu(network_->params_.rx_overhead);
}

std::size_t BipPort::posted_count() const {
  std::size_t count = 0;
  for (const auto& [key, queue] : posted_) count += queue.size();
  return count;
}

}  // namespace mad2::net
