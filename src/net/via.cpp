#include "net/via.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace mad2::net {

ViaParams ViaParams::generic_nic() {
  ViaParams p;
  p.fabric.name = "via";
  p.fabric.wire_mbs = 140.0;
  p.fabric.propagation = sim::from_us(0.8);
  p.fabric.per_packet = sim::from_us(0.5);
  p.fabric.wire_chunk_bytes = 4096;
  p.fabric.rx_slots = 128;
  return p;
}

ViaNetwork::ViaNetwork(sim::Simulator* simulator,
                       std::vector<hw::Node*> nodes, ViaParams params)
    : NicNetwork(simulator, std::move(params)) {
  add_ports(this, nodes);
}

ViaPort::ViaPort(ViaNetwork* network, hw::Node* node, std::uint32_t rank)
    : StagedNicPort(network, node, rank),
      any_completion_(network->simulator_) {
  spawn_tx();
  spawn("rx", [this] { rx_loop(); });
}

ViaMemoryHandle ViaPort::register_memory(
    std::span<const std::byte> region) {
  const ViaParams& params = network_->params_;
  const std::uint64_t pages =
      (region.size() + params.page_bytes - 1) / params.page_bytes;
  node_->charge_cpu(params.register_base +
                    static_cast<sim::Duration>(pages) *
                        params.register_per_page);
  return ViaMemoryHandle{next_handle_++};
}

void ViaPort::deregister(ViaMemoryHandle handle) {
  MAD2_CHECK(handle.id != 0 && handle.id < next_handle_,
             "deregister of unknown handle");
  node_->charge_cpu(network_->params_.register_base / 2);
}

void ViaPort::post_recv(std::uint32_t peer, std::span<std::byte> buffer,
                        std::uint32_t vi) {
  queue_of(vis_, peer, vi).post(buffer);
}

void ViaPort::send(std::uint32_t peer, std::span<const std::byte> data,
                   std::uint32_t vi) {
  const ViaParams& params = network_->params_;
  node_->charge_cpu(params.doorbell);
  const std::uint64_t total = data.size();
  std::uint64_t offset = 0;
  do {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(total - offset, params.mtu);
    // NIC pulls descriptor data from registered host memory.
    host_dma(chunk);
    Packet packet;
    packet.src = rank_;
    packet.dst = peer;
    packet.vi = vi;
    packet.offset = offset;
    packet.total_len = total;
    packet.data.assign(data.begin() + offset, data.begin() + offset + chunk);
    tx_stage_.send(std::move(packet));
    offset += chunk;
  } while (offset < total);
}

void ViaPort::rx_loop() {
  for (;;) {
    Packet packet = network_->fabric_.receive(rank_);
    host_dma(packet.data.size());
    const bool whole =
        queue_of(vis_, packet.src, packet.vi)
            .land(packet.offset, packet.data, packet.total_len,
                  "VIA send with no posted receive descriptor: the VI is "
                  "broken (Madeleine's VIA TM must pre-post or rendezvous)",
                  "VIA send overflows the posted receive descriptor");
    if (whole) any_completion_.notify_all();
  }
}

ViaRecvCompletion ViaPort::wait_recv(std::uint32_t peer, std::uint32_t vi) {
  const PostedReceives::Posted done =
      queue_of(vis_, peer, vi).take("wait_recv with nothing posted");
  node_->charge_cpu(network_->params_.completion);
  return ViaRecvCompletion{done.buffer, done.received};
}

bool ViaPort::recv_ready(std::uint32_t peer, std::uint32_t vi) const {
  const PostedReceives* posted = find_queue(vis_, peer, vi);
  return posted != nullptr && posted->ready();
}

std::size_t ViaPort::posted_count(std::uint32_t peer,
                                  std::uint32_t vi) const {
  const PostedReceives* posted = find_queue(vis_, peer, vi);
  return posted == nullptr ? 0 : posted->size();
}

void ViaPort::wait_any(const std::function<bool()>& pred) {
  while (!pred()) any_completion_.wait();
}

}  // namespace mad2::net
