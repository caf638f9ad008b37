#include "net/sbp.hpp"

namespace mad2::net {

SbpParams SbpParams::fast_ethernet() {
  SbpParams p;
  p.fabric.name = "sbp";
  p.fabric.wire_mbs = 12.5;  // 100 Mb/s
  p.fabric.propagation = sim::from_us(12.0);  // lean kernel interrupt path
  p.fabric.per_packet = sim::from_us(1.0);
  p.fabric.wire_chunk_bytes = 1518;
  p.fabric.rx_slots = 128;
  return p;
}

SbpNetwork::SbpNetwork(sim::Simulator* simulator,
                       std::vector<hw::Node*> nodes, SbpParams params)
    : NicNetwork(simulator, std::move(params)) {
  add_ports(this, nodes);
}

SbpPort::SbpPort(SbpNetwork* network, hw::Node* node, std::uint32_t rank)
    : NicPort(network, node, rank),
      tx_available_(network->simulator_, network->params_.tx_pool),
      inbox_(network->simulator_, network->params_.rx_pool,
             "SBP rx buffer pool overflow: missing flow control "
             "(Madeleine's SBP TM must run credits on top)",
             "release of unknown SBP rx buffer") {
  const SbpParams& params = network_->params_;
  tx_buffers_.resize(params.tx_pool);
  for (std::size_t i = 0; i < params.tx_pool; ++i) {
    tx_buffers_[i].resize(params.buffer_bytes);
    tx_free_.push_back(i);
  }
  spawn("rx", [this] { rx_loop(); });
}

SbpTxBuffer SbpPort::acquire_tx_buffer() {
  tx_available_.acquire();
  MAD2_CHECK(!tx_free_.empty(), "SBP tx pool accounting broken");
  const std::size_t index = tx_free_.back();
  tx_free_.pop_back();
  return SbpTxBuffer{std::span<std::byte>(tx_buffers_[index]), index + 1};
}

void SbpPort::send(std::uint32_t dst, std::uint32_t tag, SbpTxBuffer buffer,
                   std::size_t used) {
  MAD2_CHECK(buffer.handle != 0, "send with an unacquired tx buffer");
  MAD2_CHECK(used <= buffer.memory.size(), "tx buffer overfilled");
  const SbpParams& params = network_->params_;
  node_->charge_cpu(params.send_cost);

  Packet packet;
  packet.src = rank_;
  packet.dst = dst;
  packet.tag = tag;
  packet.data.assign(buffer.memory.begin(), buffer.memory.begin() + used);
  // The NIC pulls the kernel buffer over the bus, after which it returns
  // to the pool.
  host_dma(used);
  network_->fabric_.ship(rank_, dst, std::move(packet),
                         used + params.header_bytes);
  tx_free_.push_back(buffer.handle - 1);
  tx_available_.release();
}

void SbpPort::rx_loop() {
  for (;;) {
    Packet packet = network_->fabric_.receive(rank_);
    host_dma(packet.data.size());
    inbox_.deliver(packet.src, packet.tag, std::move(packet.data));
  }
}

SbpRxBuffer SbpPort::recv(std::uint32_t tag) {
  const SbpRxBuffer buffer = inbox_.take(tag);
  node_->charge_cpu(network_->params_.recv_cost);
  return buffer;
}

}  // namespace mad2::net
