#include "mad/pmm_sbp.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

SbpPmm::SbpPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint), tm_(this, "sbp", "sbp.credit_wait") {
  NetworkInstance& network = endpoint_.channel().network();
  MAD2_CHECK(network.sbp != nullptr, "SbpPmm on a non-SBP network");
  port_ = &network.sbp->port(network.port(endpoint_.local()));
  incoming_wq_ =
      std::make_unique<sim::WaitQueue>(&endpoint_.session().simulator());
}

std::uint32_t SbpPmm::data_tag(std::uint32_t sender_port) const {
  MAD2_CHECK(sender_port < kMaxPorts, "port beyond SBP tag space");
  return endpoint_.channel().id() * 2 * kMaxPorts + sender_port;
}

std::uint32_t SbpPmm::ctrl_tag(std::uint32_t sender_port) const {
  MAD2_CHECK(sender_port < kMaxPorts, "port beyond SBP tag space");
  return endpoint_.channel().id() * 2 * kMaxPorts + kMaxPorts + sender_port;
}

void SbpPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>(&endpoint_.session().simulator());
  state->remote = remote;
  state->remote_port = endpoint_.channel().network().port(remote);
  scan_.add(remote, state.get());
  by_port_[state->remote_port] = std::move(state);
}

SbpPmm::State& SbpPmm::conn_state(std::uint32_t remote) {
  return *by_port_.at(endpoint_.channel().network().port(remote));
}

void SbpPmm::finish_setup() {
  endpoint_.session().simulator().spawn_daemon(
      "mad.sbp.pump." + endpoint_.channel().name() + "." +
          std::to_string(endpoint_.local()),
      [this] { pump_loop(); });
}

Tm& SbpPmm::select_tm(std::size_t, SendMode, ReceiveMode) { return tm_; }

void SbpPmm::pump_loop() {
  std::vector<std::uint32_t> tags;
  for (const auto& [port, state] : by_port_) {
    tags.push_back(data_tag(port));
    tags.push_back(ctrl_tag(port));
  }
  if (tags.empty()) return;

  const std::uint32_t channel_id = endpoint_.channel().id();
  const std::uint32_t ctrl_base = channel_id * 2 * kMaxPorts + kMaxPorts;
  const std::uint32_t data_base = channel_id * 2 * kMaxPorts;

  for (;;) {
    const std::uint32_t tag = port_->wait_multi(tags);
    net::SbpRxBuffer buffer = port_->recv(tag);
    const bool is_ctrl = tag >= ctrl_base;
    const std::uint32_t sender_port =
        is_ctrl ? tag - ctrl_base : tag - data_base;
    const auto it = by_port_.find(sender_port);
    MAD2_CHECK(it != by_port_.end(), "packet from unknown port");
    State& state = *it->second;

    if (is_ctrl) {
      MAD2_CHECK(buffer.data.size() == 8, "malformed SBP credit packet");
      state.window.grant(load_u64(buffer.data.data()));
      port_->release(buffer);
    } else {
      state.deliver(buffer.data, buffer.handle);
    }
    incoming_wq_->notify_all();
  }
}

std::uint32_t SbpPmm::wait_incoming() {
  return scan_.wait([](const State* state) { return !state->rx.empty(); },
                    [this] { incoming_wq_->wait(); });
}

// ---------------------------------------------------------- TM hooks ---

StaticBuffer SbpPmm::tx_slot() {
  const net::SbpTxBuffer buffer = port_->acquire_tx_buffer();
  return StaticBuffer{buffer.memory, 0, buffer.handle};
}

void SbpPmm::post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  auto& state = static_cast<State&>(slots);
  const std::uint32_t my_port =
      endpoint_.channel().network().port(endpoint_.local());
  port_->send(state.remote_port, data_tag(my_port),
              net::SbpTxBuffer{slot.memory, slot.handle}, slot.used);
}

void SbpPmm::return_slot(StaticSlotTm::Slots&, StaticBuffer& slot) {
  net::SbpRxBuffer buffer;
  buffer.handle = slot.handle;
  port_->release(buffer);
}

void SbpPmm::send_credits(StaticSlotTm::Slots& slots, std::size_t count) {
  auto& state = static_cast<State&>(slots);
  net::SbpTxBuffer buffer = port_->acquire_tx_buffer();
  store_u64(buffer.memory.data(), count);
  const std::uint32_t my_port =
      endpoint_.channel().network().port(endpoint_.local());
  port_->send(state.remote_port, ctrl_tag(my_port), buffer, 8);
}

double SbpPmm::bandwidth_hint_mbs() const {
  const net::SbpParams& p = endpoint_.channel().network().sbp->params();
  // Fixed kernel buffers: every buffer_bytes of payload pays header_bytes
  // of framing on the wire.
  const double framed =
      p.fabric.wire_mbs * p.buffer_bytes /
      static_cast<double>(p.buffer_bytes + p.header_bytes);
  return std::min(framed, endpoint_.node().params().pci_dma_mbs);
}

}  // namespace mad2::mad
