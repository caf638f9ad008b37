#include "mad/pmm_sbp.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace mad2::mad {

SbpPmm::SbpPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint),
      tags_(endpoint.channel().id(), "port beyond SBP tag space"),
      my_port_(endpoint.channel().network().port(endpoint.local())),
      tm_(this, "sbp", "sbp.credit_wait"),
      incoming_wq_(&endpoint_.session().simulator()) {
  port_ = &endpoint_.channel().network().as<net::SbpNetwork>().port(my_port_);
}

void SbpPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>(
      &endpoint_.session().simulator(),
      endpoint_.channel().network().port(remote), kInitialCredits,
      kCreditBatch);
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
  const std::vector<std::uint32_t> tags = tags_.of(by_port_);
  if (tags.empty()) return;

  for (;;) {
    const std::uint32_t tag = port_->inbox().wait_any(tags);
    net::SbpRxBuffer buffer = port_->recv(tag);
    const auto it = by_port_.find(tags_.sender(tag));
    MAD2_CHECK(it != by_port_.end(), "packet from unknown port");
    State& state = *it->second;

    if (tags_.is_ctrl(tag)) {
      // The control tag carries credits only; its buffer goes back after
      // the grant.
      MAD2_CHECK(buffer.data.size() == 8, "malformed SBP credit packet");
      state.dispatch(StaticSlotTm::Packet::kCredit,
                     load_u64(buffer.data.data()));
      port_->release(buffer);
    } else {
      state.dispatch(StaticSlotTm::Packet::kData, 0, buffer.data,
                     buffer.handle);
    }
    incoming_wq_.notify_all();
  }
}

// ---------------------------------------------------------- TM hooks ---

StaticBuffer SbpPmm::tx_slot() {
  const net::SbpTxBuffer buffer = port_->acquire_tx_buffer();
  return StaticBuffer{buffer.memory, 0, buffer.handle};
}

void SbpPmm::post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  port_->send(slots.remote_port, tags_.data(my_port_),
              net::SbpTxBuffer{slot.memory, slot.handle}, slot.used);
}

void SbpPmm::return_slot(StaticSlotTm::Slots&, StaticBuffer& slot) {
  port_->inbox().release(slot.handle);
}

void SbpPmm::send_credits(StaticSlotTm::Slots& slots, std::size_t count) {
  net::SbpTxBuffer buffer = port_->acquire_tx_buffer();
  store_u64(buffer.memory.data(), count);
  port_->send(slots.remote_port, tags_.ctrl(my_port_), buffer, 8);
}

double SbpPmm::bandwidth_hint_mbs() const {
  const auto& p = endpoint_.channel().network().as<net::SbpNetwork>().params();
  // Fixed kernel buffers: every buffer_bytes of payload pays header_bytes
  // of framing on the wire.
  const double framed =
      p.fabric.wire_mbs * p.buffer_bytes /
      static_cast<double>(p.buffer_bytes + p.header_bytes);
  return std::min(framed, endpoint_.node().params().pci_dma_mbs);
}

}  // namespace mad2::mad
