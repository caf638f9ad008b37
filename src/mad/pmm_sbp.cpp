#include "mad/pmm_sbp.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

SbpPmm::SbpPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint), tm_(this) {
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

std::unique_ptr<Pmm::ConnState> SbpPmm::make_conn_state(
    std::uint32_t remote) {
  auto state = std::make_unique<State>(&endpoint_.session().simulator());
  state->remote = remote;
  state->remote_port = endpoint_.channel().network().port(remote);
  states_[remote] = state.get();
  by_port_[state->remote_port] = remote;
  peer_order_.push_back(remote);
  return state;
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
  for (const auto& [port, remote] : by_port_) {
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
    auto remote_it = by_port_.find(sender_port);
    MAD2_CHECK(remote_it != by_port_.end(), "packet from unknown port");
    State& state = *states_.at(remote_it->second);

    if (is_ctrl) {
      MAD2_CHECK(buffer.data.size() == 8, "malformed SBP credit packet");
      state.window.grant(load_u64(buffer.data.data()));
      port_->release(buffer);
    } else {
      state.incoming.push_back(buffer);
      state.recv_wq.notify_all();
    }
    incoming_wq_->notify_all();
  }
}

std::uint32_t SbpPmm::wait_incoming() {
  for (;;) {
    for (std::size_t k = 0; k < peer_order_.size(); ++k) {
      const std::size_t idx = (rr_next_ + k) % peer_order_.size();
      State& state = *states_.at(peer_order_[idx]);
      if (!state.incoming.empty()) {
        rr_next_ = (idx + 1) % peer_order_.size();
        return peer_order_[idx];
      }
    }
    incoming_wq_->wait();
  }
}

void SbpPmm::send_credits(State& state, std::uint64_t count) {
  net::SbpTxBuffer buffer = port_->acquire_tx_buffer();
  store_u64(buffer.memory.data(), count);
  const std::uint32_t my_port =
      endpoint_.channel().network().port(endpoint_.local());
  port_->send(state.remote_port, ctrl_tag(my_port), buffer, 8);
}

StaticBuffer SbpPmm::wrap(net::SbpRxBuffer buffer) {
  const std::uint64_t handle = next_handle_++;
  StaticBuffer wrapped;
  wrapped.memory = std::span<std::byte>(
      const_cast<std::byte*>(buffer.data.data()), buffer.data.size());
  wrapped.used = buffer.data.size();
  wrapped.handle = handle;
  checked_out_rx_.emplace(handle, buffer);
  return wrapped;
}

net::SbpRxBuffer SbpPmm::unwrap(const StaticBuffer& buffer) {
  auto it = checked_out_rx_.find(buffer.handle);
  MAD2_CHECK(it != checked_out_rx_.end(), "unknown rx buffer handle");
  net::SbpRxBuffer raw = it->second;
  checked_out_rx_.erase(it);
  return raw;
}

StaticBuffer SbpPmm::wrap_tx(net::SbpTxBuffer buffer) {
  const std::uint64_t handle = next_handle_++;
  StaticBuffer wrapped;
  wrapped.memory = buffer.memory;
  wrapped.used = 0;
  wrapped.handle = handle;
  checked_out_tx_.emplace(handle, buffer);
  return wrapped;
}

net::SbpTxBuffer SbpPmm::unwrap_tx(const StaticBuffer& buffer) {
  auto it = checked_out_tx_.find(buffer.handle);
  MAD2_CHECK(it != checked_out_tx_.end(), "unknown tx buffer handle");
  net::SbpTxBuffer raw = it->second;
  checked_out_tx_.erase(it);
  return raw;
}

// -------------------------------------------------------------------- TM ---

void SbpTm::send_buffer(Connection&, std::span<const std::byte>) {
  MAD2_CHECK(false, "SBP moves data through static buffers only");
}

void SbpTm::receive_buffer(Connection&, std::span<std::byte>) {
  MAD2_CHECK(false, "SBP moves data through static buffers only");
}

StaticBuffer SbpTm::obtain_static_buffer(Connection&) {
  return pmm_->wrap_tx(pmm_->port().acquire_tx_buffer());
}

void SbpTm::send_static_buffer(Connection& connection,
                               StaticBuffer& buffer) {
  auto& state = connection.state<SbpPmm::State>();
  state.window.acquire("sbp.credit_wait", buffer.used);
  net::SbpTxBuffer raw = pmm_->unwrap_tx(buffer);
  const std::uint32_t my_port = pmm_->endpoint().channel().network().port(
      pmm_->endpoint().local());
  pmm_->port().send(state.remote_port, pmm_->data_tag(my_port), raw,
                    buffer.used);
  buffer = StaticBuffer{};
}

StaticBuffer SbpTm::receive_static_buffer(Connection& connection) {
  auto& state = connection.state<SbpPmm::State>();
  if (state.incoming.empty()) {
    // About to block: flush owed credits first.
    if (const std::size_t owed = state.window.take_owed()) {
      pmm_->send_credits(state, owed);
    }
  }
  while (state.incoming.empty()) state.recv_wq.wait();
  net::SbpRxBuffer buffer = state.incoming.front();
  state.incoming.pop_front();
  return pmm_->wrap(buffer);
}

void SbpTm::release_static_buffer(Connection& connection,
                                  StaticBuffer& buffer) {
  auto& state = connection.state<SbpPmm::State>();
  net::SbpRxBuffer raw = pmm_->unwrap(buffer);
  pmm_->port().release(raw);
  buffer = StaticBuffer{};
  if (const std::size_t owed = state.window.release()) {
    pmm_->send_credits(state, owed);
  }
}

CreditWindow* SbpTm::credit_window(Connection& connection) {
  return &connection.state<SbpPmm::State>().window;
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
