#include "mad/pmm_via.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

ViaPmm::ViaPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint), short_tm_(this), bulk_tm_(this) {
  NetworkInstance& network = endpoint_.channel().network();
  MAD2_CHECK(network.via != nullptr, "ViaPmm on a non-VIA network");
  port_ = &network.via->port(network.port(endpoint_.local()));
  incoming_wq_ =
      std::make_unique<sim::WaitQueue>(&endpoint_.session().simulator());
}

std::uint32_t ViaPmm::short_vi() const {
  return endpoint_.channel().id() * 2 + kShortVi;
}

std::uint32_t ViaPmm::bulk_vi() const {
  return endpoint_.channel().id() * 2 + kBulkVi;
}

std::unique_ptr<Pmm::ConnState> ViaPmm::make_conn_state(
    std::uint32_t remote) {
  auto state = std::make_unique<State>(&endpoint_.session().simulator());
  state->remote = remote;
  state->remote_port = endpoint_.channel().network().port(remote);
  // Preregistered receive pool for VI 0: data credits plus headroom for
  // control packets (<= 1 REQ + 1 ACK + credit returns in flight).
  const std::size_t pool_size = kInitialCredits + 4;
  state->pool.resize(pool_size);
  for (auto& buffer : state->pool) {
    buffer.resize(kPacketBytes);
    (void)port_->register_memory(buffer);
    port_->post_recv(state->remote_port, buffer, short_vi());
  }
  states_[remote] = state.get();
  peer_order_.push_back(remote);
  return state;
}

void ViaPmm::finish_setup() {
  endpoint_.session().simulator().spawn_daemon(
      "mad.via.pump." + endpoint_.channel().name() + "." +
          std::to_string(endpoint_.local()),
      [this] { pump_loop(); });
}

Tm& ViaPmm::select_tm(std::size_t len, SendMode, ReceiveMode) {
  if (len <= kShortCapacity) return short_tm_;
  return bulk_tm_;
}

void ViaPmm::pump_loop() {
  if (states_.empty()) return;
  for (;;) {
    State* ready = nullptr;
    port_->wait_any([&] {
      for (auto& [remote, state] : states_) {
        if (port_->recv_ready(state->remote_port, short_vi())) {
          ready = state;
          return true;
        }
      }
      return false;
    });
    net::ViaRecvCompletion completion =
        port_->wait_recv(ready->remote_port, short_vi());
    MAD2_CHECK(completion.bytes >= kHeaderBytes, "malformed VIA packet");
    const auto kind =
        static_cast<PacketKind>(load_u32(completion.buffer.data()));
    const std::uint32_t value = load_u32(completion.buffer.data() + 4);

    // Identify which pool buffer completed.
    std::size_t index = ready->pool.size();
    for (std::size_t i = 0; i < ready->pool.size(); ++i) {
      if (ready->pool[i].data() == completion.buffer.data()) {
        index = i;
        break;
      }
    }
    MAD2_CHECK(index < ready->pool.size(), "completion on unknown buffer");

    switch (kind) {
      case PacketKind::kData:
        ready->data_pkts.emplace_back(index,
                                      completion.bytes - kHeaderBytes);
        ready->recv_wq.notify_all();
        break;
      case PacketKind::kReq:
        ready->reqs.push_back(value);
        ready->recv_wq.notify_all();
        port_->post_recv(ready->remote_port, ready->pool[index], short_vi());
        break;
      case PacketKind::kAck:
        ++ready->acks;
        ready->ack_wq.notify_all();
        port_->post_recv(ready->remote_port, ready->pool[index], short_vi());
        break;
      case PacketKind::kCredit:
        ready->window.grant(value);
        port_->post_recv(ready->remote_port, ready->pool[index], short_vi());
        break;
    }
    incoming_wq_->notify_all();
  }
}

std::uint32_t ViaPmm::wait_incoming() {
  for (;;) {
    for (std::size_t k = 0; k < peer_order_.size(); ++k) {
      const std::size_t idx = (rr_next_ + k) % peer_order_.size();
      State& state = *states_.at(peer_order_[idx]);
      if (!state.data_pkts.empty() || !state.reqs.empty()) {
        rr_next_ = (idx + 1) % peer_order_.size();
        return peer_order_[idx];
      }
    }
    incoming_wq_->wait();
  }
}

void ViaPmm::send_packet(State& state, PacketKind kind, std::uint64_t value,
                         std::span<const std::byte> payload) {
  MAD2_CHECK(payload.size() <= kShortCapacity, "VIA packet too large");
  std::vector<std::byte> packet(kHeaderBytes + payload.size());
  store_u32(packet.data(), static_cast<std::uint32_t>(kind));
  store_u32(packet.data() + 4, static_cast<std::uint32_t>(value));
  if (!payload.empty()) {
    std::memcpy(packet.data() + kHeaderBytes, payload.data(),
                payload.size());
  }
  port_->send(state.remote_port, packet, short_vi());
}

// -------------------------------------------------------------- ViaShortTm ---

void ViaShortTm::send_buffer(Connection&, std::span<const std::byte>) {
  MAD2_CHECK(false, "VIA short TM only moves static buffers");
}

void ViaShortTm::receive_buffer(Connection&, std::span<std::byte>) {
  MAD2_CHECK(false, "VIA short TM only moves static buffers");
}

StaticBuffer ViaShortTm::obtain_static_buffer(Connection&) {
  std::size_t index;
  if (!pmm_->staging_free_.empty()) {
    index = pmm_->staging_free_.back();
    pmm_->staging_free_.pop_back();
  } else {
    index = pmm_->staging_.size();
    pmm_->staging_.emplace_back(ViaPmm::kPacketBytes);
    (void)pmm_->port().register_memory(pmm_->staging_.back());
  }
  return StaticBuffer{
      std::span<std::byte>(pmm_->staging_[index])
          .subspan(ViaPmm::kHeaderBytes),
      0, index + 1};
}

void ViaShortTm::send_static_buffer(Connection& connection,
                                    StaticBuffer& buffer) {
  auto& state = connection.state<ViaPmm::State>();
  const std::size_t index = buffer.handle - 1;
  std::vector<std::byte>& packet = pmm_->staging_[index];
  store_u32(packet.data(),
            static_cast<std::uint32_t>(ViaPmm::PacketKind::kData));
  store_u32(packet.data() + 4, static_cast<std::uint32_t>(buffer.used));

  state.window.acquire("via.credit_wait", buffer.used);
  pmm_->port().send(
      state.remote_port,
      std::span<const std::byte>(packet).subspan(
          0, ViaPmm::kHeaderBytes + buffer.used),
      pmm_->short_vi());
  pmm_->staging_free_.push_back(index);
  buffer = StaticBuffer{};
}

StaticBuffer ViaShortTm::receive_static_buffer(Connection& connection) {
  auto& state = connection.state<ViaPmm::State>();
  if (state.data_pkts.empty()) {
    // About to block: flush owed credits first.
    if (const std::size_t owed = state.window.take_owed()) {
      pmm_->send_ctrl(state, ViaPmm::PacketKind::kCredit, owed);
    }
  }
  while (state.data_pkts.empty()) state.recv_wq.wait();
  auto [index, bytes] = state.data_pkts.front();
  state.data_pkts.pop_front();
  return StaticBuffer{
      std::span<std::byte>(state.pool[index])
          .subspan(ViaPmm::kHeaderBytes, bytes),
      bytes, index + 1};
}

void ViaShortTm::release_static_buffer(Connection& connection,
                                       StaticBuffer& buffer) {
  auto& state = connection.state<ViaPmm::State>();
  const std::size_t index = buffer.handle - 1;
  pmm_->port().post_recv(state.remote_port, state.pool[index],
                         pmm_->short_vi());
  buffer = StaticBuffer{};
  if (const std::size_t owed = state.window.release()) {
    pmm_->send_ctrl(state, ViaPmm::PacketKind::kCredit, owed);
  }
}

CreditWindow* ViaShortTm::credit_window(Connection& connection) {
  return &connection.state<ViaPmm::State>().window;
}

// --------------------------------------------------------------- ViaBulkTm ---

void ViaBulkTm::send_buffer(Connection& connection,
                            std::span<const std::byte> data) {
  send_buffer_group(connection, {data});
}

void ViaBulkTm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  auto& state = connection.state<ViaPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();

  pmm_->send_ctrl(state, ViaPmm::PacketKind::kReq, total);
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "via.rdv_wait");
    wait.args(total, group.size());
    while (state.acks == 0) state.ack_wq.wait();
  }
  --state.acks;

  for (const auto& block : group) {
    // VIA requires the source to live in registered memory.
    (void)pmm_->port().register_memory(block);
    pmm_->port().send(state.remote_port, block, pmm_->bulk_vi());
  }
}

void ViaBulkTm::receive_buffer(Connection& connection,
                               std::span<std::byte> out) {
  std::vector<std::span<std::byte>> group{out};
  receive_sub_buffer_group(connection, group);
}

void ViaBulkTm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  auto& state = connection.state<ViaPmm::State>();
  while (state.reqs.empty()) state.recv_wq.wait();
  const std::uint64_t announced = state.reqs.front();
  state.reqs.pop_front();

  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();
  MAD2_CHECK(announced == total,
             "rendezvous size mismatch: asymmetric pack/unpack sequences");

  for (const auto& block : group) {
    (void)pmm_->port().register_memory(block);
    pmm_->port().post_recv(state.remote_port, block, pmm_->bulk_vi());
  }
  pmm_->send_ctrl(state, ViaPmm::PacketKind::kAck, 0);
  for (std::size_t i = 0; i < group.size(); ++i) {
    (void)pmm_->port().wait_recv(state.remote_port, pmm_->bulk_vi());
  }
}


double ViaPmm::bandwidth_hint_mbs() const {
  const net::ViaParams& p = endpoint_.channel().network().via->params();
  return std::min(p.fabric.wire_mbs, endpoint_.node().params().pci_dma_mbs);
}

}  // namespace mad2::mad
