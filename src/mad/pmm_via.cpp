#include "mad/pmm_via.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace mad2::mad {

ViaPmm::ViaPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint),
      short_tm_(this, "via-short", "via.credit_wait"),
      bulk_tm_(this),
      incoming_wq_(&endpoint_.session().simulator()) {
  NetworkInstance& network = endpoint_.channel().network();
  port_ = &network.as<net::ViaNetwork>().port(network.port(endpoint_.local()));
}

std::uint32_t ViaPmm::short_vi() const {
  return endpoint_.channel().id() * 2 + kShortVi;
}

std::uint32_t ViaPmm::bulk_vi() const {
  return endpoint_.channel().id() * 2 + kBulkVi;
}

void ViaPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>(
      &endpoint_.session().simulator(),
      endpoint_.channel().network().port(remote));
  // Preregistered receive pool for VI 0: data credits plus headroom for
  // control packets (<= 1 REQ + 1 ACK + credit returns in flight).
  const std::size_t pool_size = kInitialCredits + 4;
  state->pool.resize(pool_size);
  for (auto& buffer : state->pool) {
    buffer.resize(kPacketBytes);
    (void)port_->register_memory(buffer);
    port_->post_recv(state->remote_port, buffer, short_vi());
  }
  scan_.add(remote, state.get());
  states_[remote] = std::move(state);
}

ViaPmm::State& ViaPmm::conn_state(std::uint32_t remote) {
  return *states_.at(remote);
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
          ready = state.get();
          return true;
        }
      }
      return false;
    });
    net::ViaRecvCompletion completion =
        port_->wait_recv(ready->remote_port, short_vi());
    MAD2_CHECK(completion.bytes >= kHeaderBytes, "malformed VIA packet");
    const std::uint32_t wire = load_u32(completion.buffer.data());
    const auto kind = static_cast<StaticSlotTm::Packet>(
        std::find(kWireKind.begin(), kWireKind.end(), wire) -
        kWireKind.begin());
    const std::uint32_t value = load_u32(completion.buffer.data() + 4);

    // Identify which pool buffer completed.
    const auto buffer = std::find_if(
        ready->pool.begin(), ready->pool.end(), [&](const auto& candidate) {
          return candidate.data() == completion.buffer.data();
        });
    MAD2_CHECK(buffer != ready->pool.end(), "completion on unknown buffer");
    const std::size_t index = buffer - ready->pool.begin();

    ready->dispatch(kind, value,
                    std::span<const std::byte>(*buffer).subspan(
                        kHeaderBytes, completion.bytes - kHeaderBytes),
                    index + 1);
    // A data slot stays with the TM until return_slot; a control packet's
    // buffer is reposted at once, after its wake.
    if (kind != StaticSlotTm::Packet::kData) {
      port_->post_recv(ready->remote_port, *buffer, short_vi());
    }
    incoming_wq_.notify_all();
  }
}

void ViaPmm::send_ctrl(StaticSlotTm::Slots& slots, StaticSlotTm::Packet kind,
                       std::uint64_t value) {
  std::array<std::byte, kHeaderBytes> header;
  store_u32(header.data(), kWireKind[static_cast<std::size_t>(kind)]);
  store_u32(header.data() + 4, static_cast<std::uint32_t>(value));
  port_->send(slots.remote_port, header, short_vi());
}

// ------------------------------------------------------ short-TM hooks ---

StaticBuffer ViaPmm::tx_slot() {
  std::size_t index;
  if (!staging_free_.empty()) {
    index = staging_free_.back();
    staging_free_.pop_back();
  } else {
    index = staging_.size();
    staging_.emplace_back(kPacketBytes);
    (void)port_->register_memory(staging_.back());
  }
  return StaticBuffer{std::span<std::byte>(staging_[index]).subspan(
                          kHeaderBytes),
                      0, index + 1};
}

void ViaPmm::post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  std::vector<std::byte>& packet = staging_[slot.handle - 1];
  store_u32(packet.data(),
            kWireKind[static_cast<std::size_t>(StaticSlotTm::Packet::kData)]);
  store_u32(packet.data() + 4, static_cast<std::uint32_t>(slot.used));
  port_->send(slots.remote_port,
              std::span<const std::byte>(packet).subspan(
                  0, kHeaderBytes + slot.used),
              short_vi());
  staging_free_.push_back(slot.handle - 1);
}

void ViaPmm::return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  auto& state = static_cast<State&>(slots);
  port_->post_recv(state.remote_port, state.pool[slot.handle - 1],
                   short_vi());
}

void ViaPmm::send_credits(StaticSlotTm::Slots& slots, std::size_t count) {
  send_ctrl(slots, StaticSlotTm::Packet::kCredit, count);
}

// --------------------------------------------------------------- ViaBulkTm ---

void ViaBulkTm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  auto& state = connection.state<ViaPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();

  pmm_->send_ctrl(state, StaticSlotTm::Packet::kReq, total);
  state.wait_ack("via.rdv_wait", total, group.size());

  for (const auto& block : group) {
    // VIA requires the source to live in registered memory.
    (void)pmm_->port().register_memory(block);
    pmm_->port().send(state.remote_port, block, pmm_->bulk_vi());
  }
}

void ViaBulkTm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  auto& state = connection.state<ViaPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();
  state.take_req(total);

  for (const auto& block : group) {
    (void)pmm_->port().register_memory(block);
    pmm_->port().post_recv(state.remote_port, block, pmm_->bulk_vi());
  }
  pmm_->send_ctrl(state, StaticSlotTm::Packet::kAck, 0);
  for (std::size_t i = 0; i < group.size(); ++i) {
    (void)pmm_->port().wait_recv(state.remote_port, pmm_->bulk_vi());
  }
}


double ViaPmm::bandwidth_hint_mbs() const {
  const auto& p = endpoint_.channel().network().as<net::ViaNetwork>().params();
  return std::min(p.fabric.wire_mbs, endpoint_.node().params().pci_dma_mbs);
}

}  // namespace mad2::mad
