#include "mad/pmm_bip.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

// ----------------------------------------------------------------- BipPmm ---

BipPmm::BipPmm(ChannelEndpoint& endpoint, BipPmmOptions options)
    : endpoint_(endpoint),
      options_(options),
      tags_(endpoint.channel().id(), "port beyond BIP tag space"),
      my_port_(endpoint.channel().network().port(endpoint.local())),
      short_tm_(this, "bip-short", "bip.credit_wait"),
      long_tm_(this),
      incoming_wq_(&endpoint_.session().simulator()) {
  auto& network = endpoint_.channel().network().as<net::BipNetwork>();
  port_ = &network.port(my_port_);
  params_ = &network.params();
  MAD2_CHECK(options_.credits <= params_->short_host_slots / 2,
             "credit window exceeds what the BIP buffer pool can back");
}

void BipPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>(
      &endpoint_.session().simulator(),
      endpoint_.channel().network().port(remote), options_);
  by_port_[state->remote_port] = state.get();
  scan_.add(remote, state.get());
  states_[remote] = std::move(state);
}

BipPmm::State& BipPmm::conn_state(std::uint32_t remote) {
  return *states_.at(remote);
}

void BipPmm::finish_setup() {
  // Pre-size the staging pool so the steady state never allocates:
  // staging buffers are released right after each send. Growth past this
  // size is still possible and is then counted against the node.
  const std::size_t stages = states_.size() * 4;
  staging_.reserve(stages);
  staging_free_.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    staging_.emplace_back(short_capacity());
    staging_free_.push_back(i);
  }

  // Fastpath: owed credits accumulate for the node's progress tick.
  const SessionConfig& config = endpoint_.session().config();
  if (config.fastpath) {
    engine_ = endpoint_.session().progress_engine(endpoint_.local());
    doorbell_ = engine_->register_client(this, [](void* ctx) {
      static_cast<BipPmm*>(ctx)->flush_owed_credits();
    });
    defer_credits_ = true;
  }

  // The pump needs every connection's state; spawn it only now.
  endpoint_.session().simulator().spawn_daemon(
      "mad.bip.pump." + endpoint_.channel().name() + "." +
          std::to_string(endpoint_.local()),
      [this] { pump_loop(); });
}

void BipPmm::flush_owed_credits() {
  for (auto& [remote, state] : states_) short_tm_.flush_owed(*state);
}

Tm& BipPmm::select_tm(std::size_t len, SendMode, ReceiveMode) {
  if (len <= short_capacity()) return short_tm_;
  return long_tm_;
}

void BipPmm::pump_loop() {
  const std::vector<std::uint32_t> tags = tags_.of(by_port_);
  if (tags.empty()) return;

  for (;;) {
    // wait_any returns at once while a packet is queued on any of our
    // tags, so a burst of N packets costs one pump wakeup, not N.
    const std::uint32_t tag = port_->inbox().wait_any(tags);
    net::BipShortSlot slot = port_->recv_short(tag);
    const auto state_it = by_port_.find(tags_.sender(tag));
    MAD2_CHECK(state_it != by_port_.end(), "packet from unknown port");
    State& state = *state_it->second;

    if (tags_.is_ctrl(tag)) {
      // The control slot goes back before the packet takes effect.
      MAD2_CHECK(slot.data.size() == 9, "malformed BIP control packet");
      const auto kind = static_cast<StaticSlotTm::Packet>(slot.data[0]);
      const std::uint64_t value = load_u64(slot.data.data() + 1);
      port_->release_short(slot);
      state.dispatch(kind, value);
    } else {
      state.dispatch(StaticSlotTm::Packet::kData, 0, slot.data, slot.handle);
    }
    incoming_wq_.notify_all();
  }
}

void BipPmm::send_ctrl(StaticSlotTm::Slots& slots, StaticSlotTm::Packet kind,
                       std::uint64_t value) {
  std::array<std::byte, 9> packet;
  packet[0] = static_cast<std::byte>(kind);
  store_u64(packet.data() + 1, value);
  port_->send_short(slots.remote_port, tags_.ctrl(my_port_), packet);
}

StaticBuffer BipPmm::tx_slot() {
  std::size_t index;
  if (!staging_free_.empty()) {
    index = staging_free_.back();
    staging_free_.pop_back();
  } else {
    // Pool exhausted (never in steady state — finish_setup pre-sizes it):
    // an honest heap allocation, charged to the node.
    index = staging_.size();
    staging_.emplace_back(short_capacity());
    endpoint_.node().count_alloc();
  }
  return StaticBuffer{std::span<std::byte>(staging_[index]), 0,
                      /*handle=*/index + 1};
}

void BipPmm::post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  MAD2_TRACE_EVENT(obs::Category::kTm, "bip.send_short", nullptr, slot.used,
                   slots.window.credits());
  port_->send_short(slots.remote_port, tags_.data(my_port_),
                    slot.memory.subspan(0, slot.used));
  staging_free_.push_back(slot.handle - 1);
}

void BipPmm::return_slot(StaticSlotTm::Slots&, StaticBuffer& slot) {
  port_->inbox().release(slot.handle);
}

void BipPmm::send_credits(StaticSlotTm::Slots& slots, std::size_t count) {
  send_ctrl(slots, StaticSlotTm::Packet::kCredit, count);
}

bool BipPmm::defer_credit_return() {
  // The tick sends one coalesced return per indebted peer; the flush
  // before blocking on an empty queue covers stragglers.
  if (defer_credits_) engine_->ring(doorbell_);
  return defer_credits_;
}

// -------------------------------------------------------------- BipLongTm ---

void BipLongTm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  auto& state = connection.state<BipPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();

  // Rendezvous: announce, wait for the receiver's acknowledgment (BIP
  // long receives must be posted before data arrives), then ship.
  pmm_->send_ctrl(state, StaticSlotTm::Packet::kReq, total);
  state.wait_ack("bip.rdv_wait", total, group.size());

  MAD2_TRACE_SPAN(post, obs::Category::kTm, "bip.send_long");
  post.args(total, group.size());
  for (const auto& block : group) {
    pmm_->port().send_long(state.remote_port,
                           pmm_->tags().data(pmm_->my_port()), block);
  }
}

void BipLongTm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  auto& state = connection.state<BipPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();
  state.take_req(total);

  // Post every receive, acknowledge, then wait for the data to land
  // directly in the user buffers (zero-copy).
  const std::uint32_t tag = pmm_->tags().data(state.remote_port);
  for (const auto& block : group) {
    pmm_->port().post_recv_long(state.remote_port, tag, block);
  }
  pmm_->send_ctrl(state, StaticSlotTm::Packet::kAck, 0);
  MAD2_TRACE_SPAN(land, obs::Category::kTm, "bip.recv_long");
  land.args(total, group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    pmm_->port().wait_recv_long(state.remote_port, tag);
  }
}


double BipPmm::bandwidth_hint_mbs() const {
  // Long messages are NIC DMA transfers: the slower of wire and PCI DMA.
  return std::min(params_->fabric.wire_mbs,
                  endpoint_.node().params().pci_dma_mbs);
}

}  // namespace mad2::mad
