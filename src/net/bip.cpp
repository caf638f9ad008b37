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
      any_short_arrival_(network->simulator_) {
  spawn_tx();
  spawn("rx", [this] { rx_loop(); });
}

BipPort::TagQueue& BipPort::tag_queue(std::uint32_t tag) {
  return short_queues_.try_emplace(tag, network_->simulator_).first->second;
}

BipPort::PostedQueue& BipPort::posted_queue(std::uint32_t src,
                                            std::uint32_t tag) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | tag;
  return posted_.try_emplace(key, network_->simulator_).first->second;
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
        handle_short(std::move(packet));
      } else {
        handle_long_chunk(std::move(packet));
      }
    }
  }
}

void BipPort::handle_short(Packet packet) {
  MAD2_CHECK(short_slots_in_use_ < network_->params_.short_host_slots,
             "BIP short buffer pool overflow: missing flow control "
             "(Madeleine's credit TM must bound in-flight shorts)");
  ++short_slots_in_use_;
  TagQueue& queue = tag_queue(packet.tag);
  queue.entries.push_back(
      ShortQueueEntry{packet.src, std::move(packet.data), next_slot_id_++});
  queue.arrival.notify_all();
  any_short_arrival_.notify_all();
}

void BipPort::handle_long_chunk(Packet packet) {
  PostedQueue& queue = posted_queue(packet.src, packet.tag);
  PostedRecv* recv = nullptr;
  for (PostedRecv& candidate : queue.posts) {
    if (!candidate.complete) {
      recv = &candidate;
      break;
    }
  }
  MAD2_CHECK(recv != nullptr,
             "BIP long chunk with no posted receive: missing rendezvous "
             "(Madeleine's long TM must synchronize sender and receiver)");
  MAD2_CHECK(recv->out.size() >= packet.offset + packet.data.size(),
             "BIP long chunk overflows the posted receive buffer");
  std::copy(packet.data.begin(), packet.data.end(),
            recv->out.begin() + packet.offset);
  recv->received += packet.data.size();
  if (recv->received >= packet.total_len) {
    recv->complete = true;
    queue.completion.notify_all();
  }
}

BipShortSlot BipPort::recv_short(std::uint32_t tag) {
  TagQueue& queue = tag_queue(tag);
  while (queue.entries.empty()) queue.arrival.wait();
  ShortQueueEntry entry = std::move(queue.entries.front());
  queue.entries.pop_front();
  node_->charge_cpu(network_->params_.rx_overhead);
  BipShortSlot slot;
  slot.src = entry.src;
  slot.tag = tag;
  slot.slot_id = entry.slot_id;
  auto [it, inserted] =
      checked_out_.emplace(entry.slot_id, std::move(entry.data));
  MAD2_CHECK(inserted, "duplicate short slot id");
  slot.data = std::span<const std::byte>(it->second);
  return slot;
}

void BipPort::release_short(const BipShortSlot& slot) {
  const auto erased = checked_out_.erase(slot.slot_id);
  MAD2_CHECK(erased == 1, "release_short on unknown slot");
  MAD2_CHECK(short_slots_in_use_ > 0, "short slot accounting underflow");
  --short_slots_in_use_;
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

bool BipPort::short_pending(std::uint32_t tag) const {
  auto it = short_queues_.find(tag);
  return it != short_queues_.end() && !it->second.entries.empty();
}

std::uint32_t BipPort::wait_short(std::uint32_t tag) {
  TagQueue& queue = tag_queue(tag);
  while (queue.entries.empty()) queue.arrival.wait();
  return queue.entries.front().src;
}

std::uint32_t BipPort::wait_short_multi(
    const std::vector<std::uint32_t>& tags) {
  MAD2_CHECK(!tags.empty(), "wait_short_multi with no tags");
  for (;;) {
    for (std::uint32_t tag : tags) {
      if (short_pending(tag)) return tag;
    }
    any_short_arrival_.wait();
  }
}

void BipPort::post_recv_long(std::uint32_t src, std::uint32_t tag,
                             std::span<std::byte> out) {
  // Posting pins the buffer and programs the NIC before the sender may
  // transmit (BIP's strict synchronization).
  node_->charge_cpu(network_->params_.long_setup);
  posted_queue(src, tag).posts.push_back(PostedRecv{out, 0, false});
}

void BipPort::wait_recv_long(std::uint32_t src, std::uint32_t tag) {
  PostedQueue& queue = posted_queue(src, tag);
  MAD2_CHECK(!queue.posts.empty(), "wait_recv_long with nothing posted");
  while (!queue.posts.front().complete) queue.completion.wait();
  queue.posts.pop_front();
  node_->charge_cpu(network_->params_.rx_overhead);
}

}  // namespace mad2::net
