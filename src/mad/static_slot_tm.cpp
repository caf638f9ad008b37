#include "mad/static_slot_tm.hpp"

#include <algorithm>
#include <cstring>

#include "hw/node.hpp"
#include "mad/connection.hpp"
#include "obs/trace.hpp"

namespace mad2::mad {

void StaticSlotTm::Slots::dispatch(Packet kind, std::uint64_t value,
                                   std::span<const std::byte> bytes,
                                   std::uint64_t handle) {
  switch (kind) {
    case Packet::kData:
      rx.push_back(StaticBuffer{
          std::span<std::byte>(const_cast<std::byte*>(bytes.data()),
                               bytes.size()),
          bytes.size(), handle});
      recv_wq.notify_all();
      break;
    case Packet::kCredit:
      window.grant(value);
      break;
    case Packet::kReq:
      reqs.push_back(value);
      recv_wq.notify_all();
      break;
    case Packet::kAck:
      ++acks;
      ack_wq.notify_all();
      break;
  }
}

void StaticSlotTm::Slots::wait_ack(const char* span, std::uint64_t total,
                                   std::size_t blocks) {
  MAD2_TRACE_SPAN(wait, obs::Category::kTm, span);
  wait.args(total, blocks);
  while (acks == 0) ack_wq.wait();
  --acks;
}

void StaticSlotTm::Slots::take_req(std::uint64_t total) {
  while (reqs.empty()) recv_wq.wait();
  const std::uint64_t announced = reqs.front();
  reqs.pop_front();
  MAD2_CHECK(announced == total,
             "rendezvous size mismatch: asymmetric pack/unpack sequences");
}

std::uint32_t StaticSlotTm::wait_incoming(PeerScan<const Slots*>& scan,
                                          sim::WaitQueue& incoming) {
  return scan.wait([](const Slots* slots) { return slots->has_incoming(); },
                   [&incoming] { incoming.wait(); });
}

void StaticSlotTm::send_buffer(Connection& connection,
                               std::span<const std::byte> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    StaticBuffer slot = obtain_static_buffer(connection);
    const std::size_t chunk =
        std::min(slot.memory.size(), data.size() - offset);
    connection.node().charge_memcpy(chunk);
    std::memcpy(slot.memory.data(), data.data() + offset, chunk);
    slot.used = chunk;
    send_static_buffer(connection, slot);
    offset += chunk;
  }
}

void StaticSlotTm::receive_buffer(Connection& connection,
                                  std::span<std::byte> out) {
  // The sender cut the buffer into whole slots, so no boundary agreement
  // is needed beyond the buffer's length.
  std::size_t got = 0;
  while (got < out.size()) {
    StaticBuffer slot = receive_static_buffer(connection);
    if (slot.memory.empty()) return;  // the link died
    MAD2_CHECK(got + slot.used <= out.size(),
               "a received slot overran the buffer");
    connection.node().charge_memcpy(slot.used);
    std::memcpy(out.data() + got, slot.memory.data(), slot.used);
    got += slot.used;
    release_static_buffer(connection, slot);
  }
}

StaticBuffer StaticSlotTm::obtain_static_buffer(Connection&) {
  return driver_->tx_slot();
}

void StaticSlotTm::send_static_buffer(Connection& connection,
                                      StaticBuffer& buffer) {
  Slots& slots = connection.state<Slots>();
  if (slots.window.credits() == 0) driver_->check_link(slots);
  // Credit-based flow control: never overrun the receiver's slots.
  if (slots.window.acquire(credit_span_, buffer.used,
                           [this] { driver_->poll(); })) {
    driver_->post_slot(slots, buffer);
  } else {
    driver_->drop_slot(buffer);
  }
  buffer = StaticBuffer{};
}

StaticBuffer StaticSlotTm::receive_static_buffer(Connection& connection) {
  Slots& slots = connection.state<Slots>();
  driver_->poll();
  if (slots.rx.empty()) flush_owed(slots);
  while (slots.rx.empty() && !slots.window.closed()) slots.recv_wq.wait();
  if (slots.rx.empty()) return StaticBuffer{};
  const StaticBuffer slot = slots.rx.front();
  slots.rx.pop_front();
  return slot;
}

void StaticSlotTm::release_static_buffer(Connection& connection,
                                         StaticBuffer& buffer) {
  if (buffer.handle == 0) return;  // the empty buffer of a dead link
  Slots& slots = connection.state<Slots>();
  driver_->return_slot(slots, buffer);
  buffer = StaticBuffer{};
  // Credits go back in batches to amortize the control traffic.
  if (slots.window.count_release() && !driver_->defer_credit_return()) {
    flush_owed(slots);
  }
}

CreditWindow* StaticSlotTm::credit_window(Connection& connection) {
  return &connection.state<Slots>().window;
}

void StaticSlotTm::flush_owed(Slots& slots) {
  // Zeroed before the send: the send can block, and releases that land
  // meanwhile must stay owed.
  if (const std::size_t owed = slots.window.take_owed()) {
    driver_->send_credits(slots, owed);
  }
}

}  // namespace mad2::mad
