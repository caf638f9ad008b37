// The queue between a gateway pump's rx and tx fibers (paper Figure 9).
//
// The pump body is the same for every forwarding mode; only this queue
// differs: a FIFO of `pipeline_depth` packets (the paper's dual
// buffering), or a deficit-round-robin FairPacketQueue under congestion
// control. Store-and-forward pumps hold no queue at all.
#pragma once

#include <cstddef>
#include <optional>

#include "fwd/virtual_channel.hpp"
#include "sim/sync.hpp"

namespace mad2::fwd {

class PacketQueue {
 public:
  PacketQueue() = default;
  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;
  virtual ~PacketQueue() = default;
  /// Blocks while the queue is full.
  virtual void send(Packet packet) = 0;
  /// Blocks while the queue is empty; nullopt once closed and drained.
  virtual std::optional<Packet> receive() = 0;
  /// Non-blocking receive: nullopt when empty. Drains a dead gateway's
  /// queue without parking a fiber on it.
  virtual std::optional<Packet> try_receive() = 0;
  /// Packets currently queued.
  [[nodiscard]] virtual std::size_t depth() const = 0;
};

/// Arrival-order pipeline queue.
class FifoPacketQueue final : public PacketQueue {
 public:
  FifoPacketQueue(sim::Simulator* simulator, std::size_t capacity)
      : channel_(simulator, capacity) {}
  void send(Packet packet) override { channel_.send(std::move(packet)); }
  std::optional<Packet> receive() override { return channel_.receive(); }
  std::optional<Packet> try_receive() override {
    return channel_.try_receive();
  }
  [[nodiscard]] std::size_t depth() const override { return channel_.size(); }

 private:
  sim::BoundedChannel<Packet> channel_;
};

}  // namespace mad2::fwd
