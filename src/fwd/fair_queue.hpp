// Weighted-fair gateway forwarding queue (deficit round robin).
//
// The pipelined gateway of a virtual channel exchanges packets between
// its rx and tx fibers through a bounded PacketQueue. The plain
// FifoPacketQueue serves arrival order: under incast, one bulk sender's
// backlog occupies every slot and a latency-sensitive packet waits behind
// all of it (head-of-line blocking). FairPacketQueue keeps the same
// bounded blocking interface but dequeues in deficit-round-robin order
// across (src, dst) flows: each flow earns `quantum` bytes of deficit per
// round and is served while its deficit covers the head packet, so every
// backlogged flow gets an equal byte share of the outgoing hop and a
// short flow overtakes a long backlog within one round.
//
// Per-flow depth high-water marks are tracked so tests can assert queue
// boundedness without parsing trace dumps (TrafficStats::FlowCounters).
// Scheduling derives from std::map/deque order only — deterministic
// under madcheck schedule exploration.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "fwd/packet_queue.hpp"
#include "sim/sync.hpp"

namespace mad2::fwd {

class FairPacketQueue final : public PacketQueue {
 public:
  /// `capacity` bounds the total queued packets (backpressure to the rx
  /// fiber); `quantum` is the DRR deficit replenished per round, bytes.
  FairPacketQueue(sim::Simulator* simulator, std::size_t capacity,
                  std::size_t quantum);

  /// Blocks while the queue is at capacity.
  void send(Packet packet) override;
  /// Blocks while the queue is empty; nullopt after close() drained it.
  std::optional<Packet> receive() override;
  /// Non-blocking receive: the next DRR packet, or nullopt when empty.
  std::optional<Packet> try_receive() override;
  void close();

  /// Weighted-fair share: the flow's deficit replenishes by
  /// quantum*weight per round, so backlogged flows split the outgoing
  /// hop in weight proportion. Weight 1 is the default; must be
  /// positive.
  void set_weight(std::uint64_t flow, double weight);

  struct FlowStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t bytes = 0;       // payload bytes dequeued
    std::size_t depth = 0;         // packets currently queued
    std::size_t depth_hwm = 0;     // per-flow high-water mark
  };
  [[nodiscard]] const std::map<std::uint64_t, FlowStats>& flow_stats()
      const {
    return flows_stats_;
  }
  [[nodiscard]] std::size_t depth() const override { return depth_; }
  [[nodiscard]] std::size_t depth_hwm() const { return depth_hwm_; }

  [[nodiscard]] static std::uint64_t flow_key(std::uint32_t src,
                                              std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  [[nodiscard]] static std::uint32_t flow_src(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 32);
  }
  [[nodiscard]] static std::uint32_t flow_dst(std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  }

 private:
  struct FlowQueue {
    std::deque<Packet> packets;
    std::size_t deficit = 0;
    double weight = 1.0;
  };

  [[nodiscard]] std::size_t scaled_quantum(double weight) const;

  std::size_t capacity_;
  std::size_t quantum_;
  bool closed_ = false;
  std::size_t depth_ = 0;
  std::size_t depth_hwm_ = 0;
  std::map<std::uint64_t, FlowQueue> flows_;
  std::map<std::uint64_t, FlowStats> flows_stats_;
  std::deque<std::uint64_t> active_;  // flows with queued packets
  sim::WaitQueue not_empty_;
  sim::WaitQueue not_full_;
};

}  // namespace mad2::fwd
