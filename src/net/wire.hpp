// Generic packet transport shared by the protocol drivers.
//
// A PacketFabric models one physical network: per-port transmit links
// (sender-side serialization), bounded receiver NIC buffering (back-pressure
// all the way to the sender), and fixed propagation delay. The protocol
// drivers (BIP, SISCI, VIA, SBP, IB, TCP) layer their own semantics — tags,
// segments, descriptors, queue pairs, streams — on top, through the NIC
// shell of net/nic.hpp; BIP, SBP, VIA and IB receive into the tag inbox
// or the posted receives of net/rx_queue.hpp.
//
// Ordering: packets shipped by a single fiber from a given port arrive at
// any given destination in ship() order. Drivers that need total per-pair
// order across application fibers must funnel sends through one tx fiber:
// BIP, SISCI and VIA ship through the shell's staged transmit, IB through
// its own prioritised tx fiber, and TCP through one fiber per stream. SBP
// ships inline from the sending fiber.
//
// Fault injection: attaching a net::FaultPlan (FabricParams::faults) makes
// the fabric drop, duplicate, reorder, corrupt, delay, or partition traffic
// under a deterministic seed. With no plan attached, behavior and timing
// are bit-for-bit identical to the lossless fabric. Under a plan, the
// ordering guarantee above no longer holds — layer net::ReliableNetwork on
// top to win it back.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/resource.hpp"
#include "net/fault.hpp"
#include "sim/sync.hpp"
#include "util/status.hpp"

namespace mad2::net {

/// A driver's report of a dead link: `a` is the port that gave up on it,
/// `b` the unresponsive peer.
using LinkErrorHandler =
    std::function<void(std::uint32_t a, std::uint32_t b, const Status&)>;

/// Fault-injection byte access. The fabric corrupts packets through this
/// hook; packet types that want corruption to be observable define a
/// friend/namespace overload (found by ADL) exposing their payload bytes.
/// The default exposes nothing, so corruption decisions on opaque packet
/// types deliver the packet intact.
template <typename P>
inline std::span<std::byte> fault_payload(P&) {
  return {};
}

struct FabricParams {
  std::string name = "net";
  /// Link serialization bandwidth per port (decimal MB/s).
  double wire_mbs = 160.0;
  /// Propagation + switching delay per packet.
  sim::Duration propagation = sim::nanoseconds(500);
  /// Firmware cost charged to the shipping fiber per packet.
  sim::Duration per_packet = 0;
  /// Wire arbitration granularity.
  std::uint32_t wire_chunk_bytes = 4096;
  /// Receiver NIC buffering, in packets. ship() blocks when the
  /// destination NIC is full (back-pressure).
  std::size_t rx_slots = 64;
  /// Optional fault injection (not owned; must outlive the fabric).
  /// nullptr = lossless fabric.
  FaultPlan* faults = nullptr;
};

template <typename P>
class PacketFabric {
 public:
  PacketFabric(sim::Simulator* simulator, FabricParams params)
      : simulator_(simulator), params_(std::move(params)) {}

  /// Add a port; ports are numbered 0, 1, ... in creation order.
  std::uint32_t add_port() {
    ports_.push_back(std::make_unique<Port>(simulator_, params_));
    return static_cast<std::uint32_t>(ports_.size() - 1);
  }

  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] FaultPlan* fault_plan() const { return params_.faults; }

  /// Move a packet from `src` to `dst`, charging the calling fiber for the
  /// firmware cost and wire serialization of `wire_bytes`. Blocks while the
  /// destination NIC has no free packet slot.
  void ship(std::uint32_t src, std::uint32_t dst, P packet,
            std::uint64_t wire_bytes) {
    MAD2_CHECK(src < ports_.size() && dst < ports_.size(),
               "ship() with invalid port");
    FaultPlan::Decision decision;
    if (params_.faults != nullptr) {
      decision = params_.faults->decide(src, dst, simulator_->now());
    }
    // A dropped frame still costs the sender firmware and serialization —
    // it left the NIC and died on the wire (or hit a partitioned link) —
    // but it neither consumes a receiver slot nor blocks on a
    // full/unreachable destination.
    Port& to = *ports_[dst];
    if (!decision.drop) to.slots.acquire();
    if (params_.per_packet > 0) simulator_->advance(params_.per_packet);
    ports_[src]->tx.transfer(wire_bytes, params_.wire_mbs, hw::TxClass::kDma,
                             src);
    if (decision.drop) return;
    if (decision.corrupt) {
      std::span<std::byte> bytes = fault_payload(packet);
      if (!bytes.empty()) {
        bytes[decision.corrupt_offset % bytes.size()] ^=
            std::byte{decision.corrupt_xor};
      }
    }
    // A duplicate is a second independent delivery; it needs its own
    // receiver slot. A full NIC squashes the copy rather than blocking the
    // sender twice for one packet.
    const bool duplicate = decision.duplicate && to.slots.try_acquire();
    const sim::Duration delay = params_.propagation + decision.extra_delay;
    // The shared_ptr carries the payload through the std::function (which
    // must be copyable).
    auto slot = std::make_shared<P>(std::move(packet));
    if (duplicate) {
      // Same flight time; the copy lands right behind the original (or in
      // front of it while the original is held back for reordering).
      auto copy = std::make_shared<P>(*slot);
      simulator_->post_after(delay, [this, dst, copy] {
        arrive(dst, std::move(*copy));
      });
    }
    if (decision.hold_back > 0) {
      simulator_->post_after(
          delay, [this, dst, slot, hold = decision.hold_back,
                  timeout = decision.reorder_timeout] {
            hold_back(dst, std::move(*slot), hold, timeout);
          });
    } else {
      simulator_->post_after(delay, [this, dst, slot] {
        arrive(dst, std::move(*slot));
      });
    }
  }

  /// Blocking receive of the next packet addressed to `port`.
  P receive(std::uint32_t port) {
    while (!pending(port)) ports_[port]->arrival.wait();
    return *try_receive(port);
  }

  std::optional<P> try_receive(std::uint32_t port) {
    Port& p = *ports_[port];
    if (p.rx.empty()) return std::nullopt;
    P packet = std::move(p.rx.front());
    p.rx.pop_front();
    p.slots.release();
    return packet;
  }

  [[nodiscard]] bool pending(std::uint32_t port) const {
    return !ports_[port]->rx.empty();
  }

 private:
  struct Held {
    P packet;
    std::uint32_t budget;  // deliveries left before forced release
    std::uint64_t id;      // for the timeout safety valve
  };
  struct Port {
    Port(sim::Simulator* simulator, const FabricParams& params)
        : tx(simulator, {.name = params.name + ".wire",
                         .chunk_bytes = params.wire_chunk_bytes}),
          slots(simulator, params.rx_slots),
          arrival(simulator) {}
    hw::ChunkedResource tx;
    sim::Semaphore slots;
    std::deque<P> rx;
    sim::WaitQueue arrival;
    std::deque<Held> held;
    std::uint64_t next_held_id = 0;
  };

  /// Put `packet` into the receive queue. Every delivery decrements the
  /// overtake budget of each held-back packet once; exhausted ones are
  /// released, and a release is itself a delivery (cascade).
  void arrive(std::uint32_t dst, P packet) {
    Port& port = *ports_[dst];
    std::deque<P> pending;
    pending.push_back(std::move(packet));
    while (!pending.empty()) {
      P next = std::move(pending.front());
      pending.pop_front();
      push_rx(port, std::move(next));
      for (auto it = port.held.begin(); it != port.held.end();) {
        if (--it->budget == 0) {
          pending.push_back(std::move(it->packet));
          it = port.held.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void hold_back(std::uint32_t dst, P packet, std::uint32_t budget,
                 sim::Duration timeout) {
    Port& port = *ports_[dst];
    const std::uint64_t id = port.next_held_id++;
    port.held.push_back(Held{std::move(packet), budget, id});
    // Safety valve: with no follow-on traffic the packet must still arrive
    // eventually, or a quiet link would stall forever.
    simulator_->post_after(timeout, [this, dst, id] {
      Port& p = *ports_[dst];
      for (auto it = p.held.begin(); it != p.held.end(); ++it) {
        if (it->id == id) {
          P held = std::move(it->packet);
          p.held.erase(it);
          arrive(dst, std::move(held));
          return;
        }
      }
    });
  }

  void push_rx(Port& port, P packet) {
    port.rx.push_back(std::move(packet));
    if (params_.faults != nullptr) {
      ++params_.faults->counters_mutable().delivered;
    }
    port.arrival.notify_one();
  }

  sim::Simulator* simulator_;
  FabricParams params_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace mad2::net
