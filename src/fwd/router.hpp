// Routes of a virtual channel (paper Section 6): a chain of hop channels
// whose consecutive hops share a *boundary* of gateway nodes. Each member
// node has one hop mask (bit h set when it is on hop h), and a route
// follows from the masks of its two ends by rule; no per-pair table is
// stored (docs/ROUTING.md). The router knows node ids only: no session,
// no simulator, no liveness; the channel shrinks the healthy sets when a
// gateway dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mad/hostdb.hpp"

namespace mad2::fwd {

class Router {
 public:
  /// Gateway set joining hops i and i+1. `healthy` shrinks on deaths;
  /// `gateways` is the construction-time inventory.
  struct Boundary {
    std::vector<std::uint32_t> gateways;
    std::vector<std::uint32_t> healthy;
  };

  /// The longest chain: one mask bit per hop.
  static constexpr std::size_t kMaxHops = 64;

  Router() = default;
  /// `hops` lists each hop channel's member nodes, in hop order; node ids
  /// are below `node_count`. Without `topology.enabled` every boundary
  /// must hold exactly one gateway.
  Router(const std::vector<std::vector<std::uint32_t>>& hops,
         std::size_t node_count, const mad::TopologyConfig& topology);

  /// The member nodes (union of the hops), ascending.
  [[nodiscard]] const std::vector<std::uint32_t>& nodes() const {
    return nodes_;
  }
  /// Whether `node` (a global id) is a member of the chain.
  [[nodiscard]] bool has_node(std::uint32_t node) const {
    return node < masks_.size() && masks_[node] != 0;
  }

  [[nodiscard]] const std::vector<Boundary>& boundaries() const {
    return boundaries_;
  }

  /// Index of the hop channel `node` uses to make progress toward `dst`:
  /// the lowest hop the two share, else `node`'s last hop when it lies
  /// before `dst`'s first, else `node`'s first hop.
  [[nodiscard]] std::size_t hop_of(std::uint32_t node,
                                   std::uint32_t dst) const;
  /// Next node on hop `hop` for flow src -> dst: `dst` itself if it is on
  /// the hop, else a gateway of boundary `hop` when `dst`'s first hop is
  /// past `hop`, else of boundary `hop - 1` — the flow's deterministic
  /// hash pick among the boundary's *currently healthy* gateways.
  [[nodiscard]] std::uint32_t next_node(std::size_t hop, std::uint32_t src,
                                        std::uint32_t dst) const;
  /// The hop channel on which `node` receives virtual-channel traffic.
  [[nodiscard]] std::size_t terminal_hop(std::uint32_t node) const;

  /// Walks the flow's current deterministic route; true if it crosses
  /// `gateway`. Used at kill time, before the healthy sets shrink, to
  /// find the flows that need replay.
  [[nodiscard]] bool route_uses_gateway(std::uint32_t src, std::uint32_t dst,
                                        std::uint32_t gateway) const;
  /// True if the chain can absorb `node`'s death: it is a healthy gateway
  /// here and every boundary holding it keeps a sibling.
  [[nodiscard]] bool can_absorb_gateway(std::uint32_t node) const;
  /// Drop `node` from every boundary's healthy set.
  void drop_gateway(std::uint32_t node);

 private:
  [[nodiscard]] std::uint32_t pick_gateway(std::size_t boundary,
                                           std::uint32_t src,
                                           std::uint32_t dst) const;

  std::vector<Boundary> boundaries_;  // boundaries_[i] joins hop i, i+1
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint64_t> masks_;  // hop mask by global id; 0 = off
  std::uint64_t spread_salt_ = 0;
};

}  // namespace mad2::fwd
