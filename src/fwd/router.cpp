#include "fwd/router.hpp"

#include <algorithm>
#include <bit>

#include "util/status.hpp"

namespace mad2::fwd {

namespace {

std::size_t lowest(std::uint64_t mask) { return std::countr_zero(mask); }
std::size_t highest(std::uint64_t mask) { return std::bit_width(mask) - 1; }

}  // namespace

Router::Router(const std::vector<std::vector<std::uint32_t>>& hops,
               std::size_t node_count, const mad::TopologyConfig& topology)
    : masks_(node_count, 0), spread_salt_(topology.spread_salt) {
  MAD2_CHECK(hops.size() <= kMaxHops, "too many hops");
  for (std::size_t hop = 0; hop < hops.size(); ++hop) {
    for (std::uint32_t node : hops[hop]) masks_[node] |= 1ull << hop;
  }
  for (std::uint32_t node = 0; node < masks_.size(); ++node) {
    if (masks_[node] != 0) nodes_.push_back(node);
  }

  // Boundaries: the common nodes of each consecutive hop pair, in hop-a
  // membership order. Without the topology stanza only one gateway is
  // allowed — redundant siblings would silently idle, which is a config
  // mistake, not a feature.
  for (std::size_t hop = 0; hop + 1 < hops.size(); ++hop) {
    Boundary boundary;
    for (std::uint32_t node : hops[hop]) {
      if ((masks_[node] >> (hop + 1)) & 1) boundary.gateways.push_back(node);
    }
    MAD2_CHECK(!boundary.gateways.empty(),
               "consecutive hops must share at least one gateway node");
    if (!topology.enabled) {
      MAD2_CHECK(boundary.gateways.size() == 1,
                 "consecutive hops share several gateway nodes; redundant "
                 "gateways need the topology stanza");
    }
    boundary.healthy = boundary.gateways;
    boundaries_.push_back(std::move(boundary));
  }
}

std::size_t Router::hop_of(std::uint32_t node, std::uint32_t dst) const {
  MAD2_CHECK(has_node(node), "node not on this virtual channel");
  MAD2_CHECK(has_node(dst), "destination not on this virtual channel");
  const std::uint64_t m = masks_[node];
  const std::uint64_t d = masks_[dst];
  if ((m & d) != 0) return lowest(m & d);        // same hop: direct
  if (highest(m) < lowest(d)) return highest(m);  // forward
  return lowest(m);                               // backward
}

std::uint32_t Router::pick_gateway(std::size_t boundary, std::uint32_t src,
                                   std::uint32_t dst) const {
  const Boundary& b = boundaries_[boundary];
  MAD2_CHECK(!b.healthy.empty(), "no healthy gateway left on a boundary");
  if (b.healthy.size() == 1) return b.healthy.front();
  // Deterministic flow spreading: splitmix64 of the flow identity (plus
  // the configured salt) over the *healthy* set. Same flow -> same
  // gateway while membership holds; an epoch bump re-deals only because
  // the healthy list changed.
  std::uint64_t x =
      ((static_cast<std::uint64_t>(src) << 32) | dst) ^ spread_salt_;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return b.healthy[x % b.healthy.size()];
}

std::uint32_t Router::next_node(std::size_t hop, std::uint32_t src,
                                std::uint32_t dst) const {
  MAD2_CHECK(has_node(dst), "destination not on this virtual channel");
  const std::uint64_t d = masks_[dst];
  if ((d >> hop) & 1) return dst;
  // Every hop before the destination's first has a boundary after it, and
  // every later hop has one before it.
  return pick_gateway(lowest(d) > hop ? hop : hop - 1, src, dst);
}

std::size_t Router::terminal_hop(std::uint32_t node) const {
  MAD2_CHECK(has_node(node), "node not on this virtual channel");
  MAD2_CHECK(std::has_single_bit(masks_[node]),
             "gateway nodes cannot be virtual-channel receivers");
  return lowest(masks_[node]);
}

bool Router::route_uses_gateway(std::uint32_t src, std::uint32_t dst,
                                std::uint32_t gateway) const {
  std::uint32_t node = src;
  while (node != dst) {
    const std::uint32_t next = next_node(hop_of(node, dst), src, dst);
    if (next == gateway) return true;
    if (next == node) return false;  // defensive: no progress
    node = next;
  }
  return false;
}

bool Router::can_absorb_gateway(std::uint32_t node) const {
  bool member = false;
  for (const Boundary& boundary : boundaries_) {
    const auto it = std::find(boundary.healthy.begin(),
                              boundary.healthy.end(), node);
    if (it == boundary.healthy.end()) continue;
    if (boundary.healthy.size() < 2) return false;  // last one standing
    member = true;
  }
  return member;
}

void Router::drop_gateway(std::uint32_t node) {
  for (Boundary& boundary : boundaries_) {
    boundary.healthy.erase(std::remove(boundary.healthy.begin(),
                                       boundary.healthy.end(), node),
                           boundary.healthy.end());
  }
}

}  // namespace mad2::fwd
