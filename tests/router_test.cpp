// fwd::Router computes every route from one hop mask per node. These tests
// hold it against the construction it replaced: per-node hop lists
// expanded into an n x n hop table, a terminal table and a per-hop next
// table. The reference below keeps that construction's logic as it was,
// and random chains of 1-64 hops, with nodes on one, two or three hops
// (contiguous or not), must route the same way through both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "fwd/router.hpp"

namespace mad2::fwd {
namespace {

using HopLists = std::vector<std::vector<std::uint32_t>>;

/// The three precomputed tables, built the way VirtualChannel's
/// constructor built them before routes were computed by rule.
class ReferenceTables {
 public:
  static constexpr std::uint16_t kNoHop = 0xffffu;

  explicit ReferenceTables(const HopLists& hops) {
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      for (std::uint32_t node : hops[i]) {
        if (std::find(hops[i + 1].begin(), hops[i + 1].end(), node) !=
            hops[i + 1].end()) {
          gateways_.push_back(node);  // single-gateway chains: one each
          break;
        }
      }
    }
    for (const auto& hop : hops) {
      for (std::uint32_t node : hop) {
        if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) {
          nodes_.push_back(node);
        }
      }
    }
    std::sort(nodes_.begin(), nodes_.end());
    const std::size_t n = nodes_.size();
    std::vector<std::vector<std::size_t>> hops_of_node(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t h = 0; h < hops.size(); ++h) {
        if (std::find(hops[h].begin(), hops[h].end(), nodes_[i]) !=
            hops[h].end()) {
          hops_of_node[i].push_back(h);
        }
      }
    }
    hop_table_.assign(n * n, kNoHop);
    terminal_table_.assign(n, kNoHop);
    for (std::size_t ni = 0; ni < n; ++ni) {
      const auto& node_hops = hops_of_node[ni];
      for (std::size_t di = 0; di < n; ++di) {
        const auto& dst_hops = hops_of_node[di];
        std::size_t hop;
        auto common = std::find_first_of(node_hops.begin(), node_hops.end(),
                                         dst_hops.begin(), dst_hops.end());
        if (common != node_hops.end()) {
          hop = *common;
        } else if (node_hops.back() < dst_hops.front()) {
          hop = node_hops.back();
        } else {
          hop = node_hops.front();
        }
        hop_table_[ni * n + di] = static_cast<std::uint16_t>(hop);
      }
      if (node_hops.size() == 1) {
        terminal_table_[ni] = static_cast<std::uint16_t>(node_hops.front());
      }
    }
    next_table_.resize(hops.size());
    for (std::size_t hop = 0; hop < hops.size(); ++hop) {
      next_table_[hop].assign(n, NextHop{});
      for (std::size_t di = 0; di < n; ++di) {
        NextHop& cell = next_table_[hop][di];
        if (std::find(hops[hop].begin(), hops[hop].end(), nodes_[di]) !=
            hops[hop].end()) {
          cell.kind = Kind::kDirect;
        } else if (hops_of_node[di].front() > hop) {
          cell.kind = Kind::kForward;
          cell.boundary = static_cast<std::uint32_t>(hop);
        } else if (hop > 0) {
          cell.kind = Kind::kBackward;
          cell.boundary = static_cast<std::uint32_t>(hop - 1);
        }
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] std::size_t hop_of(std::size_t ni, std::size_t di) const {
    return hop_table_[ni * nodes_.size() + di];
  }
  [[nodiscard]] std::uint16_t terminal(std::size_t ni) const {
    return terminal_table_[ni];
  }
  /// The next node on `hop` toward dense destination `di`; kNoNode when
  /// the table holds no route.
  [[nodiscard]] std::uint32_t next_node(std::size_t hop,
                                        std::size_t di) const {
    const NextHop& cell = next_table_[hop][di];
    if (cell.kind == Kind::kUnreachable) return kNoNode;
    if (cell.kind == Kind::kDirect) return nodes_[di];
    return gateways_[cell.boundary];
  }

  static constexpr std::uint32_t kNoNode = 0xffffffffu;

 private:
  enum class Kind : std::uint8_t { kUnreachable, kDirect, kForward, kBackward };
  struct NextHop {
    Kind kind = Kind::kUnreachable;
    std::uint32_t boundary = 0;
  };

  std::vector<std::uint32_t> gateways_;  // by boundary
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint16_t> hop_table_;
  std::vector<std::uint16_t> terminal_table_;
  std::vector<std::vector<NextHop>> next_table_;
};

/// A random chain of `hop_count` hops whose every boundary holds exactly
/// one gateway. Gateways sit on two hops, or on three when one gateway
/// serves two boundaries in a row; some also sit on a distant hop. Other
/// nodes sit on one, two or three hops no two of which are adjacent.
/// Node ids are shuffled over `*node_count`, which leaves a few ids off
/// the chain.
HopLists random_chain(std::size_t hop_count, std::mt19937_64& rng,
                      std::size_t* node_count) {
  std::vector<std::set<std::size_t>> members;  // hop set per node
  auto pick = [&rng](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  for (std::size_t b = 0; b + 1 < hop_count; ++b) {
    const bool reuse = b > 0 && members.back().size() == 2 && pick(4) == 0;
    if (reuse) {
      members.back().insert(b + 1);
    } else {
      members.push_back({b, b + 1});
    }
  }
  // Far hops may go on any node: a hop next to none of the node's hops
  // joins no boundary.
  auto far_hop_ok = [](const std::set<std::size_t>& set, std::size_t hop) {
    return !set.contains(hop) && !set.contains(hop + 1) &&
           (hop == 0 || !set.contains(hop - 1));
  };
  for (auto& set : members) {
    if (pick(4) == 0) {
      const std::size_t hop = pick(hop_count);
      if (far_hop_ok(set, hop)) set.insert(hop);
    }
  }
  for (std::size_t h = 0; h < hop_count; ++h) {
    for (std::size_t leaf = pick(3); leaf > 0; --leaf) {
      std::set<std::size_t> set{h};
      for (std::size_t extra = pick(3); extra > 0; --extra) {
        const std::size_t hop = pick(hop_count);
        if (far_hop_ok(set, hop)) set.insert(hop);
      }
      members.push_back(std::move(set));
    }
  }
  if (members.empty()) members.push_back({0});  // a one-hop chain

  *node_count = members.size() + pick(4);
  std::vector<std::uint32_t> ids(*node_count);
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  HopLists hops(hop_count);
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t hop : members[i]) hops[hop].push_back(ids[i]);
  }
  for (auto& hop : hops) std::shuffle(hop.begin(), hop.end(), rng);
  return hops;
}

/// Per node, the hops it is on, ascending.
std::map<std::uint32_t, std::vector<std::size_t>> hops_by_node(
    const HopLists& hops) {
  std::map<std::uint32_t, std::vector<std::size_t>> result;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    for (std::uint32_t node : hops[h]) result[node].push_back(h);
  }
  return result;
}

TEST(RouterProperty, MatchesTheThreeTableConstruction) {
  std::mt19937_64 rng(20261019);
  std::size_t checked = 0;
  std::size_t three_hop_nodes = 0;  // memberships the chains exercised
  std::size_t gapped_nodes = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t hop_count = Router::kMaxHops; hop_count > 0;
         --hop_count) {
      std::size_t node_count = 0;
      const HopLists hops = random_chain(hop_count, rng, &node_count);
      const ReferenceTables reference(hops);
      const Router router(hops, node_count, mad::TopologyConfig{});
      ASSERT_EQ(router.nodes(), reference.nodes()) << hop_count << " hops";
      for (const auto& [node, on] : hops_by_node(hops)) {
        if (on.size() >= 3) ++three_hop_nodes;
        if (on.back() - on.front() + 1 > on.size()) ++gapped_nodes;
      }
      const auto& nodes = reference.nodes();
      const std::uint32_t src = nodes.front();
      for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        if (reference.terminal(ni) != ReferenceTables::kNoHop) {
          ASSERT_EQ(router.terminal_hop(nodes[ni]), reference.terminal(ni))
              << "node " << nodes[ni] << ", " << hop_count << " hops";
        }
        for (std::size_t di = 0; di < nodes.size(); ++di) {
          ASSERT_EQ(router.hop_of(nodes[ni], nodes[di]),
                    reference.hop_of(ni, di))
              << nodes[ni] << " -> " << nodes[di] << ", " << hop_count
              << " hops";
        }
      }
      for (std::size_t hop = 0; hop < hop_count; ++hop) {
        for (std::size_t di = 0; di < nodes.size(); ++di) {
          ASSERT_NE(reference.next_node(hop, di), ReferenceTables::kNoNode);
          ASSERT_EQ(router.next_node(hop, src, nodes[di]),
                    reference.next_node(hop, di))
              << "hop " << hop << " -> " << nodes[di] << ", " << hop_count
              << " hops";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(three_hop_nodes, 0u);
  EXPECT_GT(gapped_nodes, 0u);
}

// A node on two hops that are not adjacent joins no boundary, yet it is
// no receiver either: a receiver listens on exactly one hop.
TEST(RouterDeathTest, NodeOnTwoDistantHopsIsNoReceiver) {
  const HopLists hops = {{0, 1, 9}, {1, 2}, {2, 3, 9}};
  const Router router(hops, 10, mad::TopologyConfig{});
  EXPECT_EQ(router.terminal_hop(0), 0u);
  EXPECT_EQ(router.hop_of(9, 3), 2u);
  EXPECT_DEATH({ (void)router.terminal_hop(9); },
               "gateway nodes cannot be virtual-channel receivers");
}

TEST(RouterDeathTest, SixtyFiveHopsAbort) {
  HopLists hops(Router::kMaxHops + 1);
  for (std::uint32_t h = 0; h < hops.size(); ++h) hops[h] = {h, h + 1};
  EXPECT_DEATH(
      { Router router(hops, hops.size() + 1, mad::TopologyConfig{}); },
      "too many hops");
}

}  // namespace
}  // namespace mad2::fwd
