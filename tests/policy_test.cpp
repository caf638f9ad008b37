// White-box tests for the pure decision functions: the Switch's BMM
// policy, TM selection per PMM, the TCP coalescing plan, and virtual
// channel routing. These are the functions whose sender/receiver symmetry
// the whole no-self-description design rests on.
#include <gtest/gtest.h>

#include "fwd/virtual_channel.hpp"
#include "mad/bmm.hpp"
#include "mad/pmm_tcp.hpp"
#include "mad/session.hpp"

namespace mad2::mad {
namespace {

// A stub TM to drive select_bmm_kind.
class StubTm final : public Tm {
 public:
  StubTm(bool statics, bool groups) : statics_(statics), groups_(groups) {}
  [[nodiscard]] std::string_view name() const override { return "stub"; }
  [[nodiscard]] bool uses_static_buffers() const override {
    return statics_;
  }
  [[nodiscard]] bool supports_groups() const override { return groups_; }
  void send_buffer(Connection&, std::span<const std::byte>) override {}
  void receive_buffer(Connection&, std::span<std::byte>) override {}

 private:
  bool statics_;
  bool groups_;
};

TEST(BmmPolicy, StaticTmsAlwaysCopyThroughProtocolBuffers) {
  StubTm tm(/*statics=*/true, /*groups=*/false);
  for (SendMode s : {send_SAFER, send_LATER, send_CHEAPER}) {
    for (ReceiveMode r : {receive_EXPRESS, receive_CHEAPER}) {
      EXPECT_EQ(select_bmm_kind(tm, s, r), BmmKind::kStaticCopy);
    }
  }
}

TEST(BmmPolicy, LaterAlwaysDefersOnDynamicTms) {
  StubTm tm(/*statics=*/false, /*groups=*/true);
  EXPECT_EQ(select_bmm_kind(tm, send_LATER, receive_EXPRESS),
            BmmKind::kLater);
  EXPECT_EQ(select_bmm_kind(tm, send_LATER, receive_CHEAPER),
            BmmKind::kLater);
}

TEST(BmmPolicy, SaferIsEager) {
  StubTm tm(/*statics=*/false, /*groups=*/true);
  EXPECT_EQ(select_bmm_kind(tm, send_SAFER, receive_EXPRESS),
            BmmKind::kEager);
  EXPECT_EQ(select_bmm_kind(tm, send_SAFER, receive_CHEAPER),
            BmmKind::kEager);
}

TEST(BmmPolicy, CheaperGroupsOnlyWhenDeferralIsLegalAndUseful) {
  StubTm grouping(/*statics=*/false, /*groups=*/true);
  StubTm plain(/*statics=*/false, /*groups=*/false);
  // EXPRESS receive forbids deferral -> eager.
  EXPECT_EQ(select_bmm_kind(grouping, send_CHEAPER, receive_EXPRESS),
            BmmKind::kEager);
  // CHEAPER + grouping TM -> aggregate.
  EXPECT_EQ(select_bmm_kind(grouping, send_CHEAPER, receive_CHEAPER),
            BmmKind::kGroup);
  // CHEAPER but grouping buys nothing -> eager.
  EXPECT_EQ(select_bmm_kind(plain, send_CHEAPER, receive_CHEAPER),
            BmmKind::kEager);
}

TEST(TcpPlanRuns, BigBlocksStandAlone) {
  const auto runs = TcpTm::plan_runs({5000, 8000});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_FALSE(runs[0].coalesced);
  EXPECT_FALSE(runs[1].coalesced);
}

TEST(TcpPlanRuns, SmallBlocksCoalesce) {
  const auto runs = TcpTm::plan_runs({10, 20, 30});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].coalesced);
  EXPECT_EQ(runs[0].first, 0u);
  EXPECT_EQ(runs[0].count, 3u);
}

TEST(TcpPlanRuns, MixedBlocksSplitAtBigOnes) {
  const auto runs = TcpTm::plan_runs({10, 20, 5000, 30, 40});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_TRUE(runs[0].coalesced);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_FALSE(runs[1].coalesced);
  EXPECT_TRUE(runs[2].coalesced);
  EXPECT_EQ(runs[2].first, 3u);
}

TEST(TcpPlanRuns, RunCapsAtRunMax) {
  // 20 blocks of 1000 B exceed kRunMax (8192): runs split.
  std::vector<std::size_t> sizes(20, 1000);
  const auto runs = TcpTm::plan_runs(sizes);
  EXPECT_GT(runs.size(), 1u);
  std::size_t covered = 0;
  for (const auto& run : runs) {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < run.count; ++k) bytes += 1000;
    EXPECT_LE(bytes, TcpTm::kRunMax);
    covered += run.count;
  }
  EXPECT_EQ(covered, sizes.size());
}

TEST(TcpPlanRuns, SingleSmallBlockIsNotCoalesced) {
  const auto runs = TcpTm::plan_runs({100});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].coalesced);  // nothing to merge with
}

TEST(TcpPlanRuns, EmptyGroup) {
  EXPECT_TRUE(TcpTm::plan_runs({}).empty());
}

}  // namespace
}  // namespace mad2::mad

namespace mad2::fwd {
namespace {

using mad::ChannelDef;
using mad::NetworkDef;
using mad::NetworkKind;
using mad::Session;
using mad::SessionConfig;

/// Chain: a{0,1} - b{1,2} - c{2,3}; gateways 1 and 2.
struct ChainBed {
  ChainBed() {
    SessionConfig config;
    config.node_count = 5;  // node 4 on hop a too (non-gateway peer)
    NetworkDef a;
    a.name = "a";
    a.kind = NetworkKind::kTcp;
    a.nodes = {0, 4, 1};
    NetworkDef b;
    b.name = "b";
    b.kind = NetworkKind::kTcp;
    b.nodes = {1, 2};
    NetworkDef c;
    c.name = "c";
    c.kind = NetworkKind::kTcp;
    c.nodes = {2, 3};
    config.networks = {a, b, c};
    config.channels = {ChannelDef{"cha", "a"}, ChannelDef{"chb", "b"},
                       ChannelDef{"chc", "c"}};
    session = std::make_unique<Session>(std::move(config));
    VirtualChannelDef def;
    def.name = "vc";
    def.hops = {"cha", "chb", "chc"};
    vc = std::make_unique<VirtualChannel>(*session, def);
  }
  std::unique_ptr<Session> session;
  std::unique_ptr<VirtualChannel> vc;
};

TEST(Routing, SameHopIsDirect) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->router().hop_of(0, 4), 0u);
  EXPECT_EQ(bed.vc->router().next_node(0, 0, 4), 4u);
}

TEST(Routing, ForwardAcrossOneGateway) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->router().hop_of(0, 2), 0u);
  EXPECT_EQ(bed.vc->router().next_node(0, 0, 2), 1u);  // via gateway 1
  // At gateway 1, hop 1 reaches node 2 directly.
  EXPECT_EQ(bed.vc->router().next_node(1, 0, 2), 2u);
}

TEST(Routing, ForwardAcrossTwoGateways) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->router().hop_of(0, 3), 0u);
  EXPECT_EQ(bed.vc->router().next_node(0, 0, 3), 1u);  // first gateway
  EXPECT_EQ(bed.vc->router().next_node(1, 0, 3), 2u);  // second gateway
  EXPECT_EQ(bed.vc->router().next_node(2, 0, 3), 3u);  // final hop
}

TEST(Routing, BackwardDirection) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->router().hop_of(3, 0), 2u);
  // Gateway 2 joins hops 1 and 2.
  EXPECT_EQ(bed.vc->router().next_node(2, 3, 0), 2u);
  EXPECT_EQ(bed.vc->router().next_node(1, 3, 0), 1u);
  EXPECT_EQ(bed.vc->router().next_node(0, 3, 0), 0u);
}

TEST(Routing, TerminalHopOfNonGatewayNodes) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->router().terminal_hop(0), 0u);
  EXPECT_EQ(bed.vc->router().terminal_hop(4), 0u);
  EXPECT_EQ(bed.vc->router().terminal_hop(3), 2u);
}

TEST(Routing, GatewayNodesCannotBeReceivers) {
  ChainBed bed;
  EXPECT_DEATH({ (void)bed.vc->router().terminal_hop(1); }, "gateway");
}

TEST(Routing, NodesAreTheHopUnion) {
  ChainBed bed;
  EXPECT_EQ(bed.vc->nodes(),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Routing, HopsMustShareExactlyOneNode) {
  SessionConfig config;
  config.node_count = 4;
  NetworkDef a;
  a.name = "a";
  a.kind = NetworkKind::kTcp;
  a.nodes = {0, 1};
  NetworkDef b;
  b.name = "b";
  b.kind = NetworkKind::kTcp;
  b.nodes = {2, 3};  // disjoint: no gateway
  config.networks = {a, b};
  config.channels = {ChannelDef{"cha", "a"}, ChannelDef{"chb", "b"}};
  Session session(std::move(config));
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cha", "chb"};
  EXPECT_DEATH({ VirtualChannel vc(session, def); },
               "at least one gateway");
}

TEST(Routing, RedundantGatewaysNeedTheTopologyStanza) {
  // Two shared nodes between consecutive hops is a gateway *set* — legal
  // only in resilient mode (topology stanza / def override), a hard
  // misconfiguration otherwise.
  SessionConfig config;
  config.node_count = 4;
  NetworkDef a;
  a.name = "a";
  a.kind = NetworkKind::kTcp;
  a.nodes = {0, 1, 2};
  NetworkDef b;
  b.name = "b";
  b.kind = NetworkKind::kTcp;
  b.nodes = {1, 2, 3};  // nodes 1 and 2 both join the hops
  config.networks = {a, b};
  config.channels = {ChannelDef{"cha", "a"}, ChannelDef{"chb", "b"}};
  Session session(std::move(config));
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cha", "chb"};
  EXPECT_DEATH({ VirtualChannel vc(session, def); },
               "topology stanza");
}

TEST(Routing, KillGatewayNeedsTheTopologyStanza) {
  // Failover is a resilient-mode feature: without the stanza there is no
  // retained-packet replay, so a kill could only lose data.
  ChainBed bed;
  EXPECT_DEATH({ bed.vc->kill_gateway(1); }, "topology stanza");
  EXPECT_DEATH({ bed.vc->arm_gateway_kill(1, 10); }, "topology stanza");
}

TEST(Routing, KillingTheLastHealthyGatewayAborts) {
  // A single-gateway boundary has no failover to run: killing its only
  // gateway is a test-harness (or operator) error, not a survivable
  // fault, and must fail loudly instead of black-holing the hop.
  SessionConfig config;
  config.node_count = 4;
  NetworkDef a;
  a.name = "a";
  a.kind = NetworkKind::kTcp;
  a.nodes = {0, 1};
  NetworkDef b;
  b.name = "b";
  b.kind = NetworkKind::kTcp;
  b.nodes = {1, 2, 3};
  config.networks = {a, b};
  config.channels = {ChannelDef{"cha", "a"}, ChannelDef{"chb", "b"}};
  mad::TopologyConfig topology;
  topology.enabled = true;
  config.topology = topology;
  Session session(std::move(config));
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cha", "chb"};
  VirtualChannel vc(session, def);
  EXPECT_DEATH({ vc.kill_gateway(1); }, "last healthy gateway");
}

}  // namespace
}  // namespace mad2::fwd
