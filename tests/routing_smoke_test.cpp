// Resilient multi-gateway routing, 64-node smoke tier: small enough for
// the sanitizer builds, covering the same invariants the `scale` tier
// proves at 256/1024 nodes (tests/routing_scale_test.cpp) — healthy-path
// gateway spreading, a mid-transfer gateway kill with exactly-once
// in-order delivery under every gateway pump mode (store-and-forward,
// FIFO pipeline, DRR), and drained-queue / packet-pool hygiene
// afterwards.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/hostdb.hpp"
#include "net/fault.hpp"
#include "routing_testlib.hpp"
#include "testbed.hpp"

namespace mad2 {
namespace {

using fwd::VirtualChannel;
using fwd::VirtualChannelDef;
using mad::Session;

constexpr std::size_t kLeaves = 30;
constexpr std::size_t kGateways = 2;  // 2 * (30 + 2) = 64 nodes

VirtualChannelDef smoke_vdef(const FatTreeBed& bed) {
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = bed.route(0, 1);
  def.mtu = 4 * 1024;
  mad::TopologyConfig topology;
  topology.enabled = true;
  def.topology = topology;
  return def;
}

std::vector<FlowSpec> smoke_flows(const FatTreeBed& bed, std::size_t count) {
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < count; ++i) {
    flows.push_back(FlowSpec{bed.leaf(0, i), bed.leaf(1, i)});
  }
  return flows;
}

TEST(RoutingSmoke, HealthyFatTreeDeliversAndSpreads) {
  FatTreeBed bed = make_fat_tree(2, kLeaves, kGateways);
  Session session(bed.config);
  VirtualChannel vc(session, smoke_vdef(bed));
  ASSERT_EQ(session.node_count(), 64u);
  ASSERT_EQ(vc.boundary_count(), 2u);
  EXPECT_EQ(vc.boundary_gateways(0).size(), kGateways);

  auto failure = run_flows(session, vc, smoke_flows(bed, 6),
                           /*messages=*/2, /*message_bytes=*/12 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");
  EXPECT_EQ(vc.routing_counters().gateway_kills, 0u);

  // Six flows hashed over two gateways per boundary: with no deaths, the
  // load must not all collapse onto one gateway.
  std::size_t used = 0;
  for (std::size_t g = 0; g < kGateways; ++g) {
    if (vc.gateway_forwarded(bed.gateway(0, g)) > 0) ++used;
  }
  EXPECT_GE(used, 2u) << "hashed spread left a cluster-0 gateway idle";
}

TEST(RoutingSmoke, LeafFailureFailsTheSessionAsANodeDomain) {
  // A dead leaf is nobody's routing problem: triage lands in the node
  // domain, marks the host dead and fails the session, and run() returns
  // that failure instead of finishing or reporting stuck fibers.
  FatTreeBed bed = make_fat_tree(2, 4, kGateways);
  Session session(bed.config);
  VirtualChannel vc(session, smoke_vdef(bed));

  mad::NetworkFailure report;
  report.network = &session.network("ft_c0_net");
  report.status = unavailable("peer unresponsive (test)");
  report.src_node = bed.gateway(0, 0);
  report.dst_node = bed.leaf(0, 1);

  // Reported from inside the run, as a driver's link error handler does.
  mad::FailureDomain domain = mad::FailureDomain::kUnknown;
  bool reporter_finished = false;
  session.spawn(bed.gateway(0, 0), "reporter", [&](mad::NodeRuntime&) {
    domain = session.route_network_failure(report);
    reporter_finished = true;
  });
  session.spawn(bed.leaf(1, 0), "bystander", [&](mad::NodeRuntime& rt) {
    rt.simulator().advance(sim::milliseconds(1));
    ADD_FAILURE() << "the run went on after the session failed";
  });
  const Status run = session.run();
  EXPECT_EQ(domain, mad::FailureDomain::kNode);
  EXPECT_TRUE(reporter_finished);
  EXPECT_EQ(run, report.status) << run.to_string();
  EXPECT_EQ(session.health(), report.status);
  EXPECT_FALSE(session.hostdb().alive(bed.leaf(0, 1)));
  EXPECT_EQ(session.hostdb().dead_count(), 1u);
  EXPECT_EQ(vc.routing_counters().gateway_kills, 0u);

  // A repeated report replays the recorded domain; a later, different
  // failure does not replace the first one.
  EXPECT_EQ(session.route_network_failure(report),
            mad::FailureDomain::kNode);
  session.fail(unavailable("second failure (test)"));
  EXPECT_EQ(session.health(), report.status);
  EXPECT_EQ(session.hostdb().dead_count(), 1u);
}

// The session's link-error hook turns a driver's port numbers into global
// node ids. Members {3, 1, 4} of 5 nodes sit on ports 0, 1 and 2, so a
// hook that passed ports through, or swapped the two ends, names the
// wrong nodes. Here a TCP link dies for real: node 3's reliable shim gives
// up on a permanent partition toward node 4.
TEST(LinkErrorHook, TcpGiveUpNamesTheNodes) {
  net::FaultPlan plan(/*seed=*/3);
  plan.partition(/*port of node 3*/ 0, /*port of node 4*/ 2, 0, sim::kNever);
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.faults = &plan;
  tcp.reliability.max_retransmits = 3;
  mad::SessionConfig config;
  config.node_count = 5;
  mad::NetworkDef eth;
  eth.name = "eth";
  eth.kind = mad::NetworkKind::kTcp;
  eth.nodes = {3, 1, 4};
  eth.params = tcp;
  config.networks.push_back(eth);
  config.channels.push_back(mad::ChannelDef{"ch", "eth"});
  Session session(std::move(config));

  std::vector<mad::NetworkFailure> reports;
  session.add_failure_listener([&](const mad::NetworkFailure& failure) {
    reports.push_back(failure);
    return mad::FailureDomain::kUnknown;
  });
  session.spawn(3, "tx", [](mad::NodeRuntime& rt) {
    const std::vector<std::byte> payload = make_pattern_buffer(64, 1);
    auto& conn = rt.channel("ch").begin_packing(4);
    conn.pack(payload);
    conn.end_packing();
  });
  EXPECT_EQ(session.run().code(), ErrorCode::kUnavailable);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].network->def.name, "eth");
  EXPECT_EQ(reports[0].src_node, 3u);
  EXPECT_EQ(reports[0].dst_node, 4u);
}

/// One gateway pump mode: the queue between a gateway's rx and tx fibers.
struct PumpMode {
  const char* name;
  std::size_t pipeline_depth;
  bool congestion;  // DRR fair queue instead of the FIFO pipeline
};
// The default printer shows a PumpMode as raw bytes, including a pointer
// that differs from run to run; print the mode name instead.
void PrintTo(const PumpMode& mode, std::ostream* os) { *os << mode.name; }

class RoutingSmokeKill : public testing::TestWithParam<PumpMode> {};

TEST_P(RoutingSmokeKill, KilledGatewayMidTransferKeepsEveryMessage) {
  FatTreeBed bed = make_fat_tree(2, kLeaves, kGateways);
  Session session(bed.config);
  VirtualChannelDef def = smoke_vdef(bed);
  def.pipeline_depth = GetParam().pipeline_depth;
  if (GetParam().congestion) {
    mad::CongestionConfig congestion;
    congestion.enabled = true;
    def.congestion = congestion;
  }
  VirtualChannel vc(session, def);

  const std::vector<FlowSpec> flows = smoke_flows(bed, 6);
  // Kill the gateway flow 0 is actually routed through, a deterministic
  // choice, once the gateways have moved a couple dozen packets.
  const std::uint32_t victim =
      vc.router().next_node(0, flows[0].src, flows[0].dst);
  GatewayKiller::at_packet_count(vc, victim, 20);

  auto failure = run_flows(session, vc, flows, /*messages=*/2,
                           /*message_bytes=*/12 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");

  const VirtualChannel::RoutingCounters& counters = vc.routing_counters();
  EXPECT_EQ(counters.gateway_kills, 1u);
  EXPECT_GT(counters.replayed_packets, 0u);
  RecordProperty("discarded", std::to_string(counters.discarded));
  RecordProperty("replayed_packets",
                 std::to_string(counters.replayed_packets));
  EXPECT_FALSE(session.hostdb().alive(victim));
  EXPECT_EQ(session.hostdb().dead_count(), 1u);
  for (std::size_t b = 0; b < vc.boundary_count(); ++b) {
    for (std::uint32_t g : vc.router().boundaries()[b].healthy) {
      EXPECT_NE(g, victim) << "dead gateway still in a healthy set";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPumps, RoutingSmokeKill,
    testing::Values(PumpMode{"store_forward", 1, false},
                    PumpMode{"fifo", 2, false}, PumpMode{"drr", 2, true}),
    [](const testing::TestParamInfo<PumpMode>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mad2
