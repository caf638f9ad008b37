// Resilient multi-gateway routing at scale (ctest label `scale`, its own
// release-mode CI job): 256- and 1024-node cluster sims where a gateway
// dies mid-transfer and every flow must still deliver exactly once, in
// order, with intact payloads (tests/routing_testlib.hpp); killed-gateway
// seed sweeps scanning the kill instant across the packet stream; a
// driver-level partition that has to travel the whole failure-routing
// chain (fault plan -> reliable link give-up -> route_network_failure ->
// gateway kill -> replay); and a >= 200-schedule madcheck exploration of
// the failover window itself.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/hostdb.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "routing_testlib.hpp"
#include "sim/explore.hpp"
#include "testbed.hpp"

namespace mad2 {
namespace {

using fwd::VirtualChannel;
using fwd::VirtualChannelDef;
using mad::Session;

VirtualChannelDef resilient_vdef(std::vector<std::string> hops,
                                 std::size_t mtu = 4 * 1024) {
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = std::move(hops);
  def.mtu = mtu;
  mad::TopologyConfig topology;
  topology.enabled = true;
  def.topology = topology;
  return def;
}

std::vector<FlowSpec> cross_cluster_flows(const FatTreeBed& bed,
                                          std::size_t count) {
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < count; ++i) {
    flows.push_back(FlowSpec{bed.leaf(0, i), bed.leaf(1, i)});
  }
  return flows;
}

/// Peak resident set of this test process in MB (ru_maxrss is in kB).
/// Each large test asserts it under a cap, so a footprint regression fails
/// by name instead of as an OOM kill. ctest runs one test per process.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Measured alone (4 vCPU x86-64, GCC 12 Release, lazily committed and
// pooled fiber stacks; TCP streams and transmit fibers, Connection objects
// and virtual connections built on first use), each 256-node test peaks at
// about 14 MB and the 1024-node torus at about 21 MB, with or without
// MAD2_TRACE=all; the caps sit at about twice those peaks.
constexpr double kFatTree256RssCapMb = 28;
constexpr double kTorus1024RssCapMb = 42;

// ------------------------------------------------------ 256-node fat tree

constexpr std::size_t kFtLeaves = 124;
constexpr std::size_t kFtGateways = 4;  // 2 * (124 + 4) = 256 nodes

TEST(RoutingScale, FatTree256SpreadsFlowsAcrossGateways) {
  FatTreeBed bed = make_fat_tree(2, kFtLeaves, kFtGateways);
  Session session(bed.config);
  VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));
  ASSERT_EQ(session.node_count(), 256u);
  ASSERT_EQ(vc.boundary_count(), 2u);

  auto failure = run_flows(session, vc, cross_cluster_flows(bed, 8),
                           /*messages=*/2, /*message_bytes=*/12 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");
  EXPECT_EQ(vc.routing_counters().gateway_kills, 0u);

  // Eight flows hashed across four healthy gateways per boundary: the
  // deterministic spread must use more than one of them.
  std::size_t used = 0;
  for (std::size_t g = 0; g < kFtGateways; ++g) {
    if (vc.gateway_forwarded(bed.gateway(0, g)) > 0) ++used;
  }
  EXPECT_GE(used, 2u) << "hashed spread left all flows on one gateway";
  EXPECT_LT(peak_rss_mb(), kFatTree256RssCapMb);
}

TEST(RoutingScale, FatTree256KilledGatewayMidTransfer) {
  FatTreeBed bed = make_fat_tree(2, kFtLeaves, kFtGateways);
  Session session(bed.config);
  VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));

  const std::vector<FlowSpec> flows = cross_cluster_flows(bed, 8);
  // Kill the gateway flow 0 actually routes through, once the channel's
  // gateways have moved 40 packets — squarely mid-transfer.
  const std::uint32_t victim =
      vc.router().next_node(0, flows[0].src, flows[0].dst);
  GatewayKiller::at_packet_count(vc, victim, 40);

  auto failure = run_flows(session, vc, flows, /*messages=*/2,
                           /*message_bytes=*/12 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");

  EXPECT_EQ(vc.routing_counters().gateway_kills, 1u);
  EXPECT_FALSE(session.hostdb().alive(victim));
  EXPECT_EQ(session.hostdb().epoch(), 1u);
  for (std::size_t b = 0; b < vc.boundary_count(); ++b) {
    for (std::uint32_t g : vc.router().boundaries()[b].healthy) {
      EXPECT_NE(g, victim) << "dead gateway still in a healthy set";
    }
  }
  EXPECT_LT(peak_rss_mb(), kFatTree256RssCapMb);
}

TEST(RoutingScale, FatTree256MadreportConsolidatedReport) {
  // Cluster-health reporting at scale: run cross-cluster traffic with
  // trace propagation on, write per-"process" metrics snapshots the way
  // a real deployment would (one per registry), and fold them with
  // madreport into one consolidated JSON carrying per-flow hop-latency
  // rollups. When CI sets MAD2_REPORT_DIR the artifacts land there for
  // upload; otherwise they go to a scratch directory.
  namespace fs = std::filesystem;
  FatTreeBed bed = make_fat_tree(2, kFtLeaves, kFtGateways);
  Session session(bed.config);
  VirtualChannelDef def = resilient_vdef(bed.route(0, 1));
  def.propagation = true;
  VirtualChannel vc(session, def);
  ASSERT_EQ(session.node_count(), 256u);

  // Delivery-side hop replay records into the ambient registry.
  obs::MetricsRegistry hop_metrics;
  obs::install_metrics(&hop_metrics);
  auto failure = run_flows(session, vc, cross_cluster_flows(bed, 6),
                           /*messages=*/2, /*message_bytes=*/12 * 1024);
  const Status run = session.run();
  obs::uninstall_metrics(&hop_metrics);
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");
  vc.export_metrics(hop_metrics);

  obs::MetricsRegistry session_metrics;
  session.export_metrics(session_metrics);

  const char* report_env = std::getenv("MAD2_REPORT_DIR");
  const fs::path dir = (report_env != nullptr && report_env[0] != '\0')
                           ? fs::path(report_env)
                           : fs::temp_directory_path() / "mad2_scale_report";
  fs::create_directories(dir);
  const std::string hop_path = (dir / "ft256_channel.json").string();
  const std::string session_path = (dir / "ft256_session.json").string();
  ASSERT_TRUE(hop_metrics.write_json(hop_path));
  ASSERT_TRUE(session_metrics.write_json(session_path));

  std::vector<std::string> errors;
  const obs::ClusterReport report =
      obs::cluster_report_from_files({hop_path, session_path}, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(report.inputs, 2u);

  // Six cross-cluster flows, each attributed across all four hops of its
  // leaf -> gateway -> gateway -> leaf journey.
  ASSERT_EQ(report.flows.size(), 6u);
  for (const obs::FlowRollup& flow : report.flows) {
    EXPECT_EQ(flow.channel, "vc");
    EXPECT_GT(flow.packets, 0) << flow.flow;
    ASSERT_EQ(flow.hops.size(), 4u) << flow.flow;
    for (const obs::HopRollup& hop : flow.hops) {
      EXPECT_GT(hop.samples, 0) << flow.flow << " hop " << hop.hop;
      // Every non-delivery hop saw real wire time.
      if (hop.hop < 3) {
        EXPECT_GT(hop.wire_mean_us, 0.0) << flow.flow << " hop " << hop.hop;
      }
    }
  }

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"flows\""), std::string::npos);
  EXPECT_NE(json.find("\"hops\""), std::string::npos);
  std::ofstream out(dir / "ft256_madreport.json");
  out << json;
  ASSERT_TRUE(out.good());
  EXPECT_LT(peak_rss_mb(), kFatTree256RssCapMb);
}

// -------------------------------------------------- 1024-node torus ring

TEST(RoutingScale, Torus1024KilledGatewayMidTransfer) {
  // 16 clusters x (62 leaves + 2 east gateways) = 1024 nodes; traffic
  // crosses three gateway boundaries from cluster 0 to cluster 3.
  TorusBed bed = make_torus(16, 62, 2);
  Session session(bed.config);
  VirtualChannel vc(session, resilient_vdef(bed.route(0, 3)));
  ASSERT_EQ(session.node_count(), 1024u);
  ASSERT_EQ(vc.boundary_count(), 3u);

  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    flows.push_back(FlowSpec{bed.leaf(0, i), bed.leaf(3, i)});
  }
  // Victim on the middle boundary, so both the upstream and downstream
  // legs of the route survive around the hole.
  const std::uint32_t victim =
      vc.router().next_node(1, flows[0].src, flows[0].dst);
  GatewayKiller::at_packet_count(vc, victim, 30);

  auto failure = run_flows(session, vc, flows, /*messages=*/2,
                           /*message_bytes=*/8 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");
  EXPECT_EQ(vc.routing_counters().gateway_kills, 1u);
  EXPECT_FALSE(session.hostdb().alive(victim));
  EXPECT_LT(peak_rss_mb(), kTorus1024RssCapMb);
}

// ------------------------------------------------- killed-gateway sweeps

TEST(RoutingScale, KilledGatewaySeedSweep) {
  // Scan the kill instant across the whole packet stream: before the
  // first data packet, inside the bulk, near the tail, and past the end
  // (the kill stays armed but never fires — equally valid). 18 nodes
  // keeps ~8 full sims affordable.
  for (std::uint64_t after_packets : {1u, 5u, 10u, 20u, 35u, 50u, 75u, 100u}) {
    FatTreeBed bed = make_fat_tree(2, 6, 3);
    Session session(bed.config);
    VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));
    const std::vector<FlowSpec> flows = cross_cluster_flows(bed, 4);
    const std::uint32_t victim =
        vc.router().next_node(0, flows[0].src, flows[0].dst);
    GatewayKiller::at_packet_count(vc, victim, after_packets);

    auto failure = run_flows(session, vc, flows, /*messages=*/3,
                             /*message_bytes=*/8 * 1024);
    const Status run = session.run();
    ASSERT_TRUE(run.is_ok())
        << "kill after " << after_packets << " packets: " << run.to_string();
    EXPECT_TRUE(failure->empty())
        << "kill after " << after_packets << " packets: " << *failure;
    EXPECT_EQ(check_channel_drained(vc), "")
        << "kill after " << after_packets << " packets";
    EXPECT_LE(vc.routing_counters().gateway_kills, 1u);
  }
}

// -------------------------------- driver partition -> end-to-end failover

/// Core rank of gateway (cluster, g): make_fat_tree pushes gateways onto
/// the core network cluster-major, so ranks follow the same order.
std::uint32_t core_rank(const FatTreeBed& bed, std::uint32_t gateway_node) {
  for (std::size_t c = 0; c < bed.clusters; ++c) {
    for (std::size_t g = 0; g < bed.gateways_per_cluster; ++g) {
      if (bed.gateway(c, g) == gateway_node) {
        return static_cast<std::uint32_t>(c * bed.gateways_per_cluster + g);
      }
    }
  }
  ADD_FAILURE() << "node " << gateway_node << " is not a gateway";
  return 0;
}

TEST(RoutingScale, PartitionTriggersFailoverEndToEnd) {
  // No explicit kill anywhere: a scripted fabric partition between the
  // two core gateways flow 0 uses must travel the entire failure chain
  // — reliable-link give-up, link error handler, route_network_failure,
  // the channel's failure listener, gateway kill, replay — and the flows
  // must still satisfy every delivery invariant. The partition instant
  // sweeps across the transfer.
  //
  // The gateway choice is deterministic, so a throwaway session (no
  // faults) tells us which core ranks to partition.
  FatTreeBed probe_bed = make_fat_tree(2, 4, 2);
  std::uint32_t gw_out = 0, gw_in = 0;
  const std::vector<FlowSpec> flows = {{probe_bed.leaf(0, 0),
                                        probe_bed.leaf(1, 0)},
                                       {probe_bed.leaf(0, 1),
                                        probe_bed.leaf(1, 1)}};
  {
    Session probe(probe_bed.config);
    VirtualChannel vc(probe, resilient_vdef(probe_bed.route(0, 1)));
    gw_out = vc.router().next_node(0, flows[0].src, flows[0].dst);
    gw_in = vc.router().next_node(1, flows[0].src, flows[0].dst);
  }

  std::uint64_t total_kills = 0;
  for (int at_us = 500; at_us <= 3000; at_us += 500) {
    net::FaultPlan plan(/*seed=*/at_us);
    plan.partition(core_rank(probe_bed, gw_out), core_rank(probe_bed, gw_in),
                   sim::microseconds(at_us));

    FatTreeBed bed = make_fat_tree(2, 4, 2);
    net::TcpParams tcp = net::TcpParams::fast_ethernet();
    tcp.fabric.faults = &plan;
    tcp.reliability.rto_initial = sim::microseconds(200);
    tcp.reliability.rto_max = sim::microseconds(800);
    tcp.reliability.max_retransmits = 5;
    for (mad::NetworkDef& net : bed.config.networks) {
      if (net.name == "ft_core_net") net.params = tcp;
    }

    Session session(bed.config);
    VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));
    auto failure = run_flows(session, vc, flows, /*messages=*/4,
                             /*message_bytes=*/16 * 1024);
    const Status run = session.run();
    ASSERT_TRUE(run.is_ok())
        << "partition at " << at_us << "us: " << run.to_string();
    EXPECT_TRUE(failure->empty())
        << "partition at " << at_us << "us: " << *failure;
    EXPECT_EQ(check_channel_drained(vc), "")
        << "partition at " << at_us << "us";
    total_kills += vc.routing_counters().gateway_kills;
  }
  // Somewhere in the sweep the partition must have landed mid-transfer
  // and actually cost a gateway (instants past the transfer's end are
  // no-kill runs, which is why this accumulates over the sweep).
  EXPECT_GE(total_kills, 1u);
}

// ----------------------------------------- failover window, madcheck'd

TEST(RoutingScale, FailoverWindowExploredSchedules) {
  // The kill lands while sender, gateway pump, repair, and receiver
  // fibers are all runnable: madcheck permutes their interleavings and
  // the delivery invariants must hold under every schedule.
  auto body = []() -> Status {
    FatTreeBed bed = make_fat_tree(2, 2, 2);
    Session session(bed.config);
    VirtualChannel vc(session, resilient_vdef(bed.route(0, 1),
                                              /*mtu=*/2 * 1024));
    const std::vector<FlowSpec> flows = {{bed.leaf(0, 0), bed.leaf(1, 0)},
                                         {bed.leaf(0, 1), bed.leaf(1, 1)}};
    const std::uint32_t victim =
        vc.router().next_node(0, flows[0].src, flows[0].dst);
    GatewayKiller::at_packet_count(vc, victim, 4);
    auto failure = run_flows(session, vc, flows, /*messages=*/2,
                             /*message_bytes=*/6 * 1024);
    const Status run = session.run();
    if (!run.is_ok()) return run;
    if (!failure->empty()) return internal_error(*failure);
    const std::string drain = check_channel_drained(vc);
    if (!drain.empty()) return internal_error(drain);
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

// ----------------------------------- failure-domain routing regressions

TEST(RoutingScale, DoubleReportedGatewayFailureRoutesOnce) {
  FatTreeBed bed = make_fat_tree(2, 4, 2);
  Session session(bed.config);
  VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));

  mad::NetworkFailure report;
  report.network = &session.network("ft_core_net");
  report.status = unavailable("peer unresponsive (test)");
  report.src_node = bed.gateway(0, 0);
  report.dst_node = bed.gateway(1, 0);

  // First report: the listener absorbs it by retiring *both* ends of
  // the dead link — the unresponsive gateway, and the reporter, whose
  // endpoint on the failed network is terminal after a give-up. A
  // second, identical report (the same failure seen through another
  // link) returns the recorded domain with no further kills.
  EXPECT_EQ(session.route_network_failure(report),
            mad::FailureDomain::kHop);
  EXPECT_EQ(vc.routing_counters().gateway_kills, 2u);
  EXPECT_FALSE(session.hostdb().alive(bed.gateway(1, 0)));
  EXPECT_FALSE(session.hostdb().alive(bed.gateway(0, 0)));
  EXPECT_EQ(session.hostdb().epoch(), 2u);

  EXPECT_EQ(session.route_network_failure(report),
            mad::FailureDomain::kHop);
  EXPECT_EQ(vc.routing_counters().gateway_kills, 2u);
  EXPECT_EQ(session.hostdb().epoch(), 2u);
}

TEST(RoutingScale, LeafFailureIsANodeDomainNotAHop) {
  // A dead leaf is nobody's routing problem: no gateway sibling can
  // absorb it, so triage must land in the node domain and mark the host
  // dead — the session is failing, not re-routing.
  FatTreeBed bed = make_fat_tree(2, 4, 2);
  Session session(bed.config);
  VirtualChannel vc(session, resilient_vdef(bed.route(0, 1)));

  mad::NetworkFailure report;
  report.network = &session.network("ft_c0_net");
  report.status = unavailable("peer unresponsive (test)");
  report.src_node = bed.gateway(0, 0);
  report.dst_node = bed.leaf(0, 1);

  EXPECT_EQ(session.route_network_failure(report),
            mad::FailureDomain::kNode);
  EXPECT_FALSE(session.hostdb().alive(bed.leaf(0, 1)));
  EXPECT_EQ(vc.routing_counters().gateway_kills, 0u);
}

}  // namespace
}  // namespace mad2
