// Multi-rail striping (mad/rail_set.hpp): large-block sweeps across rail
// counts and sizes straddling the threshold and the TCP MSS, mixed-driver
// rail sets, the striping/eligibility boundary (EXPRESS and sub-threshold
// blocks stay on the single-TM path), per-rail statistics, and rail-fault
// degradation — a rail killed mid-transfer must not lose or corrupt a
// byte, and the message must complete on the survivors.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mad/config_parser.hpp"
#include "mad/madeleine.hpp"
#include "net/fault.hpp"
#include "sim/explore.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

/// Two nodes joined by `rail_count` independent TCP adapters, one channel
/// per adapter, all grouped into rail set "r" headed by "ch0".
SessionConfig tcp_rails_config(std::size_t rail_count,
                               std::size_t threshold =
                                   kDefaultStripeThreshold) {
  SessionConfig config;
  config.node_count = 2;
  RailSetDef rails;
  rails.name = "r";
  rails.stripe_threshold = threshold;
  for (std::size_t i = 0; i < rail_count; ++i) {
    NetworkDef net;
    net.name = "net" + std::to_string(i);
    net.kind = NetworkKind::kTcp;
    net.nodes = {0, 1};
    config.networks.push_back(net);
    const std::string channel = "ch" + std::to_string(i);
    config.channels.emplace_back(channel, net.name);
    rails.channels.push_back(channel);
  }
  config.rail_sets.push_back(rails);
  return config;
}

/// Send `sizes` as consecutive blocks of one message on ch0 and verify
/// them on the receive side. Returns the run status.
Status run_transfer(Session& session, const std::vector<std::size_t>& sizes,
                    SendMode smode = send_CHEAPER,
                    ReceiveMode rmode = receive_CHEAPER) {
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    std::vector<std::vector<std::byte>> payloads;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      payloads.push_back(make_pattern_buffer(sizes[i], 100 + i));
    }
    auto& conn = rt.channel("ch0").begin_packing(1);
    for (const auto& payload : payloads) conn.pack(payload, smode, rmode);
    conn.end_packing();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<std::vector<std::byte>> outs;
    for (std::size_t size : sizes) outs.emplace_back(size);
    for (auto& out : outs) conn.unpack(out, smode, rmode);
    conn.end_unpacking();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_TRUE(verify_pattern(outs[i], 100 + i))
          << "block " << i << " (" << sizes[i] << " bytes) corrupt";
    }
  });
  return session.run();
}

std::uint64_t secondary_segments(Session& session) {
  std::uint64_t total = 0;
  const TrafficStats stats =
      session.endpoint("ch0", 1).connection(0).stats();
  for (const auto& [rail, counters] : stats.rails) {
    if (rail != "ch0") total += counters.segments;
  }
  return total;
}

// ------------------------------------------------------------ the sweep ---

TEST(RailStriping, SweepRailsBySizes) {
  // Sizes straddle the stripe threshold (64 KiB) and the TCP MSS (1460):
  // just below/at/above the threshold, an MSS-straddling odd size, and a
  // large block, mixed with small blocks so the striped path's BMM
  // flushes interleave with grouped small-block traffic. The last case
  // moves the secondary rail to SBP, whose only TM takes static slots, so
  // its segments are copied through StaticSlotTm's slots.
  std::vector<std::pair<std::string, SessionConfig>> cases = {
      {"tcp x2", tcp_rails_config(2)},
      {"tcp x3", tcp_rails_config(3)},
      {"tcp x4", tcp_rails_config(4)},
      {"tcp + sbp", tcp_rails_config(2)}};
  cases.back().second.networks[1].kind = NetworkKind::kSbp;
  for (auto& [name, config] : cases) {
    Session session(std::move(config));
    const std::vector<std::size_t> sizes = {
        64,           kDefaultStripeThreshold - 1, kDefaultStripeThreshold,
        3 * 1460 + 7, 32,                          200 * 1000 + 13,
        1 << 20,      5};
    const Status run = run_transfer(session, sizes);
    EXPECT_TRUE(run.is_ok()) << name << ": " << run.to_string();
    EXPECT_TRUE(session.rail_set("r").health().is_ok());
    // Both directions of the primary connection account striped traffic;
    // the receiver side must have landed secondary segments.
    EXPECT_GT(secondary_segments(session), 0u) << name;
  }
}

TEST(RailStriping, ConnectionsBuiltAfterSetupStillStripe) {
  // RailSet::finish_setup binds the primary channel's endpoints before any
  // connection exists; the connections the transfer builds must still
  // hand large blocks to the rail scheduler.
  Session session(tcp_rails_config(2));
  for (const char* channel : {"ch0", "ch1"}) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      EXPECT_EQ(session.endpoint(channel, node).connection_count(), 0u)
          << channel << " node " << node;
    }
  }
  const Status run = run_transfer(session, {1 << 20});
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_GT(secondary_segments(session), 0u);
  const TrafficStats tx = session.endpoint("ch0", 0).stats();
  ASSERT_EQ(tx.rails.count("ch1"), 1u);
  EXPECT_GT(tx.rails.at("ch1").bytes, 0u);
}

TEST(RailStriping, FallibleTcpRailCarriesSegmentsBeyondTwoSocketBuffers) {
  // A fallible TCP rail sends a segment with send_checked() and then
  // flush(), whose OK means delivered. A segment over two socket buffers
  // (the sender's own plus the peer's receive window) therefore completes
  // only while the receiving lane drains the rail. The striped transfer
  // must not wedge on it, and no segment may be resubmitted.
  net::FaultPlan plan(/*seed=*/7);  // no faults: only the fallible path
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.faults = &plan;
  SessionConfig config = tcp_rails_config(2);
  config.networks[1].params = tcp;
  Session session(std::move(config));
  const Status run = run_transfer(session, {1 << 20});
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(session.rail_set("r").health().is_ok());
  const TrafficStats rx = session.endpoint("ch0", 1).connection(0).stats();
  ASSERT_EQ(rx.rails.count("ch1"), 1u);
  EXPECT_GT(rx.rails.at("ch1").bytes, 2 * tcp.socket_buffer);
  EXPECT_EQ(rx.rails.at("ch1").resubmits, 0u);
}

TEST(RailStriping, BelowThresholdBlocksAreNotStriped) {
  Session session(tcp_rails_config(2));
  const Status run =
      run_transfer(session, {kDefaultStripeThreshold - 1, 4096, 64});
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_EQ(secondary_segments(session), 0u);
  EXPECT_TRUE(
      session.endpoint("ch0", 1).connection(0).stats().rails.empty());
}

TEST(RailStriping, ExpressBlocksAreNeverStriped) {
  // receive_EXPRESS data must be available at unpack return; the
  // scheduler must leave it on the single-TM path however large it is.
  Session session(tcp_rails_config(2));
  const Status run = run_transfer(session, {1 << 20, 1 << 18},
                                  send_CHEAPER, receive_EXPRESS);
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_EQ(secondary_segments(session), 0u);
}

TEST(RailStriping, CustomThresholdIsHonored) {
  Session session(tcp_rails_config(2, /*threshold=*/256 * 1024));
  const Status run = run_transfer(session, {128 * 1024, 256 * 1024});
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  const TrafficStats stats =
      session.endpoint("ch0", 1).connection(0).stats();
  auto it = stats.rails.find("ch1");
  ASSERT_NE(it, stats.rails.end());
  // Only the 256 KiB block crossed the threshold.
  EXPECT_EQ(it->second.segments, 1u);
  // The channel's exported rail row sums both directions' connections.
  const TrafficStats tx = session.endpoint("ch0", 0).connection(1).stats();
  ASSERT_EQ(tx.rails.count("ch1"), 1u);
  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  EXPECT_EQ(registry.value("stats.ch0.rail.ch1.segments"),
            static_cast<std::int64_t>(tx.rails.at("ch1").segments +
                                      it->second.segments));
}

TEST(RailStriping, StripedReceiveRefusesBorrow) {
  // A striping-eligible block lands scattered straight into user memory;
  // unpack_borrow must refuse it (before consuming anything) so the
  // caller falls back to the copying unpack — which is the striped path.
  Session session(tcp_rails_config(2));
  const std::size_t size = 256 * 1024;
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    auto payload = make_pattern_buffer(size, 7);
    auto& conn = rt.channel("ch0").begin_packing(1);
    conn.pack(payload);
    conn.end_packing();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<BorrowedBlock> views;
    EXPECT_FALSE(
        conn.unpack_borrow(size, send_CHEAPER, receive_CHEAPER, views));
    std::vector<std::byte> out(size);
    conn.unpack(out);
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(out, 7));
  });
  EXPECT_TRUE(session.run().is_ok());
  EXPECT_GT(secondary_segments(session), 0u);
}

TEST(RailStriping, MixedProtocolRails) {
  // Primary on BIP/Myrinet, secondaries on SISCI, TCP, and IB: the
  // scheduler must split by the very different driver bandwidth hints and
  // move segments through four different protocol data paths — including
  // the IB rail's checked RDMA rendezvous per segment.
  SessionConfig config;
  config.node_count = 2;
  NetworkDef myri{"myri0", NetworkKind::kBip, {0, 1}, {}, nullptr};
  NetworkDef sci{"sci0", NetworkKind::kSisci, {0, 1}, {}, nullptr};
  NetworkDef eth{"eth0", NetworkKind::kTcp, {0, 1}, {}, nullptr};
  NetworkDef ib{"ib0", NetworkKind::kIb, {0, 1}, {}, nullptr};
  config.networks = {myri, sci, eth, ib};
  config.channels = {ChannelDef{"ch0", "myri0"}, ChannelDef{"ch1", "sci0"},
                     ChannelDef{"ch2", "eth0"}, ChannelDef{"ch3", "ib0"}};
  config.rail_sets.push_back(RailSetDef{"r", {"ch0", "ch1", "ch2", "ch3"}});
  Session session(std::move(config));
  const Status run =
      run_transfer(session, {1 << 20, 64, 300 * 1000, 1 << 19});
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(session.rail_set("r").health().is_ok());
  const TrafficStats stats =
      session.endpoint("ch0", 1).connection(0).stats();
  ASSERT_NE(stats.rails.find("ch0"), stats.rails.end());
  EXPECT_GT(stats.rails.at("ch0").bytes, 0u);
  // The IB rail has the fattest bandwidth hint of the secondaries; it
  // must have carried striped segments.
  ASSERT_NE(stats.rails.find("ch3"), stats.rails.end());
  EXPECT_GT(stats.rails.at("ch3").bytes, 0u);
}

TEST(RailStriping, ParsedConfigStripes) {
  auto parsed = parse_session_config(R"(
nodes 2
network net0 tcp 0 1
network net1 tcp 0 1
channel ch0 net0
channel ch1 net1
rails r ch0 ch1 threshold=32768
)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  Session session(std::move(parsed.value()));
  EXPECT_EQ(session.rail_set("r").rail_count(), 2u);
  EXPECT_EQ(session.rail_set("r").threshold(), 32768u);
  const Status run = run_transfer(session, {64 * 1024});
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_GT(secondary_segments(session), 0u);
}

// --------------------------------------------------------- rail faults ---

/// Two nodes: primary rail on lossless BIP, secondary on a TCP network
/// whose fabric follows `plan` with an aggressive give-up so a partition
/// kills the rail quickly.
SessionConfig faulty_rail_config(net::FaultPlan* plan) {
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.faults = plan;
  tcp.reliability.rto_initial = sim::microseconds(200);
  tcp.reliability.rto_max = sim::microseconds(800);
  tcp.reliability.max_retransmits = 5;
  SessionConfig config;
  config.node_count = 2;
  NetworkDef myri{"myri0", NetworkKind::kBip, {0, 1}, {}, nullptr};
  NetworkDef eth{"eth0", NetworkKind::kTcp, {0, 1}, {}, nullptr};
  eth.params = tcp;
  config.networks = {myri, eth};
  config.channels = {ChannelDef{"ch0", "myri0"}, ChannelDef{"ch1", "eth0"}};
  config.rail_sets.push_back(RailSetDef{"r", {"ch0", "ch1"}});
  return config;
}

TEST(RailFault, KilledRailResubmitsOnSurvivors) {
  // The TCP rail dies mid-stream (scripted partition, never heals). Every
  // block must still arrive intact — outstanding segments resubmitted on
  // the primary — and the session must stay up, degraded.
  net::FaultPlan plan(/*seed=*/11);
  plan.partition(0, 1, sim::microseconds(2500));
  Session session(faulty_rail_config(&plan));
  const std::vector<std::size_t> sizes(6, 256 * 1024);
  const Status run = run_transfer(session, sizes);
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  RailSet& rails = session.rail_set("r");
  EXPECT_FALSE(rails.health().is_ok());
  EXPECT_FALSE(rails.alive(1));
  EXPECT_EQ(rails.weight(1), 0.0);
  // At least one segment was resubmitted after the fault (accounted on
  // whichever side observed its lane fail).
  const TrafficStats tx = session.endpoint("ch0", 0).connection(1).stats();
  const TrafficStats rx = session.endpoint("ch0", 1).connection(0).stats();
  const std::uint64_t resubmits = tx.rails.count("ch1") != 0
                                      ? tx.rails.at("ch1").resubmits
                                      : 0;
  const std::uint64_t rx_resubmits = rx.rails.count("ch1") != 0
                                         ? rx.rails.at("ch1").resubmits
                                         : 0;
  EXPECT_GE(resubmits + rx_resubmits, 1u);
}

TEST(RailFault, SurvivesPartitionSeedSweep) {
  // The partition instant scans across the whole transfer, so the rail
  // dies before, inside, and after every phase of a striped block
  // (descriptor, segments in flight, trailer, between blocks).
  for (int at_us = 500; at_us <= 8000; at_us += 500) {
    net::FaultPlan plan(/*seed=*/at_us);
    plan.partition(0, 1, sim::microseconds(at_us));
    Session session(faulty_rail_config(&plan));
    // Long enough (~12 ms of virtual time) that every partition instant
    // in the sweep falls inside the transfer.
    const std::vector<std::size_t> sizes(6, 256 * 1024);
    const Status run = run_transfer(session, sizes);
    EXPECT_TRUE(run.is_ok())
        << "partition at " << at_us << "us: " << run.to_string();
    EXPECT_FALSE(session.rail_set("r").health().is_ok())
        << "partition at " << at_us << "us left the rail alive";
  }
}

TEST(RailFault, ResubmissionUnderExploredSchedules) {
  // madcheck: the killed-rail scenario must hold under at least 200
  // explored fiber schedules — lane/pump/retransmit interleavings vary,
  // the bytes must not.
  auto body = []() -> Status {
    net::FaultPlan plan(/*seed=*/23);
    plan.partition(0, 1, sim::microseconds(1500));
    Session session(faulty_rail_config(&plan));
    std::string failure;
    const std::vector<std::size_t> sizes(3, 96 * 1024);
    session.spawn(0, "tx", [&](NodeRuntime& rt) {
      std::vector<std::vector<std::byte>> payloads;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        payloads.push_back(make_pattern_buffer(sizes[i], 100 + i));
      }
      auto& conn = rt.channel("ch0").begin_packing(1);
      for (const auto& payload : payloads) conn.pack(payload);
      conn.end_packing();
    });
    session.spawn(1, "rx", [&](NodeRuntime& rt) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::vector<std::byte>> outs;
      for (std::size_t size : sizes) outs.emplace_back(size);
      for (auto& out : outs) conn.unpack(out);
      conn.end_unpacking();
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        if (!verify_pattern(outs[i], 100 + i)) {
          failure = "block " + std::to_string(i) +
                    " corrupt after rail failure";
        }
      }
    });
    const Status run = session.run();
    if (!run.is_ok()) return run;
    if (!failure.empty()) return internal_error(failure);
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

}  // namespace
}  // namespace mad2::mad
