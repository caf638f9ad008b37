// Property tests for the forwarding layer: random block schedules and
// random mode combinations across the gateway must arrive intact and in
// order, including with paranoid hop channels, store-and-forward
// gateways, odd MTUs, and lossy TCP hops riding the reliable shim.
#include <gtest/gtest.h>

#include "credit_balance.hpp"
#include "fwd/virtual_channel.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "sim/explore.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad2::fwd {
namespace {

using mad::ChannelDef;
using mad::NetworkDef;
using mad::NetworkKind;
using mad::NodeRuntime;
using mad::Session;
using mad::SessionConfig;

struct FuzzParam {
  std::uint64_t seed;
  std::size_t mtu;
  std::size_t pipeline_depth;
  bool paranoid_hops;
  NetworkKind left = NetworkKind::kSisci;
  NetworkKind right = NetworkKind::kBip;
  /// Nonzero: every message is one block of this many bytes, so each
  /// spans several packets in flight through the gateway's pool at once.
  std::uint32_t block_size = 0;
  /// Packet loss injected into every TCP hop (non-TCP hops stay lossless;
  /// only the TCP driver layers the reliable shim underneath).
  double fault_drop = 0.0;
};
// gtest prints the parameter's size after each case's name; block_size
// sits in the padding before fault_drop so the case names stay put.
static_assert(sizeof(FuzzParam) == 48);

/// Ack/retransmit counters of `node`'s reliable endpoint on the TCP
/// network "left" (the reliable shim owns them, one set per port).
const net::ReliabilityCounters& left_link_counters(Session& session,
                                                   std::uint32_t node) {
  mad::NetworkInstance& left = session.network("left");
  return left.as<net::TcpNetwork>()
      .reliable()
      ->endpoint(left.port(node))
      .counters();
}

/// Faulty-Ethernet parameters: a FaultPlan with light loss/dup/reorder
/// plus the matching TcpParams. The plan must outlive the session.
net::TcpParams faulty_tcp(net::FaultPlan& plan, double drop_rate) {
  net::LinkFaults faults;
  faults.drop_rate = drop_rate;
  faults.dup_rate = drop_rate / 4;
  faults.reorder_rate = drop_rate;
  faults.reorder_window = 4;
  plan.set_default_faults(faults);
  net::TcpParams params = net::TcpParams::fast_ethernet();
  params.fabric.faults = &plan;
  return params;
}

class FwdFuzz : public testing::TestWithParam<FuzzParam> {};

std::string param_name(const testing::TestParamInfo<FuzzParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_mtu" +
         std::to_string(info.param.mtu) + "_depth" +
         std::to_string(info.param.pipeline_depth) +
         (info.param.paranoid_hops ? "_paranoid" : "") + "_" +
         std::string(to_string(info.param.left)) + "_" +
         std::string(to_string(info.param.right)) +
         (info.param.fault_drop > 0 ? "_faulty" : "") +
         (info.param.block_size > 0
              ? "_block" + std::to_string(info.param.block_size)
              : "");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FwdFuzz,
    testing::Values(
        FuzzParam{1, 4096, 2, false},
        FuzzParam{2, 16 * 1024, 2, false},
        FuzzParam{3, 16 * 1024, 1, false},  // store-and-forward
        FuzzParam{4, 1000, 2, false},       // odd MTU
        FuzzParam{5, 16 * 1024, 4, false},  // deep pipeline
        FuzzParam{6, 16 * 1024, 2, true},   // paranoid hops
        FuzzParam{7, 4096, 1, true},
        // Every substrate pairing through a gateway:
        FuzzParam{8, 8192, 2, false, NetworkKind::kTcp, NetworkKind::kSbp},
        FuzzParam{9, 8192, 2, false, NetworkKind::kVia, NetworkKind::kSisci},
        FuzzParam{10, 8192, 2, false, NetworkKind::kSbp, NetworkKind::kBip},
        FuzzParam{11, 8192, 2, false, NetworkKind::kVia, NetworkKind::kTcp},
        FuzzParam{12, 8192, 2, false, NetworkKind::kSbp, NetworkKind::kSbp},
        // Lossy-wire cases: the TCP hops drop/dup/reorder under the
        // reliable shim; end-to-end integrity must be unaffected.
        FuzzParam{13, 8192, 2, false, NetworkKind::kTcp, NetworkKind::kTcp,
                  0, 0.03},
        FuzzParam{14, 4096, 2, false, NetworkKind::kTcp,
                  NetworkKind::kSisci, 0, 0.05},
        FuzzParam{15, 16 * 1024, 1, true, NetworkKind::kTcp,
                  NetworkKind::kTcp, 0, 0.02},
        // Single blocks of 3 MTUs + 100 B: neighbouring pool buffers
        // hold packets of one message at the same time.
        FuzzParam{16, 4096, 2, false, NetworkKind::kSisci, NetworkKind::kBip,
                  3 * 4096 + 100}),
    param_name);

TEST_P(FwdFuzz, RandomSchedulesSurviveTheGateway) {
  const FuzzParam param = GetParam();
  Rng rng(param.seed);

  SessionConfig config;
  config.node_count = 3;
  net::FaultPlan left_plan(param.seed * 2 + 1);
  net::FaultPlan right_plan(param.seed * 2 + 2);
  NetworkDef left;
  left.name = "left";
  left.kind = param.left;
  left.nodes = {0, 1};
  if (param.fault_drop > 0 && param.left == NetworkKind::kTcp) {
    left.params = faulty_tcp(left_plan, param.fault_drop);
  }
  NetworkDef right;
  right.name = "right";
  right.kind = param.right;
  right.nodes = {1, 2};
  if (param.fault_drop > 0 && param.right == NetworkKind::kTcp) {
    right.params = faulty_tcp(right_plan, param.fault_drop);
  }
  config.networks = {left, right};
  ChannelDef cl{"cl", "left"};
  cl.paranoid = param.paranoid_hops;
  ChannelDef cr{"cr", "right"};
  cr.paranoid = param.paranoid_hops;
  config.channels = {cl, cr};
  Session session(std::move(config));

  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cl", "cr"};
  def.mtu = param.mtu;
  def.pipeline_depth = param.pipeline_depth;
  VirtualChannel vc(session, def);

  // Random message plan, verified end to end.
  struct Block {
    std::size_t size;
    mad::SendMode smode;
    mad::ReceiveMode rmode;
  };
  std::vector<std::vector<Block>> messages(rng.next_range(2, 5));
  for (auto& message : messages) {
    message.resize(param.block_size > 0 ? 1 : rng.next_range(1, 5));
    for (Block& block : message) {
      block.size = rng.next_below(3) == 0 ? rng.next_range(0, 200)
                                          : rng.next_range(201, 60000);
      if (param.block_size > 0) block.size = param.block_size;
      block.smode =
          rng.next_bool(0.3) ? mad::send_SAFER : mad::send_CHEAPER;
      block.rmode =
          rng.next_bool(0.3) ? mad::receive_EXPRESS : mad::receive_CHEAPER;
    }
  }

  session.spawn(0, "sender", [&](NodeRuntime&) {
    std::uint64_t pattern = 0;
    for (const auto& message : messages) {
      std::vector<std::vector<std::byte>> payloads;
      for (const Block& block : message) {
        payloads.push_back(make_pattern_buffer(block.size, ++pattern));
      }
      auto& conn = vc.endpoint(0).begin_packing(2);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.pack(payloads[i], message[i].smode, message[i].rmode);
      }
      conn.end_packing();
    }
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    std::uint64_t pattern = 0;
    for (const auto& message : messages) {
      auto& conn = vc.endpoint(2).begin_unpacking();
      std::vector<std::vector<std::byte>> outs;
      for (const Block& block : message) outs.emplace_back(block.size);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.unpack(outs[i], message[i].smode, message[i].rmode);
      }
      conn.end_unpacking();
      for (const auto& out : outs) {
        EXPECT_TRUE(verify_pattern(out, ++pattern));
      }
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  if (param.fault_drop > 0 && param.left == NetworkKind::kTcp) {
    // The lossy hop really exercised the shim, and the ARQ counters are
    // visible on node 0's reliable endpoint.
    EXPECT_GT(left_plan.counters().shipped, 0u);
    EXPECT_GT(left_link_counters(session, 0).data_frames, 0u);
  }
  // Every credit-governed hop has its whole window back at quiescence.
  EXPECT_EQ(mad::credit_imbalance(session, "cl", 0, 1), "");
  EXPECT_EQ(mad::credit_imbalance(session, "cr", 1, 2), "");
}

// ------------------------------------------------------------ madcheck ---

// Schedule exploration x payload fuzz: every explored schedule also runs
// a *different* randomized message plan (the run counter seeds the plan),
// so schedule-space and payload-space are swept together. Each schedule
// must deliver intact and leave every credit window on the path whole.
sim::ExploreResult explore_gateway(NetworkKind left_kind,
                                   NetworkKind right_kind, bool paranoid) {
  int run_index = 0;
  const auto body = [&]() -> Status {
    const std::uint64_t plan_seed = 1000 + run_index++;
    Rng rng(plan_seed);
    std::string failure;
    auto fail = [&failure](std::string detail) {
      if (failure.empty()) failure = std::move(detail);
    };

    SessionConfig config;
    config.node_count = 3;
    NetworkDef left;
    left.name = "left";
    left.kind = left_kind;
    left.nodes = {0, 1};
    NetworkDef right;
    right.name = "right";
    right.kind = right_kind;
    right.nodes = {1, 2};
    config.networks = {left, right};
    ChannelDef cl{"cl", "left"};
    cl.paranoid = paranoid;
    ChannelDef cr{"cr", "right"};
    cr.paranoid = paranoid;
    config.channels = {cl, cr};
    Session session(std::move(config));
    VirtualChannelDef def;
    def.name = "vc";
    def.hops = {"cl", "cr"};
    def.mtu = 1000;  // odd MTU: packet boundaries never align with blocks
    VirtualChannel vc(session, def);

    struct Block {
      std::size_t size;
      mad::SendMode smode;
      mad::ReceiveMode rmode;
    };
    std::vector<Block> message(rng.next_range(1, 4));
    for (Block& block : message) {
      block.size = rng.next_below(2) == 0 ? rng.next_range(0, 200)
                                          : rng.next_range(201, 8000);
      block.smode = rng.next_bool(0.3) ? mad::send_SAFER : mad::send_CHEAPER;
      block.rmode =
          rng.next_bool(0.3) ? mad::receive_EXPRESS : mad::receive_CHEAPER;
    }

    session.spawn(0, "sender", [&](NodeRuntime&) {
      std::vector<std::vector<std::byte>> payloads;
      for (std::size_t i = 0; i < message.size(); ++i) {
        payloads.push_back(
            make_pattern_buffer(message[i].size, plan_seed + i));
      }
      auto& conn = vc.endpoint(0).begin_packing(2);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.pack(payloads[i], message[i].smode, message[i].rmode);
      }
      conn.end_packing();
    });
    session.spawn(2, "receiver", [&](NodeRuntime&) {
      auto& conn = vc.endpoint(2).begin_unpacking();
      std::vector<std::vector<std::byte>> outs;
      for (const Block& block : message) outs.emplace_back(block.size);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.unpack(outs[i], message[i].smode, message[i].rmode);
      }
      conn.end_unpacking();
      for (std::size_t i = 0; i < message.size(); ++i) {
        if (!verify_pattern(outs[i], plan_seed + i)) {
          fail("plan " + std::to_string(plan_seed) + " block " +
               std::to_string(i) + " corrupt under explored schedule");
        }
      }
    });
    const Status run = session.run();
    if (!run.is_ok()) return run;
    if (!failure.empty()) return internal_error(failure);
    std::string imbalance = mad::credit_imbalance(session, "cl", 0, 1);
    if (imbalance.empty()) {
      imbalance = mad::credit_imbalance(session, "cr", 1, 2);
    }
    if (!imbalance.empty()) return internal_error(imbalance);
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  // No exhaustive phase: the body is intentionally not idempotent (each
  // run draws a fresh payload plan), so DFS prefix extension — which
  // assumes replaying a prefix reproduces the same run — would explore
  // stale prefixes. Random walks and the FIFO baseline do not replay.
  options.max_exhaustive_runs = 0;
  options.shrink = false;  // shrinking also assumes idempotence
  return sim::explore(body, options);
}

// Odd MTU and paranoid hops maximize the per-packet work racing at the
// gateway.
TEST(FwdFuzzExplore, VariedPayloadsSurviveAnySchedule) {
  const sim::ExploreResult result =
      explore_gateway(NetworkKind::kSisci, NetworkKind::kBip,
                      /*paranoid=*/true);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

// Paranoid channels never lend zero-copy borrows. Over a plain SBP input
// hop the gateway's rx fiber borrows credit-governed slots, so schedules
// race its tx fiber's retained-slot releases against the rx fiber's
// flush-before-block credit returns.
TEST(FwdFuzzExplore, LentSlotsSurviveAnySchedule) {
  const sim::ExploreResult result =
      explore_gateway(NetworkKind::kSbp, NetworkKind::kBip,
                      /*paranoid=*/false);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

// Gateway-path acceptance criterion of the fault-injection issue: 10k
// messages through a forwarding gateway over two lossy TCP hops (5% drop,
// 1% dup, reorder window 4), delivered exactly once, in order, intact —
// with a byte-identical delivery trace across two same-seed runs.
TEST(FwdFaultAcceptance, TenThousandMessagesThroughLossyGateway) {
  auto run_once = [] {
    constexpr int kMessages = 10000;
    net::LinkFaults faults;
    faults.drop_rate = 0.05;
    faults.dup_rate = 0.01;
    faults.reorder_rate = 0.25;
    faults.reorder_window = 4;
    net::FaultPlan left_plan(/*seed=*/101);
    net::FaultPlan right_plan(/*seed=*/202);
    left_plan.set_default_faults(faults);
    right_plan.set_default_faults(faults);
    net::TcpParams left_tcp = net::TcpParams::fast_ethernet();
    left_tcp.fabric.faults = &left_plan;
    net::TcpParams right_tcp = net::TcpParams::fast_ethernet();
    right_tcp.fabric.faults = &right_plan;

    SessionConfig config;
    config.node_count = 3;
    NetworkDef left;
    left.name = "left";
    left.kind = NetworkKind::kTcp;
    left.nodes = {0, 1};
    left.params = left_tcp;
    NetworkDef right;
    right.name = "right";
    right.kind = NetworkKind::kTcp;
    right.nodes = {1, 2};
    right.params = right_tcp;
    config.networks = {left, right};
    config.channels = {ChannelDef{"cl", "left"}, ChannelDef{"cr", "right"}};
    Session session(std::move(config));
    VirtualChannelDef def;
    def.name = "vc";
    def.hops = {"cl", "cr"};
    def.mtu = 4096;
    VirtualChannel vc(session, def);

    std::string trace;
    session.spawn(0, "sender", [&](NodeRuntime&) {
      for (int i = 0; i < kMessages; ++i) {
        auto payload = make_pattern_buffer(32 + (i % 64), i);
        auto& conn = vc.endpoint(0).begin_packing(2);
        conn.pack(payload);
        conn.end_packing();
      }
    });
    session.spawn(2, "receiver", [&](NodeRuntime& rt) {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<std::byte> out(32 + (i % 64));
        auto& conn = vc.endpoint(2).begin_unpacking();
        conn.unpack(out);
        conn.end_unpacking();
        // Exactly-once + in-order: message i must carry pattern i.
        EXPECT_TRUE(verify_pattern(out, i)) << "message " << i;
        trace += std::to_string(fnv1a(out)) + "@" +
                 std::to_string(rt.simulator().now()) + ";";
      }
    });
    EXPECT_TRUE(session.run().is_ok());
    // The wire was genuinely hostile and the shim genuinely worked.
    EXPECT_GT(left_plan.counters().dropped, 0u);
    EXPECT_GT(right_plan.counters().dropped, 0u);
    EXPECT_GT(left_link_counters(session, 0).retransmits, 0u);
    return trace;
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run_once(), first);
}

TEST(FwdSelfDescription, ModeMismatchIsCaughtByTheGenericTm) {
  // Virtual channels ARE self-described (unlike plain channels), so the
  // receiver's divergence is detected even without paranoid mode.
  SessionConfig config;
  config.node_count = 3;
  NetworkDef left;
  left.name = "left";
  left.kind = NetworkKind::kTcp;
  left.nodes = {0, 1};
  NetworkDef right;
  right.name = "right";
  right.kind = NetworkKind::kTcp;
  right.nodes = {1, 2};
  config.networks = {left, right};
  config.channels = {ChannelDef{"cl", "left"}, ChannelDef{"cr", "right"}};
  Session session(std::move(config));
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cl", "cr"};
  VirtualChannel vc(session, def);

  session.spawn(0, "sender", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(100, 1);
    auto& conn = vc.endpoint(0).begin_packing(2);
    conn.pack(payload, mad::send_CHEAPER, mad::receive_CHEAPER);
    conn.end_packing();
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    std::vector<std::byte> out(100);
    auto& conn = vc.endpoint(2).begin_unpacking();
    conn.unpack(out, mad::send_CHEAPER, mad::receive_EXPRESS);  // mismatch
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "modes do not match");
}

TEST(FwdSelfDescription, SizeMismatchIsCaughtByTheGenericTm) {
  SessionConfig config;
  config.node_count = 3;
  NetworkDef left;
  left.name = "left";
  left.kind = NetworkKind::kTcp;
  left.nodes = {0, 1};
  NetworkDef right;
  right.name = "right";
  right.kind = NetworkKind::kTcp;
  right.nodes = {1, 2};
  config.networks = {left, right};
  config.channels = {ChannelDef{"cl", "left"}, ChannelDef{"cr", "right"}};
  Session session(std::move(config));
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"cl", "cr"};
  VirtualChannel vc(session, def);

  session.spawn(0, "sender", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(100, 1);
    auto& conn = vc.endpoint(0).begin_packing(2);
    conn.pack(payload);
    conn.end_packing();
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    std::vector<std::byte> out(99);
    auto& conn = vc.endpoint(2).begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "does not match");
}

}  // namespace
}  // namespace mad2::fwd
