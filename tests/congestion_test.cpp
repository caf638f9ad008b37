// End-to-end congestion control and weighted-fair scheduling:
// CongestionWindow AIMD behavior, FairPacketQueue arbitration,
// config resolution, and incast (N senders -> 1 receiver through a
// gateway) fairness invariants under the madcheck explore harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "fwd/fair_queue.hpp"
#include "fwd/virtual_channel.hpp"
#include "mad/congestion.hpp"
#include "obs/metrics.hpp"
#include "routing_testlib.hpp"
#include "sim/explore.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2 {
namespace {

using fwd::FairPacketQueue;
using fwd::Packet;
using fwd::VirtualChannel;
using fwd::VirtualChannelDef;
using mad::CongestionConfig;
using mad::CongestionWindow;
using mad::NodeRuntime;
using mad::Session;

// ------------------------------------------------------- CongestionWindow ---

CongestionConfig small_config() {
  CongestionConfig config;
  config.enabled = true;
  config.min_window = 1;
  config.max_window = 16;
  return config;
}

TEST(CongestionWindow, AdditiveIncreaseOnLowDelay) {
  sim::Simulator simulator;
  CongestionWindow window(&simulator, small_config(), 4.0);
  const double start = window.cwnd();
  for (int i = 0; i < 50; ++i) {
    window.before_send();
    window.on_delivered(sim::microseconds(100));  // constant: never congested
  }
  EXPECT_GT(window.cwnd(), start);
  EXPECT_LE(window.cwnd(), 16.0);
  EXPECT_EQ(window.decreases(), 0u);
  EXPECT_EQ(window.delivered(), 50u);
}

TEST(CongestionWindow, MultiplicativeDecreaseOnCongestion) {
  sim::Simulator simulator;
  CongestionWindow window(&simulator, small_config(), 8.0);
  window.before_send();
  window.on_delivered(sim::microseconds(100));  // establishes the floor
  // Queue builds: delay way past backlog_factor * base_rtt.
  window.before_send();
  window.on_delivered(sim::microseconds(1000));
  EXPECT_EQ(window.decreases(), 1u);
  EXPECT_LT(window.cwnd(), 8.0);
  EXPECT_GE(window.cwnd(), 1.0);
  // A second congested sample inside the same smoothed RTT must not
  // collapse the window again (decrease is rate-limited).
  window.before_send();
  window.on_delivered(sim::microseconds(1000));
  EXPECT_EQ(window.decreases(), 1u);
}

TEST(CongestionWindow, InitialWindowClampedToBounds) {
  sim::Simulator simulator;
  CongestionWindow huge(&simulator, small_config(), 1000.0);
  EXPECT_EQ(huge.cwnd(), 16.0);
  CongestionWindow tiny(&simulator, small_config(), 0.0);
  EXPECT_EQ(tiny.cwnd(), 1.0);
}

TEST(CongestionWindow, BeforeSendBlocksUntilDelivery) {
  sim::Simulator simulator;
  CongestionConfig config = small_config();
  CongestionWindow window(&simulator, config, 1.0);
  std::vector<int> order;
  simulator.spawn("sender", [&] {
    window.before_send();
    order.push_back(1);
    window.before_send();  // window of 1 is full: blocks until delivery
    order.push_back(3);
  });
  simulator.spawn("acker", [&] {
    simulator.advance(sim::microseconds(10));
    order.push_back(2);
    window.on_delivered(sim::microseconds(5));
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(window.in_flight(), 1u);
}

TEST(SeedWindow, BandwidthDelayProductInPackets) {
  CongestionConfig config = small_config();
  // 100 MB/s * 1 ms = 100 kB of flight; ~6.1 packets of 16 kB.
  const double seeded = mad::seed_window(config, 100.0, 16 * 1024);
  EXPECT_GT(seeded, 5.0);
  EXPECT_LT(seeded, 7.0);
  // Clamped into [min_window, max_window] at the extremes.
  EXPECT_EQ(mad::seed_window(config, 0.0, 16 * 1024), 1.0);
  EXPECT_EQ(mad::seed_window(config, 1e6, 16 * 1024), 16.0);
}

// -------------------------------------------------------- FairPacketQueue ---

Packet make_packet(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t payload_len) {
  Packet packet;
  packet.header.src = src;
  packet.header.dst = dst;
  packet.header.payload_len = payload_len;
  return packet;
}

TEST(FairPacketQueue, SmallFlowNotStarvedBehindBulk) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/16, /*quantum=*/4096);
  std::vector<std::uint32_t> order;
  simulator.spawn("driver", [&] {
    // Bulk flow 0 enqueues three near-MTU packets first; mouse flow 1
    // adds three tiny packets behind them.
    for (int i = 0; i < 3; ++i) queue.send(make_packet(0, 9, 10000));
    for (int i = 0; i < 3; ++i) queue.send(make_packet(1, 9, 100));
    for (int i = 0; i < 6; ++i) {
      auto packet = queue.receive();
      ASSERT_TRUE(packet.has_value());
      order.push_back(packet->header.src);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(order.size(), 6u);
  // DRR serves all three cheap packets before the bulk flow's second
  // expensive one — FIFO would have kept them behind all three.
  const auto second_bulk =
      std::find(order.begin() + 1, order.end(), 0u) - order.begin();
  const auto last_mouse =
      order.rend() - std::find(order.rbegin(), order.rend(), 1u) - 1;
  EXPECT_LT(last_mouse, second_bulk)
      << "small flow starved behind the bulk flow";
  const auto stats = queue.flow_stats();
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(0, 9)).dequeued, 3u);
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(1, 9)).dequeued, 3u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.depth_hwm(), 6u);
}

TEST(FairPacketQueue, ByteFairNotPacketFair) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/32, /*quantum=*/4096);
  // A DRR packet costs payload_len + 1 bytes of deficit: the bulk flow
  // queues four 16 kB packets first, the mouse flow sixteen 4 kB ones.
  // Both flows carry 64 kB in total.
  std::map<std::uint32_t, std::uint64_t> served;
  std::uint64_t max_gap = 0;
  simulator.spawn("driver", [&] {
    for (int i = 0; i < 4; ++i) queue.send(make_packet(0, 9, 16 * 1024 - 1));
    for (int i = 0; i < 16; ++i) queue.send(make_packet(1, 9, 4 * 1024 - 1));
    for (int i = 0; i < 20; ++i) {
      auto packet = queue.receive();
      ASSERT_TRUE(packet.has_value());
      served[packet->header.src] += packet->header.payload_len + 1;
      const std::uint64_t gap = served[0] > served[1]
                                    ? served[0] - served[1]
                                    : served[1] - served[0];
      max_gap = std::max(max_gap, gap);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  // Byte shares stay within one bulk packet plus one quantum of each
  // other at every point of the drain; FIFO order would open a 64 kB gap.
  EXPECT_LE(max_gap, 16u * 1024 + 4096);
  EXPECT_EQ(served[0], served[1]);
  const auto stats = queue.flow_stats();
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(0, 9)).dequeued, 4u);
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(1, 9)).dequeued, 16u);
}

TEST(FairPacketQueue, WeightedFlowTakesProportionalShare) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/32, /*quantum=*/4096);
  queue.set_weight(FairPacketQueue::flow_key(0, 9), 3.0);
  std::vector<std::uint32_t> order;
  simulator.spawn("driver", [&] {
    // Equal-cost packets (4 kB of deficit each) and a standing backlog
    // on both flows, so the weights alone decide the order.
    for (int i = 0; i < 12; ++i) {
      queue.send(make_packet(1, 9, 4 * 1024 - 1));
      queue.send(make_packet(0, 9, 4 * 1024 - 1));
    }
    for (int i = 0; i < 24; ++i) {
      auto packet = queue.receive();
      ASSERT_TRUE(packet.has_value());
      order.push_back(packet->header.src);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(order.size(), 24u);
  // Weight 3 vs 1: three packets per round against one while both are
  // backlogged (equal weights would alternate, 4 apiece in 8).
  EXPECT_GE(std::count(order.begin(), order.begin() + 8, 0u), 6)
      << "weight-3 flow did not get its proportional share";
  EXPECT_EQ(std::count(order.begin(), order.begin() + 16, 0u), 12);
  const auto stats = queue.flow_stats();
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(0, 9)).dequeued, 12u);
  EXPECT_EQ(stats.at(FairPacketQueue::flow_key(1, 9)).dequeued, 12u);
}

TEST(FairPacketQueue, WeightedFlowReactivationIsExpedited) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/32, /*quantum=*/4096);
  queue.set_weight(FairPacketQueue::flow_key(7, 9), 8.0);
  std::vector<std::uint32_t> order;
  simulator.spawn("driver", [&] {
    // A standing backlog from two weight-1 bulk flows...
    for (int i = 0; i < 4; ++i) queue.send(make_packet(0, 9, 2048));
    for (int i = 0; i < 4; ++i) queue.send(make_packet(1, 9, 2048));
    // ...then a single packet from the weighted latency flow, arriving
    // last. DRR+ reactivation must put it at the head of the round.
    queue.send(make_packet(7, 9, 1024));
    for (int i = 0; i < 9; ++i) {
      auto packet = queue.receive();
      ASSERT_TRUE(packet.has_value());
      order.push_back(packet->header.src);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order.front(), 7u)
      << "weighted flow was not expedited past the bulk backlog";
}

TEST(FairPacketQueue, UnweightedReactivationJoinsTheTail) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/32, /*quantum=*/4096);
  std::vector<std::uint32_t> order;
  simulator.spawn("driver", [&] {
    // A weight-1 flow that drains to idle and reactivates must NOT jump
    // the round: churning windowed bulk flows would otherwise leapfrog
    // the head forever and starve whoever sits behind them.
    for (int i = 0; i < 3; ++i) queue.send(make_packet(0, 9, 2048));
    queue.send(make_packet(1, 9, 2048));  // flow 1 activates: tail
    for (int i = 0; i < 4; ++i) {
      auto packet = queue.receive();
      ASSERT_TRUE(packet.has_value());
      order.push_back(packet->header.src);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0u)
      << "a weight-1 reactivation preempted the flow already in service";
}

TEST(FairPacketQueue, CloseDrainsThenEnds) {
  sim::Simulator simulator;
  FairPacketQueue queue(&simulator, /*capacity=*/4, /*quantum=*/4096);
  std::size_t received = 0;
  bool ended = false;
  simulator.spawn("driver", [&] {
    queue.send(make_packet(2, 7, 64));
    queue.send(make_packet(3, 7, 64));
    queue.close();
    while (auto packet = queue.receive()) ++received;
    ended = true;
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(received, 2u);
  EXPECT_TRUE(ended);
}

// ------------------------------------------------------ config resolution ---

VirtualChannelDef incast_vdef(std::size_t mtu = 16 * 1024) {
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {IncastBed::kLeftChannel, IncastBed::kRightChannel};
  def.mtu = mtu;
  return def;
}

TEST(VirtualChannelCongestion, DefOverrideBeatsSessionStanza) {
  IncastBed bed = make_incast(2);
  CongestionConfig session_cc;
  session_cc.enabled = true;
  session_cc.quantum = 1024;
  bed.config.congestion = session_cc;
  Session session(bed.config);
  VirtualChannelDef def = incast_vdef();
  CongestionConfig override_cc;
  override_cc.enabled = true;
  override_cc.quantum = 8192;
  def.congestion = override_cc;
  VirtualChannel vc(session, def);
  EXPECT_TRUE(vc.congestion_enabled());
  EXPECT_EQ(vc.congestion().quantum, 8192u);
  ASSERT_TRUE(session.run().is_ok());
}

TEST(VirtualChannelCongestion, SessionStanzaAppliesWhenDefUnset) {
  IncastBed bed = make_incast(2);
  CongestionConfig session_cc;
  session_cc.enabled = true;
  session_cc.max_window = 8;
  bed.config.congestion = session_cc;
  Session session(bed.config);
  VirtualChannel vc(session, incast_vdef());
  EXPECT_TRUE(vc.congestion_enabled());
  EXPECT_EQ(vc.congestion().max_window, 8u);
  ASSERT_TRUE(session.run().is_ok());
}

TEST(VirtualChannelCongestion, DisabledByDefault) {
  IncastBed bed = make_incast(2);
  Session session(bed.config);
  VirtualChannel vc(session, incast_vdef());
  EXPECT_FALSE(vc.congestion_enabled());
  // Without the congestion stanza the gateway runs its FIFO pipeline
  // queues; they report their depths (idle here), not fair-queue state.
  for (std::size_t depth : vc.gateway_queue_depths()) {
    EXPECT_EQ(depth, 0u);
  }
  EXPECT_TRUE(vc.flow_stats().empty());
  ASSERT_TRUE(session.run().is_ok());
}

// ------------------------------------------------------------------ incast ---

/// N senders each push one pattern-tagged message through the gateway to
/// the single receiver; the receiver drains them in arrival order.
void run_incast(Session& session, VirtualChannel& vc, const IncastBed& bed,
                std::size_t message_bytes) {
  // The fibers run inside session.run(), long after this helper has
  // returned — message_bytes must ride along by value, not by reference.
  for (std::uint32_t sender : bed.senders) {
    session.spawn(sender, "sender" + std::to_string(sender),
                  [&, sender, message_bytes](NodeRuntime&) {
                    auto payload = make_pattern_buffer(
                        message_bytes, static_cast<int>(sender) + 1);
                    auto& conn =
                        vc.endpoint(sender).begin_packing(bed.receiver);
                    conn.pack(payload);
                    conn.end_packing();
                  });
  }
  session.spawn(bed.receiver, "receiver", [&, message_bytes](NodeRuntime&) {
    for (std::size_t i = 0; i < bed.senders.size(); ++i) {
      auto& conn = vc.endpoint(bed.receiver).begin_unpacking();
      std::vector<std::byte> out(message_bytes);
      conn.unpack(out);
      const std::uint32_t src = conn.remote();
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, static_cast<int>(src) + 1))
          << "corrupt message from sender " << src;
    }
  });
}

TEST(Incast, FairDeliveryBoundedQueueAndConvergedWindows) {
  constexpr std::size_t kSenders = 6;
  constexpr std::size_t kMessage = 64 * 1024;
  IncastBed bed = make_incast(kSenders);
  CongestionConfig cc;
  cc.enabled = true;
  cc.min_window = 1;
  cc.max_window = 8;
  cc.gateway_queue = 8;
  cc.quantum = 4096;
  bed.config.congestion = cc;
  Session session(bed.config);
  VirtualChannel vc(session, incast_vdef(4 * 1024));
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  run_incast(session, vc, bed, kMessage);
  const Status run = session.run();
  obs::uninstall_metrics(&registry);
  ASSERT_TRUE(run.is_ok()) << run.to_string();

  const auto flows = vc.flow_stats();
  // One message = one 10-byte self-describing block header + the payload,
  // and the delivery counters see the whole stream.
  constexpr std::size_t kStream = kMessage + VirtualChannel::kBlockHeaderBytes;
  for (std::uint32_t sender : bed.senders) {
    const std::string key = std::to_string(sender) + "->" +
                            std::to_string(bed.receiver);
    ASSERT_TRUE(flows.count(key)) << "flow " << key << " missing";
    const fwd::FlowCounters& flow = flows.at(key);
    EXPECT_GT(flow.packets, 0u) << "flow " << key << " starved";
    EXPECT_EQ(flow.bytes, kStream) << "flow " << key << " short-delivered";
    // Gateway backlog stayed bounded by the configured fair-queue depth.
    EXPECT_LE(flow.queue_depth_hwm, cc.gateway_queue);
    // The window adapted but stayed inside its configured bounds.
    const CongestionWindow* window =
        vc.flow_window(sender, bed.receiver);
    ASSERT_NE(window, nullptr);
    EXPECT_GE(window->cwnd(), static_cast<double>(cc.min_window));
    EXPECT_LE(window->cwnd(), static_cast<double>(cc.max_window));
    EXPECT_EQ(window->in_flight(), 0u) << "leaked window slot on " << key;
    EXPECT_GT(window->srtt(), 0);
    // Per-flow delivery histogram reached the ambient registry.
    EXPECT_GT(registry
                  .histogram("vc.flow." + std::to_string(sender) + "-" +
                             std::to_string(bed.receiver) + ".e2e")
                  ->count(),
              0u);
  }
  // All queues drained by the end of the run.
  for (std::size_t depth : vc.gateway_queue_depths()) EXPECT_EQ(depth, 0u);

  // Control-state gauges land next to the histograms.
  vc.export_metrics(registry);
  EXPECT_GT(registry.value("vc.flow.0-" + std::to_string(bed.receiver) +
                           ".packets"),
            0);
}

TEST(Incast, WindowAdaptsUnderOverload) {
  // One sender with a grossly oversized seed window against a slow right
  // hop: the delay feedback must pull at least one flow's window down.
  constexpr std::size_t kSenders = 4;
  IncastBed bed = make_incast(kSenders);
  CongestionConfig cc;
  cc.enabled = true;
  cc.init_window = 64;  // far above what the bottleneck supports
  cc.min_window = 1;
  cc.max_window = 64;
  cc.gateway_queue = 4;
  bed.config.congestion = cc;
  Session session(bed.config);
  VirtualChannel vc(session, incast_vdef(2 * 1024));
  run_incast(session, vc, bed, 128 * 1024);
  ASSERT_TRUE(session.run().is_ok());
  std::uint64_t decreases = 0;
  for (std::uint32_t sender : bed.senders) {
    const CongestionWindow* window = vc.flow_window(sender, bed.receiver);
    ASSERT_NE(window, nullptr);
    decreases += window->decreases();
  }
  EXPECT_GT(decreases, 0u)
      << "no flow ever backed off under a 4-to-1 incast overload";
}

TEST(Incast, KilledSenderDoesNotWedgeTheOthers) {
  // Sender 0 contributes one short message and exits; the remaining bulk
  // flows must still complete and every gateway queue must drain (a dead
  // flow's DRR state must not bank credit or hold a slot).
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kBulk = 48 * 1024;
  constexpr std::size_t kShort = 2 * 1024;
  IncastBed bed = make_incast(kSenders);
  CongestionConfig cc;
  cc.enabled = true;
  cc.max_window = 8;
  cc.gateway_queue = 8;
  bed.config.congestion = cc;
  Session session(bed.config);
  VirtualChannel vc(session, incast_vdef(4 * 1024));
  for (std::uint32_t sender : bed.senders) {
    const std::size_t bytes = sender == 0 ? kShort : kBulk;
    session.spawn(sender, "sender" + std::to_string(sender),
                  [&, sender, bytes](NodeRuntime&) {
                    auto payload = make_pattern_buffer(
                        bytes, static_cast<int>(sender) + 1);
                    auto& conn =
                        vc.endpoint(sender).begin_packing(bed.receiver);
                    conn.pack(payload);
                    conn.end_packing();
                    // Sender 0 is now gone for good (fiber exits).
                  });
  }
  session.spawn(bed.receiver, "receiver", [&](NodeRuntime&) {
    for (std::size_t i = 0; i < kSenders; ++i) {
      auto& conn = vc.endpoint(bed.receiver).begin_unpacking();
      const std::uint32_t src = conn.remote();
      std::vector<std::byte> out(src == 0 ? kShort : kBulk);
      conn.unpack(out);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, static_cast<int>(src) + 1));
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  for (std::size_t depth : vc.gateway_queue_depths()) EXPECT_EQ(depth, 0u);
  const auto flows = vc.flow_stats();
  for (std::uint32_t sender : bed.senders) {
    const std::string key = std::to_string(sender) + "->" +
                            std::to_string(bed.receiver);
    const std::size_t expected =
        (sender == 0 ? kShort : kBulk) + VirtualChannel::kBlockHeaderBytes;
    EXPECT_EQ(flows.at(key).bytes, expected);
  }
}

TEST(Incast, GatewaySchedulerSurvivesScheduleExploration) {
  // The DRR queue, per-flow windows, and the delivery feedback edge are
  // shared state among sender fibers, gateway pumps, and the receiver —
  // exactly the surface madcheck exists for. Invariants asserted here
  // are order-independent: full delivery, no starved flow, drained
  // queues, no leaked window slots.
  auto body = [] {
    constexpr std::size_t kSenders = 3;
    constexpr std::size_t kMessage = 6 * 1024;
    IncastBed bed = make_incast(kSenders);
    CongestionConfig cc;
    cc.enabled = true;
    cc.max_window = 4;
    cc.gateway_queue = 4;
    cc.quantum = 2048;
    bed.config.congestion = cc;
    Session session(bed.config);
    VirtualChannel vc(session, incast_vdef(2 * 1024));
    std::string failure;
    auto fail = [&](const std::string& what) {
      if (failure.empty()) failure = what;
    };
    for (std::uint32_t sender : bed.senders) {
      session.spawn(sender, "sender" + std::to_string(sender),
                    [&, sender](NodeRuntime&) {
                      auto payload = make_pattern_buffer(
                          kMessage, static_cast<int>(sender) + 1);
                      auto& conn =
                          vc.endpoint(sender).begin_packing(bed.receiver);
                      conn.pack(payload);
                      conn.end_packing();
                    });
    }
    session.spawn(bed.receiver, "receiver", [&](NodeRuntime&) {
      for (std::size_t i = 0; i < kSenders; ++i) {
        auto& conn = vc.endpoint(bed.receiver).begin_unpacking();
        std::vector<std::byte> out(kMessage);
        conn.unpack(out);
        const std::uint32_t src = conn.remote();
        conn.end_unpacking();
        if (!verify_pattern(out, static_cast<int>(src) + 1)) {
          fail("corrupt message from sender " + std::to_string(src));
        }
      }
    });
    const Status run = session.run();
    if (!run.is_ok()) return run;
    for (std::size_t depth : vc.gateway_queue_depths()) {
      if (depth != 0) fail("gateway queue not drained");
    }
    const auto flows = vc.flow_stats();
    for (std::uint32_t sender : bed.senders) {
      const std::string key = std::to_string(sender) + "->" +
                              std::to_string(bed.receiver);
      auto it = flows.find(key);
      if (it == flows.end() ||
          it->second.bytes != kMessage + VirtualChannel::kBlockHeaderBytes) {
        fail("flow " + key + " did not deliver in full");
      }
      const CongestionWindow* window = vc.flow_window(sender, bed.receiver);
      if (window == nullptr || window->in_flight() != 0) {
        fail("flow " + key + " leaked a window slot");
      }
    }
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

TEST(VirtualChannelCongestion, WindowSurvivesGatewayDeathMidTransfer) {
  // Congestion control overlaid on resilient routing (both stanzas on,
  // via the session config): a gateway dies mid-transfer with window
  // slots charged to packets it had swallowed. Those slots are only
  // refunded when the replayed copies deliver — if replay lost them, the
  // windows would wedge at min_window with phantom in-flight packets and
  // the transfer would never finish. Completion IS the deadlock check.
  FatTreeBed bed = make_fat_tree(2, 4, 2);
  CongestionConfig cc;
  cc.enabled = true;
  cc.min_window = 1;
  cc.max_window = 8;
  cc.gateway_queue = 8;
  cc.quantum = 4096;
  bed.config.congestion = cc;
  mad::TopologyConfig topology;
  topology.enabled = true;
  bed.config.topology = topology;
  Session session(bed.config);

  VirtualChannelDef def;
  def.name = "vc";
  def.hops = bed.route(0, 1);
  def.mtu = 4 * 1024;
  VirtualChannel vc(session, def);
  ASSERT_TRUE(vc.congestion().enabled);
  ASSERT_TRUE(vc.topology().enabled);

  const std::vector<FlowSpec> flows = {{bed.leaf(0, 0), bed.leaf(1, 0)},
                                       {bed.leaf(0, 1), bed.leaf(1, 1)}};
  const std::uint32_t victim =
      vc.router().next_node(0, flows[0].src, flows[0].dst);
  GatewayKiller::at_packet_count(vc, victim, 6);

  auto failure = run_flows(session, vc, flows, /*messages=*/2,
                           /*message_bytes=*/24 * 1024);
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.to_string();
  EXPECT_TRUE(failure->empty()) << *failure;
  EXPECT_EQ(check_channel_drained(vc), "");
  EXPECT_EQ(vc.routing_counters().gateway_kills, 1u);

  for (const FlowSpec& flow : flows) {
    const CongestionWindow* window = vc.flow_window(flow.src, flow.dst);
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->in_flight(), 0u)
        << "flow " << flow.src << "->" << flow.dst
        << " still charging the window for packets the dead gateway ate";
    EXPECT_GE(window->cwnd(), static_cast<double>(cc.min_window));
    EXPECT_LE(window->cwnd(), static_cast<double>(cc.max_window));
  }
}

}  // namespace
}  // namespace mad2
