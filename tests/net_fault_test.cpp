// Unit tests for the deterministic fault-injection layer (net/fault):
// every fault kind in isolation with exact outcomes under a fixed seed,
// plus the replay property the seed-sweep suites depend on — the same
// (seed, workload) pair produces a byte-identical delivery trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/congestion.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "sim/time.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

// A packet that exposes its bytes to the corruption hook.
struct FaultyPacket {
  int id = 0;
  std::vector<std::byte> data;

  friend std::span<std::byte> fault_payload(FaultyPacket& packet) {
    return {packet.data.data(), packet.data.size()};
  }
};

// A packet the fault layer cannot see into (no fault_payload overload):
// corruption decisions must leave it intact.
struct OpaquePacket {
  int id = 0;
  std::vector<std::byte> data;
};

FabricParams fast_params(FaultPlan* plan) {
  FabricParams params;
  params.wire_mbs = 10000.0;  // keep serialization out of the timing
  params.propagation = sim::microseconds(1);
  params.faults = plan;
  return params;
}

TEST(FaultPlan, DropRateOneDropsEverything) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/1);
  LinkFaults faults;
  faults.drop_rate = 1.0;
  plan.set_default_faults(faults);
  PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  simulator.spawn("tx", [&] {
    for (int i = 0; i < 10; ++i) {
      fabric.ship(a, b, FaultyPacket{i, std::vector<std::byte>(64)}, 64);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(plan.counters().shipped, 10u);
  EXPECT_EQ(plan.counters().dropped, 10u);
  EXPECT_EQ(plan.counters().delivered, 0u);
  EXPECT_FALSE(fabric.pending(b));
}

TEST(FaultPlan, DupRateOneDeliversEveryPacketTwice) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/2);
  LinkFaults faults;
  faults.dup_rate = 1.0;
  plan.set_default_faults(faults);
  PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  std::vector<int> received;
  simulator.spawn("tx", [&] {
    for (int i = 0; i < 5; ++i) {
      fabric.ship(a, b, FaultyPacket{i, std::vector<std::byte>(16)}, 16);
    }
  });
  simulator.spawn("rx", [&] {
    for (int i = 0; i < 10; ++i) received.push_back(fabric.receive(b).id);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(plan.counters().duplicated, 5u);
  EXPECT_EQ(plan.counters().delivered, 10u);
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(received[2 * i], i);      // copy and original are adjacent
    EXPECT_EQ(received[2 * i + 1], i);  // (identical payloads either way)
  }
}

TEST(FaultPlan, CorruptionFlipsExactlyOneByteAndChecksumCatchesIt) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/3);
  LinkFaults faults;
  faults.corrupt_rate = 1.0;
  plan.set_default_faults(faults);
  PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  const std::vector<std::byte> original = make_pattern_buffer(256, 7);
  const std::uint32_t sent_checksum =
      wire_checksum(original.data(), original.size());
  std::vector<std::byte> arrived;
  simulator.spawn("tx", [&] {
    fabric.ship(a, b, FaultyPacket{0, original}, 256);
  });
  simulator.spawn("rx", [&] { arrived = fabric.receive(b).data; });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(plan.counters().corrupted, 1u);
  ASSERT_EQ(arrived.size(), original.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (arrived[i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);  // single-byte XOR with a non-zero mask
  EXPECT_NE(wire_checksum(arrived.data(), arrived.size()), sent_checksum);
}

TEST(FaultPlan, OpaquePacketsSurviveCorruptionDecisions) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/3);
  LinkFaults faults;
  faults.corrupt_rate = 1.0;
  plan.set_default_faults(faults);
  PacketFabric<OpaquePacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  const std::vector<std::byte> original = make_pattern_buffer(128, 9);
  std::vector<std::byte> arrived;
  simulator.spawn("tx", [&] {
    fabric.ship(a, b, OpaquePacket{0, original}, 128);
  });
  simulator.spawn("rx", [&] { arrived = fabric.receive(b).data; });
  ASSERT_TRUE(simulator.run().is_ok());
  // The decision was made (and counted) but there are no bytes to flip.
  EXPECT_EQ(plan.counters().corrupted, 1u);
  EXPECT_EQ(arrived, original);
}

TEST(FaultPlan, ReorderingIsABoundedPermutation) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator simulator;
    FaultPlan plan(seed);
    LinkFaults faults;
    faults.reorder_rate = 0.4;
    faults.reorder_window = 4;
    plan.set_default_faults(faults);
    PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
    const auto a = fabric.add_port();
    const auto b = fabric.add_port();
    std::vector<int> received;
    simulator.spawn("tx", [&] {
      for (int i = 0; i < 40; ++i) {
        fabric.ship(a, b, FaultyPacket{i, std::vector<std::byte>(32)}, 32);
      }
    });
    simulator.spawn("rx", [&] {
      for (int i = 0; i < 40; ++i) received.push_back(fabric.receive(b).id);
    });
    EXPECT_TRUE(simulator.run().is_ok());
    EXPECT_GT(plan.counters().reordered, 0u);
    return received;
  };

  const std::vector<int> received = run_once(4);
  ASSERT_EQ(received.size(), 40u);
  // A permutation of 0..39, not the identity.
  std::vector<int> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> identity(40);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted, identity);
  EXPECT_NE(received, identity);
  // A held packet may be overtaken by at most reorder_window later
  // packets, so nothing arrives more than 4 positions late.
  for (std::size_t pos = 0; pos < received.size(); ++pos) {
    EXPECT_LE(static_cast<int>(pos) - received[pos], 4)
        << "packet " << received[pos] << " arrived at position " << pos;
  }
  // Same seed => the exact same permutation.
  EXPECT_EQ(run_once(4), received);
}

TEST(FaultPlan, ReorderTimeoutReleasesHeldPacketOnQuietLink) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/5);
  LinkFaults faults;
  faults.reorder_rate = 1.0;
  faults.reorder_window = 4;
  faults.reorder_timeout = sim::microseconds(300);
  plan.set_default_faults(faults);
  PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  sim::Time arrived_at = 0;
  simulator.spawn("tx", [&] {
    fabric.ship(a, b, FaultyPacket{0, std::vector<std::byte>(32)}, 32);
  });
  simulator.spawn("rx", [&] {
    (void)fabric.receive(b);
    arrived_at = simulator.now();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  // No follow-on traffic ever overtakes it; the safety valve delivers at
  // normal-arrival + reorder_timeout.
  EXPECT_GE(arrived_at, sim::microseconds(300));
  EXPECT_LE(arrived_at, sim::microseconds(302));
}

TEST(FaultPlan, JitterDelaysWithinBound) {
  auto run_once = [] {
    sim::Simulator simulator;
    FaultPlan plan(/*seed=*/6);
    LinkFaults faults;
    faults.jitter_rate = 1.0;
    faults.jitter_max = sim::microseconds(50);
    plan.set_default_faults(faults);
    PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
    const auto a = fabric.add_port();
    const auto b = fabric.add_port();
    std::vector<sim::Time> arrivals;
    simulator.spawn("tx", [&] {
      for (int i = 0; i < 8; ++i) {
        fabric.ship(a, b, FaultyPacket{i, std::vector<std::byte>(16)}, 16);
      }
    });
    simulator.spawn("rx", [&] {
      for (int i = 0; i < 8; ++i) {
        (void)fabric.receive(b);
        arrivals.push_back(simulator.now());
      }
    });
    EXPECT_TRUE(simulator.run().is_ok());
    EXPECT_EQ(plan.counters().jittered, 8u);
    return arrivals;
  };

  const std::vector<sim::Time> arrivals = run_once();
  ASSERT_EQ(arrivals.size(), 8u);
  // Every arrival is within [ship + propagation, + jitter_max]. Ships are
  // nearly back-to-back (tiny serialization), so just bound the last one.
  EXPECT_LE(arrivals.back(),
            sim::microseconds(1) + sim::microseconds(50) +
                sim::microseconds(2));
  EXPECT_EQ(run_once(), arrivals);  // deterministic under the seed
}

TEST(FaultPlan, ScriptedPartitionDropsExactlyTheWindow) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/7);
  plan.partition(0, 1, sim::microseconds(10), sim::microseconds(20));
  PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
  const auto a = fabric.add_port();
  const auto b = fabric.add_port();
  std::vector<int> received;
  simulator.spawn("tx", [&] {
    // One packet before, two during, one after the partition window.
    fabric.ship(a, b, FaultyPacket{0, {}}, 16);
    simulator.advance(sim::microseconds(12) - simulator.now());
    fabric.ship(a, b, FaultyPacket{1, {}}, 16);
    simulator.advance(sim::microseconds(19) - simulator.now());
    fabric.ship(a, b, FaultyPacket{2, {}}, 16);
    simulator.advance(sim::microseconds(25) - simulator.now());
    fabric.ship(a, b, FaultyPacket{3, {}}, 16);
  });
  simulator.spawn("rx", [&] {
    for (int i = 0; i < 2; ++i) received.push_back(fabric.receive(b).id);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(plan.counters().partition_dropped, 2u);
  EXPECT_EQ(received, (std::vector<int>{0, 3}));
  // The partition is directional state, queryable without consuming draws.
  EXPECT_FALSE(plan.is_partitioned(0, 1, sim::microseconds(9)));
  EXPECT_TRUE(plan.is_partitioned(0, 1, sim::microseconds(10)));
  EXPECT_TRUE(plan.is_partitioned(1, 0, sim::microseconds(15)));
  EXPECT_FALSE(plan.is_partitioned(0, 1, sim::microseconds(20)));
}

TEST(FaultPlan, OneWayPartitionLeavesReverseDirectionAlone) {
  FaultPlan plan(/*seed=*/8);
  plan.partition_one_way(0, 1, 0, sim::kNever);
  EXPECT_TRUE(plan.is_partitioned(0, 1, sim::microseconds(5)));
  EXPECT_FALSE(plan.is_partitioned(1, 0, sim::microseconds(5)));
}

// The replay property: one seed, one workload => one delivery trace, byte
// for byte, across independent runs. This is what lets a failing
// seed-sweep case be replayed exactly (see docs/PROTOCOLS.md).
TEST(FaultPlan, SameSeedSameWorkloadGivesIdenticalDeliveryTrace) {
  auto run_trace = [](std::uint64_t seed) {
    sim::Simulator simulator;
    FaultPlan plan(seed);
    LinkFaults faults;
    faults.drop_rate = 0.1;
    faults.dup_rate = 0.1;
    faults.reorder_rate = 0.2;
    faults.reorder_window = 3;
    faults.corrupt_rate = 0.1;
    faults.jitter_rate = 0.3;
    faults.jitter_max = sim::microseconds(20);
    plan.set_default_faults(faults);
    PacketFabric<FaultyPacket> fabric(&simulator, fast_params(&plan));
    const auto a = fabric.add_port();
    const auto b = fabric.add_port();
    std::string trace;
    simulator.spawn("tx", [&] {
      for (int i = 0; i < 200; ++i) {
        fabric.ship(a, b,
                    FaultyPacket{i, make_pattern_buffer(
                                        64, static_cast<std::uint64_t>(i))},
                    64);
      }
    });
    simulator.spawn_daemon("rx", [&] {
      for (;;) {
        FaultyPacket packet = fabric.receive(b);
        trace += std::to_string(packet.id) + "@" +
                 std::to_string(simulator.now()) + "#" +
                 std::to_string(fnv1a(
                     {packet.data.data(), packet.data.size()})) +
                 ";";
      }
    });
    EXPECT_TRUE(simulator.run().is_ok());
    return trace;
  };

  const std::string first = run_trace(42);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run_trace(42), first);   // replay
  EXPECT_NE(run_trace(43), first);   // the seed actually matters
}

// ------------------------------------------------- RTT under faults ---

// The reliable shim samples RTT under Karn's rule: only frames that were
// never retransmitted contribute, so heavy loss thins the sample stream
// but cannot poison it with retransmit ambiguity.
TEST(RttSampling, EstimatorStaysSaneUnderHeavyLoss) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/21);
  LinkFaults faults;
  faults.drop_rate = 0.3;
  plan.set_default_faults(faults);
  ReliableNetwork network(&simulator, fast_params(&plan), ReliableParams{});
  const std::uint32_t a = network.add_port();
  const std::uint32_t b = network.add_port();
  constexpr int kMessages = 60;
  simulator.spawn("tx", [&] {
    for (int i = 0; i < kMessages; ++i) {
      std::vector<std::byte> payload = make_pattern_buffer(256, i);
      ASSERT_TRUE(network.endpoint(a).send(b, 0, payload).is_ok());
      // Space the sends: a burst makes one early drop stall the
      // cumulative ack for the whole window, and Karn's rule would then
      // exclude every frame (each one ends up retransmitted).
      simulator.advance(sim::microseconds(20));
    }
    ASSERT_TRUE(network.endpoint(a).wait_drained(b).is_ok());
  });
  simulator.spawn("rx", [&] {
    for (int i = 0; i < kMessages; ++i) {
      ReliableEndpoint::Message message;
      ASSERT_TRUE(network.endpoint(b).recv(message).is_ok());
      EXPECT_TRUE(verify_pattern(message.payload, i));
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  // Loss actually happened, yet clean samples got through.
  EXPECT_GT(network.endpoint(a).counters().retransmits, 0u);
  const sim::Duration srtt = network.endpoint(a).srtt(b);
  const sim::Duration floor = network.endpoint(a).min_rtt(b);
  EXPECT_GT(floor, 0);
  EXPECT_GE(srtt, floor);
  // The floor is at least one round trip of pure propagation and at most
  // a sane multiple of it (a retransmit-contaminated sample would be an
  // RTO off, i.e. hundreds of microseconds).
  EXPECT_GE(floor, 2 * fast_params(&plan).propagation);
  EXPECT_LT(srtt, sim::milliseconds(1));
}

TEST(RttSampling, EstimatorRecoversAfterHealedPartition) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/22);
  // Quiet until 2ms, dead from 2ms to 22ms, healed afterwards.
  plan.partition(0, 1, sim::milliseconds(2), sim::milliseconds(22));
  ReliableNetwork network(&simulator, fast_params(&plan), ReliableParams{});
  const std::uint32_t a = network.add_port();
  const std::uint32_t b = network.add_port();
  constexpr int kMessages = 40;
  simulator.spawn("tx", [&] {
    for (int i = 0; i < kMessages; ++i) {
      std::vector<std::byte> payload = make_pattern_buffer(128, i);
      ASSERT_TRUE(network.endpoint(a).send(b, 0, payload).is_ok());
      simulator.advance(sim::milliseconds(1));  // straddle the partition
    }
    ASSERT_TRUE(network.endpoint(a).wait_drained(b).is_ok());
  });
  simulator.spawn("rx", [&] {
    for (int i = 0; i < kMessages; ++i) {
      ReliableEndpoint::Message message;
      ASSERT_TRUE(network.endpoint(b).recv(message).is_ok());
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(network.endpoint(a).counters().give_ups, 0u);
  EXPECT_GT(network.endpoint(a).counters().retransmits, 0u);
  // Post-heal clean samples keep the estimate near the true path RTT:
  // the partition stall (tens of ms) never entered the EWMA, because
  // every frame alive across it was a retransmit.
  const sim::Duration srtt = network.endpoint(a).srtt(b);
  EXPECT_GT(srtt, 0);
  EXPECT_LT(srtt, sim::milliseconds(2));
}

// ------------------------------- congestion windows on a faulty wire ---

/// Incast with end-to-end windows over a left network whose TCP wire
/// drops, reorders, and jitters. Invariants per seed: every flow delivers
/// in full, no window slot leaks, windows end inside their bounds, and
/// the gateway fair queues drain.
void run_faulty_incast(std::uint64_t seed, const LinkFaults& faults,
                       FaultPlan* scripted) {
  constexpr std::size_t kSenders = 3;
  constexpr std::size_t kMessage = 16 * 1024;
  IncastBed bed = make_incast(kSenders);
  FaultPlan plan(seed);
  plan.set_default_faults(faults);
  FaultPlan* active = scripted != nullptr ? scripted : &plan;
  TcpParams tcp = TcpParams::fast_ethernet();
  tcp.fabric.faults = active;
  bed.config.networks[0].tcp_params = tcp;  // the contended left hop
  mad::CongestionConfig cc;
  cc.enabled = true;
  cc.max_window = 8;
  cc.gateway_queue = 8;
  cc.quantum = 2048;
  bed.config.congestion = cc;
  mad::Session session(bed.config);
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {IncastBed::kLeftChannel, IncastBed::kRightChannel};
  def.mtu = 2 * 1024;
  fwd::VirtualChannel vc(session, def);
  for (std::uint32_t sender : bed.senders) {
    session.spawn(sender, "sender" + std::to_string(sender),
                  [&, sender](mad::NodeRuntime&) {
                    auto payload = make_pattern_buffer(
                        kMessage, static_cast<int>(sender) + 1);
                    auto& conn =
                        vc.endpoint(sender).begin_packing(bed.receiver);
                    conn.pack(payload);
                    conn.end_packing();
                  });
  }
  session.spawn(bed.receiver, "receiver", [&](mad::NodeRuntime&) {
    for (std::size_t i = 0; i < kSenders; ++i) {
      auto& conn = vc.endpoint(bed.receiver).begin_unpacking();
      std::vector<std::byte> out(kMessage);
      conn.unpack(out);
      const std::uint32_t src = conn.remote();
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, static_cast<int>(src) + 1))
          << "seed " << seed << ": corrupt message from " << src;
    }
  });
  ASSERT_TRUE(session.run().is_ok()) << "seed " << seed;
  const auto flows = vc.flow_stats();
  for (std::uint32_t sender : bed.senders) {
    const std::string key = std::to_string(sender) + "->" +
                            std::to_string(bed.receiver);
    ASSERT_TRUE(flows.count(key)) << "seed " << seed;
    EXPECT_EQ(flows.at(key).bytes,
              kMessage + fwd::VirtualChannel::kBlockHeaderBytes)
        << "seed " << seed << " flow " << key;
    const mad::CongestionWindow* window =
        vc.flow_window(sender, bed.receiver);
    ASSERT_NE(window, nullptr) << "seed " << seed;
    EXPECT_EQ(window->in_flight(), 0u)
        << "seed " << seed << ": leaked window slot on " << key;
    EXPECT_GE(window->cwnd(), static_cast<double>(cc.min_window));
    EXPECT_LE(window->cwnd(), static_cast<double>(cc.max_window));
  }
  for (std::size_t depth : vc.gateway_queue_depths()) {
    EXPECT_EQ(depth, 0u) << "seed " << seed;
  }
}

// MAD2_FAULT_SEED narrows the sweep to a single seed for replay.
TEST(CongestionUnderFaults, WindowsRecoverAcrossSeeds) {
  std::uint64_t first = 1;
  std::uint64_t last = 8;
  if (const char* replay = std::getenv("MAD2_FAULT_SEED")) {
    first = last = std::strtoull(replay, nullptr, 10);
  }
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    LinkFaults faults;
    faults.drop_rate = 0.02 + 0.02 * static_cast<double>(seed % 4);
    faults.reorder_rate = 0.05 * static_cast<double>(seed % 3);
    faults.reorder_window = 2;
    faults.jitter_rate = 0.2;
    faults.jitter_max = sim::microseconds(50);
    run_faulty_incast(seed, faults, nullptr);
  }
}

TEST(CongestionUnderFaults, WindowsSurviveAHealedPartition) {
  // Sender 0 loses its link to the gateway (left-net ranks are in
  // NetworkDef node order, so 0 <-> kSenders) for 20ms mid-transfer; the
  // reliable shim rides it out and the flow's window must come back
  // without leaking in-flight slots.
  FaultPlan plan(/*seed=*/31);
  plan.partition(0, 3, sim::milliseconds(2), sim::milliseconds(22));
  run_faulty_incast(/*seed=*/31, LinkFaults{}, &plan);
}

}  // namespace
}  // namespace mad2::net
