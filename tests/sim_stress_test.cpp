// Stress and determinism tests for the simulation substrate: the whole
// reproduction depends on the simulator staying exact under load.
#include <gtest/gtest.h>

#include "hw/resource.hpp"
#include "mad/madeleine.hpp"
#include "net/reliable.hpp"
#include "sim/explore.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad2 {
namespace {

TEST(SimStress, AThousandFibersInterleave) {
  sim::Simulator simulator;
  std::uint64_t sum = 0;
  for (int i = 0; i < 1000; ++i) {
    simulator.spawn(std::string("f").append(std::to_string(i)), [&, i] {
      for (int k = 0; k < 10; ++k) {
        simulator.advance(sim::microseconds((i % 7) + 1));
        sum += 1;
      }
    });
  }
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(sum, 10000u);
}

TEST(SimStress, ProducerConsumerChains) {
  // fibers in a chain pass a token through bounded channels.
  sim::Simulator simulator;
  constexpr int kStages = 50;
  std::vector<std::unique_ptr<sim::BoundedChannel<int>>> links;
  for (int i = 0; i <= kStages; ++i) {
    links.push_back(
        std::make_unique<sim::BoundedChannel<int>>(&simulator, 2));
  }
  for (int stage = 0; stage < kStages; ++stage) {
    simulator.spawn("stage" + std::to_string(stage), [&, stage] {
      for (;;) {
        auto value = links[stage]->receive();
        if (!value.has_value()) {
          links[stage + 1]->close();
          return;
        }
        simulator.advance(sim::microseconds(1));
        links[stage + 1]->send(*value + 1);
      }
    });
  }
  std::vector<int> results;
  simulator.spawn("source", [&] {
    for (int i = 0; i < 20; ++i) links[0]->send(i);
    links[0]->close();
  });
  simulator.spawn("sink", [&] {
    while (auto v = links[kStages]->receive()) results.push_back(*v);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(results[i], i + kStages);
}

TEST(SimStress, ContendedResourceConservesWork) {
  sim::Simulator simulator;
  hw::ChunkedResource::Params params;
  params.chunk_bytes = 1024;
  params.strict_priority = true;
  params.turnaround_factor = 0.2;
  hw::ChunkedResource bus(&simulator, params);
  const int fibers = 20;
  const std::uint64_t bytes_each = 64 * 1024;
  for (int i = 0; i < fibers; ++i) {
    simulator.spawn(std::string("t").append(std::to_string(i)), [&, i] {
      bus.transfer(bytes_each, 100.0,
                   i % 2 == 0 ? hw::TxClass::kDma : hw::TxClass::kPio,
                   static_cast<std::uint64_t>(i));
    });
  }
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(bus.bytes_transferred(), bytes_each * fibers);
  // Lower bound: pure transfer time; upper: everything paid turnaround.
  const double pure_us = bytes_each * fibers / 100.0;  // at 100 MB/s
  EXPECT_GE(sim::to_us(bus.busy_time()), pure_us);
  EXPECT_LE(sim::to_us(bus.busy_time()), pure_us * 1.25);
}

double run_random_session(std::uint64_t seed) {
  // A randomized multi-network session; returns the final virtual time.
  Rng rng(seed);
  mad::SessionConfig config;
  config.node_count = 3;
  mad::NetworkDef net;
  net.name = "n";
  net.kind = static_cast<mad::NetworkKind>(rng.next_below(5));
  net.nodes = {0, 1, 2};
  config.networks.push_back(net);
  config.channels.push_back(mad::ChannelDef{"ch", "n"});
  mad::Session session(std::move(config));
  session.spawn(0, "tx", [&](mad::NodeRuntime& rt) {
    Rng inner(seed + 1);
    for (int i = 0; i < 10; ++i) {
      const std::size_t size = inner.next_range(1, 40000);
      auto payload = make_pattern_buffer(size, i);
      auto& conn = rt.channel("ch").begin_packing(1 + (i % 2));
      mad::mad_pack_value(conn, size, mad::send_CHEAPER,
                          mad::receive_EXPRESS);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  for (std::uint32_t receiver : {1u, 2u}) {
    session.spawn(receiver, "rx" + std::to_string(receiver),
                  [&](mad::NodeRuntime& rt) {
      for (int i = 0; i < 5; ++i) {
        auto& conn = rt.channel("ch").begin_unpacking();
        std::size_t size = 0;
        mad::mad_unpack_value(conn, size, mad::send_CHEAPER,
                              mad::receive_EXPRESS);
        std::vector<std::byte> out(size);
        conn.unpack(out);
        conn.end_unpacking();
      }
    });
  }
  EXPECT_TRUE(session.run().is_ok());
  return sim::to_us(session.simulator().now());
}

TEST(SimStress, SessionsAreBitForBitDeterministic) {
  // The whole evaluation methodology rests on this: identical runs give
  // identical virtual times.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const double first = run_random_session(seed);
    const double second = run_random_session(seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_GT(first, 0.0);
  }
}

struct FaultySessionResult {
  double final_us = 0.0;
  std::uint64_t payload_hash = 0;
  net::FaultCounters faults;
  net::ReliabilityCounters reliability;
};

FaultySessionResult run_faulty_tcp_session(std::uint64_t seed) {
  // Same shape as run_random_session, but over a lossy TCP fabric: the
  // retransmit/ack machinery adds hundreds of extra events whose relative
  // order must still replay exactly.
  FaultySessionResult result;
  net::FaultPlan plan(seed);
  net::LinkFaults faults;
  faults.drop_rate = 0.04;
  faults.dup_rate = 0.01;
  faults.reorder_rate = 0.15;
  faults.reorder_window = 3;
  faults.corrupt_rate = 0.01;
  plan.set_default_faults(faults);
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.faults = &plan;

  mad::SessionConfig config;
  config.node_count = 3;
  mad::NetworkDef net_def;
  net_def.name = "n";
  net_def.kind = mad::NetworkKind::kTcp;
  net_def.nodes = {0, 1, 2};
  net_def.tcp_params = tcp;
  config.networks.push_back(net_def);
  config.channels.push_back(mad::ChannelDef{"ch", "n"});
  mad::Session session(std::move(config));
  session.spawn(0, "tx", [&](mad::NodeRuntime& rt) {
    Rng inner(seed + 1);
    for (int i = 0; i < 10; ++i) {
      const std::size_t size = inner.next_range(1, 40000);
      auto payload = make_pattern_buffer(size, i);
      auto& conn = rt.channel("ch").begin_packing(1 + (i % 2));
      mad::mad_pack_value(conn, size, mad::send_CHEAPER,
                          mad::receive_EXPRESS);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  for (std::uint32_t receiver : {1u, 2u}) {
    session.spawn(receiver, "rx" + std::to_string(receiver),
                  [&, receiver](mad::NodeRuntime& rt) {
      for (int i = 0; i < 5; ++i) {
        auto& conn = rt.channel("ch").begin_unpacking();
        std::size_t size = 0;
        mad::mad_unpack_value(conn, size, mad::send_CHEAPER,
                              mad::receive_EXPRESS);
        std::vector<std::byte> out(size);
        conn.unpack(out);
        conn.end_unpacking();
        EXPECT_TRUE(verify_pattern(out, 2 * i + (receiver - 1)))
            << "receiver " << receiver << " message " << i;
        result.payload_hash ^= fnv1a(out) * (receiver + 7 * i);
      }
    });
  }
  EXPECT_TRUE(session.run().is_ok());
  result.final_us = sim::to_us(session.simulator().now());
  result.faults = plan.counters();
  mad::NetworkInstance& net = session.network("n");
  result.reliability = net.tcp->reliable()->endpoint(net.port(0)).counters();
  return result;
}

TEST(SimStress, FaultyTcpSessionsAreBitForBitDeterministic) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const FaultySessionResult first = run_faulty_tcp_session(seed);
    const FaultySessionResult second = run_faulty_tcp_session(seed);
    EXPECT_EQ(first.final_us, second.final_us) << "seed " << seed;
    EXPECT_EQ(first.payload_hash, second.payload_hash) << "seed " << seed;
    EXPECT_EQ(first.faults.shipped, second.faults.shipped);
    EXPECT_EQ(first.faults.dropped, second.faults.dropped);
    EXPECT_EQ(first.faults.delivered, second.faults.delivered);
    EXPECT_EQ(first.reliability.retransmits, second.reliability.retransmits);
    // And the faults really fired: the clean payloads above came through
    // the ARQ machinery, not a silently-lossless wire.
    EXPECT_GT(first.faults.dropped, 0u) << "seed " << seed;
    EXPECT_GT(first.reliability.data_frames, 0u) << "seed " << seed;
  }
}

// ------------------------------------------------------------ madcheck ---

// A miniature producer-consumer chain as an explorable body: three stages
// pass tokens through bounded channels, with every handoff a potential
// tie. The conservation invariant (every token arrives, incremented once
// per stage, in order) must hold under any schedule.
Status chain_body() {
  sim::Simulator simulator;
  constexpr int kStages = 3;
  constexpr int kTokens = 8;
  std::vector<std::unique_ptr<sim::BoundedChannel<int>>> links;
  for (int i = 0; i <= kStages; ++i) {
    links.push_back(std::make_unique<sim::BoundedChannel<int>>(&simulator, 1));
  }
  for (int stage = 0; stage < kStages; ++stage) {
    simulator.spawn("stage" + std::to_string(stage), [&, stage] {
      for (;;) {
        auto value = links[stage]->receive();
        if (!value.has_value()) {
          links[stage + 1]->close();
          return;
        }
        links[stage + 1]->send(*value + 1);
      }
    });
  }
  std::vector<int> results;
  simulator.spawn("source", [&] {
    for (int i = 0; i < kTokens; ++i) links[0]->send(i);
    links[0]->close();
  });
  simulator.spawn("sink", [&] {
    while (auto v = links[kStages]->receive()) results.push_back(*v);
  });
  const Status run = simulator.run();
  if (!run.is_ok()) return run;
  if (results.size() != kTokens) {
    return internal_error("lost tokens: got " +
                          std::to_string(results.size()));
  }
  for (int i = 0; i < kTokens; ++i) {
    if (results[i] != i + kStages) {
      return internal_error("token " + std::to_string(i) +
                            " out of order or mangled");
    }
  }
  return Status::ok();
}

TEST(SimStressExplore, ProducerConsumerChainHoldsAcross200Schedules) {
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(chain_body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(SimStressExplore, ScheduleReplayIsBitForBitDeterministic) {
  // The replay side of the determinism story: pinning the decision trace
  // pins the run. Two replays of the same non-trivial trace must take an
  // identical decision stream (same ties, same widths, same picks).
  const sim::ScheduleTrace trace{1, 0, 2, 1};
  const sim::ReplayOutcome first = sim::run_with_schedule(chain_body, trace);
  const sim::ReplayOutcome second = sim::run_with_schedule(chain_body, trace);
  EXPECT_TRUE(first.status.is_ok()) << first.status.to_string();
  EXPECT_TRUE(second.status.is_ok());
  EXPECT_EQ(first.taken, second.taken);
  EXPECT_FALSE(first.taken.empty());  // the chain really had ties to decide
  // A different trace yields a different (but equally deterministic) run.
  const sim::ReplayOutcome fifo = sim::run_with_schedule(chain_body, {});
  EXPECT_TRUE(fifo.status.is_ok());
  EXPECT_NE(fifo.taken, first.taken);
}

}  // namespace
}  // namespace mad2
