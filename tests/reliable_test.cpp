// Property suite for the reliable-delivery shim (net/reliable): under a
// seeded faulty fabric every payload arrives exactly once, in order, and
// uncorrupted, while the retransmit backoff honors its cap.
//
// Replaying one failing sweep case: the suite prints the seed on failure;
// set MAD2_FAULT_SEED=<seed> (cmake -DMAD2_FAULT_SEED=... wires it into
// the test environment) and re-run `ctest -R reliable --verbose` to
// execute only that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "sim/explore.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

FabricParams lossy_fabric(FaultPlan* plan) {
  FabricParams params;
  params.wire_mbs = 1000.0;
  params.propagation = sim::microseconds(5);
  params.faults = plan;
  return params;
}

/// The counters the sweep asserts, summed over both endpoints (max_rto is
/// the larger of the two).
struct SweepCounters {
  std::uint64_t data_frames = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_frames = 0;
  std::uint64_t give_ups = 0;
  sim::Duration max_rto = 0;

  void add(const ReliabilityCounters& endpoint) {
    data_frames += endpoint.data_frames;
    retransmits += endpoint.retransmits;
    dup_frames += endpoint.dup_frames;
    give_ups += endpoint.give_ups;
    max_rto = std::max(max_rto, endpoint.max_rto);
  }
  [[nodiscard]] std::string to_string() const {
    return std::to_string(data_frames) + " data frames, " +
           std::to_string(retransmits) + " retransmits, " +
           std::to_string(dup_frames) + " dups dropped, " +
           std::to_string(give_ups) + " give-ups, max rto " +
           std::to_string(sim::to_us(max_rto)) + " us";
  }
};

struct SweepOutcome {
  bool ok = true;
  std::string detail;
  SweepCounters counters;
  std::string trace;  // "<src>:<channel>:<fnv1a>;" per delivery
};

/// One bidirectional workload on a 2-node lossy fabric: each side sends
/// `messages` patterned payloads; the shim must deliver all of them
/// exactly once, in order, intact.
SweepOutcome run_sweep_case(std::uint64_t seed, int messages,
                            const LinkFaults& faults,
                            ReliableParams reliability = {}) {
  SweepOutcome outcome;
  sim::Simulator simulator;
  FaultPlan plan(seed);
  plan.set_default_faults(faults);
  ReliableNetwork network(&simulator, lossy_fabric(&plan), reliability);
  const std::uint32_t a = network.add_port();
  const std::uint32_t b = network.add_port();

  auto fail = [&outcome](std::string detail) {
    outcome.ok = false;
    if (outcome.detail.empty()) outcome.detail = std::move(detail);
  };
  auto sender = [&](std::uint32_t self, std::uint32_t peer) {
    return [&, self, peer] {
      for (int i = 0; i < messages; ++i) {
        const std::size_t size = 16 + 13 * (i % 97);
        std::vector<std::byte> payload(size);
        fill_pattern(payload, seed ^ (self * 1000003ULL) ^ i);
        const Status status =
            network.endpoint(self).send(peer, /*channel=*/7, payload);
        if (!status.is_ok()) {
          fail("send " + std::to_string(i) + ": " + status.to_string());
          return;
        }
      }
    };
  };
  auto receiver = [&](std::uint32_t self, std::uint32_t peer) {
    return [&, self, peer] {
      for (int i = 0; i < messages; ++i) {
        ReliableEndpoint::Message message;
        const Status status = network.endpoint(self).recv(message);
        if (!status.is_ok()) {
          fail("recv " + std::to_string(i) + ": " + status.to_string());
          return;
        }
        const std::size_t expect_size = 16 + 13 * (i % 97);
        if (message.src != peer || message.channel != 7 ||
            message.payload.size() != expect_size ||
            !verify_pattern(message.payload,
                            seed ^ (peer * 1000003ULL) ^ i)) {
          fail("delivery " + std::to_string(i) + " at node " +
               std::to_string(self) +
               " is out of order, corrupt, or duplicated");
          return;
        }
        outcome.trace += std::to_string(message.src) + ":" +
                         std::to_string(message.channel) + ":" +
                         std::to_string(fnv1a(message.payload)) + ";";
      }
    };
  };
  simulator.spawn("tx.a", sender(a, b));
  simulator.spawn("tx.b", sender(b, a));
  simulator.spawn("rx.a", receiver(a, b));
  simulator.spawn("rx.b", receiver(b, a));
  const Status run = simulator.run();
  if (!run.is_ok()) fail("run: " + run.to_string());
  outcome.counters.add(network.endpoint(a).counters());
  outcome.counters.add(network.endpoint(b).counters());
  return outcome;
}

LinkFaults sweep_faults(std::uint64_t seed) {
  // Vary the fault mix with the seed so the sweep covers drop-heavy,
  // dup-heavy, reorder-heavy, and corrupt-heavy regimes.
  LinkFaults faults;
  faults.drop_rate = 0.02 + 0.02 * static_cast<double>(seed % 5);
  faults.dup_rate = 0.01 * static_cast<double>(seed % 3);
  faults.reorder_rate = 0.05 * static_cast<double>(seed % 4);
  faults.reorder_window = 1 + static_cast<std::uint32_t>(seed % 4);
  faults.corrupt_rate = 0.01 * static_cast<double>(seed % 2);
  faults.jitter_rate = 0.2;
  faults.jitter_max = sim::microseconds(40);
  return faults;
}

// Property: exactly-once, in-order, uncorrupted delivery for every seed.
// MAD2_FAULT_SEED narrows the sweep to a single seed for replay.
TEST(ReliableSweep, AllPayloadsExactlyOnceInOrderAcrossSeeds) {
  std::uint64_t first = 1;
  std::uint64_t last = 64;
  if (const char* replay = std::getenv("MAD2_FAULT_SEED")) {
    first = last = std::strtoull(replay, nullptr, 10);
  }
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const SweepOutcome outcome =
        run_sweep_case(seed, /*messages=*/120, sweep_faults(seed));
    ASSERT_TRUE(outcome.ok)
        << "seed " << seed << ": " << outcome.detail
        << "\nreplay: MAD2_FAULT_SEED=" << seed
        << " ctest -R reliable --verbose\n"
        << outcome.counters.to_string();
    // Backoff cap respected even when frames retransmit repeatedly.
    EXPECT_LE(outcome.counters.max_rto, ReliableParams{}.rto_max)
        << "seed " << seed;
    EXPECT_EQ(outcome.counters.give_ups, 0u) << "seed " << seed;
  }
}

TEST(ReliableSweep, LossActuallyForcesRetransmissions) {
  LinkFaults faults;
  faults.drop_rate = 0.2;
  const SweepOutcome outcome = run_sweep_case(11, 100, faults);
  ASSERT_TRUE(outcome.ok) << outcome.detail;
  EXPECT_GT(outcome.counters.retransmits, 0u);
  EXPECT_EQ(outcome.counters.data_frames, 200u);  // first transmissions
}

TEST(ReliableSweep, BackoffClimbsToTheCapAndNoFurther) {
  // Drop everything for a while via a healing partition: the first frame
  // retransmits until its timeout has doubled up to rto_max.
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/13);
  plan.partition(0, 1, 0, sim::milliseconds(80));
  ReliableParams reliability;
  reliability.rto_initial = sim::microseconds(500);
  reliability.rto_max = sim::milliseconds(8);
  reliability.max_retransmits = 100;
  ReliableNetwork network(&simulator, lossy_fabric(&plan), reliability);
  const std::uint32_t a = network.add_port();
  const std::uint32_t b = network.add_port();
  bool received = false;
  simulator.spawn("tx", [&] {
    std::vector<std::byte> payload = make_pattern_buffer(64, 1);
    ASSERT_TRUE(network.endpoint(a).send(b, 0, payload).is_ok());
  });
  simulator.spawn("rx", [&] {
    ReliableEndpoint::Message message;
    ASSERT_TRUE(network.endpoint(b).recv(message).is_ok());
    received = verify_pattern(message.payload, 1);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(received);  // delivered after the partition healed
  const ReliabilityCounters& counters = network.endpoint(a).counters();
  EXPECT_GT(counters.retransmits, 5u);
  EXPECT_EQ(counters.max_rto, reliability.rto_max);  // hit the cap exactly
  EXPECT_EQ(counters.give_ups, 0u);
}

TEST(ReliableSweep, PermanentPartitionGivesUpWithUnavailable) {
  sim::Simulator simulator;
  FaultPlan plan(/*seed=*/17);
  plan.partition(0, 1, 0, sim::kNever);
  ReliableParams reliability;
  reliability.rto_initial = sim::microseconds(200);
  reliability.rto_max = sim::microseconds(800);
  reliability.max_retransmits = 5;  // give up quickly
  ReliableNetwork network(&simulator, lossy_fabric(&plan), reliability);
  const std::uint32_t a = network.add_port();
  const std::uint32_t b = network.add_port();
  Status handled = Status::ok();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dead_links;
  network.set_link_error_handler(
      [&](std::uint32_t rank, std::uint32_t peer, const Status& status) {
        dead_links.emplace_back(rank, peer);
        handled = status;
      });
  Status send_status = Status::ok();
  Status recv_status = Status::ok();
  simulator.spawn("tx", [&] {
    // The first send is accepted (the window has room); the link dies
    // retransmitting it, after which sends fail fast.
    std::vector<std::byte> payload(32);
    (void)network.endpoint(a).send(b, 0, payload);
    while (network.endpoint(a).health().is_ok()) {
      simulator.advance(sim::milliseconds(1));
    }
    send_status = network.endpoint(a).send(b, 0, payload);
  });
  simulator.spawn("rx", [&] {
    ReliableEndpoint::Message message;
    recv_status = network.endpoint(a).recv(message);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(send_status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(recv_status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(handled.code(), ErrorCode::kUnavailable);
  // Only a sends, so only the a -> b link gives up.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {a, b}};
  EXPECT_EQ(dead_links, expected);
  EXPECT_GE(network.endpoint(a).counters().give_ups, 1u);
}

// Acceptance criterion of the fault-injection issue: 10k messages across
// a 5% drop + 1% dup + reorder-window-4 fabric, delivered exactly once
// and in order, with a byte-identical delivery trace across two runs of
// the same seed.
TEST(ReliableAcceptance, TenThousandMessagesExactlyOnceDeterministically) {
  LinkFaults faults;
  faults.drop_rate = 0.05;
  faults.dup_rate = 0.01;
  faults.reorder_rate = 0.25;
  faults.reorder_window = 4;
  auto run_once = [&] {
    // 5000 messages per direction = 10k through one fabric.
    return run_sweep_case(/*seed=*/424242, /*messages=*/5000, faults);
  };
  const SweepOutcome first = run_once();
  ASSERT_TRUE(first.ok) << first.detail;
  EXPECT_EQ(first.counters.data_frames, 10000u);
  EXPECT_GT(first.counters.retransmits, 0u);
  EXPECT_GT(first.counters.dup_frames, 0u);
  const SweepOutcome second = run_once();
  ASSERT_TRUE(second.ok) << second.detail;
  EXPECT_EQ(first.trace, second.trace);  // byte-identical delivery trace
}

// ------------------------------------------------------------ madcheck ---

// Schedule exploration (sim/explore.hpp): the retransmit timer, the ack
// path and both application fibers all race at tied virtual times; the
// exactly-once/in-order/uncorrupted property must survive every legal
// ordering of those events, not just the FIFO one the sweeps above run.
// Failures print a shrunk decision trace replayable via MAD2_SCHEDULE.
TEST(ReliableExplore, ExactlyOnceInOrderAcross200Schedules) {
  const auto body = []() -> Status {
    // Drop/dup/reorder-heavy mix so retransmit timers actually arm and
    // race with late acks under the explored schedules.
    LinkFaults faults;
    faults.drop_rate = 0.08;
    faults.dup_rate = 0.03;
    faults.reorder_rate = 0.15;
    faults.reorder_window = 3;
    ReliableParams reliability;
    reliability.rto_initial = sim::microseconds(300);
    const SweepOutcome outcome =
        run_sweep_case(/*seed=*/7, /*messages=*/12, faults, reliability);
    if (!outcome.ok) return internal_error(outcome.detail);
    if (outcome.counters.give_ups != 0) {
      return internal_error("healthy link declared dead");
    }
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  const sim::ExploreResult result = sim::explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

}  // namespace
}  // namespace mad2::net
