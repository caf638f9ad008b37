// White-box tests for the IB protocol module: eager/rendezvous selection
// at the configurable cutoff, RDMA-write (EXPRESS) vs receiver-driven
// RDMA-read (CHEAPER) rendezvous, credit-window streaming, the
// progress-engine fastpath, pinned-memory metrics, and a >= 200-schedule
// madcheck exploration of the rendezvous handshake including
// mid-rendezvous rail death routed through Session::route_network_failure.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "mad/madeleine.hpp"
#include "net/fault.hpp"
#include "net/ib.hpp"
#include "sim/explore.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

SessionConfig ib_net(std::optional<IbPmmOptions> options = {}) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "n";
  net.kind = NetworkKind::kIb;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  ChannelDef channel{"ch", "n"};
  channel.ib_options = options;
  config.channels.push_back(channel);
  return config;
}

/// Send one block of each size and return the sender's per-TM stats.
TrafficStats run_blocks(SessionConfig config,
                        const std::vector<std::size_t>& sizes,
                        SendMode smode = send_CHEAPER,
                        ReceiveMode rmode = receive_CHEAPER) {
  Session session(std::move(config));
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto payload = make_pattern_buffer(size, size);
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload, smode, rmode);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto& conn = rt.channel("ch").begin_unpacking();
      std::vector<std::byte> out(size);
      conn.unpack(out, smode, rmode);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, size)) << size << " bytes corrupt";
    }
  });
  EXPECT_TRUE(session.run().is_ok());
  return session.endpoint("ch", 0).stats();
}

TEST(PmmIb, SplitsAtTheEagerCutoff) {
  const auto stats =
      run_blocks(ib_net(), {64, 8192, 8193, 1 << 20});
  EXPECT_EQ(stats.sent_by_tm.at("ib-eager").blocks, 2u);  // 64, 8192
  EXPECT_EQ(stats.sent_by_tm.at("ib-read").blocks, 2u);   // the rest
}

TEST(PmmIb, EagerCutoffOverrideIsHonored) {
  IbPmmOptions options;
  options.eager_cutoff = 1024;
  const auto stats = run_blocks(ib_net(options), {1024, 1025});
  EXPECT_EQ(stats.sent_by_tm.at("ib-eager").blocks, 1u);
  EXPECT_EQ(stats.sent_by_tm.at("ib-read").blocks, 1u);
}

TEST(PmmIb, ExpressLandingsUseTheWriteRendezvous) {
  // EXPRESS data must be available when unpack returns, so the sender
  // pushes with RDMA write; CHEAPER landings let the receiver pull with
  // RDMA read whenever it lands the data.
  const auto stats = run_blocks(ib_net(), {100000, 1 << 18},
                                send_CHEAPER, receive_EXPRESS);
  EXPECT_EQ(stats.sent_by_tm.at("ib-write").blocks, 2u);
  EXPECT_EQ(stats.sent_by_tm.count("ib-read"), 0u);
}

TEST(PmmIb, RoundTripsAcrossSizesAndModes) {
  for (ReceiveMode rmode : {receive_CHEAPER, receive_EXPRESS}) {
    const std::vector<std::size_t> sizes = {1,     64,        4096,
                                            8192,  8193,      65536,
                                            100000, (1 << 20) + 13};
    const auto stats = run_blocks(ib_net(), sizes, send_CHEAPER, rmode);
    std::uint64_t blocks = 0;
    for (const auto& [tm, counters] : stats.sent_by_tm) {
      blocks += counters.blocks;
    }
    EXPECT_EQ(blocks, sizes.size());
  }
}

TEST(PmmIb, GroupedBlocksShareOneRendezvous) {
  // Several rendezvous-sized blocks packed back to back coalesce into one
  // buffer group: one RTS/CTS handshake, per-block RDMA.
  Session session(ib_net());
  const std::vector<std::size_t> sizes = {65536, 100000, 32768};
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    std::vector<std::vector<std::byte>> payloads;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      payloads.push_back(make_pattern_buffer(sizes[i], 50 + i));
    }
    auto& conn = rt.channel("ch").begin_packing(1);
    for (const auto& payload : payloads) {
      conn.pack(payload, send_CHEAPER, receive_EXPRESS);
    }
    conn.end_packing();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch").begin_unpacking();
    std::vector<std::vector<std::byte>> outs;
    for (std::size_t size : sizes) outs.emplace_back(size);
    for (auto& out : outs) {
      conn.unpack(out, send_CHEAPER, receive_EXPRESS);
    }
    conn.end_unpacking();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_TRUE(verify_pattern(outs[i], 50 + i)) << "block " << i;
    }
  });
  EXPECT_TRUE(session.run().is_ok());
}

TEST(PmmIb, AdjacentBlocksInOneGroupKeepTheirPins) {
  // Three 48 KiB blocks cut from one allocation and packed back to back:
  // every block's registration abuts the previous one. The registration
  // cache must keep each pin alive while its rkey is advertised to the
  // peer — merging a referenced entry would deregister an MR backing an
  // in-flight rendezvous and the peer's RDMA op would hit "unknown
  // rkey". Covers both the read (CHEAPER: source blocks adjacent) and
  // write (EXPRESS: landing blocks adjacent too) rendezvous.
  constexpr std::size_t kBlock = 48 * 1024;
  for (ReceiveMode rmode : {receive_CHEAPER, receive_EXPRESS}) {
    Session session(ib_net());
    session.spawn(0, "tx", [&](NodeRuntime& rt) {
      const auto payload = make_pattern_buffer(3 * kBlock, 9);
      auto& conn = rt.channel("ch").begin_packing(1);
      for (std::size_t i = 0; i < 3; ++i) {
        conn.pack(std::span(payload).subspan(i * kBlock, kBlock),
                  send_CHEAPER, rmode);
      }
      conn.end_packing();
    });
    session.spawn(1, "rx", [&](NodeRuntime& rt) {
      std::vector<std::byte> out(3 * kBlock);
      auto& conn = rt.channel("ch").begin_unpacking();
      for (std::size_t i = 0; i < 3; ++i) {
        conn.unpack(std::span(out).subspan(i * kBlock, kBlock),
                    send_CHEAPER, rmode);
      }
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, 9));
    });
    ASSERT_TRUE(session.run().is_ok())
        << (rmode == receive_CHEAPER ? "CHEAPER" : "EXPRESS");
  }
}

TEST(PmmIb, CreditWindowThrottlesButNeverDeadlocks) {
  // Stream far more eager messages than the credit window (= qp_depth)
  // in both directions at once.
  Session session(ib_net());
  const int messages = 200;
  int verified = 0;
  for (int me = 0; me < 2; ++me) {
    session.spawn(me, "tx" + std::to_string(me), [&, me](NodeRuntime& rt) {
      for (int i = 0; i < messages; ++i) {
        std::uint32_t value = i;
        auto& conn = rt.channel("ch").begin_packing(1 - me);
        mad_pack_value(conn, value);
        conn.end_packing();
      }
    });
    session.spawn(me, "rx" + std::to_string(me), [&](NodeRuntime& rt) {
      for (int i = 0; i < messages; ++i) {
        auto& conn = rt.channel("ch").begin_unpacking();
        std::uint32_t value = 0;
        mad_unpack_value(conn, value);
        conn.end_unpacking();
        if (value == static_cast<std::uint32_t>(i)) ++verified;
      }
    });
  }
  ASSERT_TRUE(session.run().is_ok());
  EXPECT_EQ(verified, 2 * messages);
}

TEST(PmmIb, FastPathEngineDrivesTheCompletionQueue) {
  // Under the fastpath stanza the CQ is reaped by a ProgressEngine client
  // instead of a per-endpoint pump fiber; the traffic must be identical
  // and the engine must actually tick.
  SessionConfig config = ib_net();
  config.fastpath = true;
  Session session(std::move(config));
  const std::vector<std::size_t> sizes = {64, 4096, 65536, 1 << 20};
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto payload = make_pattern_buffer(size, size);
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto& conn = rt.channel("ch").begin_unpacking();
      std::vector<std::byte> out(size);
      conn.unpack(out);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, size));
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  const ProgressEngine* engine = session.progress_engine(1);
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->counters().doorbells, 0u);
  EXPECT_GT(engine->counters().flushes, 0u);
}

TEST(PmmIb, PinnedMemoryAndRegCacheMetricsAreExported) {
  Session session(ib_net());
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    const auto payload = make_pattern_buffer(1 << 20, 3);
    for (int i = 0; i < 4; ++i) {
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(1 << 20);
    for (int i = 0; i < 4; ++i) {
      auto& conn = rt.channel("ch").begin_unpacking();
      conn.unpack(out);
      conn.end_unpacking();
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  // Registration work shows up in the node's memory counters like
  // memcpy/allocs do.
  const hw::MemCounters& mem = session.node(0).mem();
  EXPECT_GT(mem.reg_count, 0u);
  EXPECT_GT(mem.pinned_bytes, 0u);
  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  // The eager pools and the rendezvous landings were pinned.
  EXPECT_GT(registry.value("mem.node0.pinned_bytes"), 0);
  EXPECT_GT(registry.value("mem.node0.regs"), 0);
  EXPECT_GT(registry.value("ib.n:0.send_wrs"), 0);
  EXPECT_GT(registry.value("ib.n:0.cqes"), 0);
  // The same 1 MiB source repeated 4x: the sender's cache must hit.
  EXPECT_GT(registry.value("ib.n:0.regcache.hits"), 0);
}

// ----------------------------------------------------- explored schedules ---

TEST(PmmIb, RendezvousSurvivesExploredSchedules) {
  // madcheck over the full rendezvous handshake: RTS/CTS/completion
  // interleavings with concurrent eager traffic must deliver identical
  // bytes under every explored fiber schedule.
  auto body = []() -> Status {
    Session session(ib_net());
    std::string failure;
    const std::vector<std::size_t> sizes = {64, 100000, 512, 65536};
    session.spawn(0, "tx", [&](NodeRuntime& rt) {
      for (std::size_t size : sizes) {
        auto payload = make_pattern_buffer(size, size);
        auto& conn = rt.channel("ch").begin_packing(1);
        conn.pack(payload);
        conn.end_packing();
      }
    });
    session.spawn(1, "rx", [&](NodeRuntime& rt) {
      for (std::size_t size : sizes) {
        auto& conn = rt.channel("ch").begin_unpacking();
        std::vector<std::byte> out(size);
        conn.unpack(out);
        conn.end_unpacking();
        if (!verify_pattern(out, size)) {
          failure = std::to_string(size) + " bytes corrupt";
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

/// BIP primary + IB secondary rail set whose IB fabric partitions at
/// `at`, with an aggressive give-up so the rail dies mid-rendezvous.
SessionConfig ib_rail_config(net::FaultPlan* plan, sim::Duration timeout) {
  net::IbParams ib = net::IbParams::mellanox_like();
  ib.fabric.faults = plan;
  ib.op_timeout = timeout;
  SessionConfig config;
  config.node_count = 2;
  NetworkDef myri;
  myri.name = "myri0";
  myri.kind = NetworkKind::kBip;
  myri.nodes = {0, 1};
  NetworkDef ibnet;
  ibnet.name = "ib0";
  ibnet.kind = NetworkKind::kIb;
  ibnet.nodes = {0, 1};
  ibnet.params = ib;
  config.networks = {myri, ibnet};
  config.channels = {ChannelDef{"ch0", "myri0"}, ChannelDef{"ch1", "ib0"}};
  config.rail_sets.push_back(RailSetDef{"r", {"ch0", "ch1"}});
  return config;
}

TEST(PmmIb, DeadRailMidRendezvousExploredSchedules) {
  // The IB rail partitions while striped segments rendezvous across it.
  // Under >= 200 explored schedules the give-up timer must kill exactly
  // that rail through Session::route_network_failure (RTS sent / CTS
  // pending / write in flight — every phase appears across schedules),
  // and every byte must land via resubmission on the BIP primary.
  auto body = []() -> Status {
    net::FaultPlan plan(/*seed=*/29);
    plan.partition(0, 1, sim::microseconds(800));
    Session session(ib_rail_config(&plan, sim::microseconds(300)));
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
                    " corrupt after IB rail death";
        }
      }
    });
    const Status run = session.run();
    if (!run.is_ok()) return run;
    if (!failure.empty()) return internal_error(failure);
    if (session.rail_set("r").health().is_ok()) {
      return internal_error("partitioned IB rail still healthy");
    }
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(PmmIb, EagerWaitersSurviveLinkDeath) {
  // Link death must unwedge *every* blocked eager fiber, not only the
  // rendezvous waiters: a sender starved of credits and a receiver
  // waiting for a message tail hold no failable work request of their
  // own, so only the poison pass can wake them. The rail set absorbs the
  // network failure (kRail), so a clean run() proves nobody wedged — a
  // stuck fiber would surface as a deadlock report instead.
  net::FaultPlan plan(/*seed=*/31);
  plan.partition(0, 1, sim::microseconds(800));
  SessionConfig config = ib_rail_config(&plan, sim::microseconds(300));
  config.channels.push_back(ChannelDef{"ch2", "ib0"});
  Session session(std::move(config));
  const int packs = 20;  // > credit window even with returned credits
  // node 0: a write rendezvous whose RDMA write crosses the partition —
  // its give-up timer is what declares the link dead (~1005us).
  session.spawn(0, "tx0", [&](NodeRuntime& rt) {
    rt.simulator().advance(sim::microseconds(700));
    const auto payload = make_pattern_buffer(64 * 1024, 11);
    auto& conn = rt.channel("ch2").begin_packing(1);
    conn.pack(payload, send_CHEAPER, receive_EXPRESS);
    conn.end_packing();  // bails when the link dies; must not wedge
  });
  session.spawn(1, "rx1", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch2").begin_unpacking();
    std::vector<std::byte> out(64 * 1024);
    // Answers CTS, then waits for a write that never completes: woken by
    // the poison pass on node 1 (which owns no timed-out WR itself).
    conn.unpack(out, send_CHEAPER, receive_EXPRESS);
    conn.end_unpacking();
  });
  // node 1 -> node 0: one eager message whose first block lands before
  // the partition and whose tail is swallowed by it.
  session.spawn(1, "tx1", [&](NodeRuntime& rt) {
    const auto part = make_pattern_buffer(1024, 13);
    auto& conn = rt.channel("ch2").begin_packing(0);
    conn.pack(part, send_CHEAPER, receive_EXPRESS);  // arrives
    rt.simulator().advance(sim::microseconds(820));
    for (int i = 1; i < packs; ++i) {
      // These vanish into the partition; one of them exhausts the credit
      // window and blocks until the link is declared dead, the rest are
      // dropped on the dead connection.
      conn.pack(part, send_CHEAPER, receive_EXPRESS);
    }
    conn.end_packing();
  });
  session.spawn(0, "rx0", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch2").begin_unpacking();
    std::vector<std::byte> first(1024);
    conn.unpack(first, send_CHEAPER, receive_EXPRESS);
    EXPECT_TRUE(verify_pattern(first, 13));
    // The tail never arrives: this blocks in the eager receive until the
    // poison pass marks the connection dead, then unwinds with the rest
    // of the message unfilled.
    std::vector<std::byte> rest(1024);
    for (int i = 1; i < packs; ++i) {
      conn.unpack(rest, send_CHEAPER, receive_EXPRESS);
    }
    conn.end_unpacking();
  });
  ASSERT_TRUE(session.run().is_ok());
  // The IB rail died and claimed the failure; the session survived.
  EXPECT_FALSE(session.rail_set("r").health().is_ok());
}


// ------------------------------------------------------ rail-segment parity ---

/// What one transfer costs on the IB adapters: both ports' work requests
/// and completions, and when each side's application call returned.
struct IbTransfer {
  std::uint64_t send_wrs = 0;
  std::uint64_t write_wrs = 0;
  std::uint64_t read_wrs = 0;
  std::uint64_t cqes = 0;
  sim::Time sent_at = 0;
  sim::Time landed_at = 0;
  std::uint64_t ib_bytes = 0;  ///< the IB rail's share of the block
};

/// Send `size` bytes from node 0 to node 1 of a healthy BIP + IB rail set
/// on `channel` with receive mode `rmode`, and record the IB cost.
IbTransfer run_on_rail_set(const std::string& channel, std::size_t size,
                           ReceiveMode rmode) {
  SessionConfig config =
      ib_rail_config(nullptr, net::IbParams::mellanox_like().op_timeout);
  Session session(std::move(config));
  IbTransfer result;
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    const auto payload = make_pattern_buffer(size, 7);
    auto& conn = rt.channel(channel).begin_packing(1);
    conn.pack(payload, send_CHEAPER, rmode);
    conn.end_packing();
    result.sent_at = rt.simulator().now();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(size);
    auto& conn = rt.channel(channel).begin_unpacking();
    conn.unpack(out, send_CHEAPER, rmode);
    conn.end_unpacking();
    result.landed_at = rt.simulator().now();
    EXPECT_TRUE(verify_pattern(out, 7));
  });
  EXPECT_TRUE(session.run().is_ok());
  EXPECT_TRUE(session.rail_set("r").health().is_ok());
  for (std::uint32_t rank : {0u, 1u}) {
    const net::IbCounters& c =
        session.network("ib0").as<net::IbNetwork>().port(rank).counters();
    result.send_wrs += c.send_wrs;
    result.write_wrs += c.write_wrs;
    result.read_wrs += c.read_wrs;
    result.cqes += c.cqes;
  }
  const auto& rails = session.endpoint("ch0", 0).stats().rails;
  if (const auto it = rails.find("ch1"); it != rails.end()) {
    result.ib_bytes = it->second.bytes;
  }
  return result;
}

TEST(PmmIb, RailSegmentMatchesTheWriteTm) {
  // A striped block's IB segment is one write rendezvous: RTS, CTS with
  // one (rkey, offset) entry, one RDMA write carrying the FIN immediate
  // and its ack. Sending the same bytes through the write TM (an EXPRESS
  // landing on the IB member channel) must cost the adapters exactly the
  // same work requests and completions. The virtual times of both runs
  // are pinned, so a change to either path's handshake shows here.
  const IbTransfer striped =
      run_on_rail_set("ch0", 256 * 1024, receive_CHEAPER);
  ASSERT_GT(striped.ib_bytes, 8192u);  // rendezvous-sized, not eager
  const IbTransfer direct =
      run_on_rail_set("ch1", striped.ib_bytes, receive_EXPRESS);
  EXPECT_EQ(striped.send_wrs, direct.send_wrs);
  EXPECT_EQ(striped.write_wrs, direct.write_wrs);
  EXPECT_EQ(striped.write_wrs, 1u);
  EXPECT_EQ(striped.read_wrs, 0u);
  EXPECT_EQ(direct.read_wrs, 0u);
  EXPECT_EQ(striped.cqes, direct.cqes);
  // Both runs' virtual times (ns) are pinned as well.
  EXPECT_EQ(striped.ib_bytes, 204800u);
  EXPECT_EQ(striped.sent_at, 1197947);
  EXPECT_EQ(striped.landed_at, 1200911);
  EXPECT_EQ(direct.sent_at, 840878);
  EXPECT_EQ(direct.landed_at, 839173);
}

// The session's link-error hook turns a driver's port numbers into global
// node ids. Members {3, 1, 4} of 5 nodes sit on ports 0, 1 and 2, so a
// hook that passed ports through, or swapped the two ends, names the
// wrong nodes. Here the HCA of node 3 declares its link to node 4 dead.
TEST(LinkErrorHook, IbFailLinkNamesTheNodes) {
  SessionConfig config;
  config.node_count = 5;
  NetworkDef ib;
  ib.name = "ib0";
  ib.kind = NetworkKind::kIb;
  ib.nodes = {3, 1, 4};
  config.networks.push_back(ib);
  config.channels.push_back(ChannelDef{"ch", "ib0"});
  Session session(std::move(config));

  std::vector<NetworkFailure> reports;
  session.add_failure_listener([&](const NetworkFailure& failure) {
    reports.push_back(failure);
    return FailureDomain::kUnknown;
  });
  session.network("ib0").as<net::IbNetwork>().fail_link(
      /*port of node 3*/ 0, /*port of node 4*/ 2,
      unavailable("HCA gave up (test)"));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].network->def.name, "ib0");
  EXPECT_EQ(reports[0].src_node, 3u);
  EXPECT_EQ(reports[0].dst_node, 4u);
  EXPECT_EQ(session.health().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace mad2::mad
