// Core Madeleine II tests: the pack/unpack interface and its semantic
// flags (paper Section 2.2), Switch/TM/BMM routing (Sections 3-4), across
// all four protocol management modules. Most suites are parameterized over
// the network kind so every driver exercises the same contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mad/madeleine.hpp"
#include "net/bip.hpp"
#include "net/sbp.hpp"
#include "sim/explore.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad2::mad {
namespace {

SessionConfig one_network_config(NetworkKind kind, std::size_t nodes = 2,
                                 std::size_t channels = 1) {
  SessionConfig config;
  config.node_count = nodes;
  NetworkDef net;
  net.name = "net0";
  net.kind = kind;
  for (std::uint32_t i = 0; i < nodes; ++i) net.nodes.push_back(i);
  config.networks.push_back(net);
  for (std::size_t c = 0; c < channels; ++c) {
    config.channels.push_back(ChannelDef{"ch" + std::to_string(c), "net0"});
  }
  return config;
}

std::string kind_name(const testing::TestParamInfo<NetworkKind>& info) {
  return std::string(to_string(info.param));
}

class MadOverDriver : public testing::TestWithParam<NetworkKind> {};

INSTANTIATE_TEST_SUITE_P(AllDrivers, MadOverDriver,
                         testing::Values(NetworkKind::kBip,
                                         NetworkKind::kSisci,
                                         NetworkKind::kTcp,
                                         NetworkKind::kVia,
                                         NetworkKind::kSbp),
                         kind_name);

// --------------------------------------------------------- basic traffic ---

TEST_P(MadOverDriver, SingleBlockRoundTripsAcrossSizes) {
  // Sizes straddle every TM boundary: SISCI short (256), BIP short (1024),
  // VIA short (4088), SISCI bulk buffer (8192), plus large.
  const std::vector<std::size_t> sizes{1,    4,    255,   256,   257,
                                       1024, 1025, 4087,  4088,  4089,
                                       8192, 8193, 65536, 262144};
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto payload = make_pattern_buffer(size, size);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(size);
      conn.unpack(out);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, size)) << "size " << size;
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, AllModeCombinationsRoundTrip) {
  const std::vector<SendMode> smodes{send_SAFER, send_LATER, send_CHEAPER};
  const std::vector<ReceiveMode> rmodes{receive_EXPRESS, receive_CHEAPER};
  const std::vector<std::size_t> sizes{16, 2048, 50000};
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      for (SendMode s : smodes) {
        for (ReceiveMode r : rmodes) {
          auto payload = make_pattern_buffer(size, size + 7);
          auto& conn = rt.channel("ch0").begin_packing(1);
          conn.pack(payload, s, r);
          conn.end_packing();
        }
      }
    }
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      for (SendMode s : smodes) {
        for (ReceiveMode r : rmodes) {
          auto& conn = rt.channel("ch0").begin_unpacking();
          std::vector<std::byte> out(size);
          conn.unpack(out, s, r);
          conn.end_unpacking();
          EXPECT_TRUE(verify_pattern(out, size + 7))
              << "size " << size << " smode " << static_cast<int>(s)
              << " rmode " << static_cast<int>(r);
        }
      }
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, Figure1DynamicSizeArray) {
  // The paper's Figure 1: the receiver extracts the size EXPRESS, then
  // allocates and extracts the array CHEAPER.
  const std::uint32_t n = 10000;
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto payload = make_pattern_buffer(n, 42);
    auto& conn = mad_begin_packing(rt.channel("ch0"), 1);
    mad_pack_value(conn, n, send_CHEAPER, receive_EXPRESS);
    mad_pack(conn, payload, send_CHEAPER, receive_CHEAPER);
    mad_end_packing(conn);
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = mad_begin_unpacking(rt.channel("ch0"));
    std::uint32_t size = 0;
    mad_unpack_value(conn, size, send_CHEAPER, receive_EXPRESS);
    // EXPRESS guarantee: the value is usable right here.
    ASSERT_EQ(size, n);
    std::vector<std::byte> data(size);
    mad_unpack(conn, data, send_CHEAPER, receive_CHEAPER);
    mad_end_unpacking(conn);
    EXPECT_TRUE(verify_pattern(data, 42));
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, MixedBlockMessageCrossesTmBoundaries) {
  // One message whose blocks alternate between the short and bulk TMs,
  // forcing Switch flushes (commit/checkout) mid-message.
  const std::vector<std::size_t> blocks{8, 60000, 16, 9000, 200, 30000, 4};
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_packing(1);
    std::vector<std::vector<std::byte>> payloads;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      payloads.push_back(make_pattern_buffer(blocks[i], i));
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      conn.pack(payloads[i]);
    }
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<std::vector<std::byte>> outs;
    for (std::size_t size : blocks) outs.emplace_back(size);
    for (auto& out : outs) conn.unpack(out);
    conn.end_unpacking();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_TRUE(verify_pattern(outs[i], i)) << "block " << i;
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  // Every pool buffer came back and no posted receive is left over.
  NetworkInstance& network = session.network("net0");
  if (GetParam() == NetworkKind::kBip) {
    auto& bip = network.as<net::BipNetwork>();
    for (std::uint32_t port = 0; port < bip.size(); ++port) {
      EXPECT_EQ(bip.port(port).inbox().in_use(), 0u) << "port " << port;
      EXPECT_EQ(bip.port(port).posted_count(), 0u) << "port " << port;
    }
  }
  if (GetParam() == NetworkKind::kSbp) {
    auto& sbp = network.as<net::SbpNetwork>();
    for (std::uint32_t port = 0; port < sbp.size(); ++port) {
      EXPECT_EQ(sbp.port(port).inbox().in_use(), 0u) << "port " << port;
    }
  }
}

// ------------------------------------------------------- flag semantics ---

TEST_P(MadOverDriver, LaterSeesModificationsUntilEndPacking) {
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    std::vector<std::byte> data(512, std::byte{0x11});
    auto& conn = rt.channel("ch0").begin_packing(1);
    conn.pack(data, send_LATER, receive_CHEAPER);
    // send_LATER contract: this update must reach the receiver.
    std::fill(data.begin(), data.end(), std::byte{0x22});
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<std::byte> out(512);
    conn.unpack(out, send_LATER, receive_CHEAPER);
    conn.end_unpacking();
    for (std::byte b : out) EXPECT_EQ(b, std::byte{0x22});
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, SaferToleratesModificationAfterPack) {
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    std::vector<std::byte> data(512, std::byte{0x33});
    auto& conn = rt.channel("ch0").begin_packing(1);
    conn.pack(data, send_SAFER, receive_CHEAPER);
    // send_SAFER contract: this update must NOT corrupt the message.
    std::fill(data.begin(), data.end(), std::byte{0x44});
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<std::byte> out(512);
    conn.unpack(out, send_SAFER, receive_CHEAPER);
    conn.end_unpacking();
    for (std::byte b : out) EXPECT_EQ(b, std::byte{0x33});
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, ExpressValueControlsFollowingUnpacks) {
  // A chain of EXPRESS headers each deciding the next extraction — the
  // multi-level incremental message construction of Section 2.2.
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_packing(1);
    const std::uint32_t count = 5;
    // send_CHEAPER data must stay valid until end_packing: hold payloads.
    std::vector<std::uint32_t> sizes;
    std::vector<std::vector<std::byte>> payloads;
    for (std::uint32_t i = 0; i < count; ++i) {
      sizes.push_back(100 * (i + 1));
      payloads.push_back(make_pattern_buffer(sizes.back(), i));
    }
    mad_pack_value(conn, count, send_CHEAPER, receive_EXPRESS);
    for (std::uint32_t i = 0; i < count; ++i) {
      mad_pack_value(conn, sizes[i], send_CHEAPER, receive_EXPRESS);
      mad_pack(conn, payloads[i], send_CHEAPER, receive_CHEAPER);
    }
    mad_end_packing(conn);
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = mad_begin_unpacking(rt.channel("ch0"));
    std::uint32_t count = 0;
    mad_unpack_value(conn, count, send_CHEAPER, receive_EXPRESS);
    ASSERT_EQ(count, 5u);
    // receive_CHEAPER blocks may only be read after end_unpacking; the
    // EXPRESS headers are usable immediately (that is the whole point).
    std::vector<std::vector<std::byte>> payloads;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t size = 0;
      mad_unpack_value(conn, size, send_CHEAPER, receive_EXPRESS);
      ASSERT_EQ(size, 100 * (i + 1));
      payloads.emplace_back(size);
      mad_unpack(conn, payloads.back(), send_CHEAPER, receive_CHEAPER);
    }
    mad_end_unpacking(conn);
    for (std::uint32_t i = 0; i < count; ++i) {
      EXPECT_TRUE(verify_pattern(payloads[i], i));
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

// ----------------------------------------------------- ordering & demux ---

TEST_P(MadOverDriver, ManySmallMessagesExceedCreditWindow) {
  // More in-flight shorts than any credit window: flow control must
  // throttle, not deadlock or overflow.
  const int messages = 100;
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      auto& conn = rt.channel("ch0").begin_packing(1);
      std::uint32_t value = i;
      mad_pack_value(conn, value);
      mad_end_packing(conn);
    }
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::uint32_t value = 999;
      mad_unpack_value(conn, value);
      mad_end_unpacking(conn);
      EXPECT_EQ(value, static_cast<std::uint32_t>(i));
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, BeginUnpackingIdentifiesTheSender) {
  Session session(one_network_config(GetParam(), /*nodes=*/3));
  // Node 2 sends first (guaranteed by virtual-time delay on node 1).
  session.spawn(2, "early", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_packing(0);
    std::uint32_t tag = 222;
    mad_pack_value(conn, tag);
    mad_end_packing(conn);
  });
  session.spawn(1, "late", [&](NodeRuntime& rt) {
    rt.simulator().advance(sim::milliseconds(5));
    auto& conn = rt.channel("ch0").begin_packing(0);
    std::uint32_t tag = 111;
    mad_pack_value(conn, tag);
    mad_end_packing(conn);
  });
  session.spawn(0, "receiver", [&](NodeRuntime& rt) {
    auto& first = rt.channel("ch0").begin_unpacking();
    EXPECT_EQ(first.remote(), 2u);
    std::uint32_t tag = 0;
    mad_unpack_value(first, tag);
    mad_end_unpacking(first);
    EXPECT_EQ(tag, 222u);

    auto& second = rt.channel("ch0").begin_unpacking();
    EXPECT_EQ(second.remote(), 1u);
    mad_unpack_value(second, tag);
    mad_end_unpacking(second);
    EXPECT_EQ(tag, 111u);
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, ConnectionsAreBuiltOnFirstUse) {
  // A fresh session has no Connection object anywhere. One 0 -> 1 message
  // builds exactly two: the sender's to 1 and the receiver's to 0.
  Session session(one_network_config(GetParam(), /*nodes=*/3));
  const auto count = [&](std::uint32_t node) {
    return session.endpoint("ch0", node).connection_count();
  };
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(count(node), 0u) << "node " << node;
  }
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_packing(1);
    std::uint32_t tag = 7;
    mad_pack_value(conn, tag);
    mad_end_packing(conn);
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::uint32_t tag = 0;
    mad_unpack_value(conn, tag);
    mad_end_unpacking(conn);
    EXPECT_EQ(conn.remote(), 0u);
    EXPECT_EQ(tag, 7u);
  });
  ASSERT_TRUE(session.run().is_ok());
  EXPECT_EQ(count(0), 1u);
  EXPECT_EQ(count(1), 1u);
  EXPECT_EQ(count(2), 0u);
  EXPECT_EQ(session.endpoint("ch0", 0).stats().messages_sent, 1u);
  EXPECT_EQ(session.endpoint("ch0", 1).stats().messages_received, 1u);
}

TEST_P(MadOverDriver, ChannelsAreIsolatedWorlds) {
  // Paper Section 2.1: communication on one channel does not interfere
  // with another. Receive in the opposite order of sending.
  Session session(one_network_config(GetParam(), 2, /*channels=*/2));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto& a = rt.channel("ch0").begin_packing(1);
    std::uint32_t va = 10;
    mad_pack_value(a, va);
    mad_end_packing(a);
    auto& b = rt.channel("ch1").begin_packing(1);
    std::uint32_t vb = 20;
    mad_pack_value(b, vb);
    mad_end_packing(b);
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    // Drain ch1 first even though ch0's message was sent first.
    auto& b = rt.channel("ch1").begin_unpacking();
    std::uint32_t vb = 0;
    mad_unpack_value(b, vb);
    mad_end_unpacking(b);
    EXPECT_EQ(vb, 20u);
    auto& a = rt.channel("ch0").begin_unpacking();
    std::uint32_t va = 0;
    mad_unpack_value(a, va);
    mad_end_unpacking(a);
    EXPECT_EQ(va, 10u);
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, PingPongManyIterations) {
  Session session(one_network_config(GetParam()));
  const int iterations = 50;
  for (int me = 0; me < 2; ++me) {
    session.spawn(me, "peer" + std::to_string(me), [&, me](NodeRuntime& rt) {
      const std::uint32_t other = 1 - me;
      for (int i = 0; i < iterations; ++i) {
        if ((i % 2 == 0) == (me == 0)) {
          auto& conn = rt.channel("ch0").begin_packing(other);
          std::uint32_t v = i;
          mad_pack_value(conn, v);
          mad_end_packing(conn);
        } else {
          auto& conn = rt.channel("ch0").begin_unpacking();
          std::uint32_t v = 0;
          mad_unpack_value(conn, v);
          mad_end_unpacking(conn);
          EXPECT_EQ(v, static_cast<std::uint32_t>(i));
        }
      }
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(MadOverDriver, ZeroLengthBlocksAreLegal) {
  Session session(one_network_config(GetParam()));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_packing(1);
    std::uint32_t v = 7;
    conn.pack({});  // empty block
    mad_pack_value(conn, v);
    conn.pack({});
    mad_end_packing(conn);
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::uint32_t v = 0;
    conn.unpack({});
    mad_unpack_value(conn, v);
    conn.unpack({});
    mad_end_unpacking(conn);
    EXPECT_EQ(v, 7u);
  });
  ASSERT_TRUE(session.run().is_ok());
}

// ------------------------------------------------------- property tests ---

struct ScheduleParam {
  NetworkKind kind;
  std::uint64_t seed;
};

class RandomSchedule : public testing::TestWithParam<ScheduleParam> {};

std::string schedule_name(const testing::TestParamInfo<ScheduleParam>& info) {
  return std::string(to_string(info.param.kind)) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RandomSchedule,
    testing::Values(ScheduleParam{NetworkKind::kBip, 1},
                    ScheduleParam{NetworkKind::kBip, 2},
                    ScheduleParam{NetworkKind::kBip, 3},
                    ScheduleParam{NetworkKind::kSisci, 1},
                    ScheduleParam{NetworkKind::kSisci, 2},
                    ScheduleParam{NetworkKind::kSisci, 3},
                    ScheduleParam{NetworkKind::kTcp, 1},
                    ScheduleParam{NetworkKind::kTcp, 2},
                    ScheduleParam{NetworkKind::kVia, 1},
                    ScheduleParam{NetworkKind::kVia, 2},
                    ScheduleParam{NetworkKind::kVia, 3},
                    ScheduleParam{NetworkKind::kSbp, 1},
                    ScheduleParam{NetworkKind::kSbp, 2}),
    schedule_name);

struct BlockSpec {
  std::size_t size;
  SendMode smode;
  ReceiveMode rmode;
};

std::vector<std::vector<BlockSpec>> random_messages(std::uint64_t seed) {
  // Deterministic random message schedule: sizes span all TM regimes,
  // modes cover the whole matrix.
  Rng rng(seed);
  std::vector<std::vector<BlockSpec>> messages(rng.next_range(3, 8));
  for (auto& message : messages) {
    message.resize(rng.next_range(1, 6));
    for (BlockSpec& block : message) {
      switch (rng.next_below(4)) {
        case 0:
          block.size = rng.next_range(0, 64);
          break;
        case 1:
          block.size = rng.next_range(65, 1500);
          break;
        case 2:
          block.size = rng.next_range(1501, 10000);
          break;
        default:
          block.size = rng.next_range(10001, 150000);
          break;
      }
      const auto s = rng.next_below(3);
      block.smode = s == 0 ? send_SAFER : (s == 1 ? send_LATER : send_CHEAPER);
      block.rmode = rng.next_bool(0.3) ? receive_EXPRESS : receive_CHEAPER;
    }
  }
  return messages;
}

TEST_P(RandomSchedule, SymmetricSchedulesPreserveData) {
  const auto messages = random_messages(GetParam().seed);
  Session session(one_network_config(GetParam().kind));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    std::uint64_t pattern = 0;
    for (const auto& message : messages) {
      std::vector<std::vector<std::byte>> payloads;
      for (const BlockSpec& block : message) {
        payloads.push_back(make_pattern_buffer(block.size, ++pattern));
      }
      auto& conn = rt.channel("ch0").begin_packing(1);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.pack(payloads[i], message[i].smode, message[i].rmode);
      }
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::uint64_t pattern = 0;
    for (const auto& message : messages) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::vector<std::byte>> outs;
      for (const BlockSpec& block : message) outs.emplace_back(block.size);
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
}

// ------------------------------------------------------------ madcheck ---

// Schedule exploration (sim/explore.hpp): a mixed-mode message whose
// blocks straddle the short/bulk TM boundary forces the Switch to flush
// (commit/checkout) mid-message, and those flush events tie with the
// peer's pack/unpack fibers at the same virtual time. The data-integrity
// contract must hold for every ordering the policy can pick, not just the
// FIFO one the suites above run. Failures print a shrunk decision trace
// replayable via MAD2_SCHEDULE.
TEST(MadExplore, SwitchFlushOrderingHoldsAcross200Schedules) {
  const auto body = []() -> Status {
    struct Block {
      std::size_t size;
      SendMode smode;
      ReceiveMode rmode;
    };
    // Short / bulk alternation plus all three send modes: every pack
    // switches TM or flushes the aggregation buffer at least once.
    const std::vector<Block> blocks{
        {64, send_CHEAPER, receive_EXPRESS},
        {6000, send_CHEAPER, receive_CHEAPER},
        {32, send_SAFER, receive_EXPRESS},
        {12000, send_CHEAPER, receive_CHEAPER},
        {128, send_LATER, receive_CHEAPER},
    };
    std::string failure;
    auto fail = [&failure](std::string detail) {
      if (failure.empty()) failure = std::move(detail);
    };
    Session session(one_network_config(NetworkKind::kSisci));
    for (std::uint32_t me = 0; me < 2; ++me) {
      const std::uint32_t other = 1 - me;
      // Independent tx and rx fibers per node: both directions are in
      // flight at once, so Switch flushes on one side race against
      // application progress on the other.
      session.spawn(me, "tx" + std::to_string(me),
                    [&, me, other](NodeRuntime& rt) {
        std::vector<std::vector<std::byte>> payloads;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          payloads.push_back(
              make_pattern_buffer(blocks[i].size, 1000 * (me + 1) + i));
        }
        auto& conn = rt.channel("ch0").begin_packing(other);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          conn.pack(payloads[i], blocks[i].smode, blocks[i].rmode);
        }
        // send_LATER/send_CHEAPER payloads stay alive until here.
        conn.end_packing();
      });
      session.spawn(me, "rx" + std::to_string(me),
                    [&, me, other](NodeRuntime& rt) {
        auto& conn = rt.channel("ch0").begin_unpacking();
        std::vector<std::vector<std::byte>> outs;
        for (const Block& block : blocks) outs.emplace_back(block.size);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          conn.unpack(outs[i], blocks[i].smode, blocks[i].rmode);
        }
        conn.end_unpacking();
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          if (!verify_pattern(outs[i], 1000 * (other + 1) + i)) {
            fail("node " + std::to_string(me) + " block " +
                 std::to_string(i) +
                 " corrupt or reordered under explored schedule");
          }
        }
      });
    }
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

// --------------------------------------------------------- calibrations ---

double one_way_latency_us(NetworkKind kind, std::size_t size) {
  Session session(one_network_config(kind));
  const int iterations = 20;
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "pinger", [&](NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    std::vector<std::byte> back(size);
    start = rt.simulator().now();
    for (int i = 0; i < iterations; ++i) {
      auto& out = rt.channel("ch0").begin_packing(1);
      out.pack(payload);
      out.end_packing();
      auto& in = rt.channel("ch0").begin_unpacking();
      in.unpack(back);
      in.end_unpacking();
    }
    end = rt.simulator().now();
  });
  session.spawn(1, "ponger", [&](NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < iterations; ++i) {
      auto& in = rt.channel("ch0").begin_unpacking();
      in.unpack(data);
      in.end_unpacking();
      auto& out = rt.channel("ch0").begin_packing(0);
      out.pack(data);
      out.end_packing();
    }
  });
  EXPECT_TRUE(session.run().is_ok());
  return sim::to_us(end - start) / (2.0 * iterations);
}

TEST(MadCalibration, BipLatencyNearSevenMicroseconds) {
  const double latency = one_way_latency_us(NetworkKind::kBip, 4);
  EXPECT_GT(latency, 5.0);
  EXPECT_LT(latency, 9.0);  // paper: 7 us
}

TEST(MadCalibration, SisciLatencyNearFourMicroseconds) {
  const double latency = one_way_latency_us(NetworkKind::kSisci, 4);
  EXPECT_GT(latency, 2.8);
  EXPECT_LT(latency, 5.0);  // paper: 3.9 us
}

TEST(MadCalibration, SisciBeatsBipOnSmallMessages) {
  EXPECT_LT(one_way_latency_us(NetworkKind::kSisci, 4),
            one_way_latency_us(NetworkKind::kBip, 4));
}

double bandwidth_mbs(NetworkKind kind, std::size_t size) {
  Session session(one_network_config(kind));
  const int iterations = 8;
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    start = rt.simulator().now();
    for (int i = 0; i < iterations; ++i) {
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
    // Wait for the final ack byte so `end` covers full delivery.
    auto& in = rt.channel("ch0").begin_unpacking();
    std::byte ack;
    in.unpack(std::span(&ack, 1));
    in.end_unpacking();
    end = rt.simulator().now();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < iterations; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      conn.unpack(data);
      conn.end_unpacking();
    }
    auto& out = rt.channel("ch0").begin_packing(0);
    std::byte ack{1};
    out.pack(std::span(&ack, 1));
    out.end_packing();
  });
  EXPECT_TRUE(session.run().is_ok());
  return static_cast<double>(size) * iterations /
         (sim::to_seconds(end - start) * 1e6);
}

TEST(MadCalibration, BipBandwidthNear122MBs) {
  const double mbs = bandwidth_mbs(NetworkKind::kBip, 2 * 1024 * 1024);
  EXPECT_GT(mbs, 110.0);
  EXPECT_LT(mbs, 128.0);  // paper: 122 MB/s
}

TEST(MadCalibration, SisciBandwidthNear82MBs) {
  const double mbs = bandwidth_mbs(NetworkKind::kSisci, 2 * 1024 * 1024);
  EXPECT_GT(mbs, 74.0);
  EXPECT_LT(mbs, 88.0);  // paper: 82 MB/s
}

TEST(MadCalibration, BipBeatsSisciOnLargeMessages) {
  EXPECT_GT(bandwidth_mbs(NetworkKind::kBip, 1024 * 1024),
            bandwidth_mbs(NetworkKind::kSisci, 1024 * 1024));
}

TEST(MadCalibration, SisciDualBufferingKinkAtEightKB) {
  // Below the kink a single isolated message serializes sender PIO and
  // receiver drain (one ring buffer); above it the buffers overlap. Use
  // isolated one-way transfers (as the paper's figure does) — streaming
  // back-to-back messages would pipeline across messages and hide it.
  const double below_mbs =
      8.0 * 1024 / one_way_latency_us(NetworkKind::kSisci, 8 * 1024);
  const double above_mbs =
      64.0 * 1024 / one_way_latency_us(NetworkKind::kSisci, 64 * 1024);
  EXPECT_GT(above_mbs, below_mbs * 1.2);
}

// ------------------------------------------------------ counter owners ---
//
// Node memory has one owner, the node: two endpoints on one node read the
// same MemCounters, and their TrafficStats carry none of it.

TEST(TrafficStatsMerge, EndpointsSharingANodeDoNotDoubleCountMem) {
  // Two channels over one network: node 0 has two endpoints, both
  // reporting the same node-level memory counters.
  Session session(one_network_config(NetworkKind::kTcp, 2, 2));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    for (const char* ch : {"ch0", "ch1"}) {
      auto payload = make_pattern_buffer(4096, 9);
      auto& conn = rt.channel(ch).begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    for (const char* ch : {"ch0", "ch1"}) {
      auto& conn = rt.channel(ch).begin_unpacking();
      std::vector<std::byte> out(4096);
      conn.unpack(out);
      conn.end_unpacking();
    }
  });
  ASSERT_TRUE(session.run().is_ok());

  const TrafficStats s0 = session.endpoint("ch0", 0).stats();
  const TrafficStats s1 = session.endpoint("ch1", 0).stats();
  ASSERT_EQ(s0.messages_sent, 1u);
  ASSERT_EQ(s1.messages_sent, 1u);
  TrafficStats merged = s0;
  merged.merge(s1);
  EXPECT_EQ(merged.messages_sent, s0.messages_sent + s1.messages_sent);

  // The node's memory is counted once, by the node: the per-node export
  // row equals it rather than a sum over the node's two endpoints.
  const std::uint64_t memcpy_bytes = session.node(0).mem().memcpy_bytes;
  ASSERT_GT(memcpy_bytes, 0u);
  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  EXPECT_EQ(registry.value("mem.node0.memcpy_bytes"),
            static_cast<std::int64_t>(memcpy_bytes));
}

}  // namespace
}  // namespace mad2::mad
