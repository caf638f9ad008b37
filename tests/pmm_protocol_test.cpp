// White-box protocol tests per PMM: TM selection boundaries, credit-window
// behaviour under streaming, and channel-option overrides — verified
// through the per-TM traffic statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "credit_balance.hpp"
#include "mad/madeleine.hpp"
#include "mad/pmm_tcp.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

SessionConfig one_net(NetworkKind kind,
                      std::optional<SciPmmOptions> sci = {}) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "n";
  net.kind = kind;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  ChannelDef channel{"ch", "n"};
  channel.sci_options = sci;
  config.channels.push_back(channel);
  return config;
}

/// Send one block of each size and return the sender's per-TM stats.
TrafficStats run_blocks(SessionConfig config,
                        const std::vector<std::size_t>& sizes) {
  Session session(std::move(config));
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
  EXPECT_TRUE(session.run().is_ok());
  return session.endpoint("ch", 0).stats();
}

TEST(PmmProtocol, BipSplitsAtOneKilobyte) {
  const auto stats = run_blocks(one_net(NetworkKind::kBip),
                                {1, 1024, 1025, 65536});
  EXPECT_EQ(stats.sent_by_tm.at("bip-short").blocks, 2u);  // 1, 1024
  EXPECT_EQ(stats.sent_by_tm.at("bip-long").blocks, 2u);   // 1025, 65536
}

TEST(PmmProtocol, SisciHasThreeRegimes) {
  const auto stats = run_blocks(one_net(NetworkKind::kSisci),
                                {4, 256, 257, 8192, 100000});
  EXPECT_EQ(stats.sent_by_tm.at("sci-short").blocks, 2u);  // <= 256
  EXPECT_EQ(stats.sent_by_tm.at("sci-pio").blocks, 3u);    // the rest
  EXPECT_EQ(stats.sent_by_tm.count("sci-dma"), 0u);  // shipped disabled
}

TEST(PmmProtocol, SisciDmaEngagesOnlyWhenEnabled) {
  SciPmmOptions options;
  options.enable_dma = true;
  options.dma_min_bytes = 32768;
  const auto stats = run_blocks(one_net(NetworkKind::kSisci, options),
                                {4, 8192, 32768, 100000});
  EXPECT_EQ(stats.sent_by_tm.at("sci-dma").blocks, 2u);  // >= 32 kB
  EXPECT_EQ(stats.sent_by_tm.at("sci-pio").blocks, 1u);  // 8 kB
  EXPECT_EQ(stats.sent_by_tm.at("sci-short").blocks, 1u);
}

TEST(PmmProtocol, ViaSplitsAtThePacketPayload) {
  const auto stats = run_blocks(one_net(NetworkKind::kVia),
                                {4088, 4089, 100});
  EXPECT_EQ(stats.sent_by_tm.at("via-short").blocks, 2u);
  EXPECT_EQ(stats.sent_by_tm.at("via-bulk").blocks, 1u);
}

TEST(PmmProtocol, TcpAndSbpAreSingleTm) {
  const auto tcp = run_blocks(one_net(NetworkKind::kTcp), {4, 100000});
  EXPECT_EQ(tcp.sent_by_tm.size(), 1u);
  EXPECT_EQ(tcp.sent_by_tm.begin()->first, "tcp");
  const auto sbp = run_blocks(one_net(NetworkKind::kSbp), {4, 100000});
  EXPECT_EQ(sbp.sent_by_tm.size(), 1u);
  EXPECT_EQ(sbp.sent_by_tm.begin()->first, "sbp");
}

TEST(PmmProtocol, CreditWindowThrottlesButNeverDeadlocks) {
  // Stream far more small messages than the credit window in both
  // directions at once, on every credit-governed driver; afterwards both
  // windows must be whole again.
  for (NetworkKind kind : {NetworkKind::kBip, NetworkKind::kVia,
                           NetworkKind::kSbp, NetworkKind::kIb}) {
    Session session(one_net(kind));
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
      session.spawn(me, "rx" + std::to_string(me), [&, me](NodeRuntime& rt) {
        for (int i = 0; i < messages; ++i) {
          std::uint32_t value = 0;
          auto& conn = rt.channel("ch").begin_unpacking();
          mad_unpack_value(conn, value);
          conn.end_unpacking();
          EXPECT_EQ(value, static_cast<std::uint32_t>(i));
          ++verified;
        }
      });
    }
    ASSERT_TRUE(session.run().is_ok()) << to_string(kind);
    EXPECT_EQ(verified, 2 * messages) << to_string(kind);
    ASSERT_NE(credit_window_of(session, "ch", 0, 1), nullptr)
        << to_string(kind);
    EXPECT_EQ(credit_imbalance(session, "ch", 0, 1), "") << to_string(kind);
  }
}

TEST(PmmProtocol, ParanoidModeChangesTmTrafficOnly) {
  // Paranoid check blocks travel as ordinary small blocks: the user data
  // still selects the same TMs, and integrity holds.
  auto config = one_net(NetworkKind::kBip);
  config.channels[0].paranoid = true;
  const auto stats = run_blocks(std::move(config), {64, 50000});
  // 2 user blocks + 2 check blocks of 12 B on the short TM; the long TM
  // carries exactly the one big user block.
  EXPECT_EQ(stats.sent_by_tm.at("bip-long").blocks, 1u);
  EXPECT_EQ(stats.sent_by_tm.at("bip-short").blocks, 3u);
  EXPECT_EQ(stats.sent_by_tm.at("bip-short").bytes, 64u + 2 * 12u);
}

TEST(PmmProtocol, AnySourceReceiveServesSendersRoundRobin) {
  // Three senders stream to one receiver that unpacks from any source
  // and works on each message, so every sender always has messages queued
  // at it. wait_incoming resumes its peer scan just past the peer it last
  // served, so until a sender runs dry none may fall more than one full
  // round behind another.
  constexpr std::uint32_t kSenders = 3;
  constexpr int kMessages = 40;
  for (NetworkKind kind : {NetworkKind::kBip, NetworkKind::kIb,
                           NetworkKind::kSbp, NetworkKind::kSisci,
                           NetworkKind::kTcp, NetworkKind::kVia}) {
    SessionConfig config = one_net(kind);
    config.node_count = kSenders + 1;
    config.networks[0].nodes = {0, 1, 2, 3};
    Session session(std::move(config));
    std::vector<std::uint32_t> order;
    for (std::uint32_t sender = 1; sender <= kSenders; ++sender) {
      session.spawn(sender, "tx" + std::to_string(sender),
                    [&](NodeRuntime& rt) {
                      for (int i = 0; i < kMessages; ++i) {
                        std::uint32_t value = i;
                        auto& conn = rt.channel("ch").begin_packing(0);
                        mad_pack_value(conn, value);
                        conn.end_packing();
                      }
                    });
    }
    session.spawn(0, "rx", [&](NodeRuntime& rt) {
      rt.simulator().advance(sim::from_us(1000));  // let every sender queue
      std::vector<std::uint32_t> next(kSenders + 1, 0);
      for (int i = 0; i < kMessages * static_cast<int>(kSenders); ++i) {
        std::uint32_t value = 0;
        auto& conn = rt.channel("ch").begin_unpacking();
        mad_unpack_value(conn, value);
        conn.end_unpacking();
        EXPECT_EQ(value, next[conn.remote()]++);
        order.push_back(conn.remote());
        rt.simulator().advance(sim::from_us(50));
      }
    });
    ASSERT_TRUE(session.run().is_ok()) << to_string(kind);
    ASSERT_EQ(order.size(), kMessages * kSenders) << to_string(kind);

    std::vector<int> served(kSenders + 1, 0);
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (++served[order[k]] == kMessages) break;  // a sender ran dry
      const auto [least, most] =
          std::minmax_element(served.begin() + 1, served.end());
      EXPECT_LE(*most - *least, 1)
          << to_string(kind) << ": after " << k + 1 << " receives";
    }
  }
}

TEST(PmmProtocol, TcpStreamsOpenOnFirstUseInPairs) {
  // Building a TCP session opens no stream. One 0 -> 1 message opens
  // exactly node 0's stream to 1 and node 1's stream to 0; binding from
  // the receive side (as a rail lane that posts first does) opens both
  // halves too.
  SessionConfig config = one_net(NetworkKind::kTcp);
  config.node_count = 3;
  config.networks[0].nodes = {0, 1, 2};
  Session session(std::move(config));
  NetworkInstance& network = session.network("n");
  const auto streams = [&](std::uint32_t node) {
    return network.as<net::TcpNetwork>()
        .port(network.port(node))
        .stream_count();
  };
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(streams(node), 0u) << "node " << node;
  }
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    std::uint32_t value = 42;
    auto& conn = rt.channel("ch").begin_packing(1);
    mad_pack_value(conn, value);
    conn.end_packing();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    std::uint32_t value = 0;
    auto& conn = rt.channel("ch").begin_unpacking();
    mad_unpack_value(conn, value);
    conn.end_unpacking();
    EXPECT_EQ(conn.remote(), 0u);
    EXPECT_EQ(value, 42u);
  });
  ASSERT_TRUE(session.run().is_ok());
  EXPECT_EQ(streams(0), 1u);
  EXPECT_EQ(streams(1), 1u);
  EXPECT_EQ(streams(2), 0u);

  (void)TcpPmm::stream_of(session.endpoint("ch", 2).connection(1));
  EXPECT_EQ(streams(1), 2u);
  EXPECT_EQ(streams(2), 1u);
}

TEST(PmmProtocol, MessagesCountPerDirection) {
  Session session(one_net(NetworkKind::kTcp));
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (int i = 0; i < 3; ++i) {
      std::uint32_t v = i;
      auto& conn = rt.channel("ch").begin_packing(1);
      mad_pack_value(conn, v);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (int i = 0; i < 3; ++i) {
      std::uint32_t v = 0;
      auto& conn = rt.channel("ch").begin_unpacking();
      mad_unpack_value(conn, v);
      conn.end_unpacking();
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  EXPECT_EQ(session.endpoint("ch", 0).stats().messages_sent, 3u);
  EXPECT_EQ(session.endpoint("ch", 1).stats().messages_received, 3u);
}

}  // namespace
}  // namespace mad2::mad
