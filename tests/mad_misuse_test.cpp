// Failure-injection tests: API misuse must fail loudly (MAD2_CHECK
// aborts), and the paranoid channel mode must catch asymmetric
// pack/unpack sequences — the "unspecified behavior" of paper Section 2.2
// — at the first divergence.
#include <gtest/gtest.h>

#include "mad/madeleine.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

SessionConfig config_for(NetworkKind kind, bool paranoid) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "net0";
  net.kind = kind;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  ChannelDef channel{"ch", "net0"};
  channel.paranoid = paranoid;
  config.channels.push_back(channel);
  return config;
}

std::string kind_name(const testing::TestParamInfo<NetworkKind>& info) {
  return std::string(to_string(info.param));
}

class Paranoid : public testing::TestWithParam<NetworkKind> {};

INSTANTIATE_TEST_SUITE_P(AllDrivers, Paranoid,
                         testing::Values(NetworkKind::kBip,
                                         NetworkKind::kSisci,
                                         NetworkKind::kTcp,
                                         NetworkKind::kVia),
                         kind_name);

TEST_P(Paranoid, SymmetricSequencesStillWork) {
  Session session(config_for(GetParam(), /*paranoid=*/true));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto a = make_pattern_buffer(100, 1);
    auto b = make_pattern_buffer(50000, 2);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(a, send_CHEAPER, receive_EXPRESS);
    conn.pack(b, send_CHEAPER, receive_CHEAPER);
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> a(100);
    std::vector<std::byte> b(50000);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(a, send_CHEAPER, receive_EXPRESS);
    conn.unpack(b, send_CHEAPER, receive_CHEAPER);
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(a, 1));
    EXPECT_TRUE(verify_pattern(b, 2));
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(Paranoid, CatchesSizeMismatch) {
  Session session(config_for(GetParam(), /*paranoid=*/true));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(1000, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data);
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(999);  // wrong size
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "paranoid");
}

TEST_P(Paranoid, CatchesReceiveModeMismatch) {
  Session session(config_for(GetParam(), /*paranoid=*/true));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(64, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data, send_CHEAPER, receive_CHEAPER);
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(64);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out, send_CHEAPER, receive_EXPRESS);  // wrong mode
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "paranoid");
}

TEST_P(Paranoid, CatchesSendModeMismatch) {
  Session session(config_for(GetParam(), /*paranoid=*/true));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(64, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data, send_SAFER, receive_EXPRESS);
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(64);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out, send_CHEAPER, receive_EXPRESS);  // wrong send mode
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "paranoid");
}

// ------------------------------------------------------------ API misuse ---

TEST(Misuse, PackWithoutBeginPackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch").connection(1);
    std::byte b{1};
    conn.pack(std::span(&b, 1));
  });
  EXPECT_DEATH({ (void)session.run(); }, "pack outside");
}

TEST(Misuse, DoubleBeginPackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    rt.channel("ch").begin_packing(1);
    rt.channel("ch").begin_packing(1);
  });
  EXPECT_DEATH({ (void)session.run(); }, "already open");
}

TEST(Misuse, EndPackingWithoutBeginAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    rt.channel("ch").connection(1).end_packing();
  });
  EXPECT_DEATH({ (void)session.run(); }, "without begin_packing");
}

TEST(Misuse, UnpackWithoutBeginUnpackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    std::byte b;
    rt.channel("ch").connection(1).unpack(std::span(&b, 1));
  });
  EXPECT_DEATH({ (void)session.run(); }, "unpack outside");
}

TEST(Misuse, PackAfterEndPackingAborts) {
  // Pack-after-commit: once the message is committed (end_packing), the
  // connection must reject further pack calls until a new begin_packing.
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(16, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data);
    conn.end_packing();
    conn.pack(data);  // message already committed
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(16);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "pack outside");
}

TEST(Misuse, DoubleEndPackingAborts) {
  // The double-teardown case: channels are session-owned (there is no
  // separate free call), so releasing the same message twice is the
  // analogous misuse.
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(16, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data);
    conn.end_packing();
    conn.end_packing();  // already committed
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(16);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "without begin_packing");
}

TEST(Misuse, DoubleBeginUnpackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "s", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(16, 1);
    for (int i = 0; i < 2; ++i) {
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(data);
      conn.end_packing();
    }
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    (void)rt.channel("ch").begin_unpacking();
    (void)rt.channel("ch").begin_unpacking();  // first message still open
  });
  EXPECT_DEATH({ (void)session.run(); }, "already open");
}

TEST(Misuse, UnpackAfterEndUnpackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "s", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(16, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data);
    conn.end_packing();
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(16);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
    conn.unpack(out);  // message already checked out
  });
  EXPECT_DEATH({ (void)session.run(); }, "unpack outside");
}

TEST(Misuse, DoubleEndUnpackingAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "s", [&](NodeRuntime& rt) {
    auto data = make_pattern_buffer(16, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(data);
    conn.end_packing();
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(16);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out);
    conn.end_unpacking();
    conn.end_unpacking();  // already checked out
  });
  EXPECT_DEATH({ (void)session.run(); }, "without begin_unpacking");
}

TEST(Misuse, BeginPackingToUnknownNodeAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    rt.channel("ch").begin_packing(7);
  });
  EXPECT_DEATH({ (void)session.run(); }, "no connection");
}

TEST(Misuse, BeginPackingToSelfAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    rt.channel("ch").begin_packing(0);
  });
  EXPECT_DEATH({ (void)session.run(); }, "no connection");
}

TEST(Misuse, ConnectionToNonMemberOrSelfAborts) {
  // Connections are built on first use; asking for one to a session node
  // outside the channel, or to the local node, still aborts with the text
  // it had when every connection was built at setup, and builds nothing.
  SessionConfig config = config_for(NetworkKind::kTcp, false);
  config.node_count = 3;  // node 2 is not attached to net0
  Session session(std::move(config));
  ChannelEndpoint& endpoint = session.endpoint("ch", 0);
  EXPECT_DEATH((void)endpoint.connection(2),
               "no connection to that node on this channel");
  EXPECT_DEATH((void)endpoint.connection(0),
               "no connection to that node on this channel");
  EXPECT_EQ(endpoint.connection_count(), 0u);
}

TEST(Misuse, UnknownChannelNameAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  session.spawn(0, "f", [&](NodeRuntime& rt) {
    (void)rt.channel("nope");
  });
  EXPECT_DEATH({ (void)session.run(); }, "unknown channel");
}

TEST(Misuse, NetworkReferencingUnknownNodeAborts) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "net0";
  net.kind = NetworkKind::kTcp;
  net.nodes = {0, 5};  // node 5 does not exist
  config.networks.push_back(net);
  EXPECT_DEATH({ Session session(std::move(config)); }, "unknown node");
}

// Ports are numbered in list order, so a repeated node would build a port
// that belongs to no node. The config parser rejects it with the same word.
TEST(Misuse, NetworkListingANodeTwiceAborts) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "net0";
  net.kind = NetworkKind::kTcp;
  net.nodes = {0, 1, 1};
  config.networks.push_back(net);
  EXPECT_DEATH({ Session session(std::move(config)); }, "listed twice");
}

TEST(Misuse, ChannelOnUnknownNetworkAborts) {
  SessionConfig config;
  config.node_count = 2;
  config.channels.push_back(ChannelDef{"ch", "ghost"});
  EXPECT_DEATH({ Session session(std::move(config)); }, "unknown network");
}

TEST(Misuse, EndpointForNonMemberNodeAborts) {
  SessionConfig config;
  config.node_count = 3;
  NetworkDef net;
  net.name = "net0";
  net.kind = NetworkKind::kTcp;
  net.nodes = {0, 1};  // node 2 is not attached
  config.networks.push_back(net);
  config.channels.push_back(ChannelDef{"ch", "net0"});
  Session session(std::move(config));
  session.spawn(2, "f", [&](NodeRuntime& rt) { (void)rt.channel("ch"); });
  EXPECT_DEATH({ (void)session.run(); }, "not a member");
}

// Without paranoid mode, an asymmetric sequence on a static-buffer TM is
// still caught by the BMM's buffer accounting (a weaker, later check).
TEST(Misuse, StaticBufferAccountingCatchesGrossAsymmetry) {
  Session session(config_for(NetworkKind::kBip, false));
  session.spawn(0, "sender", [&](NodeRuntime& rt) {
    auto a = make_pattern_buffer(100, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(a, send_CHEAPER, receive_EXPRESS);
    conn.end_packing();
  });
  session.spawn(1, "receiver", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(60);  // shorter than the packed block
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(out, send_CHEAPER, receive_EXPRESS);
    conn.end_unpacking();
  });
  EXPECT_DEATH({ (void)session.run(); }, "asymmetric");
}

// A network's params must be of its own kind's type: a BIP network given
// TCP params aborts instead of running on the BIP preset.
TEST(Misuse, ParamsOfAnotherKindAbort) {
  SessionConfig config = config_for(NetworkKind::kBip, false);
  config.networks[0].params = net::TcpParams::fast_ethernet();
  EXPECT_DEATH({ Session session(std::move(config)); },
               "params belong to another kind");
}

// Failure triage is for failures: reporting a healthy link (OK status)
// into route_network_failure is a driver bug, not a routable event.
TEST(Misuse, RouteNetworkFailureWithOkStatusAborts) {
  Session session(config_for(NetworkKind::kTcp, false));
  NetworkFailure report;
  report.network = &session.network("net0");
  report.status = Status::ok();
  report.src_node = 0;
  report.dst_node = 1;
  EXPECT_DEATH({ (void)session.route_network_failure(report); },
               "OK status");
}

}  // namespace
}  // namespace mad2::mad
