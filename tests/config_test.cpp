// Tests for the session config parser and the traffic statistics.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mad/config_parser.hpp"
#include "mad/madeleine.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

TEST(ConfigParser, ParsesAFullCluster) {
  const char* text = R"(
# the paper's testbed
nodes 4

network myri0 bip   0 1 2 3
network sci0  sisci 0 1
network eth0  tcp   0 1 2 3   # control network

channel bulk myri0
channel ctl  eth0 paranoid
)";
  auto result = parse_session_config(text);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const SessionConfig& config = result.value();
  EXPECT_EQ(config.node_count, 4u);
  ASSERT_EQ(config.networks.size(), 3u);
  EXPECT_EQ(config.networks[0].name, "myri0");
  EXPECT_EQ(config.networks[0].kind, NetworkKind::kBip);
  EXPECT_EQ(config.networks[0].nodes,
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(config.networks[1].kind, NetworkKind::kSisci);
  EXPECT_EQ(config.networks[1].nodes, (std::vector<std::uint32_t>{0, 1}));
  ASSERT_EQ(config.channels.size(), 2u);
  EXPECT_EQ(config.channels[0].name, "bulk");
  EXPECT_FALSE(config.channels[0].paranoid);
  EXPECT_EQ(config.channels[1].network, "eth0");
  EXPECT_TRUE(config.channels[1].paranoid);
}

TEST(ConfigParser, ParsesRailSets) {
  auto result = parse_session_config(R"(
nodes 2
network myri0 bip 0 1
network eth0  tcp 0 1
channel bulk myri0
channel aux  eth0
rails fat bulk aux threshold=131072
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const SessionConfig& config = result.value();
  ASSERT_EQ(config.rail_sets.size(), 1u);
  EXPECT_EQ(config.rail_sets[0].name, "fat");
  EXPECT_EQ(config.rail_sets[0].channels,
            (std::vector<std::string>{"bulk", "aux"}));
  EXPECT_EQ(config.rail_sets[0].stripe_threshold, 131072u);
}

TEST(ConfigParser, ParsesCongestionStanza) {
  auto result = parse_session_config(R"(
nodes 2
network n tcp 0 1
channel c n
congestion window=8 min_window=2 max_window=32 gain=0.5 decrease=0.25 backlog=3.0 quantum=8192 gateway_queue=16
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const SessionConfig& config = result.value();
  ASSERT_TRUE(config.congestion.has_value());
  const CongestionConfig& cc = *config.congestion;
  EXPECT_TRUE(cc.enabled);
  EXPECT_EQ(cc.init_window, 8u);
  EXPECT_EQ(cc.min_window, 2u);
  EXPECT_EQ(cc.max_window, 32u);
  EXPECT_DOUBLE_EQ(cc.gain, 0.5);
  EXPECT_DOUBLE_EQ(cc.decrease, 0.25);
  EXPECT_DOUBLE_EQ(cc.backlog_factor, 3.0);
  EXPECT_EQ(cc.quantum, 8192u);
  EXPECT_EQ(cc.gateway_queue, 16u);
}

TEST(ConfigParser, BareCongestionStanzaEnablesDefaults) {
  auto result = parse_session_config(R"(
nodes 2
network n tcp 0 1
channel c n
congestion
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_TRUE(result.value().congestion.has_value());
  const CongestionConfig& cc = *result.value().congestion;
  const CongestionConfig defaults;
  EXPECT_TRUE(cc.enabled);
  // window=0 means "seed from the driver's bandwidth hint".
  EXPECT_EQ(cc.init_window, 0u);
  EXPECT_EQ(cc.min_window, defaults.min_window);
  EXPECT_EQ(cc.max_window, defaults.max_window);
  EXPECT_DOUBLE_EQ(cc.gain, defaults.gain);
  EXPECT_DOUBLE_EQ(cc.decrease, defaults.decrease);
  EXPECT_DOUBLE_EQ(cc.backlog_factor, defaults.backlog_factor);
  EXPECT_EQ(cc.quantum, defaults.quantum);
  EXPECT_EQ(cc.gateway_queue, defaults.gateway_queue);
}

TEST(ConfigParser, NoCongestionStanzaLeavesItDisabled) {
  auto result = parse_session_config("nodes 2\nnetwork n tcp 0 1\n");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().congestion.has_value());
}

TEST(ConfigParser, ParsesTopologyStanza) {
  auto result = parse_session_config(R"(
nodes 2
network n tcp 0 1
channel c n
topology salt=42 replay_quota=256
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const SessionConfig& config = result.value();
  ASSERT_TRUE(config.topology.has_value());
  EXPECT_TRUE(config.topology->enabled);
  EXPECT_EQ(config.topology->spread_salt, 42u);
  EXPECT_EQ(config.topology->replay_quota, 256u);
}

TEST(ConfigParser, BareTopologyStanzaEnablesDefaults) {
  auto result = parse_session_config(R"(
nodes 2
network n tcp 0 1
channel c n
topology
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_TRUE(result.value().topology.has_value());
  const TopologyConfig defaults;
  EXPECT_TRUE(result.value().topology->enabled);
  EXPECT_EQ(result.value().topology->spread_salt, defaults.spread_salt);
  EXPECT_EQ(result.value().topology->replay_quota, defaults.replay_quota);
}

TEST(ConfigParser, NoTopologyStanzaLeavesItDisabled) {
  auto result = parse_session_config("nodes 2\nnetwork n tcp 0 1\n");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().topology.has_value());
}

TEST(ConfigParser, ParsedConfigRunsASession) {
  auto result = parse_session_config(R"(
nodes 2
network n0 sisci 0 1
channel ch n0
)");
  ASSERT_TRUE(result.is_ok());
  Session session(std::move(result.value()));
  session.spawn(0, "s", [&](NodeRuntime& rt) {
    auto payload = make_pattern_buffer(1000, 1);
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(payload);
    conn.end_packing();
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    auto& conn = rt.channel("ch").begin_unpacking();
    std::vector<std::byte> out(1000);
    conn.unpack(out);
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(out, 1));
  });
  EXPECT_TRUE(session.run().is_ok());
}

struct BadCase {
  const char* text;
  const char* expected;
};

// The default printer shows a BadCase as its two pointer values, which
// differ from run to run; print the expected message instead.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.expected; }

// "case07": gtest would name a case by its bare index, and the ctest
// discovery script then swaps that index for the printed parameter.
std::string bad_case_name(const testing::TestParamInfo<BadCase>& info) {
  return (info.index < 10 ? "case0" : "case") + std::to_string(info.index);
}

class ConfigErrors : public testing::TestWithParam<BadCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, ConfigErrors,
    testing::Values(
        BadCase{"network n tcp 0\n", "'nodes' must come before"},
        BadCase{"nodes 0\n", "invalid node count"},
        BadCase{"nodes two\n", "invalid node count"},
        BadCase{"nodes 2\nnodes 2\n", "duplicate 'nodes'"},
        BadCase{"nodes 2\nnetwork n quantum 0 1\n", "unknown network kind"},
        BadCase{"nodes 2\nnetwork n tcp 0 5\n", "out of range"},
        BadCase{"nodes 2\nnetwork n tcp 0 0\n", "listed twice"},
        BadCase{"nodes 2\nnetwork n tcp\n", "usage: network"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork n tcp 0 1\n",
                "duplicate network name"},
        BadCase{"nodes 2\nchannel c ghost\n", "unknown network"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n turbo\n",
                "unknown channel option"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\nchannel c n\n",
                "duplicate channel name"},
        BadCase{"nodes 2\nfrobnicate\n", "unknown directive"},
        BadCase{"", "missing 'nodes'"},
        // Arity and overflow paths:
        BadCase{"nodes 2 3\n", "usage: nodes N"},
        BadCase{"nodes\n", "usage: nodes N"},
        BadCase{"nodes -1\n", "invalid node count"},
        BadCase{"nodes 4294967296\n", "invalid node count"},  // > uint32
        BadCase{"nodes 2\nnetwork n tcp 0 one\n", "invalid node id"},
        BadCase{"nodes 2\nnetwork n tcp 0 4294967296\n", "invalid node id"},
        BadCase{"nodes 2\nchannel c\n", "usage: channel"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n paranoid extra\n",
                "unknown channel option"},
        // Rail-set stanza misuse: contradictory sets must be rejected at
        // parse time with an explanation, not die in the scheduler.
        BadCase{"nodes 2\nrails r\n", "usage: rails"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nchannel a n\nrails r a\n",
                "usage: rails"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a ghost\n",
                "unknown channel 'ghost'"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a b\nrails r b a\n",
                "duplicate rail set name"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a a\n",
                "listed twice"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "network o tcp 0 1\nchannel a n\nchannel b m\nchannel c o\n"
                "rails r a b\nrails s b c\n",
                "already belongs to rail set 'r'"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n paranoid\nchannel b m\nrails r a b\n",
                "is paranoid"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nchannel a n\nchannel b n\n"
                "rails r a b\n",
                "share network 'n'"},
        BadCase{"nodes 3\nnetwork n tcp 0 1\nnetwork m tcp 1 2\n"
                "channel a n\nchannel b m\nrails r a b\n",
                "span different node sets"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a b threshold=0\n",
                "invalid stripe threshold"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a b threshold=many\n",
                "invalid stripe threshold"},
        BadCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                "channel a n\nchannel b m\nrails r a threshold=4096 b\n",
                "threshold= must come last"},
        // Congestion stanza misuse: contradictory window arithmetic is a
        // parse-time error, never something the AIMD loop clamps around.
        BadCase{"nodes 2\ncongestion\ncongestion\n",
                "duplicate 'congestion'"},
        BadCase{"nodes 2\ncongestion window=0\n",
                "invalid congestion window"},
        BadCase{"nodes 2\ncongestion window=wide\n",
                "invalid congestion window"},
        BadCase{"nodes 2\ncongestion min_window=0\n",
                "invalid congestion min_window"},
        BadCase{"nodes 2\ncongestion max_window=0\n",
                "invalid congestion max_window"},
        BadCase{"nodes 2\ncongestion gain=0\n",
                "invalid congestion gain"},
        BadCase{"nodes 2\ncongestion gain=-0.5\n",
                "invalid congestion gain"},
        BadCase{"nodes 2\ncongestion decrease=0\n",
                "invalid congestion decrease"},
        BadCase{"nodes 2\ncongestion decrease=1\n",
                "invalid congestion decrease"},
        BadCase{"nodes 2\ncongestion backlog=1\n",
                "invalid congestion backlog"},
        BadCase{"nodes 2\ncongestion quantum=0\n",
                "invalid congestion quantum"},
        BadCase{"nodes 2\ncongestion gateway_queue=0\n",
                "invalid congestion gateway_queue"},
        BadCase{"nodes 2\ncongestion turbo=1\n",
                "unknown congestion option"},
        BadCase{"nodes 2\ncongestion min_window=4 max_window=2\n",
                "max_window is below min_window"},
        BadCase{"nodes 2\ncongestion window=16 max_window=8\n",
                "outside"},
        // Topology stanza misuse.
        BadCase{"nodes 2\ntopology\ntopology\n", "duplicate 'topology'"},
        BadCase{"nodes 2\ntopology salt=pepper\n", "invalid topology salt"},
        BadCase{"nodes 2\ntopology replay_quota=0\n",
                "invalid topology replay_quota"},
        BadCase{"nodes 2\ntopology replay_quota=lots\n",
                "invalid topology replay_quota"},
        BadCase{"nodes 2\ntopology turbo=1\n",
                "unknown topology option"}),
    bad_case_name);

TEST_P(ConfigErrors, AreReportedWithContext) {
  auto result = parse_session_config(GetParam().text);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(GetParam().expected),
            std::string::npos)
      << result.status().message();
}

TEST(ConfigParser, ErrorsCarryLineNumbers) {
  auto result = parse_session_config("nodes 2\n\n\nbogus\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos);
}

TEST(ConfigParser, CommentsAndBlankLinesAreIgnoredEverywhere) {
  auto result = parse_session_config(R"(
# leading comment

nodes 2   # trailing comment
   # indented comment
network n tcp 0 1 # nodes follow
channel c n # done

)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().node_count, 2u);
  ASSERT_EQ(result.value().networks.size(), 1u);
  EXPECT_EQ(result.value().networks[0].nodes,
            (std::vector<std::uint32_t>{0, 1}));
  ASSERT_EQ(result.value().channels.size(), 1u);
}

// ------------------------------------------------------------ statistics ---

TEST(TrafficStats, CountsBlocksAndBytesPerTm) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "n";
  net.kind = NetworkKind::kBip;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  config.channels.push_back(ChannelDef{"ch", "n"});
  Session session(std::move(config));
  session.spawn(0, "s", [&](NodeRuntime& rt) {
    auto small = make_pattern_buffer(100, 1);   // BIP short TM
    auto large = make_pattern_buffer(50000, 2); // BIP long TM
    auto& conn = rt.channel("ch").begin_packing(1);
    conn.pack(small);
    conn.pack(large);
    conn.end_packing();
  });
  session.spawn(1, "r", [&](NodeRuntime& rt) {
    std::vector<std::byte> small(100);
    std::vector<std::byte> large(50000);
    auto& conn = rt.channel("ch").begin_unpacking();
    conn.unpack(small);
    conn.unpack(large);
    conn.end_unpacking();
  });
  ASSERT_TRUE(session.run().is_ok());

  const TrafficStats sender = session.endpoint("ch", 0).stats();
  EXPECT_EQ(sender.messages_sent, 1u);
  EXPECT_EQ(sender.messages_received, 0u);
  ASSERT_TRUE(sender.sent_by_tm.count("bip-short"));
  ASSERT_TRUE(sender.sent_by_tm.count("bip-long"));
  EXPECT_EQ(sender.sent_by_tm.at("bip-short").blocks, 1u);
  EXPECT_EQ(sender.sent_by_tm.at("bip-short").bytes, 100u);
  EXPECT_EQ(sender.sent_by_tm.at("bip-long").blocks, 1u);
  EXPECT_EQ(sender.sent_by_tm.at("bip-long").bytes, 50000u);

  const TrafficStats receiver = session.endpoint("ch", 1).stats();
  EXPECT_EQ(receiver.messages_received, 1u);
  EXPECT_EQ(receiver.received_by_tm.at("bip-long").bytes, 50000u);

  // The printable summary mentions both TMs.
  const std::string text = sender.to_string();
  EXPECT_NE(text.find("bip-short"), std::string::npos);
  EXPECT_NE(text.find("bip-long"), std::string::npos);
}

TEST(TrafficStats, MergeAggregates) {
  TrafficStats a;
  a.messages_sent = 2;
  a.sent_by_tm["x"].blocks = 3;
  a.sent_by_tm["x"].bytes = 300;
  TrafficStats b;
  b.messages_sent = 1;
  b.sent_by_tm["x"].blocks = 1;
  b.sent_by_tm["x"].bytes = 50;
  b.received_by_tm["y"].blocks = 7;
  a.merge(b);
  EXPECT_EQ(a.messages_sent, 3u);
  EXPECT_EQ(a.sent_by_tm["x"].blocks, 4u);
  EXPECT_EQ(a.sent_by_tm["x"].bytes, 350u);
  EXPECT_EQ(a.received_by_tm["y"].blocks, 7u);
}

}  // namespace
}  // namespace mad2::mad
