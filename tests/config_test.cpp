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

TEST(ConfigParser, ParsesIbOptions) {
  auto result = parse_session_config(R"(
nodes 2
network plain ib 0 1
network n ib 0 1 qp_depth=8 regcache_capacity=0
channel c n eager_cutoff=128 paranoid
channel d plain
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const SessionConfig& config = result.value();
  const std::vector<NetworkDef>& networks = config.networks;
  EXPECT_TRUE(std::holds_alternative<std::monostate>(networks[0].params));
  ASSERT_TRUE(std::holds_alternative<net::IbParams>(networks[1].params));
  const net::IbParams& params = std::get<net::IbParams>(networks[1].params);
  EXPECT_EQ(params.qp_depth, 8u);
  EXPECT_EQ(params.regcache_capacity, 0u);
  // Options left unset keep the adapter preset.
  EXPECT_EQ(params.fabric.wire_mbs,
            net::IbParams::mellanox_like().fabric.wire_mbs);
  ASSERT_TRUE(config.channels[0].ib_options.has_value());
  EXPECT_EQ(config.channels[0].ib_options->eager_cutoff, 128u);
  EXPECT_TRUE(config.channels[0].paranoid);
  EXPECT_FALSE(config.channels[1].ib_options.has_value());
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

// Every parser error, pinned in full: one case per message the parser can
// produce, so a rewrite of the parser cannot drift a single byte.
struct FullMessageCase {
  std::string text;
  std::string message;
};

void PrintTo(const FullMessageCase& c, std::ostream* os) { *os << c.message; }

std::string full_message_case_name(
    const testing::TestParamInfo<FullMessageCase>& info) {
  return (info.index < 10 ? "case0" : "case") + std::to_string(info.index);
}

// Two TCP networks over the same nodes, one channel on each (lines 1-5).
constexpr const char* kTwoRails =
    "nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\nchannel a n\n"
    "channel b m\n";

// One more rail than a set may hold, each on its own network.
std::string thirty_three_rails() {
  std::string text = "nodes 2\n";
  std::string rails = "rails r";
  for (int k = 0; k < 33; ++k) {
    const std::string id = std::to_string(k);
    text += "network n" + id + " tcp 0 1\nchannel c" + id + " n" + id + "\n";
    rails += " c" + id;
  }
  return text + rails + "\n";
}

class ConfigMessages : public testing::TestWithParam<FullMessageCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, ConfigMessages,
    testing::Values(
        // nodes
        FullMessageCase{"nodes 2\nnodes 2\n",
                        "config line 2: duplicate 'nodes'"},
        FullMessageCase{"nodes\n", "config line 1: usage: nodes N"},
        FullMessageCase{"nodes 0\n", "config line 1: invalid node count '0'"},
        // network
        FullMessageCase{"network n tcp 0\n",
                        "config line 1: 'nodes' must come before 'network'"},
        FullMessageCase{
            "nodes 2\nnetwork n tcp\n",
            "config line 2: usage: network NAME KIND NODE [NODE...]"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nnetwork n tcp 0 1\n",
                        "config line 3: duplicate network name 'n'"},
        FullMessageCase{"nodes 2\nnetwork n quantum 0 1\n",
                        "config line 2: unknown network kind 'quantum'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1 qp_depth=4\n",
                        "config line 2: network option 'qp_depth=4' is only "
                        "valid for kind 'ib'"},
        FullMessageCase{"nodes 2\nnetwork n ib 0 1 qp_depth=0\n",
                        "config line 2: invalid qp_depth 'qp_depth=0' (send "
                        "queue depth and eager credit window; must be "
                        "positive)"},
        FullMessageCase{"nodes 2\nnetwork n ib 0 1 regcache_capacity=-1\n",
                        "config line 2: invalid regcache_capacity "
                        "'regcache_capacity=-1' (0 disables the registration "
                        "cache)"},
        FullMessageCase{"nodes 2\nnetwork n ib 0 1 mtu=4096\n",
                        "config line 2: unknown ib option 'mtu=4096' "
                        "(expected qp_depth=, regcache_capacity=)"},
        FullMessageCase{"nodes 2\nnetwork n ib 0 qp_depth=8 1\n",
                        "config line 2: node ids must precede ib options"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 one\n",
                        "config line 2: invalid node id 'one'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 5\n",
                        "config line 2: node 5 is out of range"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 0\n",
                        "config line 2: node 0 listed twice"},
        FullMessageCase{"nodes 2\nnetwork n ib qp_depth=8\n",
                        "config line 2: network lists no nodes"},
        // channel
        FullMessageCase{"nodes 2\nchannel c\n",
                        "config line 2: usage: channel NAME NETWORK "
                        "[paranoid] [eager_cutoff=N]"},
        FullMessageCase{
            "nodes 2\nnetwork n tcp 0 1\nchannel c n\nchannel c n\n",
            "config line 4: duplicate channel name 'c'"},
        FullMessageCase{"nodes 2\nchannel c ghost\n",
                        "config line 2: unknown network 'ghost'"},
        FullMessageCase{
            "nodes 2\nnetwork n tcp 0 1\nchannel c n eager_cutoff=128\n",
            "config line 3: eager_cutoff= is only valid on ib channels"},
        FullMessageCase{
            "nodes 2\nnetwork n ib 0 1\nchannel c n eager_cutoff=63\n",
            "config line 3: invalid eager_cutoff 'eager_cutoff=63' (must be "
            "at least 64 bytes)"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n turbo\n",
                        "config line 3: unknown channel option 'turbo'"},
        // rails
        FullMessageCase{"nodes 2\nrails r\n",
                        "config line 2: usage: rails NAME CHANNEL CHANNEL "
                        "[CHANNEL...] [threshold=N]"},
        FullMessageCase{std::string(kTwoRails) + "rails r a b\nrails r b a\n",
                        "config line 7: duplicate rail set name 'r'"},
        FullMessageCase{std::string(kTwoRails) + "rails r a threshold=4096 b\n",
                        "config line 6: threshold= must come last"},
        FullMessageCase{std::string(kTwoRails) + "rails r a b threshold=0\n",
                        "config line 6: invalid stripe threshold "
                        "'threshold=0'"},
        FullMessageCase{std::string(kTwoRails) + "rails r a ghost\n",
                        "config line 6: unknown channel 'ghost'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                        "channel a n paranoid\nchannel b m\nrails r a b\n",
                        "config line 6: channel 'a' is paranoid: its check "
                        "blocks would interleave with striped segments"},
        FullMessageCase{std::string(kTwoRails) + "rails r a a\n",
                        "config line 6: channel 'a' listed twice"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nnetwork m tcp 0 1\n"
                        "network o tcp 0 1\nchannel a n\nchannel b m\n"
                        "channel c o\nrails r a b\nrails s b c\n",
                        "config line 9: channel 'b' already belongs to rail "
                        "set 'r'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel a n\nchannel b n\n"
                        "rails r a b\n",
                        "config line 5: channels 'a' and 'b' share network "
                        "'n': striping over one adapter adds no bandwidth"},
        FullMessageCase{"nodes 3\nnetwork n tcp 0 1\nnetwork m tcp 1 2\n"
                        "channel a n\nchannel b m\nrails r a b\n",
                        "config line 6: channels 'a' and 'b' span different "
                        "node sets"},
        FullMessageCase{std::string(kTwoRails) + "rails r a threshold=4096\n",
                        "config line 6: a rail set needs at least two member "
                        "channels"},
        FullMessageCase{thirty_three_rails(),
                        "config line 68: at most 32 rails per set"},
        // congestion
        FullMessageCase{"nodes 2\ncongestion\ncongestion\n",
                        "config line 3: duplicate 'congestion'"},
        FullMessageCase{"nodes 2\ncongestion window=0\n",
                        "config line 2: invalid congestion window "
                        "'window=0'"},
        FullMessageCase{"nodes 2\ncongestion min_window=0\n",
                        "config line 2: invalid congestion min_window "
                        "'min_window=0' (a zero minimum would starve the "
                        "flow forever)"},
        FullMessageCase{"nodes 2\ncongestion max_window=0\n",
                        "config line 2: invalid congestion max_window "
                        "'max_window=0'"},
        FullMessageCase{"nodes 2\ncongestion gain=0\n",
                        "config line 2: invalid congestion gain 'gain=0' "
                        "(must be positive)"},
        FullMessageCase{"nodes 2\ncongestion decrease=1\n",
                        "config line 2: invalid congestion decrease "
                        "'decrease=1' (must be in (0, 1))"},
        FullMessageCase{"nodes 2\ncongestion backlog=1\n",
                        "config line 2: invalid congestion backlog "
                        "'backlog=1' (must be > 1: smoothed delay at the "
                        "observed floor is not congestion)"},
        FullMessageCase{"nodes 2\ncongestion quantum=0\n",
                        "config line 2: invalid congestion quantum "
                        "'quantum=0'"},
        FullMessageCase{"nodes 2\ncongestion gateway_queue=0\n",
                        "config line 2: invalid congestion gateway_queue "
                        "'gateway_queue=0'"},
        FullMessageCase{"nodes 2\ncongestion turbo=1\n",
                        "config line 2: unknown congestion option 'turbo=1' "
                        "(expected window=, min_window=, max_window=, gain=, "
                        "decrease=, backlog=, quantum=, gateway_queue=)"},
        FullMessageCase{"nodes 2\ncongestion min_window=4 max_window=2\n",
                        "config line 2: congestion max_window is below "
                        "min_window"},
        FullMessageCase{"nodes 2\ncongestion window=16 max_window=8\n",
                        "config line 2: congestion window is outside "
                        "[min_window, max_window]"},
        // topology
        FullMessageCase{"nodes 2\ntopology\ntopology\n",
                        "config line 3: duplicate 'topology'"},
        FullMessageCase{"nodes 2\ntopology salt=pepper\n",
                        "config line 2: invalid topology salt 'salt=pepper'"},
        FullMessageCase{"nodes 2\ntopology replay_quota=0\n",
                        "config line 2: invalid topology replay_quota "
                        "'replay_quota=0' (a zero quota could never admit a "
                        "packet)"},
        FullMessageCase{"nodes 2\ntopology turbo=1\n",
                        "config line 2: unknown topology option 'turbo=1' "
                        "(expected salt=, replay_quota=)"},
        // trace
        FullMessageCase{"nodes 2\ntrace\ntrace\n",
                        "config line 3: duplicate 'trace'"},
        FullMessageCase{"nodes 2\ntrace categories=bogus\n",
                        "config line 2: invalid trace categories "
                        "'categories=bogus'"},
        FullMessageCase{"nodes 2\ntrace ring_kb=0\n",
                        "config line 2: invalid trace ring size 'ring_kb=0'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\n"
                        "trace channels=c,\n",
                        "config line 4: invalid trace channel list "
                        "'channels=c,'"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\n"
                        "trace channels=c,ghost\n",
                        "config line 4: unknown channel 'ghost' in trace"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\n"
                        "trace slo=c\n",
                        "config line 4: invalid trace slo rule 'c' (expected "
                        "<channel>:<p99_us>)"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\n"
                        "trace slo=c:0\n",
                        "config line 4: invalid trace slo threshold in 'c:0' "
                        "(want a positive microsecond count)"},
        FullMessageCase{"nodes 2\nnetwork n tcp 0 1\nchannel c n\n"
                        "trace slo=c:50,ghost:50\n",
                        "config line 4: unknown channel 'ghost' in trace "
                        "slo"},
        FullMessageCase{"nodes 2\ntrace turbo\n",
                        "config line 2: unknown trace option 'turbo' "
                        "(expected categories=, ring_kb=, channels=, "
                        "propagation, slo=)"},
        // directives
        FullMessageCase{"nodes 2\nfrobnicate\n",
                        "config line 2: unknown directive 'frobnicate'"},
        FullMessageCase{"", "config: missing 'nodes'"},
        // NaN compares false to every bound, so each predicate must state
        // the range it accepts rather than negate the one it rejects.
        FullMessageCase{"nodes 2\ncongestion gain=nan\n",
                        "config line 2: invalid congestion gain 'gain=nan' "
                        "(must be positive)"},
        FullMessageCase{"nodes 2\ncongestion decrease=nan\n",
                        "config line 2: invalid congestion decrease "
                        "'decrease=nan' (must be in (0, 1))"},
        FullMessageCase{"nodes 2\ncongestion backlog=nan\n",
                        "config line 2: invalid congestion backlog "
                        "'backlog=nan' (must be > 1: smoothed delay at the "
                        "observed floor is not congestion)"},
        // kCustom networks carry their own factory: no config names one.
        FullMessageCase{"nodes 2\nnetwork n custom 0 1\n",
                        "config line 2: unknown network kind 'custom'"}),
    full_message_case_name);

TEST_P(ConfigMessages, MatchInFull) {
  auto result = parse_session_config(GetParam().text);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), GetParam().message);
}

TEST(ConfigParser, EveryBuiltInKindNameMapsBackToItsKind) {
  for (NetworkKind kind :
       {NetworkKind::kBip, NetworkKind::kSisci, NetworkKind::kTcp,
        NetworkKind::kVia, NetworkKind::kSbp, NetworkKind::kIb}) {
    const std::string name(to_string(kind));
    auto result =
        parse_session_config("nodes 2\nnetwork n " + name + " 0 1\n");
    ASSERT_TRUE(result.is_ok()) << name << ": "
                                << result.status().to_string();
    EXPECT_EQ(result.value().networks[0].kind, kind) << name;
  }
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
