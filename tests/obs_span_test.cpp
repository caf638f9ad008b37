// Cross-node causal tracing tests: hop-stamp encoding round trips, the
// SpanWeaver (hand-made rings and a real 3-channel forwarding session),
// per-hop latency attribution under fault-injected jitter, the SLO
// watchdog's weaved auto-dump, and the madreport cluster aggregation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/madeleine.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span_weaver.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace mad2 {
namespace {

// CI exports MAD2_TRACE for whole test steps; this suite manages
// recorders and dump directories by hand and needs a clean slate.
class CleanTraceEnv : public testing::Environment {
 public:
  void SetUp() override {
    unsetenv(obs::kTraceEnvVar);
    unsetenv(obs::kTraceRingEnvVar);
    unsetenv(obs::kTraceDumpEnvVar);
  }
};
const testing::Environment* const kCleanEnv =
    testing::AddGlobalTestEnvironment(new CleanTraceEnv);

// ------------------------------------------------------- arg encoding ---

TEST(HopEncoding, FlowIdRoundTrip) {
  const std::uint64_t id = obs::flow_id(3, 200);
  EXPECT_EQ(obs::flow_src(id), 3u);
  EXPECT_EQ(obs::flow_dst(id), 200u);
  // Distinct directions encode distinctly.
  EXPECT_NE(obs::flow_id(3, 200), obs::flow_id(200, 3));
}

TEST(HopEncoding, HopArgRoundTripAndSeqTruncation) {
  const obs::HopArg arg = obs::decode_hop_arg(obs::hop_arg(77, 1023, 5));
  EXPECT_EQ(arg.seq, 77u);
  EXPECT_EQ(arg.node, 1023u);
  EXPECT_EQ(arg.hop, 5u);
  // The sequence rides in 32 bits: grouping needs locality, not the full
  // counter, so bit 32 and above must drop without disturbing the rest.
  const std::uint64_t big_seq = (1ull << 32) | 5ull;
  const obs::HopArg truncated =
      obs::decode_hop_arg(obs::hop_arg(big_seq, 7, 2));
  EXPECT_EQ(truncated.seq, 5u);
  EXPECT_EQ(truncated.node, 7u);
  EXPECT_EQ(truncated.hop, 2u);
}

// ------------------------------------------------- offline span weaving ---

/// Hand-made ring: packet (2->9, seq 7) crossing three hops, a partial
/// packet (2->9, seq 8) that only stamped its sender hop, and a one-hop
/// packet on a different flow (1->9, seq 0).
std::vector<obs::TraceEvent> hand_made_hop_events() {
  using obs::Category;
  const std::uint64_t flow29 = obs::flow_id(2, 9);
  const std::uint64_t flow19 = obs::flow_id(1, 9);
  std::vector<obs::TraceEvent> events;
  // Deliberately out of hop / packet order: delivery-time replay batches
  // events, so the weaver must not rely on ring order.
  events.push_back({4000, 1000, 0, obs::kHopQueueEvent, nullptr, flow29,
                    obs::hop_arg(7, 5, 1), Category::kFwd});
  events.push_back({1000, 500, 0, obs::kHopQueueEvent, nullptr, flow29,
                    obs::hop_arg(7, 2, 0), Category::kFwd});
  events.push_back({8000, 0, 0, obs::kHopQueueEvent, nullptr, flow29,
                    obs::hop_arg(7, 9, 2), Category::kFwd});
  events.push_back({5000, 3000, 0, obs::kHopWireEvent, nullptr, flow29,
                    obs::hop_arg(7, 5, 1), Category::kFwd});
  events.push_back({1500, 2500, 0, obs::kHopWireEvent, nullptr, flow29,
                    obs::hop_arg(7, 2, 0), Category::kFwd});
  events.push_back({9000, 100, 0, obs::kHopQueueEvent, nullptr, flow29,
                    obs::hop_arg(8, 2, 0), Category::kFwd});
  events.push_back({2000, 300, 0, obs::kHopQueueEvent, nullptr, flow19,
                    obs::hop_arg(0, 1, 0), Category::kFwd});
  // Unrelated event the weaver must ignore.
  events.push_back({100, -1, 0, "switch.tm_select", nullptr, 0, 0,
                    Category::kSwitch});
  return events;
}

TEST(SpanWeaver, WeavesHandMadeEventsIntoCausalSpans) {
  obs::SpanWeaver weaver;
  const std::vector<obs::TraceEvent> events = hand_made_hop_events();
  weaver.add_events(events);
  const std::vector<obs::WeavedSpan> spans = weaver.weave();

  // Deterministic (src, dst, seq) order.
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].src, 1u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[1].src, 2u);
  EXPECT_EQ(spans[1].seq, 7u);
  EXPECT_EQ(spans[2].seq, 8u);

  const obs::WeavedSpan& full = spans[1];
  ASSERT_EQ(full.hops.size(), 3u);
  EXPECT_EQ(full.hops[0].node, 2u);
  EXPECT_EQ(full.hops[1].node, 5u);
  EXPECT_EQ(full.hops[2].node, 9u);
  EXPECT_EQ(full.hops[0].enqueue, 1000);
  EXPECT_EQ(full.hops[0].dequeue, 1500);
  EXPECT_EQ(full.hops[0].queue_ns, 500);
  EXPECT_EQ(full.hops[0].wire, 1500);
  EXPECT_EQ(full.hops[0].wire_ns, 2500);
  EXPECT_EQ(full.hops[1].queue_ns, 1000);
  EXPECT_EQ(full.hops[1].wire_ns, 3000);
  EXPECT_EQ(full.hops[2].queue_ns, 0);
  EXPECT_EQ(full.start(), 1000);
  EXPECT_EQ(full.end(), 8000);
  EXPECT_EQ(full.total_ns(), 7000);

  // The ring-wrapped packet still weaves into a (partial) one-hop span.
  EXPECT_EQ(spans[2].hops.size(), 1u);
  EXPECT_EQ(spans[2].hops[0].queue_ns, 100);
}

TEST(SpanWeaver, ExportMetricsRecordsPerHopHistograms) {
  obs::SpanWeaver weaver;
  weaver.add_events(hand_made_hop_events());
  obs::MetricsRegistry registry;
  obs::SpanWeaver::export_metrics(weaver.weave(), "vc", &registry);

  const auto& histograms = registry.histograms();
  ASSERT_TRUE(histograms.count("vc.hop.2-9.0.queue"));
  // Both 2->9 packets stamped their sender queue.
  EXPECT_EQ(histograms.at("vc.hop.2-9.0.queue").count(), 2u);
  EXPECT_EQ(histograms.at("vc.hop.2-9.0.queue").sum(), 500 + 100);
  // seq 8's hop 0 is its last known hop, so only seq 7 contributes wire.
  ASSERT_TRUE(histograms.count("vc.hop.2-9.0.wire"));
  EXPECT_EQ(histograms.at("vc.hop.2-9.0.wire").count(), 1u);
  EXPECT_EQ(histograms.at("vc.hop.2-9.0.wire").sum(), 2500);
  ASSERT_TRUE(histograms.count("vc.hop.1-9.0.queue"));
  EXPECT_EQ(histograms.at("vc.hop.1-9.0.queue").count(), 1u);
}

TEST(SpanWeaver, ChromeJsonParsesAndCarriesFlowArrows) {
  obs::SpanWeaver weaver;
  weaver.add_events(hand_made_hop_events());
  const std::string json = obs::SpanWeaver::chrome_json(weaver.weave());
  const auto parsed = obs::parse_chrome_trace(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();

  int queue_spans = 0;
  int wire_spans = 0;
  int flow_starts = 0;
  int flow_finishes = 0;
  int tracks = 0;
  for (const obs::ParsedEvent& event : parsed.value()) {
    if (event.phase == "X" && event.name == "hop.queue") ++queue_spans;
    if (event.phase == "X" && event.name == "hop.wire") ++wire_spans;
    if (event.phase == "s") ++flow_starts;
    if (event.phase == "f") ++flow_finishes;
    if (event.phase == "M") ++tracks;
  }
  EXPECT_EQ(queue_spans, 5);  // 3 + 1 + 1 hops across the three spans
  EXPECT_EQ(wire_spans, 2);   // only the full span has non-last hops
  // Flow arrows only link multi-hop spans: one start, one finish per
  // consecutive hop chain.
  EXPECT_EQ(flow_starts, 1);
  EXPECT_GE(flow_finishes, 1);
  EXPECT_GE(tracks, 4);  // nodes 1, 2, 5, 9
}

// ------------------------------------------------ live session weaving ---

/// 0 -> gw1 -> gw2 -> 3 chain over three TCP segments. `middle` tunes the
/// gw1->gw2 segment (fault plan + socket depth) when given.
mad::SessionConfig chain_config(net::FaultPlan* middle_faults,
                                std::size_t middle_socket_buffer) {
  mad::SessionConfig config;
  config.node_count = 4;
  const char* names[3] = {"netA", "netB", "netC"};
  for (std::uint32_t i = 0; i < 3; ++i) {
    mad::NetworkDef net;
    net.name = names[i];
    net.kind = mad::NetworkKind::kTcp;
    net.nodes = {i, i + 1};
    if (i == 1 && (middle_faults != nullptr || middle_socket_buffer > 0)) {
      net::TcpParams tcp = net::TcpParams::fast_ethernet();
      if (middle_socket_buffer > 0) tcp.socket_buffer = middle_socket_buffer;
      tcp.fabric.faults = middle_faults;
      // Stop-and-wait on the middle segment: one unacked frame at a time
      // makes its drain ack-clocked, so injected delivery delay slows the
      // drain and the backlog builds where the hop stamp can see it (the
      // gateway queue) instead of overlapping in flight as wire time.
      tcp.reliability.window = 1;
      // Keep the retransmit clock far above the injected jitter so every
      // delay is honest wire time, not retransmission noise.
      tcp.reliability.rto_initial = sim::milliseconds(20);
      tcp.reliability.rto_max = sim::milliseconds(50);
      net.params = tcp;
    }
    config.networks.push_back(net);
  }
  config.channels.emplace_back("chA", "netA");
  config.channels.emplace_back("chB", "netB");
  config.channels.emplace_back("chC", "netC");
  return config;
}

/// Run `messages` one-packet messages 0 -> 3 through the chain. Returns
/// the session's final virtual time.
sim::Time run_chain(const mad::SessionConfig& config,
                    const fwd::VirtualChannelDef& def, int messages,
                    std::size_t payload_bytes) {
  mad::Session session(config);
  fwd::VirtualChannel vc(session, def);
  session.spawn(0, "sender", [&](mad::NodeRuntime&) {
    std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
    for (int i = 0; i < messages; ++i) {
      auto& conn = vc.endpoint(0).begin_packing(3);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(3, "receiver", [&](mad::NodeRuntime&) {
    std::vector<std::byte> payload(payload_bytes);
    for (int i = 0; i < messages; ++i) {
      auto& conn = vc.endpoint(3).begin_unpacking();
      conn.unpack(payload);
      conn.end_unpacking();
    }
  });
  EXPECT_TRUE(session.run().is_ok());
  return session.simulator().now();
}

TEST(SpanSession, ThreeChannelChainWeavesFourHopSpans) {
  constexpr int kMessages = 6;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);

  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"chA", "chB", "chC"};
  def.mtu = 4096;
  def.propagation = true;
  run_chain(chain_config(nullptr, 0), def, kMessages, 2048);

  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);
  // Flight-recorder contract: this workload fits the default ring whole.
  EXPECT_EQ(recorder.dropped_events(), 0u);

  obs::SpanWeaver weaver;
  weaver.add(recorder);
  const std::vector<obs::WeavedSpan> spans = weaver.weave();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    const obs::WeavedSpan& span = spans[static_cast<std::size_t>(i)];
    EXPECT_EQ(span.src, 0u);
    EXPECT_EQ(span.dst, 3u);
    EXPECT_EQ(span.seq, static_cast<std::uint32_t>(i));
    // Sender, two gateways, delivery — four causally ordered hops.
    ASSERT_EQ(span.hops.size(), 4u);
    for (std::uint32_t k = 0; k < 4; ++k) {
      const obs::HopSpan& hop = span.hops[k];
      EXPECT_EQ(hop.hop, k);
      EXPECT_EQ(hop.node, k);  // chain: node id == hop index
      EXPECT_GE(hop.queue_ns, 0);
      EXPECT_LE(hop.enqueue, hop.dequeue);
      if (k < 3) {
        // The wire to the next hop takes real virtual time.
        EXPECT_GT(hop.wire_ns, 0) << "hop " << k;
        EXPECT_GE(span.hops[k + 1].enqueue, hop.wire) << "hop " << k;
      }
    }
    EXPECT_GT(span.total_ns(), 0);
  }

  // Delivery-side replay filled the per-flow hop histograms.
  const auto& histograms = registry.histograms();
  ASSERT_TRUE(histograms.count("vc.hop.0-3.0.queue"));
  EXPECT_EQ(histograms.at("vc.hop.0-3.0.queue").count(),
            static_cast<std::uint64_t>(kMessages));
  ASSERT_TRUE(histograms.count("vc.hop.0-3.2.wire"));
  EXPECT_EQ(histograms.at("vc.hop.0-3.2.wire").count(),
            static_cast<std::uint64_t>(kMessages));
  // The delivery hop has no outgoing wire.
  ASSERT_TRUE(histograms.count("vc.hop.0-3.3.wire"));
  EXPECT_EQ(histograms.at("vc.hop.0-3.3.wire").count(), 0u);

  // The weaved timeline exports to valid Chrome JSON with flow arrows.
  const auto parsed =
      obs::parse_chrome_trace(obs::SpanWeaver::chrome_json(spans));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  bool has_flow_start = false;
  for (const obs::ParsedEvent& event : parsed.value()) {
    if (event.phase == "s") has_flow_start = true;
  }
  EXPECT_TRUE(has_flow_start);
}

TEST(SpanSession, PropagationOffKeepsVirtualTimeIdentical) {
  // With the propagation knob off the wire must be bit-identical to an
  // untraced run: same packets, same timings — even with a recorder
  // installed and every category enabled.
  constexpr int kMessages = 4;
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"chA", "chB", "chC"};
  def.mtu = 4096;  // def.propagation left unset -> off (no trace stanza)

  const sim::Time untraced =
      run_chain(chain_config(nullptr, 0), def, kMessages, 2048);

  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);
  const sim::Time traced =
      run_chain(chain_config(nullptr, 0), def, kMessages, 2048);
  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);

  EXPECT_EQ(untraced, traced);
  // And no hop stamps were recorded: the stamp only exists when asked for.
  for (const obs::TraceEvent& event : recorder.snapshot()) {
    EXPECT_STRNE(event.name, obs::kHopQueueEvent);
    EXPECT_STRNE(event.name, obs::kHopWireEvent);
  }
}

/// One 512 B message 0 -> 8 over eight TCP segments: seven gateways, one
/// more than a HopStamp has room for. Returns the 0->8 flow's per-hop
/// histograms.
std::map<std::string, obs::Histogram> run_long_chain(
    std::size_t pipeline_depth) {
  constexpr std::uint32_t kSegments = 8;
  mad::SessionConfig config;
  config.node_count = kSegments + 1;
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.pipeline_depth = pipeline_depth;
  def.propagation = true;
  for (std::uint32_t i = 0; i < kSegments; ++i) {
    mad::NetworkDef net;
    net.name = "net" + std::to_string(i);
    net.kind = mad::NetworkKind::kTcp;
    net.nodes = {i, i + 1};
    config.networks.push_back(net);
    config.channels.emplace_back("ch" + std::to_string(i), net.name);
    def.hops.push_back("ch" + std::to_string(i));
  }
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  {
    mad::Session session(config);
    fwd::VirtualChannel vc(session, def);
    session.spawn(0, "sender", [&](mad::NodeRuntime&) {
      std::vector<std::byte> payload(512, std::byte{0x5a});
      auto& conn = vc.endpoint(0).begin_packing(kSegments);
      conn.pack(payload);
      conn.end_packing();
    });
    session.spawn(kSegments, "receiver", [&](mad::NodeRuntime&) {
      std::vector<std::byte> payload(512);
      auto& conn = vc.endpoint(kSegments).begin_unpacking();
      conn.unpack(payload);
      conn.end_unpacking();
    });
    EXPECT_TRUE(session.run().is_ok());
  }
  obs::uninstall_metrics(&registry);
  return registry.histograms();
}

TEST(SpanSession, TruncatedRouteStampsOnlyItsOwnGatewayHops) {
  // Gateways past HopStamp::kMaxHops record nothing; in particular they
  // must not stamp their dequeue time onto the last recorded hop, which
  // belongs to an earlier gateway. An uncontended message never waits in
  // a gateway, so every recorded gateway hop has zero queue residency.
  for (std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("pipeline_depth " + std::to_string(depth));
    const auto histograms = run_long_chain(depth);
    for (std::uint32_t k = 1; k < fwd::HopStamp::kMaxHops; ++k) {
      const std::string name = "vc.hop.0-8." + std::to_string(k) + ".queue";
      ASSERT_TRUE(histograms.count(name)) << name;
      EXPECT_EQ(histograms.at(name).count(), 1u) << name;
      EXPECT_EQ(histograms.at(name).sum(), 0) << name;
    }
    EXPECT_FALSE(histograms.count(
        "vc.hop.0-8." + std::to_string(fwd::HopStamp::kMaxHops) + ".queue"));
  }
}

/// Per-hop {queue,wire} sums (ns) of the 0->3 flow from one chain run.
struct HopSums {
  double queue[4] = {0, 0, 0, 0};
  double wire[4] = {0, 0, 0, 0};
};

HopSums run_jitter_leg(net::FaultPlan* plan) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"chA", "chB", "chC"};
  def.mtu = 4096;
  // Deep gateway pipeline: the whole burst fits at gw1, so backpressure
  // never leaks upstream and queueing lands at the slow hop, not the
  // sender.
  def.pipeline_depth = 192;
  def.propagation = true;
  // The 1 KiB middle socket plus the 1-frame reliable window (see
  // chain_config) make gw1 -> gw2 the choke: arrivals outpace the
  // ack-clocked drain and the burst waits in gw1's forwarding queue.
  // Queue residency grows with the square of the burst while per-packet
  // wire time is linear, so a long burst keeps the attribution sharp.
  run_chain(chain_config(plan, 1024), def, /*messages=*/160,
            /*payload_bytes=*/512);
  obs::uninstall_metrics(&registry);

  HopSums sums;
  const auto& histograms = registry.histograms();
  for (int k = 0; k < 4; ++k) {
    const std::string stem = "vc.hop.0-3." + std::to_string(k);
    const auto queue = histograms.find(stem + ".queue");
    if (queue != histograms.end()) {
      sums.queue[k] = static_cast<double>(queue->second.sum());
    }
    const auto wire = histograms.find(stem + ".wire");
    if (wire != histograms.end()) {
      sums.wire[k] = static_cast<double>(wire->second.sum());
    }
  }
  return sums;
}

TEST(SpanSession, JitterAtMiddleHopAttributesLatencyToItsQueue) {
  // Acceptance gate: inject delay jitter on the gw1 -> gw2 wire only, and
  // the weaved per-hop attribution must charge >= 90% of the *added*
  // latency to gateway 1's queue-residency bucket — the congestion builds
  // in its forwarding queue while the slow wire drains packet by packet.
  net::FaultPlan clean(0xC0FFEE);
  net::FaultPlan jitter(0xC0FFEE);
  net::LinkFaults faults;
  faults.jitter_rate = 1.0;
  faults.jitter_max = sim::milliseconds(4);
  // Fabric ranks on netB (nodes {1, 2}): 0 is gw1, 1 is gw2.
  jitter.set_link_faults(0, 1, faults);

  const HopSums baseline = run_jitter_leg(&clean);
  const HopSums jittered = run_jitter_leg(&jitter);

  double total_added = 0.0;
  for (int k = 0; k < 4; ++k) {
    total_added += jittered.queue[k] - baseline.queue[k];
    total_added += jittered.wire[k] - baseline.wire[k];
  }
  const double gw1_queue_added = jittered.queue[1] - baseline.queue[1];
  // The jitter injected real latency (tens of ms in aggregate).
  ASSERT_GT(total_added, static_cast<double>(sim::milliseconds(50)));
  ASSERT_GT(gw1_queue_added, 0.0);
  std::ostringstream breakdown;
  for (int k = 0; k < 4; ++k) {
    breakdown << "hop " << k << ": queue +"
              << (jittered.queue[k] - baseline.queue[k]) / 1e6 << " ms wire +"
              << (jittered.wire[k] - baseline.wire[k]) / 1e6 << " ms\n";
  }
  EXPECT_GE(gw1_queue_added, 0.9 * total_added)
      << "gw1 queue added " << gw1_queue_added / 1e6 << " ms of "
      << total_added / 1e6 << " ms total added latency\n"
      << breakdown.str();
}

// ------------------------------------------------------- SLO watchdog ---

TEST(SloWatchdog, BreachAutoDumpsRawAndWeavedTrace) {
  ASSERT_EQ(obs::recorder(), nullptr)
      << "ambient recorder leaked from another test";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mad2_slo_dump_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::set_dump_directory(dir.string());

  std::string raw_path;
  {
    mad::SessionConfig config;
    config.node_count = 2;
    mad::NetworkDef net;
    net.name = "net0";
    net.kind = mad::NetworkKind::kTcp;
    net.nodes = {0, 1};
    config.networks.push_back(net);
    config.channels.emplace_back("ch0", "net0");
    obs::TraceConfig trace;
    trace.propagation = true;
    // 1 us p99 on a ~75 us link: guaranteed breach.
    trace.slo.push_back(obs::SloRule{"ch0", 1});
    config.trace = trace;

    mad::Session session(config);
    session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
      std::vector<std::byte> payload(1024, std::byte{1});
      for (int i = 0; i < 4; ++i) {
        auto& conn = rt.channel("ch0").begin_packing(1);
        conn.pack(payload);
        conn.end_packing();
      }
    });
    session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
      std::vector<std::byte> payload(1024);
      for (int i = 0; i < 4; ++i) {
        auto& conn = rt.channel("ch0").begin_unpacking();
        conn.unpack(payload);
        conn.end_unpacking();
      }
    });
    // A breach alarms and dumps; it must not fail a healthy run.
    ASSERT_TRUE(session.run().is_ok());
    ASSERT_NE(obs::metrics(), nullptr);
    EXPECT_EQ(obs::metrics()->value("slo.breaches"), 1);
    raw_path = obs::last_dump_path();
  }

  ASSERT_FALSE(raw_path.empty());
  EXPECT_NE(raw_path.find("mad2_slo_dump_test"), std::string::npos)
      << "dump landed outside the overridden directory: " << raw_path;
  ASSERT_TRUE(fs::exists(raw_path));
  std::string weaved_path = raw_path;
  const std::string suffix = ".json";
  ASSERT_GE(weaved_path.size(), suffix.size());
  weaved_path.resize(weaved_path.size() - suffix.size());
  weaved_path += "-weaved.json";
  ASSERT_TRUE(fs::exists(weaved_path))
      << "SLO breach did not write the weaved companion dump";

  // Both artifacts are loadable Chrome traces.
  for (const std::string& path : {raw_path, weaved_path}) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = obs::parse_chrome_trace(buffer.str());
    EXPECT_TRUE(parsed.is_ok()) << path << ": " << parsed.status().message();
  }

  obs::set_dump_directory("");
  fs::remove_all(dir);
}

// ---------------------------------------------------- madreport folding ---

TEST(ClusterReport, FoldsPerNodeSnapshotsIntoOneView) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mad2_report_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::MetricsRegistry node_a;
  node_a.set_value("vc.flow.0-3.packets", 10);
  node_a.set_value("vc.flow.0-3.cwnd_x1000", 5000);
  node_a.set_value("vc.flow.0-3.srtt_us", 200);
  node_a.set_value("rel.netB:1.retransmits", 3);
  node_a.set_value("vc.routing.replayed_packets", 2);
  node_a.set_value("trace.dropped_events", 1);
  node_a.set_value("slo.breaches", 1);
  for (int i = 0; i < 4; ++i) {
    node_a.histogram("vc.flow.0-3.e2e")->record(100'000);  // 100 us
    node_a.histogram("vc.hop.0-3.0.queue")->record(20'000);
    node_a.histogram("vc.hop.0-3.0.wire")->record(60'000);
    node_a.histogram("vc.hop.0-3.1.queue")->record(10'000);
  }
  obs::MetricsRegistry node_b;
  node_b.set_value("vc.flow.0-3.packets", 6);
  node_b.set_value("vc.flow.0-3.cwnd_x1000", 3000);
  node_b.set_value("vc.flow.0-3.srtt_us", 500);
  node_b.set_value("rel.netB:2.retransmits", 2);
  for (int i = 0; i < 2; ++i) {
    node_b.histogram("vc.flow.0-3.e2e")->record(400'000);
    node_b.histogram("vc.hop.0-3.1.queue")->record(300'000);
  }

  const std::string path_a = (dir / "node_a.json").string();
  const std::string path_b = (dir / "node_b.json").string();
  ASSERT_TRUE(node_a.write_json(path_a));
  ASSERT_TRUE(node_b.write_json(path_b));

  std::vector<std::string> errors;
  const obs::ClusterReport report = obs::cluster_report_from_files(
      {path_a, path_b, (dir / "missing.json").string()}, &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("missing.json"), std::string::npos);
  EXPECT_EQ(report.inputs, 2u);

  EXPECT_EQ(report.retransmits, 5);
  EXPECT_EQ(report.replayed_packets, 2);
  EXPECT_EQ(report.dropped_trace_events, 1);
  EXPECT_EQ(report.slo_breaches, 1);

  ASSERT_EQ(report.flows.size(), 1u);
  const obs::FlowRollup& flow = report.flows[0];
  EXPECT_EQ(flow.channel, "vc");
  EXPECT_EQ(flow.flow, "0-3");
  EXPECT_EQ(flow.packets, 16);
  EXPECT_EQ(flow.cwnd_x1000, 3000);  // worst (smallest) window
  EXPECT_EQ(flow.srtt_us, 500);      // worst (largest) srtt
  EXPECT_EQ(flow.e2e_count, 6);
  // Count-weighted p50 mean: (4 * 100 + 2 * 400) / 6 = 200 us.
  EXPECT_NEAR(flow.e2e_p50_us, 200.0, 1.0);
  EXPECT_GE(flow.e2e_p99_us, 400.0 * 0.9);

  ASSERT_EQ(flow.hops.size(), 2u);
  EXPECT_EQ(flow.hops[0].hop, 0u);
  EXPECT_EQ(flow.hops[0].samples, 4);
  EXPECT_NEAR(flow.hops[0].queue_mean_us, 20.0, 1.0);
  EXPECT_NEAR(flow.hops[0].wire_mean_us, 60.0, 1.0);
  EXPECT_EQ(flow.hops[1].hop, 1u);
  // Hop 1 merges both nodes' snapshots: 4 x 10 us + 2 x 300 us.
  EXPECT_EQ(flow.hops[1].samples, 6);
  EXPECT_NEAR(flow.hops[1].queue_mean_us, (4 * 10.0 + 2 * 300.0) / 6.0,
              2.0);
  EXPECT_GE(flow.hops[1].queue_p99_us, 250.0);

  // Serialized forms carry the rollups.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"flows\""), std::string::npos);
  EXPECT_NE(json.find("\"hops\""), std::string::npos);
  EXPECT_NE(json.find("\"0-3\""), std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("vc 0-3"), std::string::npos);
  EXPECT_NE(text.find("hop 1"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mad2
