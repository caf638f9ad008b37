// madtrace observability tests: histogram math, category parsing, the
// event ring, Switch-level instrumentation + latency histograms on a
// real session, the Chrome trace-event exporter round trip, the `trace`
// config stanza, and the auto-dump path on a madcheck invariant failure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mad/config_parser.hpp"
#include "mad/madeleine.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/explore.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "util/bytes.hpp"

namespace mad2 {
namespace {

// The CI matrix exports MAD2_TRACE for the whole test step (so every
// other suite runs traced and failures auto-dump); this suite manages
// recorders by hand and must start from a clean slate.
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

// ------------------------------------------------------------- histogram ---

TEST(Histogram, EmptyIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(Histogram, QuantilesAreOrderedAndBucketAccurate) {
  obs::Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.sum(), 1000 * 1001 / 2);
  // Log buckets promise ~2x relative error on quantiles.
  EXPECT_GE(h.p50(), 250);
  EXPECT_LE(h.p50(), 1000);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_LE(h.p99(), h.max());
  EXPECT_NEAR(h.mean(), 500.5, 0.001);
}

TEST(Histogram, BucketLimitsAreMonotonic) {
  for (std::size_t i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_GT(obs::Histogram::bucket_limit(i),
              obs::Histogram::bucket_limit(i - 1))
        << "bucket " << i;
  }
}

TEST(Histogram, QuantileAtExactBucketBoundaryIsExact) {
  // An exact power of two sits on a bucket edge. Whatever bucket the
  // implementation files it under, the min/max clamp must make every
  // quantile of a single-valued histogram report that value exactly —
  // not a bucket limit.
  for (std::int64_t v : {std::int64_t{1}, std::int64_t{2},
                         std::int64_t{1024}, std::int64_t{1} << 40}) {
    obs::Histogram h;
    for (int i = 0; i < 100; ++i) h.record(v);
    EXPECT_EQ(h.percentile(0.0), v) << "value " << v;
    EXPECT_EQ(h.p50(), v) << "value " << v;
    EXPECT_EQ(h.p95(), v) << "value " << v;
    EXPECT_EQ(h.p99(), v) << "value " << v;
    EXPECT_EQ(h.percentile(1.0), v) << "value " << v;
  }
}

TEST(Histogram, BoundaryValuesInAdjacentBucketsStayInRange) {
  // 512 and 1024 are both bucket edges and land in adjacent buckets.
  // Interpolated quantiles may sit anywhere inside the hit bucket but
  // must stay within the recorded extremes and be monotone in q.
  obs::Histogram h;
  for (int i = 0; i < 50; ++i) h.record(512);
  for (int i = 0; i < 50; ++i) h.record(1024);
  EXPECT_EQ(h.min(), 512);
  EXPECT_EQ(h.max(), 1024);
  std::int64_t previous = 0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const std::int64_t value = h.percentile(q);
    EXPECT_GE(value, 512) << "q=" << q;
    EXPECT_LE(value, 1024) << "q=" << q;
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // The top quantile interpolates to the hit bucket's upper limit (2048)
  // and must be clamped back to the recorded maximum.
  EXPECT_EQ(h.percentile(1.0), 1024);
}

// ------------------------------------------------------------ categories ---

TEST(TraceCategories, ParseMasks) {
  std::uint32_t mask = 0;
  ASSERT_TRUE(obs::parse_categories("all", &mask));
  EXPECT_EQ(mask, obs::kAllCategories);
  ASSERT_TRUE(obs::parse_categories("fwd,switch", &mask));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(obs::Category::kFwd) |
                      static_cast<std::uint32_t>(obs::Category::kSwitch));
  ASSERT_TRUE(obs::parse_categories("tm,,net", &mask));  // empty tokens ok
  EXPECT_EQ(mask, static_cast<std::uint32_t>(obs::Category::kTm) |
                      static_cast<std::uint32_t>(obs::Category::kNet));
  ASSERT_TRUE(obs::parse_categories("", &mask));
  EXPECT_EQ(mask, 0u);
  EXPECT_FALSE(obs::parse_categories("bogus", &mask));
  EXPECT_FALSE(obs::parse_categories("fwd,bogus", &mask));
}

// --------------------------------------------------------------- the ring ---

TEST(TraceRecorder, RingWrapsKeepingNewestEvents) {
  obs::TraceConfig config;
  config.ring_kb = 1;  // a handful of slots
  obs::TraceRecorder recorder(config);
  const std::size_t cap = recorder.capacity();
  ASSERT_GT(cap, 0u);
  const std::size_t total = cap + 5;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record(obs::Category::kTm, "tick", nullptr,
                    static_cast<sim::Time>(i), -1, i, 0);
  }
  EXPECT_EQ(recorder.recorded(), total);
  EXPECT_EQ(recorder.size(), cap);
  // The wrap is accounted, never silent: exactly the five overwritten
  // events show up as drops.
  EXPECT_EQ(recorder.dropped_events(), 5u);
  const std::vector<obs::TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), cap);
  // Oldest five events were overwritten; snapshot starts at a0 == 5.
  EXPECT_EQ(events.front().a0, 5u);
  EXPECT_EQ(events.back().a0, total - 1);
}

TEST(TraceRecorder, NoWrapMeansNoDroppedEvents) {
  obs::TraceRecorder recorder;
  EXPECT_EQ(recorder.dropped_events(), 0u);
  for (int i = 0; i < 100; ++i) {
    recorder.record(obs::Category::kTm, "tick", nullptr,
                    static_cast<sim::Time>(i), -1, 0, 0);
  }
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(TraceRecorder, ChannelFilter) {
  obs::TraceConfig open;
  obs::TraceRecorder all(open);
  EXPECT_TRUE(all.channel_enabled("anything"));

  obs::TraceConfig narrow;
  narrow.channels = {"ch0"};
  obs::TraceRecorder filtered(narrow);
  EXPECT_TRUE(filtered.channel_enabled("ch0"));
  EXPECT_FALSE(filtered.channel_enabled("ch1"));
}

TEST(TraceMacros, DisabledSitesAreInertWithoutRecorder) {
  ASSERT_EQ(obs::recorder(), nullptr);
  EXPECT_FALSE(obs::trace_enabled(obs::Category::kSwitch));
  // Must be safe to execute with no recorder installed.
  MAD2_TRACE_EVENT(obs::Category::kSwitch, "noop", nullptr, 1);
  {
    MAD2_TRACE_SPAN(span, obs::Category::kFwd, "noop.span");
    span.args(1, 2);
    EXPECT_FALSE(span.active());
  }
}

// ------------------------------------------------------- metrics registry ---

TEST(MetricsRegistry, ValuesAndStampFifo) {
  obs::MetricsRegistry registry;
  registry.set_value("a", 7);
  registry.add_value("a", 3);
  EXPECT_EQ(registry.value("a"), 10);
  EXPECT_EQ(registry.value("missing"), 0);

  registry.push_stamp("flow", 100);
  registry.push_stamp("flow", 200);
  sim::Time t = 0;
  ASSERT_TRUE(registry.pop_stamp("flow", &t));
  EXPECT_EQ(t, 100);  // FIFO
  ASSERT_TRUE(registry.pop_stamp("flow", &t));
  EXPECT_EQ(t, 200);
  EXPECT_FALSE(registry.pop_stamp("flow", &t));

  // The per-flow cap bounds a one-sided flow.
  for (std::size_t i = 0; i < obs::MetricsRegistry::kMaxStampsPerFlow + 100;
       ++i) {
    registry.push_stamp("one-sided", static_cast<sim::Time>(i));
  }
  std::size_t drained = 0;
  while (registry.pop_stamp("one-sided", &t)) ++drained;
  EXPECT_LE(drained, obs::MetricsRegistry::kMaxStampsPerFlow);
}

TEST(MetricsRegistry, JsonContainsHistogramsAndValues) {
  obs::MetricsRegistry registry;
  registry.set_value("stats.ch.messages_sent", 4);
  registry.histogram("ch.e2e")->record(1500);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("stats.ch.messages_sent"), std::string::npos);
  EXPECT_NE(json.find("ch.e2e"), std::string::npos);
  EXPECT_NE(json.find("p99_us"), std::string::npos);
}

// ------------------------------------------------- session instrumentation ---

mad::SessionConfig two_node_config() {
  mad::SessionConfig config;
  config.node_count = 2;
  mad::NetworkDef net;
  net.name = "net0";
  net.kind = mad::NetworkKind::kTcp;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  config.channels.push_back(mad::ChannelDef{"ch0", "net0"});
  return config;
}

/// N one-way messages 0 -> 1 over "ch0"; sizes straddle the TM boundary
/// so both the short and the bulk paths get instrumented.
void run_traffic(int messages) {
  mad::Session session(two_node_config());
  session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      const std::size_t size = i % 2 == 0 ? 64 : 32768;
      auto payload = make_pattern_buffer(size, i);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      const std::size_t size = i % 2 == 0 ? 64 : 32768;
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(size);
      conn.unpack(out);
      conn.end_unpacking();
      ASSERT_TRUE(verify_pattern(out, i)) << "message " << i;
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST(SessionTrace, SwitchEventsAndLatencyHistograms) {
  constexpr int kMessages = 6;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);
  run_traffic(kMessages);
  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);
  // The default ring holds this workload whole: wrap here would mean the
  // flight recorder silently truncated a small trace.
  EXPECT_EQ(recorder.dropped_events(), 0u);

  std::set<std::string> names;
  for (const obs::TraceEvent& event : recorder.snapshot()) {
    names.insert(event.name);
  }
  EXPECT_TRUE(names.count("switch.tm_select")) << "no TM-selection events";
  EXPECT_TRUE(names.count("msg.pack"));
  EXPECT_TRUE(names.count("msg.unpack"));

  // One sample per message in each stage histogram; e2e spans both.
  const auto& histograms = registry.histograms();
  ASSERT_TRUE(histograms.count("ch0.pack_to_wire"));
  ASSERT_TRUE(histograms.count("ch0.wire_to_unpack"));
  ASSERT_TRUE(histograms.count("ch0.e2e"));
  const obs::Histogram& pack = histograms.at("ch0.pack_to_wire");
  const obs::Histogram& unpack = histograms.at("ch0.wire_to_unpack");
  const obs::Histogram& e2e = histograms.at("ch0.e2e");
  EXPECT_EQ(pack.count(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(unpack.count(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(e2e.count(), static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(e2e.max(), 0);
  // End-to-end covers at least the receive stage of the same message mix.
  EXPECT_GE(e2e.max(), unpack.max());
}

TEST(SessionTrace, ChannelFilterSuppressesSwitchEvents) {
  obs::TraceConfig config;
  config.channels = {"not-this-channel"};
  obs::TraceRecorder recorder(config);
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);
  run_traffic(2);
  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);

  for (const obs::TraceEvent& event : recorder.snapshot()) {
    EXPECT_NE(event.cat, obs::Category::kSwitch)
        << "filtered channel produced Switch event " << event.name;
  }
  // Latency histograms honor the same filter.
  EXPECT_EQ(registry.histograms().count("ch0.e2e"), 0u);
}

TEST(SessionTrace, ExportMetricsPublishesTrafficStats) {
  constexpr int kMessages = 4;
  obs::MetricsRegistry registry;

  mad::Session session(two_node_config());
  session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < kMessages; ++i) {
      auto payload = make_pattern_buffer(256, i);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < kMessages; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(256);
      conn.unpack(out);
      conn.end_unpacking();
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  session.export_metrics(registry);

  EXPECT_EQ(registry.value("stats.ch0.messages_sent"), kMessages);
  EXPECT_EQ(registry.value("stats.ch0.messages_received"), kMessages);
  // Some TM moved bytes for the channel.
  bool tx_bytes = false;
  for (const auto& [name, value] : registry.values()) {
    if (name.rfind("stats.ch0.tx.", 0) == 0 &&
        name.find(".bytes") != std::string::npos && value > 0) {
      tx_bytes = true;
    }
  }
  EXPECT_TRUE(tx_bytes) << "no stats.ch0.tx.<tm>.bytes value exported";
  // Node memory counters land keyed by node id.
  EXPECT_GE(registry.value("mem.node0.memcpy_bytes"), 0);
}

TEST(SessionTrace, ExportMetricsSurfacesDroppedTraceEvents) {
  // A deliberately tiny ring wraps under a normal workload; the drop
  // count must surface as the trace.dropped_events metric so a truncated
  // flight recording is visible in every metrics snapshot.
  obs::TraceConfig config;
  config.ring_kb = 1;
  obs::TraceRecorder recorder(config);
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);

  mad::Session session(two_node_config());
  session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < 8; ++i) {
      auto payload = make_pattern_buffer(4096, i);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < 8; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(4096);
      conn.unpack(out);
      conn.end_unpacking();
    }
  });
  ASSERT_TRUE(session.run().is_ok());
  session.export_metrics(registry);
  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);

  EXPECT_GT(recorder.dropped_events(), 0u) << "ring unexpectedly fit";
  EXPECT_EQ(registry.value("trace.dropped_events"),
            static_cast<std::int64_t>(recorder.dropped_events()));
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("trace.dropped_events"), std::string::npos);
}

// -------------------------------------------------- Chrome trace exporter ---

TEST(ChromeTrace, RoundTripInvariants) {
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  obs::install_recorder(&recorder);
  obs::install_metrics(&registry);
  run_traffic(4);
  obs::uninstall_recorder(&recorder);
  obs::uninstall_metrics(&registry);
  ASSERT_GT(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped_events(), 0u);

  const std::string json = obs::chrome_trace_json(recorder);
  const auto parsed = obs::parse_chrome_trace(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const std::vector<obs::ParsedEvent>& events = parsed.value();
  ASSERT_FALSE(events.empty());

  std::set<std::uint64_t> named_tracks;
  for (const obs::ParsedEvent& event : events) {
    if (event.phase == "M") {
      EXPECT_FALSE(event.thread_name.empty());
      named_tracks.insert(event.tid);
    }
  }
  std::map<std::uint64_t, double> last_ts;
  std::size_t spans = 0;
  for (const obs::ParsedEvent& event : events) {
    if (event.phase == "M") continue;
    EXPECT_TRUE(event.phase == "X" || event.phase == "i") << event.phase;
    EXPECT_FALSE(event.name.empty());
    EXPECT_TRUE(named_tracks.count(event.tid))
        << "track " << event.tid << " has no thread_name metadata";
    // Exporter sorts by timestamp: per-track ts must be non-decreasing
    // (the Perfetto ingestion requirement).
    auto [it, inserted] = last_ts.try_emplace(event.tid, event.ts_us);
    if (!inserted) {
      EXPECT_GE(event.ts_us, it->second) << event.name;
      it->second = event.ts_us;
    }
    if (event.phase == "X") {
      ++spans;
      EXPECT_GE(event.dur_us, 0.0) << event.name;
    }
  }
  EXPECT_GT(spans, 0u) << "no complete (X) span events in the trace";
}

TEST(ChromeTrace, WriteToFileMatchesInMemoryJson) {
  obs::TraceRecorder recorder;
  recorder.record(obs::Category::kFwd, "fwd.hop", "gateway", 1000, 500, 1,
                  2);
  recorder.record(obs::Category::kNet, "rel.retransmit", nullptr, 2000, -1,
                  3, 0);
  const std::string path =
      testing::TempDir() + "obs_test_chrome_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(recorder, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), obs::chrome_trace_json(recorder));
  const auto parsed = obs::parse_chrome_trace(buffer.str());
  ASSERT_TRUE(parsed.is_ok());
  bool saw_span = false;
  for (const obs::ParsedEvent& event : parsed.value()) {
    if (event.phase == "X" && event.name == "fwd.hop") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(event.ts_us, 1.0);
      EXPECT_DOUBLE_EQ(event.dur_us, 0.5);
    }
  }
  EXPECT_TRUE(saw_span);
  std::filesystem::remove(path);
}

// ----------------------------------------------------- trace config stanza ---

constexpr std::string_view kBaseConfig =
    "nodes 2\n"
    "network net0 tcp 0 1\n"
    "channel ch0 net0\n";

TEST(ConfigTrace, StanzaParses) {
  const std::string text =
      std::string(kBaseConfig) +
      "trace categories=switch,fwd ring_kb=64 channels=ch0\n";
  const auto result = mad::parse_session_config(text);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const mad::SessionConfig& config = result.value();
  ASSERT_TRUE(config.trace.has_value());
  EXPECT_EQ(config.trace->categories,
            static_cast<std::uint32_t>(obs::Category::kSwitch) |
                static_cast<std::uint32_t>(obs::Category::kFwd));
  EXPECT_EQ(config.trace->ring_kb, 64u);
  ASSERT_EQ(config.trace->channels.size(), 1u);
  EXPECT_EQ(config.trace->channels[0], "ch0");
}

TEST(ConfigTrace, BareStanzaUsesDefaults) {
  const auto result =
      mad::parse_session_config(std::string(kBaseConfig) + "trace\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_TRUE(result.value().trace.has_value());
  EXPECT_EQ(result.value().trace->categories, obs::kAllCategories);
  EXPECT_TRUE(result.value().trace->channels.empty());
}

TEST(ConfigTrace, RejectsBadStanzas) {
  const std::string base(kBaseConfig);
  EXPECT_FALSE(
      mad::parse_session_config(base + "trace categories=bogus\n").is_ok());
  EXPECT_FALSE(
      mad::parse_session_config(base + "trace channels=nope\n").is_ok());
  EXPECT_FALSE(mad::parse_session_config(base + "trace ring_kb=0\n").is_ok());
  EXPECT_FALSE(mad::parse_session_config(base + "trace wat=1\n").is_ok());
  EXPECT_FALSE(mad::parse_session_config(base + "trace\ntrace\n").is_ok());
}

TEST(ConfigTrace, PropagationAndSloParse) {
  const auto result = mad::parse_session_config(
      std::string(kBaseConfig) +
      "trace propagation slo=ch0:2500\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_TRUE(result.value().trace.has_value());
  const obs::TraceConfig& trace = *result.value().trace;
  EXPECT_TRUE(trace.propagation);
  ASSERT_EQ(trace.slo.size(), 1u);
  EXPECT_EQ(trace.slo[0].channel, "ch0");
  EXPECT_EQ(trace.slo[0].p99_us, 2500);

  // Defaults: a bare stanza leaves propagation off and no SLO rules.
  const auto bare =
      mad::parse_session_config(std::string(kBaseConfig) + "trace\n");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_FALSE(bare.value().trace->propagation);
  EXPECT_TRUE(bare.value().trace->slo.empty());
}

TEST(ConfigTrace, RejectsBadSloRules) {
  const std::string base(kBaseConfig);
  // Unknown channel, malformed rule, zero/garbage threshold.
  EXPECT_FALSE(
      mad::parse_session_config(base + "trace slo=nope:100\n").is_ok());
  EXPECT_FALSE(mad::parse_session_config(base + "trace slo=ch0\n").is_ok());
  EXPECT_FALSE(
      mad::parse_session_config(base + "trace slo=ch0:0\n").is_ok());
  EXPECT_FALSE(
      mad::parse_session_config(base + "trace slo=ch0:abc\n").is_ok());
}

TEST(ConfigTrace, SessionInstallsAndRemovesStanzaRecorder) {
  const auto parsed = mad::parse_session_config(
      std::string(kBaseConfig) + "trace categories=all ring_kb=32\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(obs::recorder(), nullptr);
  {
    mad::Session session(parsed.value());
    // The config stanza installed a session-owned recorder.
    obs::TraceRecorder* installed = obs::recorder();
    ASSERT_NE(installed, nullptr);
    EXPECT_EQ(installed->config().ring_kb, 32u);
    session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
      auto payload = make_pattern_buffer(128, 1);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    });
    session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(128);
      conn.unpack(out);
      conn.end_unpacking();
    });
    ASSERT_TRUE(session.run().is_ok());
    EXPECT_GT(installed->recorded(), 0u);
  }
  // Session teardown uninstalls its recorder.
  EXPECT_EQ(obs::recorder(), nullptr);
}

// ------------------------------------------------------------- auto-dump ---

// The planted lost-wakeup bug from the madcheck self-tests: the FIFO
// baseline passes, exploration deadlocks. Each fiber also emits trace
// events so the auto-dump has a timeline to write.
Status traced_buggy_pipeline() {
  sim::Simulator simulator;
  sim::WaitQueue queue(&simulator);
  bool ready = false;
  bool consumed = false;
  simulator.spawn("consumer", [&] {
    MAD2_TRACE_EVENT(obs::Category::kFwd, "test.consumer.check");
    if (!ready) {
      simulator.yield_fiber();  // check-to-wait window
      queue.wait();             // no re-check: wakeup can be lost
    }
    consumed = true;
  });
  simulator.spawn("producer", [&] {
    simulator.yield_fiber();
    ready = true;
    MAD2_TRACE_EVENT(obs::Category::kFwd, "test.producer.notify");
    queue.notify_one();
  });
  const Status run = simulator.run();
  if (!run.is_ok()) return run;
  if (!consumed) return internal_error("consumer never consumed");
  return Status::ok();
}

TEST(AutoDump, ExploreInvariantFailureWritesChromeTrace) {
  obs::TraceRecorder recorder;
  obs::install_recorder(&recorder);
  const std::string dir = testing::TempDir() + "mad2_obs_dumps";
  std::filesystem::remove_all(dir);
  obs::set_dump_directory(dir);

  sim::ExploreOptions options;
  options.random_runs = 200;
  options.delay_bound = 2;
  options.max_exhaustive_runs = 200;
  const sim::ExploreResult result =
      sim::explore([] { return traced_buggy_pipeline(); }, options);

  ASSERT_FALSE(result.ok) << "planted bug not found: " << result.summary();
  const std::string dump = obs::last_dump_path();
  obs::set_dump_directory("");
  obs::uninstall_recorder(&recorder);
  ASSERT_FALSE(dump.empty()) << "invariant failure produced no trace dump";
  // The whole exploration fits the default ring: the dump lost nothing.
  EXPECT_EQ(recorder.dropped_events(), 0u);

  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << dump;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = obs::parse_chrome_trace(buffer.str());
  ASSERT_TRUE(parsed.is_ok()) << "dump is not loadable trace JSON: "
                           << parsed.status().to_string();
  bool saw_test_event = false;
  for (const obs::ParsedEvent& event : parsed.value()) {
    if (event.name.rfind("test.", 0) == 0) saw_test_event = true;
  }
  EXPECT_TRUE(saw_test_event)
      << "dump does not contain the failing run's events";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mad2
