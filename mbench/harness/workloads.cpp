#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "fwd/virtual_channel.hpp"
#include "mad/session.hpp"
#include "net/bip.hpp"
#include "net/sisci.hpp"
#include "sim/sync.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mbench {
namespace {

namespace fwd = mad2::fwd;
namespace hw = mad2::hw;
namespace mad = mad2::mad;
namespace net = mad2::net;
namespace sim = mad2::sim;
using sim::Time;

// ------------------------------------------------------- message framing ---
//
// Every application message is an 8-byte header {seq, body bytes | last}
// packed send_CHEAPER/receive_EXPRESS (its value steers the next unpack),
// then the body packed send_CHEAPER/receive_CHEAPER. Bodies carry the
// pattern of (flow, seq), so a lost, duplicated, reordered or corrupted
// message fails verification.

constexpr std::uint32_t kLastFlag = 0x80000000u;
constexpr std::size_t kHeaderBytes = 8;

/// Boundary stamps of one message on both clocks: [0] begin_packing call,
/// [1] end_packing return, [2] begin_unpacking return, [3] end_unpacking
/// return. Host stamps are taken only in traced executions.
struct Stamp {
  Time v[4] = {-1, -1, -1, -1};
  std::int64_t h[4] = {0, 0, 0, 0};
};

class Clock {
 public:
  Clock(sim::Simulator& simulator, bool traced)
      : simulator_(simulator), traced_(traced) {}
  void mark(Stamp& stamp, int k) const {
    stamp.v[k] = simulator_.now();
    if (traced_) stamp.h[k] = host_now_ns();
  }

 private:
  sim::Simulator& simulator_;
  bool traced_;
};

struct Received {
  std::uint32_t src = 0;
  std::uint32_t seq = 0;
  std::uint32_t bytes = 0;
  bool last = false;
  bool sane = true;  // header within the workload's size limit
  Stamp stamp;       // [2] and [3]
};

template <typename Endpoint>
void send_message(const Clock& clock, Endpoint& endpoint, std::uint32_t dst,
                  std::uint32_t seq, std::span<const std::byte> body,
                  bool last, Stamp& stamp) {
  std::array<std::byte, kHeaderBytes> header{};
  mad2::store_u32(header.data(), seq);
  mad2::store_u32(header.data() + 4, static_cast<std::uint32_t>(body.size()) |
                                         (last ? kLastFlag : 0u));
  clock.mark(stamp, 0);
  auto& conn = endpoint.begin_packing(dst);
  conn.pack(header, mad::send_CHEAPER, mad::receive_EXPRESS);
  conn.pack(body, mad::send_CHEAPER, mad::receive_CHEAPER);
  conn.end_packing();
  clock.mark(stamp, 1);
}

/// Receives one message into `body`. An insane header leaves the message
/// unread (`sane` false): the caller fails the session.
template <typename Endpoint>
Received receive_message(const Clock& clock, Endpoint& endpoint,
                         std::vector<std::byte>& body,
                         std::uint32_t max_bytes) {
  Received got;
  auto& conn = endpoint.begin_unpacking();
  clock.mark(got.stamp, 2);
  std::array<std::byte, kHeaderBytes> header{};
  conn.unpack(header, mad::send_CHEAPER, mad::receive_EXPRESS);
  got.src = conn.remote();
  got.seq = mad2::load_u32(header.data());
  const std::uint32_t word = mad2::load_u32(header.data() + 4);
  got.last = (word & kLastFlag) != 0;
  got.bytes = word & ~kLastFlag;
  if (got.bytes > max_bytes) {
    got.sane = false;
    return got;
  }
  body.resize(got.bytes);
  conn.unpack(body, mad::send_CHEAPER, mad::receive_CHEAPER);
  conn.end_unpacking();
  clock.mark(got.stamp, 3);
  return got;
}

// ----------------------------------------------------- rep bookkeeping ---

/// Message table and checks shared by the workloads. Message ids index
/// `stamps`; a message counts as delivered once its receiver verified it.
class Ledger {
 public:
  Ledger(RepResult& result, std::size_t capacity)
      : result_(result), stamps_(capacity), delivered_(capacity, 0),
        latency_class_(capacity, 0), bw_class_(capacity, 0),
        bytes_(capacity, 0) {}

  Stamp& stamp(std::size_t id) { return stamps_[id]; }
  [[nodiscard]] std::size_t capacity() const { return stamps_.size(); }

  /// Message `id` of `bytes` body bytes enters the books; it counts toward
  /// the latency metrics, the goodput, or both.
  void attempt(std::size_t id, bool latency_class, bool bw_class,
               std::uint32_t bytes) {
    ++result_.attempted;
    latency_class_[id] = latency_class ? 1 : 0;
    bw_class_[id] = bw_class ? 1 : 0;
    bytes_[id] = bytes;
  }
  /// The receiver's verdict on message `id`.
  void receive(std::size_t id, const Received& got, bool intact,
               const char* what) {
    if (!intact) {
      ++result_.violations[what];
      return;
    }
    if (delivered_[id] != 0) {
      ++result_.violations["duplicate_delivery"];
      return;
    }
    stamps_[id].v[2] = got.stamp.v[2];
    stamps_[id].v[3] = got.stamp.v[3];
    stamps_[id].h[2] = got.stamp.h[2];
    stamps_[id].h[3] = got.stamp.h[3];
    delivered_[id] = 1;
    ++result_.delivered;
  }
  /// A failure of the whole run rather than of one message.
  void run_violation(const std::string& name) {
    ++result_.violations[name];
    ++run_violations_;
  }

  /// Closes the books: missing messages, latency samples, goodput, and
  /// the span log when traced.
  void finish(bool run_ok, bool traced);

  /// p50 of each message's pack / transit / unpack share (virtual us) over
  /// the latency class.
  void layer_split(std::map<std::string, double>& layer) const;

 private:
  RepResult& result_;
  std::vector<Stamp> stamps_;
  std::vector<char> delivered_;
  std::vector<char> latency_class_;
  std::vector<char> bw_class_;
  std::vector<std::uint32_t> bytes_;
  std::uint64_t run_violations_ = 0;
};

void Ledger::finish(bool run_ok, bool traced) {
  if (!run_ok) {
    // An aborted workload counts every message as failed.
    result_.delivered = 0;
    std::fill(delivered_.begin(), delivered_.end(), 0);
  }
  std::uint64_t message_violations = 0;
  for (const auto& [name, count] : result_.violations) {
    message_violations += count;
  }
  message_violations -= run_violations_;
  if (result_.delivered + message_violations < result_.attempted) {
    result_.violations["not_delivered"] +=
        result_.attempted - result_.delivered - message_violations;
  }
  result_.failed = result_.attempted - result_.delivered + run_violations_;

  Time bw_first = sim::kNever;
  Time bw_last = 0;
  std::uint64_t bw_bytes = 0;
  for (std::size_t id = 0; id < stamps_.size(); ++id) {
    if (delivered_[id] == 0) continue;
    const Stamp& s = stamps_[id];
    if (s.v[0] < 0 || s.v[1] < s.v[0] || s.v[3] < s.v[2]) {
      ++result_.violations["stamp_order"];
      ++result_.failed;
      continue;
    }
    if (latency_class_[id] != 0) {
      result_.lat_us.push_back(sim::to_us(s.v[3] - s.v[0]));
    }
    if (bw_class_[id] != 0) {
      bw_first = std::min(bw_first, s.v[0]);
      bw_last = std::max(bw_last, s.v[3]);
      bw_bytes += bytes_[id];
    }
    if (traced) {
      const std::int64_t root = result_.spans.add(
          Span{id, "msg", -1, s.v[0], s.v[3], s.h[0], s.h[3]});
      result_.spans.add(Span{id, "mad.pack", root, s.v[0], s.v[1], s.h[0],
                             s.h[1]});
      result_.spans.add(Span{id, "mad.transit", root, s.v[1], s.v[2],
                             s.h[1], s.h[2]});
      result_.spans.add(Span{id, "mad.unpack", root, s.v[2], s.v[3], s.h[2],
                             s.h[3]});
    }
  }
  if (bw_bytes > 0 && bw_last > bw_first) {
    result_.bw_mbs = sim::bandwidth_mbs(bw_bytes, bw_last - bw_first);
  }
}

void Ledger::layer_split(std::map<std::string, double>& layer) const {
  std::vector<double> pack, transit, unpack;
  for (std::size_t id = 0; id < stamps_.size(); ++id) {
    if (delivered_[id] == 0 || latency_class_[id] == 0) continue;
    const Stamp& s = stamps_[id];
    pack.push_back(sim::to_us(s.v[1] - s.v[0]));
    transit.push_back(sim::to_us(s.v[2] - s.v[1]));
    unpack.push_back(sim::to_us(s.v[3] - s.v[2]));
  }
  layer["mad.pack_vus"] = quantile(pack, 0.5);
  layer["mad.transit_vus"] = quantile(transit, 0.5);
  layer["mad.unpack_vus"] = quantile(unpack, 0.5);
}

/// Host-clock phases of one execution, recorded as run-level spans.
struct Phases {
  std::int64_t setup_begin = 0;
  std::int64_t session_begin = 0;
  std::int64_t session_end = 0;
  std::int64_t vc_begin = 0;  // equal to vc_end when there is no VC
  std::int64_t vc_end = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = 0;
};

void close_phases(RepResult& result, const Phases& p, Time v_end,
                  bool traced) {
  result.setup_s = static_cast<double>(p.run_begin - p.setup_begin) * 1e-9;
  result.run_s = static_cast<double>(p.run_end - p.run_begin) * 1e-9;
  result.layer["mad.setup_s"] =
      static_cast<double>(p.session_end - p.session_begin) * 1e-9;
  result.layer["fwd.setup_s"] =
      static_cast<double>(p.vc_end - p.vc_begin) * 1e-9;
  if (!traced) return;
  const std::int64_t setup = result.spans.add(
      Span{0, "setup", -1, 0, 0, p.setup_begin, p.run_begin});
  result.spans.add(
      Span{0, "mad.session", setup, 0, 0, p.session_begin, p.session_end});
  if (p.vc_end > p.vc_begin) {
    result.spans.add(Span{0, "fwd.virtual_channel", setup, 0, 0, p.vc_begin,
                          p.vc_end});
  }
  result.spans.add(
      Span{0, "sim.run", -1, 0, v_end, p.run_begin, p.run_end});
  result.layer["setup.self_s"] =
      static_cast<double>(result.spans.host_self_ns(setup)) * 1e-9;
}

const std::array<const char*, 6> kTms = {"sci-short", "sci-pio",  "sci-dma",
                                         "bip-short", "bip-long", "tcp"};

/// Counter-based per-layer metrics: memory traffic, PCI occupancy of the
/// busiest of `bus_nodes`, and blocks per Transmission Module.
void counter_layers(mad::Session& session,
                    const std::vector<std::string>& channels,
                    const std::vector<std::uint32_t>& bus_nodes,
                    std::uint64_t body_bytes, Time v_end,
                    RepResult& result) {
  std::uint64_t memcpy_bytes = 0;
  std::uint64_t allocs = 0;
  for (std::uint32_t n = 0; n < session.node_count(); ++n) {
    memcpy_bytes += session.node(n).mem().memcpy_bytes;
    allocs += session.node(n).mem().alloc_count;
  }
  result.layer["hw.memcpy_per_byte"] =
      body_bytes > 0 ? static_cast<double>(memcpy_bytes) /
                           static_cast<double>(body_bytes)
                     : 0.0;
  result.layer["hw.allocs_per_msg"] =
      result.delivered > 0 ? static_cast<double>(allocs) /
                                 static_cast<double>(result.delivered)
                           : 0.0;
  sim::Duration busiest = 0;
  for (std::uint32_t n : bus_nodes) {
    busiest = std::max(busiest, session.node(n).pci_bus().busy_time());
  }
  result.layer["hw.gw_pci_busy"] =
      v_end > 0 ? static_cast<double>(busiest) / static_cast<double>(v_end)
                : 0.0;
  std::map<std::string, std::uint64_t> blocks;
  for (const std::string& channel : channels) {
    for (std::uint32_t node : session.channel(channel).nodes()) {
      const mad::TrafficStats stats = session.endpoint(channel, node).stats();
      for (const auto& [tm, counters] : stats.sent_by_tm) {
        blocks[tm] += counters.blocks;
      }
    }
  }
  for (const char* tm : kTms) {
    result.layer[std::string("mad.tm_blocks.") + tm] =
        static_cast<double>(blocks[tm]);
  }
}

/// Gateway-queue sampler of traced executions: wakes every `period` of
/// virtual time, reads the queue depths and the packet pool, and stops
/// once `done` is set (the last message landed).
struct QueueSampler {
  std::vector<double> depths;
  std::size_t pool_in_use_max = 0;

  void spawn(sim::Simulator& simulator, const fwd::VirtualChannel& vc,
             const bool& done, sim::Duration period) {
    simulator.spawn("mbench.sampler", [this, &simulator, &vc, &done,
                                       period] {
      // The horizon only guards against a deadlocked workload keeping
      // the sampler, and so the run, alive forever.
      const Time horizon = sim::seconds(3600);
      while (!done && simulator.now() < horizon) {
        simulator.advance(period);
        for (std::size_t depth : vc.gateway_queue_depths()) {
          depths.push_back(static_cast<double>(depth));
        }
        pool_in_use_max =
            std::max(pool_in_use_max,
                     vc.pool().total_buffers() - vc.pool().free_buffers());
      }
    });
  }

  void report(RepResult& result) const {
    result.layer["fwd.queue_p99"] = tail_percentile(depths, 0.99).value;
    result.layer["fwd.pool_in_use_max"] =
        static_cast<double>(pool_in_use_max);
  }
};

/// After-run hygiene of a virtual channel: queues drained, buffers home.
void check_drained(const fwd::VirtualChannel& vc, Ledger& ledger) {
  for (std::size_t depth : vc.gateway_queue_depths()) {
    if (depth != 0) {
      ledger.run_violation("gateway_queue_not_empty");
      break;
    }
  }
  if (vc.pool().free_buffers() != vc.pool().total_buffers()) {
    ledger.run_violation("packet_pool_leak");
  }
}

/// max / mean packets forwarded across each boundary's gateways; the worst
/// boundary.
double gateway_imbalance(const fwd::VirtualChannel& vc) {
  double worst = 0.0;
  for (std::size_t b = 0; b < vc.boundary_count(); ++b) {
    const auto& gateways = vc.boundary_gateways(b);
    double sum = 0.0;
    double most = 0.0;
    for (std::uint32_t g : gateways) {
      const auto n = static_cast<double>(vc.gateway_forwarded(g));
      sum += n;
      most = std::max(most, n);
    }
    if (sum > 0.0) {
      worst = std::max(worst, most / (sum / static_cast<double>(gateways.size())));
    }
  }
  return worst;
}

// ---------------------------------------------------------------- pingpong ---
//
// Two nodes joined by a SISCI and a BIP network, one channel on each (the
// SISCI channel with its DMA TM on). One client, one request outstanding:
// each request goes out on a seeded channel with a seeded body and is
// echoed back the same way by that channel's server fiber.

constexpr std::size_t kPingpongRequests = 15000;
const char* const kPingpongChannels[2] = {"pp_sci", "pp_bip"};

mad::SessionConfig pingpong_config() {
  mad::SessionConfig config;
  config.node_count = 2;
  mad::NetworkDef sci;
  sci.name = "pp_sci_net";
  sci.kind = mad::NetworkKind::kSisci;
  sci.nodes = {0, 1};
  mad::NetworkDef bip;
  bip.name = "pp_bip_net";
  bip.kind = mad::NetworkKind::kBip;
  bip.nodes = {0, 1};
  config.networks = {sci, bip};
  mad::ChannelDef sci_channel{kPingpongChannels[0], sci.name};
  mad::SciPmmOptions sci_options;
  sci_options.enable_dma = true;
  sci_channel.sci_options = sci_options;
  config.channels = {sci_channel,
                     mad::ChannelDef{kPingpongChannels[1], bip.name}};
  return config;
}

RepResult run_pingpong(std::uint64_t seed, bool traced) {
  const std::vector<Request> plan = pingpong_plan(seed, kPingpongRequests);
  constexpr std::uint32_t kMaxBody = 64 * 1024;
  RepResult result;
  Ledger ledger(result, 2 * plan.size());  // ids 2i: request, 2i+1: reply
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ledger.attempt(2 * i, true, true, plan[i].body_bytes);
    ledger.attempt(2 * i + 1, true, true, plan[i].body_bytes);
  }

  Phases phases;
  phases.setup_begin = host_now_ns();
  mad::SessionConfig config = pingpong_config();
  phases.session_begin = host_now_ns();
  mad::Session session(std::move(config));
  phases.session_end = phases.vc_begin = phases.vc_end = host_now_ns();
  sim::Simulator& simulator = session.simulator();
  const Clock clock(simulator, traced);
  Time v_end = 0;

  session.spawn(0, "client", [&](mad::NodeRuntime& rt) {
    mad::ChannelEndpoint* endpoints[2] = {&rt.channel(kPingpongChannels[0]),
                                          &rt.channel(kPingpongChannels[1])};
    std::vector<std::byte> body;
    std::vector<std::byte> echo;
    for (std::uint32_t i = 0; i < plan.size(); ++i) {
      const Request& request = plan[i];
      body.resize(request.body_bytes);
      const std::uint64_t pattern = pattern_seed(request.channel, i);
      mad2::fill_pattern(body, pattern);
      send_message(clock, *endpoints[request.channel], 1, i, body, false,
                   ledger.stamp(2 * i));
      const Received got =
          receive_message(clock, *endpoints[request.channel], echo, kMaxBody);
      if (!got.sane) {
        session.fail(mad2::protocol_error("pingpong: insane reply header"));
        return;
      }
      const bool intact = got.seq == i && got.bytes == request.body_bytes &&
                          mad2::verify_pattern(echo, pattern);
      ledger.receive(2 * i + 1, got, intact, "reply_corrupt_or_misordered");
      v_end = simulator.now();
    }
  });
  for (std::uint32_t c = 0; c < 2; ++c) {
    session.spawn(1, std::string("server.") + kPingpongChannels[c],
                  [&, c](mad::NodeRuntime& rt) {
                    mad::ChannelEndpoint& endpoint =
                        rt.channel(kPingpongChannels[c]);
                    std::vector<std::byte> body;
                    for (std::uint32_t i = 0; i < plan.size(); ++i) {
                      if (plan[i].channel != c) continue;
                      const Received got =
                          receive_message(clock, endpoint, body, kMaxBody);
                      if (!got.sane) {
                        session.fail(mad2::protocol_error(
                            "pingpong: insane request header"));
                        return;
                      }
                      const bool intact =
                          got.seq == i && got.bytes == plan[i].body_bytes &&
                          mad2::verify_pattern(body, pattern_seed(c, i));
                      ledger.receive(2 * i, got, intact,
                                     "request_corrupt_or_misordered");
                      send_message(clock, endpoint, 0, got.seq, body, false,
                                   ledger.stamp(2 * i + 1));
                    }
                  });
  }
  result.layer["sim.fibers"] = static_cast<double>(simulator.live_fiber_count());
  phases.run_begin = host_now_ns();
  const mad2::Status status = session.run();
  phases.run_end = host_now_ns();
  if (!status.is_ok()) ledger.run_violation("session_run_not_ok");

  std::uint64_t body_bytes = 0;
  for (const Request& request : plan) body_bytes += 2ull * request.body_bytes;
  ledger.finish(status.is_ok(), traced);
  ledger.layer_split(result.layer);
  close_phases(result, phases, v_end, traced);
  counter_layers(session, {kPingpongChannels[0], kPingpongChannels[1]},
                 {0, 1}, body_bytes, v_end, result);
  result.layer["fwd.queue_p99"] = 0.0;
  result.layer["fwd.pool_in_use_max"] = 0.0;
  result.layer["fwd.gw_imbalance"] = 0.0;
  return result;
}

// ---------------------------------------------------------------- gateway ---
//
// The Fig. 10 topology: an SCI network holds the bulk sender (node 0), the
// probe sender (1) and the gateway (2); a BIP network holds the gateway,
// the bulk sink (3) and the probe sink (4). One virtual channel, MTU
// 8 KiB, pipeline depth 2. The bulk sender streams 1 MiB messages back to
// back until the probe is done; the probe sends 64 B messages closed loop
// (one outstanding, seeded think time) across the same gateway queue. The
// two sinks are separate nodes so a probe never waits behind a 1 MiB
// message in an application receive loop, only in the gateway.

constexpr std::size_t kProbes = 2000;
constexpr std::uint32_t kProbeBytes = 64;
constexpr std::uint32_t kBulkBytes = 1024 * 1024;
constexpr std::size_t kMaxBulk = 4096;

RepResult run_gateway(std::uint64_t seed, bool traced) {
  mad2::Rng rng(seed);
  std::vector<sim::Duration> think(kProbes);
  for (sim::Duration& t : think) {
    t = sim::microseconds(static_cast<std::int64_t>(rng.next_range(100, 300)));
  }
  RepResult result;
  // ids [0, kProbes): probes; [kProbes, kProbes + kMaxBulk): bulk.
  Ledger ledger(result, kProbes + kMaxBulk);
  for (std::size_t i = 0; i < kProbes; ++i) {
    ledger.attempt(i, true, false, kProbeBytes);
  }

  Phases phases;
  phases.setup_begin = host_now_ns();
  mad::SessionConfig config;
  config.node_count = 5;
  mad::NetworkDef sci;
  sci.name = "gw_sci_net";
  sci.kind = mad::NetworkKind::kSisci;
  sci.nodes = {0, 1, 2};
  mad::NetworkDef bip;
  bip.name = "gw_bip_net";
  bip.kind = mad::NetworkKind::kBip;
  bip.nodes = {2, 3, 4};
  config.networks = {sci, bip};
  config.channels = {mad::ChannelDef{"gw_sci", sci.name},
                     mad::ChannelDef{"gw_bip", bip.name}};
  phases.session_begin = host_now_ns();
  mad::Session session(std::move(config));
  phases.session_end = phases.vc_begin = host_now_ns();
  fwd::VirtualChannelDef def;
  def.name = "gw_vc";
  def.hops = {"gw_sci", "gw_bip"};
  def.mtu = 8 * 1024;
  def.pipeline_depth = 2;
  fwd::VirtualChannel vc(session, def);
  phases.vc_end = host_now_ns();
  sim::Simulator& simulator = session.simulator();
  const Clock clock(simulator, traced);
  sim::Semaphore probe_landed(&simulator, 0);
  bool probes_done = false;
  bool all_done = false;
  std::size_t sinks_left = 2;
  std::uint32_t bulk_sent = 0;
  Time v_end = 0;
  auto sink_finished = [&] {
    v_end = std::max(v_end, simulator.now());
    all_done = --sinks_left == 0;
  };

  session.spawn(0, "bulk", [&](mad::NodeRuntime&) {
    std::vector<std::byte> body(kBulkBytes);
    for (std::uint32_t k = 0; k < kMaxBulk; ++k) {
      const bool last = probes_done || k + 1 == kMaxBulk;
      ledger.attempt(kProbes + k, false, true, kBulkBytes);
      mad2::fill_pattern(body, pattern_seed(0, k));
      send_message(clock, vc.endpoint(0), 3, k, body, last,
                   ledger.stamp(kProbes + k));
      ++bulk_sent;
      if (last) break;
    }
  });
  session.spawn(1, "probe", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> body(kProbeBytes);
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      rt.simulator().advance(think[i]);
      mad2::fill_pattern(body, pattern_seed(1, i));
      send_message(clock, vc.endpoint(1), 4, i, body, false,
                   ledger.stamp(i));
      probe_landed.acquire();
    }
    probes_done = true;
  });
  session.spawn(3, "bulk_sink", [&](mad::NodeRuntime&) {
    std::vector<std::byte> body;
    for (std::uint32_t k = 0;; ++k) {
      const Received got =
          receive_message(clock, vc.endpoint(3), body, kBulkBytes);
      if (!got.sane || got.seq >= kMaxBulk) {
        session.fail(mad2::protocol_error("gateway: insane bulk header"));
        return;
      }
      const bool intact = got.src == 0 && got.seq == k &&
                          got.bytes == kBulkBytes &&
                          mad2::verify_pattern(body, pattern_seed(0, k));
      ledger.receive(kProbes + got.seq, got, intact,
                     "bulk_corrupt_or_misordered");
      if (got.last) break;
    }
    sink_finished();
  });
  session.spawn(4, "probe_sink", [&](mad::NodeRuntime&) {
    std::vector<std::byte> body;
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      const Received got =
          receive_message(clock, vc.endpoint(4), body, kProbeBytes);
      if (!got.sane || got.seq >= kProbes) {
        session.fail(mad2::protocol_error("gateway: insane probe header"));
        return;
      }
      const bool intact = got.src == 1 && got.seq == i &&
                          got.bytes == kProbeBytes &&
                          mad2::verify_pattern(body, pattern_seed(1, i));
      ledger.receive(got.seq, got, intact, "probe_corrupt_or_misordered");
      probe_landed.release();
    }
    sink_finished();
  });
  result.layer["sim.fibers"] = static_cast<double>(simulator.live_fiber_count());
  QueueSampler sampler;
  if (traced) sampler.spawn(simulator, vc, all_done, sim::microseconds(50));
  phases.run_begin = host_now_ns();
  const mad2::Status status = session.run();
  phases.run_end = host_now_ns();
  if (!status.is_ok()) ledger.run_violation("session_run_not_ok");
  check_drained(vc, ledger);

  ledger.finish(status.is_ok(), traced);
  ledger.layer_split(result.layer);
  close_phases(result, phases, v_end, traced);
  counter_layers(session, {"gw_sci", "gw_bip"}, {2},
                 kProbes * kProbeBytes +
                     static_cast<std::uint64_t>(bulk_sent) * kBulkBytes,
                 v_end, result);
  sampler.report(result);
  result.layer["fwd.gw_imbalance"] = gateway_imbalance(vc);
  return result;
}

// ----------------------------------------------------------------- fabric ---
//
// Two clusters of 44 leaves and 4 gateways on Fast Ethernet TCP, joined by
// a core network (a 96-node fat tree), resilient routing on with a fixed
// spreading salt (a seeded salt re-deals the flows over the gateways and
// moves the virtual results by up to a third between seeds). 40
// cross-cluster flows, each from a distinct leaf to a distinct leaf
// (alternating direction), send seeded 4-32 KiB messages back to back;
// one sink fiber per destination.

constexpr std::size_t kFabricFlows = 40;
constexpr std::size_t kFabricMessages = 100;
constexpr std::uint32_t kFabricMaxBody = 32 * 1024;

RepResult run_fabric(std::uint64_t seed, bool traced) {
  struct Flow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::vector<std::uint32_t> sizes;
  };
  RepResult result;
  Ledger ledger(result, kFabricFlows * kFabricMessages);

  Phases phases;
  phases.setup_begin = host_now_ns();
  mad2::FatTreeBed bed = mad2::make_fat_tree(2, 44, 4);
  mad::TopologyConfig topology;
  topology.enabled = true;
  bed.config.topology = topology;
  std::vector<Flow> flows(kFabricFlows);
  std::uint64_t body_bytes = 0;
  for (std::uint32_t f = 0; f < kFabricFlows; ++f) {
    const std::size_t from = f % 2;
    flows[f].src = bed.leaf(from, f);
    flows[f].dst = bed.leaf(1 - from, f);
    mad2::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (f + 1)));
    flows[f].sizes =
        stratified_log_sizes(rng, kFabricMessages, 4 * 1024, kFabricMaxBody);
    for (std::size_t k = 0; k < kFabricMessages; ++k) {
      ledger.attempt(f * kFabricMessages + k, true, true, flows[f].sizes[k]);
      body_bytes += flows[f].sizes[k];
    }
  }
  phases.session_begin = host_now_ns();
  mad::Session session(bed.config);
  phases.session_end = phases.vc_begin = host_now_ns();
  fwd::VirtualChannelDef def;
  def.name = "ft_vc";
  def.hops = bed.route(0, 1);
  def.mtu = 8 * 1024;
  fwd::VirtualChannel vc(session, def);
  phases.vc_end = host_now_ns();
  sim::Simulator& simulator = session.simulator();
  const Clock clock(simulator, traced);
  std::size_t sinks_left = kFabricFlows;
  bool all_done = false;
  Time v_end = 0;

  for (std::uint32_t f = 0; f < kFabricFlows; ++f) {
    const Flow* flow = &flows[f];
    session.spawn(flow->src, "flow" + std::to_string(f),
                  [&, f, flow](mad::NodeRuntime&) {
                    std::vector<std::byte> body;
                    for (std::uint32_t k = 0; k < kFabricMessages; ++k) {
                      body.resize(flow->sizes[k]);
                      mad2::fill_pattern(body, pattern_seed(f, k));
                      send_message(clock, vc.endpoint(flow->src), flow->dst,
                                   k, body, false,
                                   ledger.stamp(f * kFabricMessages + k));
                    }
                  });
    session.spawn(flow->dst, "sink" + std::to_string(f),
                  [&, f, flow](mad::NodeRuntime&) {
                    std::vector<std::byte> body;
                    for (std::uint32_t k = 0; k < kFabricMessages; ++k) {
                      const Received got = receive_message(
                          clock, vc.endpoint(flow->dst), body, kFabricMaxBody);
                      if (!got.sane || got.seq >= kFabricMessages) {
                        session.fail(mad2::protocol_error(
                            "fabric: insane header"));
                        return;
                      }
                      const bool intact =
                          got.src == flow->src && got.seq == k &&
                          got.bytes == flow->sizes[k] &&
                          mad2::verify_pattern(body, pattern_seed(f, k));
                      ledger.receive(f * kFabricMessages + got.seq, got,
                                     intact, "message_corrupt_or_misordered");
                    }
                    v_end = std::max(v_end, simulator.now());
                    all_done = --sinks_left == 0;
                  });
  }
  result.layer["sim.fibers"] = static_cast<double>(simulator.live_fiber_count());
  QueueSampler sampler;
  if (traced) sampler.spawn(simulator, vc, all_done, sim::microseconds(100));
  phases.run_begin = host_now_ns();
  const mad2::Status status = session.run();
  phases.run_end = host_now_ns();
  if (!status.is_ok()) ledger.run_violation("session_run_not_ok");
  check_drained(vc, ledger);

  ledger.finish(status.is_ok(), traced);
  ledger.layer_split(result.layer);
  close_phases(result, phases, v_end, traced);
  std::vector<std::uint32_t> gateways;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t g = 0; g < 4; ++g) gateways.push_back(bed.gateway(c, g));
  }
  counter_layers(session,
                 {mad2::FatTreeBed::cluster_channel(0),
                  mad2::FatTreeBed::kCoreChannel,
                  mad2::FatTreeBed::cluster_channel(1)},
                 gateways, body_bytes, v_end, result);
  sampler.report(result);
  result.layer["fwd.gw_imbalance"] = gateway_imbalance(vc);
  return result;
}

// ------------------------------------------------------------ calibration ---

/// Host ns per yield_fiber() handoff between two fibers.
double switch_ns() {
  constexpr int kYields = 100000;
  sim::Simulator simulator;
  for (int f = 0; f < 2; ++f) {
    simulator.spawn("yield", [&simulator] {
      for (int i = 0; i < kYields; ++i) simulator.yield_fiber();
    });
  }
  const std::int64_t begin = host_now_ns();
  MAD2_CHECK(simulator.run().is_ok(), "switch calibration failed");
  return static_cast<double>(host_now_ns() - begin) / (2.0 * kYields);
}

/// Host us per spawn + finish of an empty fiber.
double spawn_us() {
  constexpr int kFibers = 100;
  sim::Simulator simulator;
  const std::int64_t begin = host_now_ns();
  for (int i = 0; i < kFibers; ++i) simulator.spawn("empty", [] {});
  MAD2_CHECK(simulator.run().is_ok(), "spawn calibration failed");
  return static_cast<double>(host_now_ns() - begin) * 1e-3 / kFibers;
}

constexpr std::size_t kCalBytes = 64;
constexpr int kCalIterations = 100;

struct TwoNodes {
  TwoNodes() {
    for (std::uint32_t i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(
          &simulator, i, "n" + std::to_string(i),
          hw::HostParams::pentium_ii_450()));
    }
  }
  std::vector<hw::Node*> ptrs() { return {nodes[0].get(), nodes[1].get()}; }
  sim::Simulator simulator;
  std::vector<std::unique_ptr<hw::Node>> nodes;
};

/// One-way virtual us of a 64 B raw BIP short-message ping-pong.
double raw_bip_us() {
  TwoNodes bed;
  net::BipNetwork network(&bed.simulator, bed.ptrs(),
                          net::BipParams::myrinet_lanai43());
  Time end = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    bed.simulator.spawn("raw_bip", [&, me] {
      std::vector<std::byte> out(kCalBytes, std::byte{1});
      std::vector<std::byte> in(kCalBytes);
      for (int i = 0; i < kCalIterations; ++i) {
        if (me == 0) {
          network.port(0).send_short(1, 0, out);
          network.port(0).recv_short_copy(0, in);
        } else {
          network.port(1).recv_short_copy(0, in);
          network.port(1).send_short(0, 0, out);
        }
      }
      if (me == 0) end = bed.simulator.now();
    });
  }
  MAD2_CHECK(bed.simulator.run().is_ok(), "raw BIP calibration failed");
  return sim::to_us(end) / (2.0 * kCalIterations);
}

/// One-way virtual us of a 64 B raw SISCI ping-pong: a PIO write of the
/// payload then of a sequence flag into the peer's segment.
double raw_sisci_us() {
  TwoNodes bed;
  net::SciNetwork network(&bed.simulator, bed.ptrs(),
                          net::SciParams::dolphin_d310());
  const net::SegmentId segments[2] = {
      network.port(0).create_segment(kCalBytes + 4),
      network.port(1).create_segment(kCalBytes + 4)};
  Time end = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    bed.simulator.spawn("raw_sisci", [&, me] {
      const std::uint32_t other = 1 - me;
      net::SciPort& port = network.port(me);
      const auto remote = port.connect(other, segments[other]);
      const auto local = port.segment_memory(segments[me]);
      std::vector<std::byte> payload(kCalBytes, std::byte{1});
      auto send = [&](std::uint32_t i) {
        port.pio_write(remote, 0, payload);
        std::byte flag[4];
        mad2::store_u32(flag, i + 1);
        port.pio_write(remote, kCalBytes, flag);
      };
      auto receive = [&](std::uint32_t i) {
        port.wait_segment(segments[me], [&] {
          return mad2::load_u32(local.data() + kCalBytes) == i + 1;
        });
        bed.nodes[me]->charge_memcpy(kCalBytes);
      };
      for (std::uint32_t i = 0; i < kCalIterations; ++i) {
        if (me == 0) {
          send(i);
          receive(i);
        } else {
          receive(i);
          send(i);
        }
      }
      if (me == 0) end = bed.simulator.now();
    });
  }
  MAD2_CHECK(bed.simulator.run().is_ok(), "raw SISCI calibration failed");
  return sim::to_us(end) / (2.0 * kCalIterations);
}

/// One-way virtual us of a 64 B single-block Madeleine ping-pong on the
/// pingpong workload's channel `channel`.
double mad_us(const char* channel) {
  mad::Session session(pingpong_config());
  Time end = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    session.spawn(me, "mad_cal", [&, me](mad::NodeRuntime& rt) {
      mad::ChannelEndpoint& endpoint = rt.channel(channel);
      std::vector<std::byte> out(kCalBytes, std::byte{1});
      std::vector<std::byte> in(kCalBytes);
      auto send = [&] {
        auto& conn = endpoint.begin_packing(1 - me);
        conn.pack(out);
        conn.end_packing();
      };
      auto receive = [&] {
        auto& conn = endpoint.begin_unpacking();
        conn.unpack(in);
        conn.end_unpacking();
      };
      for (int i = 0; i < kCalIterations; ++i) {
        if (me == 0) {
          send();
          receive();
        } else {
          receive();
          send();
        }
      }
      if (me == 0) end = rt.simulator().now();
    });
  }
  MAD2_CHECK(session.run().is_ok(), "Madeleine calibration failed");
  return sim::to_us(end) / (2.0 * kCalIterations);
}

}  // namespace

WorkloadFn find_workload(const std::string& name) {
  if (name == "pingpong") return &run_pingpong;
  if (name == "gateway") return &run_gateway;
  if (name == "fabric") return &run_fabric;
  return nullptr;
}

std::map<std::string, double> calibrate() {
  std::vector<double> switches;
  std::vector<double> spawns;
  for (int i = 0; i < 5; ++i) {
    switches.push_back(switch_ns());
    spawns.push_back(spawn_us());
  }
  std::map<std::string, double> out;
  out["sim.switch_ns"] = quantile(switches, 0.5);
  out["sim.spawn_us"] = quantile(spawns, 0.5);
  out["net.raw_lat_us.sisci"] = raw_sisci_us();
  out["net.raw_lat_us.bip"] = raw_bip_us();
  out["mad.overhead_us.sisci"] =
      mad_us(kPingpongChannels[0]) - out["net.raw_lat_us.sisci"];
  out["mad.overhead_us.bip"] =
      mad_us(kPingpongChannels[1]) - out["net.raw_lat_us.bip"];
  return out;
}

}  // namespace mbench
