// Ablation: incast fairness under end-to-end congestion control.
//
// N bulk senders and one latency-sensitive probe sender converge through
// a gateway onto a single receiver (the classic incast choke point). The
// probe flow sends small paced messages; its per-message one-way latency
// distribution is the figure of merit. Two gateway disciplines compete:
//
//   fifo  congestion control off — every bulk sender fills its hop
//         stream until the gateway's receive window pushes back, so a
//         standing backlog of up to a socket buffer per flow sits
//         between the probe and the wire.
//   fair  congestion stanza on — per-flow delay-driven AIMD windows cap
//         each bulk flow's in-flight share (draining the standing
//         queue) and the gateway runs a DRR fair queue, so a probe
//         packet only ever waits behind a handful of in-window packets.
//
// Bulk data rides in single-packet messages (same per-flow volume as
// one large message) so the single receiver fiber interleaves flows at
// packet granularity; a monolithic 128 KiB message would serialize the
// receiver for its full multi-round unpack and mask the path queueing
// under test. At the gated N=100 point the melee outlasts the whole
// probe run, so every gated sample is taken inside it; at small N the
// melee drains early and those rows double as the near-uncontended
// baseline the blowup bound compares against.
//
// This bench is the regression gate for the congestion layer: it fails
// (exit 1) if the fair-mode probe p99 at N=100 is not bounded (see the
// gate at the bottom — fair p99 must stay under half of fifo p99, and
// must not blow up relative to the uncontended N=4 case).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/tcp.hpp"
#include "sim/sync.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mad2;

constexpr const char* kLeft = "in";
constexpr const char* kRight = "out";
constexpr std::size_t kProbeBytes = 1024;
constexpr std::size_t kBulkBytes = 2 * 1024;
constexpr int kBulkMessages = 64;
constexpr int kProbes = 40;

/// Probe sender is node 0, bulk senders 1..N, gateway N+1, receiver N+2.
mad::SessionConfig incast_config(std::size_t bulk_senders, bool fair) {
  mad::SessionConfig config;
  config.node_count = bulk_senders + 3;
  const auto gateway = static_cast<std::uint32_t>(bulk_senders + 1);
  const auto receiver = static_cast<std::uint32_t>(bulk_senders + 2);

  mad::NetworkDef left;
  left.name = "left";
  left.kind = mad::NetworkKind::kTcp;
  for (std::uint32_t n = 0; n <= gateway; ++n) left.nodes.push_back(n);
  mad::NetworkDef right;
  right.name = "right";
  right.kind = mad::NetworkKind::kTcp;
  right.nodes = {gateway, receiver};
  // Shallow egress socket on the choke hop (both disciplines alike): a
  // deep socket buffer is an unscheduled FIFO *below* the gateway
  // scheduler, and whatever sits there is queueing no discipline can
  // undo. Four packets keeps the wire busy while leaving the backlog
  // where the scheduler can see it.
  net::TcpParams choke = net::TcpParams::fast_ethernet();
  choke.socket_buffer = 16 * 1024;
  right.params = choke;
  config.networks.push_back(left);
  config.networks.push_back(right);
  config.channels.emplace_back(kLeft, left.name);
  config.channels.emplace_back(kRight, right.name);

  if (fair) {
    mad::CongestionConfig cc;
    cc.enabled = true;
    // Start conservatively instead of trusting the bandwidth-delay seed:
    // under 100-to-1 fan-in the seed's per-flow BDP guess is ~100x too
    // optimistic, and the resulting startup burst is pure queueing.
    cc.init_window = 1;
    cc.max_window = 8;
    // Deep enough that the whole windowed in-flight population (N x
    // max_window packets at worst) fits in the fair queue: admission
    // never backpressures, so the DRR dequeue — not the arrival-order
    // admission loop — is the scheduler the probe meets.
    cc.gateway_queue = 1024;
    cc.quantum = 4096;
    config.congestion = cc;
  }
  return config;
}

struct IncastOutcome {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
};

/// One incast run: N bulk flows of kBulkMessages x kBulkBytes each, and
/// kProbes paced kProbeBytes messages on the probe flow. Returns the
/// probe flow's one-way latency percentiles.
IncastOutcome run_incast(std::size_t bulk_senders, bool fair) {
  mad::Session session(incast_config(bulk_senders, fair));
  const auto gateway = static_cast<std::uint32_t>(bulk_senders + 1);
  const auto receiver = static_cast<std::uint32_t>(bulk_senders + 2);

  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {kLeft, kRight};
  def.mtu = 4 * 1024;
  fwd::VirtualChannel vc(session, def);
  // The probe is the latency-sensitive flow: weight it above the bulk
  // herd so that even when it does queue, its deficit covers a packet in
  // the first round.
  if (fair) vc.set_flow_weight(0, receiver, 8.0);

  std::vector<sim::Time> probe_sent(kProbes, 0);
  SampleSet probe_latency;
  sim::WaitQueue probe_done(&session.simulator());
  int probes_delivered = 0;

  session.spawn(0, "probe", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(kProbeBytes, std::byte{7});
    // The latency flow joins an incast already in progress: the first
    // few round trips after a cold start are the windows' slow-start
    // transient, not the steady-state tail this bench gates on.
    rt.simulator().advance(sim::milliseconds(50));
    for (int i = 0; i < kProbes; ++i) {
      // Closed loop with a think time: exactly one probe outstanding, so
      // each sample is the queueing that probe found on the path, never
      // backlog the probe flow built itself.
      rt.simulator().advance(sim::microseconds(500));
      probe_sent[i] = rt.simulator().now();
      auto& conn = vc.endpoint(0).begin_packing(receiver);
      conn.pack(payload);
      conn.end_packing();
      while (probes_delivered <= i) probe_done.wait();
    }
  });
  for (std::uint32_t sender = 1; sender <= bulk_senders; ++sender) {
    session.spawn(sender, "bulk" + std::to_string(sender),
                  [&, sender](mad::NodeRuntime&) {
                    std::vector<std::byte> payload(
                        kBulkBytes, static_cast<std::byte>(sender));
                    for (int i = 0; i < kBulkMessages; ++i) {
                      auto& conn =
                          vc.endpoint(sender).begin_packing(receiver);
                      conn.pack(payload);
                      conn.end_packing();
                    }
                  });
  }
  session.spawn(receiver, "receiver", [&](mad::NodeRuntime& rt) {
    const std::size_t total =
        kProbes + bulk_senders * static_cast<std::size_t>(kBulkMessages);
    int probes_seen = 0;
    std::vector<std::byte> probe(kProbeBytes);
    std::vector<std::byte> bulk(kBulkBytes);
    for (std::size_t i = 0; i < total; ++i) {
      auto& conn = vc.endpoint(receiver).begin_unpacking();
      const std::uint32_t src = conn.remote();
      if (src == 0) {
        conn.unpack(probe);
        conn.end_unpacking();
        probe_latency.add(
            sim::to_us(rt.simulator().now() - probe_sent[probes_seen]));
        ++probes_seen;
        probes_delivered = probes_seen;
        probe_done.notify_all();
      } else {
        conn.unpack(bulk);
        conn.end_unpacking();
      }
    }
  });
  MAD2_CHECK(session.run().is_ok(), "incast bench session failed");
  MAD2_CHECK(probe_latency.count() == kProbes,
             "incast bench lost probe messages");
  (void)gateway;

  IncastOutcome outcome;
  outcome.p50_us = probe_latency.quantile(0.5);
  outcome.p95_us = probe_latency.quantile(0.95);
  outcome.p99_us = probe_latency.quantile(0.99);
  double sum = 0.0;
  for (double sample : probe_latency.samples()) sum += sample;
  outcome.mean_us = sum / static_cast<double>(probe_latency.count());
  return outcome;
}

std::string format_fixed(double value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mad2;
  const std::vector<std::size_t> fan_in{4, 16, 100};

  // One curve per discipline; x is the bulk fan-in N, "latency" is the
  // probe flow's mean one-way latency, p50/p99 its distribution tails.
  std::vector<PerfSeries> series(2);
  series[0].label = "fifo";
  series[1].label = "fair";
  for (std::size_t n : fan_in) {
    for (int mode = 0; mode < 2; ++mode) {
      const IncastOutcome outcome = run_incast(n, mode == 1);
      PerfPoint point;
      point.size_bytes = n;
      point.latency_us = outcome.mean_us;
      point.bandwidth_mbs = 0.0;  // latency-only figure
      point.p50_us = outcome.p50_us;
      point.p95_us = outcome.p95_us;
      point.p99_us = outcome.p99_us;
      series[mode].points.push_back(point);
    }
  }

  Table table({"bulk flows", "fifo p50", "fifo p99", "fair p50", "fair p99",
               "p99 gain"});
  for (std::size_t i = 0; i < fan_in.size(); ++i) {
    table.add_row({std::to_string(fan_in[i]),
                   format_fixed(series[0].points[i].p50_us, 1) + " us",
                   format_fixed(series[0].points[i].p99_us, 1) + " us",
                   format_fixed(series[1].points[i].p50_us, 1) + " us",
                   format_fixed(series[1].points[i].p99_us, 1) + " us",
                   format_fixed(series[0].points[i].p99_us /
                                    series[1].points[i].p99_us,
                                2) +
                       "x"});
  }
  std::printf("== Ablation — incast probe latency, FIFO vs fair gateway ==\n");
  std::printf("(1 probe flow of %d x %zu B vs N bulk flows of %d x %zu B)\n",
              kProbes, kProbeBytes, kBulkMessages, kBulkBytes);
  table.print();

  if (bench::json_mode(argc, argv)) {
    bench::write_series_json("abl_incast", series);
  }

  // Gate: at N=100 the fair-mode probe p99 must stay bounded — under
  // half of the FIFO p99 (the whole point of the fair gateway), and
  // within 20x of the near-uncontended N=4 fair p99 (no silent collapse
  // into bufferbloat as fan-in grows).
  const double fifo_p99 = series[0].points.back().p99_us;
  const double fair_p99 = series[1].points.back().p99_us;
  const double fair_p99_small = series[1].points.front().p99_us;
  std::printf("\nN=100 probe p99: fifo %.1f us, fair %.1f us "
              "(gate: fair < 0.5x fifo and < 20x fair@N=4 = %.1f us)\n",
              fifo_p99, fair_p99, 20.0 * fair_p99_small);
  if (fair_p99 >= 0.5 * fifo_p99) {
    std::printf("FAIL: fair-gateway p99 not below half of FIFO p99\n");
    return 1;
  }
  if (fair_p99 >= 20.0 * fair_p99_small) {
    std::printf("FAIL: fair-gateway p99 grows unboundedly with fan-in\n");
    return 1;
  }
  return 0;
}
