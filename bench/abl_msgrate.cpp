// Ablation: short-message rate with the allocation-free fast path on/off.
//
// One sender floods one receiver with small messages (8/64/256 B) over a
// TCP channel and a BIP channel, with the `fastpath` session stanza off
// (legacy per-message path) and on (batched progress engine). The figure
// of merit is messages per simulated second measured at the receiver,
// plus the per-message sender CPU ticks spent in the pack path
// (mad::SwitchCounters::pack_cpu_ticks) and the dispatch-table select
// count.
//
// The TCP network runs at a gigabit-class 125 MB/s wire (instead of the
// default Fast Ethernet 12.5 MB/s) so that even the 256 B point is
// kernel-path-bound, not wire-serialization-bound: what this bench
// measures — and what the fast path attacks — is the per-message syscall
// and bookkeeping overhead, one send + one recv syscall per message on
// the legacy path vs one syscall per coalesced batch with the fast path.
// BIP has no syscalls to elide (its short path is already user-level);
// there the fast path only defers credit-return control messages, so the
// BIP rows are a regression guard (ratio >= 0.95), not a speedup claim.
//
// This bench is the regression gate for the fast path: it fails (exit 1)
// if TCP msgs/sec with the fast path on is not >= 1.5x the legacy rate
// at every size, or if a BIP rate regresses below 0.95x legacy.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/tcp.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mad2;

constexpr int kWarmup = 64;
constexpr int kMessages = 1024;

mad::SessionConfig msgrate_config(mad::NetworkKind kind, bool fastpath) {
  mad::SessionConfig config = bench::two_node_config(kind);
  if (kind == mad::NetworkKind::kTcp) {
    // Gigabit-class wire: keep the 18 us syscalls (the overhead under
    // test) but take wire serialization out of the critical path.
    net::TcpParams params = net::TcpParams::fast_ethernet();
    params.fabric.wire_mbs = 125.0;
    config.networks[0].params = params;
  }
  config.fastpath = fastpath;
  return config;
}

struct RateResult {
  double msgs_per_sec = 0.0;
  double sim_us_per_msg = 0.0;
  double pack_ticks_per_msg = 0.0;
  std::uint64_t fast_selects = 0;
  std::uint64_t alloc_delta = 0;  // sender + receiver, post-warmup flood
};

/// One flood: node 0 sends kWarmup + kMessages messages of `size` bytes
/// to node 1. Rate is measured at the receiver across the post-warmup
/// messages; allocation deltas are sampled on both nodes over the same
/// window.
RateResult run_flood(mad::NetworkKind kind, std::size_t size,
                     bool fastpath) {
  mad::Session session(msgrate_config(kind, fastpath));
  constexpr int kTotal = kWarmup + kMessages;

  std::uint64_t sender_alloc_start = 0;
  std::uint64_t sender_alloc_end = 0;
  session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{42});
    for (int i = 0; i < kTotal; ++i) {
      if (i == kWarmup) sender_alloc_start = rt.node().mem().alloc_count;
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
    sender_alloc_end = rt.node().mem().alloc_count;
  });

  sim::Time recv_start = 0;
  sim::Time recv_end = 0;
  std::uint64_t recv_alloc_start = 0;
  std::uint64_t recv_alloc_end = 0;
  session.spawn(1, "receiver", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < kTotal; ++i) {
      auto& conn = rt.channel("ch").begin_unpacking();
      conn.unpack(data);
      conn.end_unpacking();
      if (i == kWarmup - 1) {
        recv_start = rt.simulator().now();
        recv_alloc_start = rt.node().mem().alloc_count;
      }
    }
    recv_end = rt.simulator().now();
    recv_alloc_end = rt.node().mem().alloc_count;
  });
  MAD2_CHECK(session.run().is_ok(), "msgrate bench session failed");

  RateResult result;
  const double elapsed_us = sim::to_us(recv_end - recv_start);
  result.sim_us_per_msg = elapsed_us / kMessages;
  result.msgs_per_sec = 1e6 * kMessages / elapsed_us;
  const mad::TrafficStats stats = session.endpoint("ch", 0).stats();
  result.pack_ticks_per_msg =
      static_cast<double>(stats.switching.pack_cpu_ticks) / kTotal;
  result.fast_selects = stats.switching.fast_selects;
  result.alloc_delta = (sender_alloc_end - sender_alloc_start) +
                       (recv_alloc_end - recv_alloc_start);
  return result;
}

std::string format_fixed(double value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

struct RateSeries {
  std::string label;
  mad::NetworkKind kind;
  bool fastpath;
  std::vector<RateResult> points;
};

void write_msgrate_json(const std::vector<std::uint64_t>& sizes,
                        const std::vector<RateSeries>& series) {
  FILE* out = std::fopen("BENCH_abl_msgrate.json", "w");
  MAD2_CHECK(out != nullptr, "cannot write bench JSON output");
  std::fprintf(out, "{\n  \"figure\": \"abl_msgrate\",\n  \"series\": [\n");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::fprintf(out, "    {\"label\": \"%s\", \"points\": [\n",
                 series[s].label.c_str());
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      const RateResult& r = series[s].points[i];
      std::fprintf(
          out,
          "      {\"size\": %llu, \"msgs_per_sec\": %.1f, "
          "\"sim_us_per_msg\": %.4f, \"pack_ticks_per_msg\": %.1f, "
          "\"fast_selects\": %llu, "
          "\"alloc_delta\": %llu}%s\n",
          static_cast<unsigned long long>(sizes[i]), r.msgs_per_sec,
          r.sim_us_per_msg, r.pack_ticks_per_msg,
          static_cast<unsigned long long>(r.fast_selects),
          static_cast<unsigned long long>(r.alloc_delta),
          i + 1 < series[s].points.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", s + 1 < series.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_abl_msgrate.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mad2;
  const std::vector<std::uint64_t> sizes{8, 64, 256};

  std::vector<RateSeries> series{
      {"tcp-legacy", mad::NetworkKind::kTcp, false, {}},
      {"tcp-fastpath", mad::NetworkKind::kTcp, true, {}},
      {"bip-legacy", mad::NetworkKind::kBip, false, {}},
      {"bip-fastpath", mad::NetworkKind::kBip, true, {}},
  };
  for (RateSeries& s : series) {
    for (std::uint64_t size : sizes) {
      s.points.push_back(run_flood(s.kind, size, s.fastpath));
    }
  }

  const RateSeries& tcp_off = series[0];
  const RateSeries& tcp_on = series[1];
  const RateSeries& bip_off = series[2];
  const RateSeries& bip_on = series[3];

  Table table({"size", "tcp off msg/s", "tcp on msg/s", "tcp gain",
               "bip off msg/s", "bip on msg/s", "bip gain"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    table.add_row(
        {std::to_string(sizes[i]) + " B",
         format_fixed(tcp_off.points[i].msgs_per_sec, 0),
         format_fixed(tcp_on.points[i].msgs_per_sec, 0),
         format_fixed(tcp_on.points[i].msgs_per_sec /
                          tcp_off.points[i].msgs_per_sec,
                      2) +
             "x",
         format_fixed(bip_off.points[i].msgs_per_sec, 0),
         format_fixed(bip_on.points[i].msgs_per_sec, 0),
         format_fixed(bip_on.points[i].msgs_per_sec /
                          bip_off.points[i].msgs_per_sec,
                      2) +
             "x"});
  }
  std::printf(
      "== Ablation — short-message rate, fast path off vs on ==\n"
      "(%d-message flood per point after %d warmup, TCP wire at 125 MB/s)\n",
      kMessages, kWarmup);
  table.print();
  std::printf(
      "(sender pack ticks/msg at 8 B: tcp off %.1f on %.1f, "
      "bip off %.1f on %.1f; alloc delta during flood: bip on %llu)\n",
      tcp_off.points[0].pack_ticks_per_msg,
      tcp_on.points[0].pack_ticks_per_msg,
      bip_off.points[0].pack_ticks_per_msg,
      bip_on.points[0].pack_ticks_per_msg,
      static_cast<unsigned long long>(bip_on.points[0].alloc_delta));

  if (bench::json_mode(argc, argv)) {
    write_msgrate_json(sizes, series);
  }

  // Gates. TCP: the fast path exists to amortize the per-message syscall
  // pair; anything under 1.5x means the batching is broken. BIP: no
  // syscalls to save — only deferred credits — so just forbid regression.
  bool ok = true;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double tcp_gain =
        tcp_on.points[i].msgs_per_sec / tcp_off.points[i].msgs_per_sec;
    const double bip_gain =
        bip_on.points[i].msgs_per_sec / bip_off.points[i].msgs_per_sec;
    std::printf("%4llu B: tcp %.2fx (gate >= 1.50), bip %.2fx "
                "(gate >= 0.95)\n",
                static_cast<unsigned long long>(sizes[i]), tcp_gain,
                bip_gain);
    if (tcp_gain < 1.5) {
      std::printf("FAIL: TCP fast-path msg rate below 1.5x legacy\n");
      ok = false;
    }
    if (bip_gain < 0.95) {
      std::printf("FAIL: BIP fast-path msg rate regressed below 0.95x\n");
      ok = false;
    }
  }
  // The fast path must also be allocation-free in steady state: the
  // post-warmup flood may not allocate on either node.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (bip_on.points[i].alloc_delta != 0) {
      std::printf("FAIL: BIP fast-path flood allocated (%llu allocs)\n",
                  static_cast<unsigned long long>(
                      bip_on.points[i].alloc_delta));
      ok = false;
    }
    if (tcp_on.points[i].alloc_delta != 0) {
      std::printf("FAIL: TCP fast-path flood allocated (%llu allocs)\n",
                  static_cast<unsigned long long>(
                      tcp_on.points[i].alloc_delta));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
