// Ablation: the RDMA-class IB driver (docs/RDMA.md).
//
// Three measurements:
//
//  1. Fig4/5-style latency/bandwidth sweep over the IB channel, with the
//     1 MiB points of the BIP and SISCI drivers measured in the same
//     binary as the comparison line. The IB rendezvous path streams
//     MTU-sized fragments through the 450 MB/s PCI DMA engine; after
//     per-fragment overheads the curve tops out around ~267 MB/s at
//     1 MiB — more than double BIP's ~123 MB/s ceiling, the new top line.
//
//  2. Eager/rendezvous crossover: one-way latency of mid-sized blocks
//     with the cutoff forced below (all-rendezvous) and above (all-eager)
//     the block size. Eager pays a send-side copy into the pre-registered
//     pool; rendezvous pays the RTS/CTS round plus registration. The
//     crossover between the two regimes is the `eager_cutoff` knob's
//     reason to exist.
//
//  3. Registration-cache ablation: repeated-buffer rendezvous traffic
//     (the same source and landing buffers over and over, the dominant
//     pattern in real MPI apps) with the per-port cache at its default
//     capacity vs disabled (`regcache_capacity = 0`, register/deregister
//     on every access). The JSON sidecar carries the measured hit rate.
//
// This bench is the CI regression gate for the IB driver: it fails
// (exit 1) unless IB 1 MiB bandwidth beats the best existing driver,
// cache-on bandwidth is >= 1.5x cache-off, and the cache hit rate is
// >= 90% for the repeated-buffer flood.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/ib.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mad2;

std::string format_fixed(double value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

// --- eager/rendezvous crossover --------------------------------------------

/// One-way latency (us) of `size`-byte messages with a forced cutoff.
double one_way_with_cutoff(std::size_t size, std::size_t cutoff) {
  mad::SessionConfig config = bench::two_node_config(mad::NetworkKind::kIb);
  mad::IbPmmOptions options;
  options.eager_cutoff = cutoff;
  config.channels[0].ib_options = options;
  mad::Session session(std::move(config));
  constexpr int kIterations = 20;
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "ping", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    std::vector<std::byte> back(size);
    start = rt.simulator().now();
    for (int i = 0; i < kIterations; ++i) {
      auto& out = rt.channel("ch").begin_packing(1);
      out.pack(payload);
      out.end_packing();
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(back);
      in.end_unpacking();
    }
    end = rt.simulator().now();
  });
  session.spawn(1, "pong", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < kIterations; ++i) {
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(data);
      in.end_unpacking();
      auto& out = rt.channel("ch").begin_packing(0);
      out.pack(data);
      out.end_packing();
    }
  });
  MAD2_CHECK(session.run().is_ok(), "ib crossover session failed");
  return sim::to_us(end - start) / (2.0 * kIterations);
}

// --- registration-cache ablation -------------------------------------------

struct CacheResult {
  double bandwidth_mbs = 0.0;
  double hit_rate = 0.0;
  std::uint64_t regs = 0;    // both nodes, cumulative
  std::uint64_t deregs = 0;  // both nodes, cumulative
};

/// Repeated-buffer flood: `iterations` rendezvous blocks of `size` bytes
/// from one persistent source buffer into one persistent landing buffer.
CacheResult run_cache_flood(std::size_t size, int iterations,
                            std::uint32_t capacity) {
  mad::SessionConfig config = bench::two_node_config(mad::NetworkKind::kIb);
  net::IbParams params = net::IbParams::mellanox_like();
  params.regcache_capacity = capacity;
  config.networks[0].ib_params = params;
  mad::Session session(std::move(config));

  sim::Time recv_start = 0;
  sim::Time recv_end = 0;
  session.spawn(0, "tx", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{42});
    for (int i = 0; i < iterations; ++i) {
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    recv_start = rt.simulator().now();
    for (int i = 0; i < iterations; ++i) {
      auto& conn = rt.channel("ch").begin_unpacking();
      conn.unpack(data);
      conn.end_unpacking();
    }
    recv_end = rt.simulator().now();
  });
  MAD2_CHECK(session.run().is_ok(), "ib regcache session failed");

  CacheResult result;
  const double elapsed_us = sim::to_us(recv_end - recv_start);
  result.bandwidth_mbs =
      static_cast<double>(size) * iterations / elapsed_us;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  net::IbNetwork& network = *session.network("net0").ib;
  for (std::uint32_t port = 0; port < 2; ++port) {
    const net::IbRegCacheStats stats =
        network.port(port).reg_cache().stats();
    hits += stats.hits;
    misses += stats.misses;
  }
  if (hits + misses > 0) {
    result.hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  for (std::uint32_t node = 0; node < 2; ++node) {
    result.regs += session.node(node).mem().reg_count;
    result.deregs += session.node(node).mem().dereg_count;
  }
  return result;
}

// --- JSON sidecar ----------------------------------------------------------

void write_ib_json(const std::vector<PerfSeries>& sweeps,
                   const std::vector<std::uint64_t>& cross_sizes,
                   const std::vector<double>& rendezvous_us,
                   const std::vector<double>& eager_us,
                   const CacheResult& cache_on,
                   const CacheResult& cache_off) {
  FILE* out = std::fopen("BENCH_abl_ib.json", "w");
  MAD2_CHECK(out != nullptr, "cannot write bench JSON output");
  std::fprintf(out, "{\n  \"figure\": \"abl_ib\",\n%s  \"series\": [\n",
               bench::trace_sidecar_fields("abl_ib").c_str());
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    std::fprintf(out, "    {\"label\": \"%s\", \"points\": [\n",
                 sweeps[s].label.c_str());
    for (std::size_t i = 0; i < sweeps[s].points.size(); ++i) {
      const PerfPoint& p = sweeps[s].points[i];
      std::fprintf(out,
                   "      {\"size\": %llu, \"latency_us\": %.3f, "
                   "\"bandwidth_mbs\": %.3f, \"p50_us\": %.3f, "
                   "\"p95_us\": %.3f, \"p99_us\": %.3f}%s\n",
                   static_cast<unsigned long long>(p.size_bytes),
                   p.latency_us, p.bandwidth_mbs, p.p50_us, p.p95_us,
                   p.p99_us, i + 1 < sweeps[s].points.size() ? "," : "");
    }
    std::fprintf(out, "    ]},\n");
  }
  std::fprintf(out, "    {\"label\": \"crossover\", \"points\": [\n");
  for (std::size_t i = 0; i < cross_sizes.size(); ++i) {
    std::fprintf(out,
                 "      {\"size\": %llu, \"rendezvous_us\": %.3f, "
                 "\"eager_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(cross_sizes[i]),
                 rendezvous_us[i], eager_us[i],
                 i + 1 < cross_sizes.size() ? "," : "");
  }
  std::fprintf(out, "    ]}\n  ],\n");
  std::fprintf(
      out,
      "  \"regcache\": {\"on_mbs\": %.3f, \"off_mbs\": %.3f, "
      "\"gain\": %.3f, \"hit_rate\": %.4f, \"on_regs\": %llu, "
      "\"off_regs\": %llu}\n}\n",
      cache_on.bandwidth_mbs, cache_off.bandwidth_mbs,
      cache_on.bandwidth_mbs / cache_off.bandwidth_mbs, cache_on.hit_rate,
      static_cast<unsigned long long>(cache_on.regs),
      static_cast<unsigned long long>(cache_off.regs));
  std::fclose(out);
  std::printf("wrote BENCH_abl_ib.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mad2;

  // 1. Fig4/5-style sweep, IB vs the paper-era top lines.
  const std::vector<std::uint64_t> sizes{4,     16,     64,      256,
                                         1024,  4096,   8192,    16384,
                                         65536, 262144, 1048576};
  std::vector<PerfSeries> sweeps;
  sweeps.push_back(bench::mad_sweep("ib", mad::NetworkKind::kIb, sizes));
  const std::vector<std::uint64_t> top{1048576};
  sweeps.push_back(bench::mad_sweep("bip", mad::NetworkKind::kBip, top));
  sweeps.push_back(
      bench::mad_sweep("sisci", mad::NetworkKind::kSisci, top));

  Table sweep_table({"size", "ib lat us", "ib MB/s"});
  for (const PerfPoint& p : sweeps[0].points) {
    sweep_table.add_row({std::to_string(p.size_bytes),
                         format_fixed(p.latency_us, 2),
                         format_fixed(p.bandwidth_mbs, 1)});
  }
  std::printf("== IB driver — latency/bandwidth sweep ==\n");
  sweep_table.print();
  const double ib_1m = sweeps[0].points.back().bandwidth_mbs;
  const double bip_1m = sweeps[1].points.back().bandwidth_mbs;
  const double sisci_1m = sweeps[2].points.back().bandwidth_mbs;
  std::printf("1 MiB bandwidth: ib %.1f MB/s, bip %.1f, sisci %.1f\n\n",
              ib_1m, bip_1m, sisci_1m);

  // 2. Eager/rendezvous crossover.
  const std::vector<std::uint64_t> cross_sizes{1024, 2048, 4096, 8192,
                                               16384, 32768};
  std::vector<double> rendezvous_us;
  std::vector<double> eager_us;
  Table cross_table({"size", "rendezvous us", "eager us", "winner"});
  for (std::uint64_t size : cross_sizes) {
    // cutoff = 64 forces rendezvous for every probed size; a cutoff above
    // the largest size forces eager.
    const double rdv = one_way_with_cutoff(size, 64);
    const double eag = one_way_with_cutoff(size, 64 * 1024);
    rendezvous_us.push_back(rdv);
    eager_us.push_back(eag);
    cross_table.add_row({std::to_string(size), format_fixed(rdv, 2),
                         format_fixed(eag, 2),
                         rdv < eag ? "rendezvous" : "eager"});
  }
  std::printf("== Eager/rendezvous crossover (forced cutoffs) ==\n");
  cross_table.print();
  std::printf("\n");

  // 3. Registration-cache ablation on repeated-buffer rendezvous traffic.
  constexpr std::size_t kCacheBlock = 64 * 1024;
  constexpr int kCacheIters = 40;
  const CacheResult cache_on =
      run_cache_flood(kCacheBlock, kCacheIters,
                      net::IbParams{}.regcache_capacity);
  const CacheResult cache_off = run_cache_flood(kCacheBlock, kCacheIters, 0);
  const double gain = cache_on.bandwidth_mbs / cache_off.bandwidth_mbs;
  std::printf(
      "== Registration cache, %d x %zu KiB repeated-buffer flood ==\n"
      "cache on:  %8.1f MB/s  hit rate %5.1f%%  %llu regs / %llu deregs\n"
      "cache off: %8.1f MB/s                  %llu regs / %llu deregs\n"
      "gain: %.2fx\n\n",
      kCacheIters, kCacheBlock / 1024, cache_on.bandwidth_mbs,
      100.0 * cache_on.hit_rate,
      static_cast<unsigned long long>(cache_on.regs),
      static_cast<unsigned long long>(cache_on.deregs),
      cache_off.bandwidth_mbs,
      static_cast<unsigned long long>(cache_off.regs),
      static_cast<unsigned long long>(cache_off.deregs), gain);

  if (bench::json_mode(argc, argv)) {
    write_ib_json(sweeps, cross_sizes, rendezvous_us, eager_us, cache_on,
                  cache_off);
  }

  // Gates.
  bool ok = true;
  if (ib_1m <= bip_1m || ib_1m <= sisci_1m) {
    std::printf("FAIL: IB 1 MiB bandwidth (%.1f MB/s) does not beat the "
                "best existing driver (bip %.1f, sisci %.1f)\n",
                ib_1m, bip_1m, sisci_1m);
    ok = false;
  }
  if (gain < 1.5) {
    std::printf("FAIL: registration cache gain %.2fx below 1.5x\n", gain);
    ok = false;
  }
  if (cache_on.hit_rate < 0.9) {
    std::printf("FAIL: registration cache hit rate %.1f%% below 90%%\n",
                100.0 * cache_on.hit_rate);
    ok = false;
  }
  std::printf("gates: ib 1MiB > max(bip, sisci) %s; regcache gain %.2fx "
              "(>= 1.50) %s; hit rate %.1f%% (>= 90%%) %s\n",
              ok || ib_1m > bip_1m ? "ok" : "FAIL", gain,
              gain >= 1.5 ? "ok" : "FAIL", 100.0 * cache_on.hit_rate,
              cache_on.hit_rate >= 0.9 ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
