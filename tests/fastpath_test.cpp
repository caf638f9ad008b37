// Fast-path suite (docs/PERFORMANCE.md): the Switch's flat dispatch
// tables must agree with the PMM's select_tm query everywhere, the
// short-message path must be allocation-free in steady state, ordering
// must hold across mixed deferred/direct sends, the vectorized util
// kernels must be bit-identical to their scalar definitions, and the
// batched progress tick must survive madcheck schedule exploration.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mad/madeleine.hpp"
#include "sim/explore.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {
namespace {

SessionConfig one_network_config(NetworkKind kind, bool fastpath = false) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef net;
  net.name = "net0";
  net.kind = kind;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  config.channels.push_back(ChannelDef{"ch0", "net0"});
  config.fastpath = fastpath;
  return config;
}

// ------------------------------------------------- dispatch equivalence ---

/// Sweep sizes that straddle every declared breakpoint (plus the extremes)
/// across all six mode pairs, asserting the dispatch table answers exactly
/// what the PMM's select_tm query would.
void check_dispatch_equivalence(SessionConfig config) {
  Session session(std::move(config));
  Connection& conn = session.endpoint("ch0", 0).connection(1);
  Pmm& pmm = session.endpoint("ch0", 0).pmm();

  std::vector<std::size_t> sizes{0, 1, 2, 16, 1 << 20};
  for (std::size_t b : pmm.selection_breakpoints()) {
    if (b > 0) sizes.push_back(b - 1);
    sizes.push_back(b);
    sizes.push_back(b + 1);
  }

  const std::vector<SendMode> smodes{send_SAFER, send_LATER, send_CHEAPER};
  const std::vector<ReceiveMode> rmodes{receive_EXPRESS, receive_CHEAPER};
  for (std::size_t len : sizes) {
    for (SendMode s : smodes) {
      for (ReceiveMode r : rmodes) {
        const Connection::SwitchDecision got = conn.probe_switch(len, s, r);
        Tm& want_tm = pmm.select_tm(len, s, r);
        const BmmKind want_kind = select_bmm_kind(want_tm, s, r);
        EXPECT_EQ(got.tm, &want_tm)
            << pmm.name() << " len=" << len
            << " smode=" << static_cast<int>(s)
            << " rmode=" << static_cast<int>(r) << ": table picked "
            << (got.tm != nullptr ? got.tm->name() : "null") << ", select_tm "
            << want_tm.name();
        EXPECT_EQ(got.kind, want_kind)
            << pmm.name() << " len=" << len
            << " smode=" << static_cast<int>(s)
            << " rmode=" << static_cast<int>(r);
      }
    }
  }
}

TEST(FastPathDispatch, TcpMatchesLegacy) {
  check_dispatch_equivalence(one_network_config(NetworkKind::kTcp));
}

TEST(FastPathDispatch, BipMatchesLegacy) {
  check_dispatch_equivalence(one_network_config(NetworkKind::kBip));
}

TEST(FastPathDispatch, SisciMatchesLegacy) {
  check_dispatch_equivalence(one_network_config(NetworkKind::kSisci));
}

TEST(FastPathDispatch, SisciWithDmaMatchesLegacy) {
  // DMA adds a second boundary at dma_min_bytes - 1; the default config
  // even overlaps it with the short cutoff when dma_min_bytes is small —
  // both shapes must table identically.
  for (std::uint32_t dma_min : {512u, 32768u}) {
    SessionConfig config = one_network_config(NetworkKind::kSisci);
    SciPmmOptions options;
    options.enable_dma = true;
    options.dma_min_bytes = dma_min;
    config.channels[0].sci_options = options;
    check_dispatch_equivalence(std::move(config));
  }
}

TEST(FastPathDispatch, ViaMatchesLegacy) {
  check_dispatch_equivalence(one_network_config(NetworkKind::kVia));
}

TEST(FastPathDispatch, SbpMatchesLegacy) {
  check_dispatch_equivalence(one_network_config(NetworkKind::kSbp));
}

TEST(FastPathDispatch, IbMatchesLegacy) {
  // The IB driver's table covers the eager cutoff and the EXPRESS/CHEAPER
  // split between RDMA-write and RDMA-read rendezvous.
  check_dispatch_equivalence(one_network_config(NetworkKind::kIb));
}

TEST(FastPathDispatch, HotPathsUseTheTable) {
  // After real traffic, the table counted every driver's selections
  // (fast_selects > 0).
  for (NetworkKind kind : {NetworkKind::kTcp, NetworkKind::kBip,
                           NetworkKind::kSisci, NetworkKind::kVia,
                           NetworkKind::kSbp, NetworkKind::kIb}) {
    Session session(one_network_config(kind));
    session.spawn(0, "tx", [&](NodeRuntime& rt) {
      for (std::size_t size : {16, 300, 2000, 70000}) {
        auto payload = make_pattern_buffer(size, size);
        auto& conn = rt.channel("ch0").begin_packing(1);
        conn.pack(payload);
        conn.end_packing();
      }
    });
    session.spawn(1, "rx", [&](NodeRuntime& rt) {
      for (std::size_t size : {16, 300, 2000, 70000}) {
        auto& conn = rt.channel("ch0").begin_unpacking();
        std::vector<std::byte> out(size);
        conn.unpack(out);
        conn.end_unpacking();
        EXPECT_TRUE(verify_pattern(out, size));
      }
    });
    ASSERT_TRUE(session.run().is_ok());
    for (std::uint32_t node : {0u, 1u}) {
      const TrafficStats stats = session.endpoint("ch0", node).stats();
      EXPECT_GT(stats.switching.fast_selects, 0u) << to_string(kind);
    }
  }
}

// ------------------------------------------------- zero-allocation flood ---

/// Post-warmup short-message floods may not allocate on either node: the
/// receive-slot slab, staging pools and coalescing buffers are all sized
/// during setup/warmup and recycled afterwards.
void check_alloc_free_flood(NetworkKind kind, std::size_t size) {
  Session session(one_network_config(kind, /*fastpath=*/true));
  constexpr int kWarmup = 32;
  constexpr int kMessages = 256;
  std::uint64_t tx_start = 0;
  std::uint64_t tx_end = 0;
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{5});
    for (int i = 0; i < kWarmup + kMessages; ++i) {
      if (i == kWarmup) tx_start = rt.node().mem().alloc_count;
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
    tx_end = rt.node().mem().alloc_count;
  });
  std::uint64_t rx_start = 0;
  std::uint64_t rx_end = 0;
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    std::vector<std::byte> out(size);
    for (int i = 0; i < kWarmup + kMessages; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      conn.unpack(out);
      conn.end_unpacking();
      if (i == kWarmup - 1) rx_start = rt.node().mem().alloc_count;
    }
    rx_end = rt.node().mem().alloc_count;
  });
  ASSERT_TRUE(session.run().is_ok());
  EXPECT_EQ(tx_end - tx_start, 0u)
      << to_string(kind) << " sender allocated during the flood";
  EXPECT_EQ(rx_end - rx_start, 0u)
      << to_string(kind) << " receiver allocated during the flood";
}

TEST(FastPathAlloc, BipShortFloodIsAllocationFree) {
  check_alloc_free_flood(NetworkKind::kBip, 8);
  check_alloc_free_flood(NetworkKind::kBip, 256);
}

TEST(FastPathAlloc, TcpFloodIsAllocationFree) {
  check_alloc_free_flood(NetworkKind::kTcp, 8);
  check_alloc_free_flood(NetworkKind::kTcp, 256);
}

// ------------------------------------------------- deferred/direct order ---

TEST(FastPathOrdering, MixedSmallAndLargeBlocksStayOrdered) {
  // Small blocks ride the deferred coalescing path, large ones the direct
  // path; a direct send must flush staged bytes first so the stream order
  // is exactly the pack order.
  const std::vector<std::size_t> sizes{8, 64, 100000, 16, 70000, 32, 8};
  Session session(one_network_config(NetworkKind::kTcp, /*fastpath=*/true));
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (int round = 0; round < 3; ++round) {
      auto& conn = rt.channel("ch0").begin_packing(1);
      std::vector<std::vector<std::byte>> blocks;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        blocks.push_back(
            make_pattern_buffer(sizes[i], 100 * round + i));
      }
      for (const auto& block : blocks) conn.pack(block);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (int round = 0; round < 3; ++round) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      // Group-BMM blocks land at end_unpacking, so every out buffer must
      // stay alive until then; verify afterwards.
      std::vector<std::vector<std::byte>> outs;
      for (std::size_t size : sizes) outs.emplace_back(size);
      for (auto& out : outs) conn.unpack(out);
      conn.end_unpacking();
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_TRUE(verify_pattern(outs[i], 100 * round + i))
            << "round " << round << " block " << i;
      }
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

// ------------------------------------------------- vectorized util kernels ---

namespace reference {

// The original byte-at-a-time definitions, kept verbatim as the oracle
// for the word-at-a-time versions in util/bytes.cpp.
std::byte pattern_byte(std::uint64_t seed, std::size_t i) {
  const std::uint64_t x =
      (seed * 0x9e3779b97f4a7c15ULL) ^ (static_cast<std::uint64_t>(i) *
                                        0xbf58476d1ce4e5b9ULL);
  return static_cast<std::byte>((x >> 32) & 0xff);
}

void fill_pattern(std::span<std::byte> dst, std::uint64_t seed) {
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = pattern_byte(seed, i);
  }
}

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    hash = (hash ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace reference

TEST(FastPathBytes, VectorizedKernelsMatchScalarReference) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {127, 128, 129, 4096, 65537});
  for (std::size_t n : sizes) {
    for (std::uint64_t seed : {0ull, 42ull, 0xdeadbeefull}) {
      std::vector<std::byte> fast(n);
      std::vector<std::byte> slow(n);
      fill_pattern(fast, seed);
      reference::fill_pattern(slow, seed);
      ASSERT_TRUE(n == 0 ||
                  std::memcmp(fast.data(), slow.data(), n) == 0)
          << "fill_pattern diverges at n=" << n << " seed=" << seed;
      EXPECT_TRUE(verify_pattern(fast, seed)) << "n=" << n;
      EXPECT_EQ(fnv1a(fast), reference::fnv1a(slow))
          << "fnv1a diverges at n=" << n << " seed=" << seed;
      if (n > 0) {
        // verify_pattern must still catch single-byte corruption in
        // every lane position.
        std::vector<std::byte> bad = fast;
        bad[n / 2] ^= std::byte{0x01};
        EXPECT_FALSE(verify_pattern(bad, seed)) << "n=" << n;
      }
    }
  }
}

// ------------------------------------------------- progress-tick explore ---

/// Body for sim::explore: a fastpath session whose messages must all
/// arrive intact no matter how the scheduler interleaves the sender, the
/// receiver pump and the progress-engine daemon.
Status explore_fastpath_body(NetworkKind kind) {
  const std::vector<std::size_t> sizes{8, 64, 8, 300, 8};
  Session session(one_network_config(kind, /*fastpath=*/true));
  std::string failure;
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      auto payload = make_pattern_buffer(sizes[i], 7 * i + 1);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(sizes[i]);
      conn.unpack(out);
      conn.end_unpacking();
      if (!verify_pattern(out, 7 * i + 1)) {
        failure = "message " + std::to_string(i) +
                  " corrupt under explored schedule";
      }
    }
  });
  const Status run = session.run();
  if (!run.is_ok()) return run;
  if (!failure.empty()) return internal_error(failure);
  return Status::ok();
}

TEST(FastPathExplore, TcpProgressTickSurvivesSchedules) {
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(
      [] { return explore_fastpath_body(NetworkKind::kTcp); }, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(FastPathExplore, BipDeferredCreditsSurviveSchedules) {
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(
      [] { return explore_fastpath_body(NetworkKind::kBip); }, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(FastPathExplore, SciDeferredFeedbackSurvivesSchedules) {
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(
      [] { return explore_fastpath_body(NetworkKind::kSisci); }, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(FastPathProgress, SciFeedbackRidesTheProgressTick) {
  // A SISCI-only fastpath session: the per-unit feedback writes are gone,
  // so any doorbells/flushes the engine reports came from the SciPmm
  // client. Shorts flood the slot window and bulks cycle the 2-deep ring,
  // both directions, so deferral is exercised under pressure.
  Session session(one_network_config(NetworkKind::kSisci, /*fastpath=*/true));
  const int shorts = 64;
  session.spawn(0, "tx", [&](NodeRuntime& rt) {
    for (int i = 0; i < shorts; ++i) {
      auto payload = make_pattern_buffer(16, i);
      auto& conn = rt.channel("ch0").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
    auto bulk = make_pattern_buffer(100 * 1000, 77);
    auto& conn = rt.channel("ch0").begin_packing(1);
    conn.pack(bulk);
    conn.end_packing();
  });
  session.spawn(1, "rx", [&](NodeRuntime& rt) {
    for (int i = 0; i < shorts; ++i) {
      auto& conn = rt.channel("ch0").begin_unpacking();
      std::vector<std::byte> out(16);
      conn.unpack(out);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, i));
    }
    auto& conn = rt.channel("ch0").begin_unpacking();
    std::vector<std::byte> out(100 * 1000);
    conn.unpack(out);
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(out, 77));
  });
  ASSERT_TRUE(session.run().is_ok());
  const ProgressEngine* engine = session.progress_engine(1);
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->counters().doorbells, 0u);
  EXPECT_GT(engine->counters().flushes, 0u);
}

}  // namespace
}  // namespace mad2::mad
