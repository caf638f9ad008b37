// Tests for the simulated InfiniBand HCA: queue-pair semantics (posted
// receives, SQ depth back-pressure, signaled sends), RDMA write/read with
// target-side completions, registration costs and pinned-memory counters,
// the LRU registration cache (hit/miss accounting, coalescing, eviction
// order, invalidation), and the fault-plan overlay (partition -> give-up
// timer -> poisoned link, payload corruption), and the HCA's PCI slot
// of its own next to another NIC on the same node.
#include <gtest/gtest.h>

#include "net/fault.hpp"
#include "net/ib.hpp"
#include "net/sbp.hpp"
#include "sim/time.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

using sim::to_us;

struct IbBed : Testbed {
  explicit IbBed(int n, IbParams params = IbParams::mellanox_like())
      : Testbed(n), network(&simulator, node_ptrs(), params) {}
  IbNetwork network;
};

// ------------------------------------------------------------ send/recv ---

TEST(Ib, SendConsumesPostedDescriptorsInOrder) {
  IbBed bed(2);
  std::vector<std::byte> first(4096);
  std::vector<std::byte> second(4096);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, 0, first);
    bed.network.port(1).post_recv(0, 0, second);
    const IbCompletion c1 = bed.network.port(1).wait_cq(0);
    const IbCompletion c2 = bed.network.port(1).wait_cq(0);
    EXPECT_EQ(c1.kind, IbCompletion::Kind::kRecv);
    EXPECT_EQ(c1.bytes, 100u);
    EXPECT_EQ(c1.imm, 7u);
    EXPECT_EQ(c1.buffer.data(), first.data());
    EXPECT_TRUE(verify_pattern(
        std::span<const std::byte>(first).subspan(0, 100), 1));
    EXPECT_EQ(c2.bytes, 200u);
    EXPECT_EQ(c2.imm, 9u);
    EXPECT_EQ(c2.buffer.data(), second.data());
    EXPECT_TRUE(verify_pattern(
        std::span<const std::byte>(second).subspan(0, 200), 2));
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));  // after the posts
    bed.network.port(0).post_send(1, 0, make_pattern_buffer(100, 1), 7);
    bed.network.port(0).post_send(1, 0, make_pattern_buffer(200, 2), 9);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Ib, SendWithoutPostedReceiveBreaksTheQp) {
  IbBed bed(2);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).post_send(1, 0, make_pattern_buffer(64, 1));
  });
  EXPECT_DEATH({ (void)bed.simulator.run(); }, "no posted receive");
}

TEST(Ib, SignaledSendRaisesLocalCompletion) {
  IbBed bed(2);
  std::vector<std::byte> sink(4096);
  std::uint64_t wr = 0;
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, 0, sink);
    (void)bed.network.port(1).wait_cq(0);
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    wr = bed.network.port(0).post_send(1, 0, make_pattern_buffer(256, 1),
                                       /*imm=*/0, /*signaled=*/true);
    const IbCompletion c = bed.network.port(0).wait_cq(0);
    EXPECT_EQ(c.kind, IbCompletion::Kind::kSend);
    EXPECT_EQ(c.wr_id, wr);
    EXPECT_TRUE(c.ok);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Ib, SendQueueDepthBackPressuresThePoster) {
  IbParams params = IbParams::mellanox_like();
  params.qp_depth = 2;
  IbBed bed(2, params);
  const std::size_t sends = 8;
  std::vector<std::vector<std::byte>> sinks(sends);
  bed.simulator.spawn("receiver", [&] {
    for (auto& sink : sinks) {
      sink.resize(params.mtu);
      bed.network.port(1).post_recv(0, 0, sink);
    }
    for (std::size_t i = 0; i < sends; ++i) {
      (void)bed.network.port(1).wait_cq(0);
    }
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    const auto payload = make_pattern_buffer(params.mtu, 3);
    for (std::size_t i = 0; i < sends; ++i) {
      bed.network.port(0).post_send(1, 0, payload);
      // The SQ admits at most qp_depth outstanding WRs; the ninth post
      // would have to wait for serialization, never queue-build beyond.
      EXPECT_LE(bed.network.port(0).outstanding(1, 0), 2u);
    }
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

// ------------------------------------------------------------- RDMA ops ---

TEST(Ib, RdmaWriteLandsAndCompletesBothSides) {
  IbBed bed(2);
  const std::size_t size = 64 * 1024;
  std::vector<std::byte> sink(size);
  IbMr sink_mr;
  bed.simulator.spawn("target", [&] {
    sink_mr = bed.network.port(1).register_memory(sink);
    const IbCompletion c = bed.network.port(1).wait_cq(0);
    EXPECT_EQ(c.kind, IbCompletion::Kind::kWriteImm);
    EXPECT_EQ(c.imm, 42u);
    EXPECT_EQ(c.bytes, size);
    EXPECT_TRUE(verify_pattern(sink, 5));
    bed.network.port(1).deregister(sink_mr);
  });
  bed.simulator.spawn("writer", [&] {
    bed.simulator.advance(sim::microseconds(100));  // after registration
    const auto payload = make_pattern_buffer(size, 5);
    const std::uint64_t wr = bed.network.port(0).post_rdma_write(
        1, 0, payload, sink_mr.key, /*roffset=*/0, /*imm=*/42);
    const IbCompletion c = bed.network.port(0).wait_cq(0);
    EXPECT_EQ(c.kind, IbCompletion::Kind::kRdmaWrite);
    EXPECT_EQ(c.wr_id, wr);
    EXPECT_TRUE(c.ok);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Ib, RdmaWriteHonorsRegionOffset) {
  IbBed bed(2);
  std::vector<std::byte> region(8192);
  IbMr mr;
  bed.simulator.spawn("target", [&] {
    mr = bed.network.port(1).register_memory(region);
    (void)bed.network.port(1).wait_cq(0);
    EXPECT_TRUE(verify_pattern(
        std::span<const std::byte>(region).subspan(4096, 1024), 6));
  });
  bed.simulator.spawn("writer", [&] {
    bed.simulator.advance(sim::microseconds(100));
    bed.network.port(0).post_rdma_write(1, 0, make_pattern_buffer(1024, 6),
                                        mr.key, /*roffset=*/4096,
                                        /*imm=*/1);
    (void)bed.network.port(0).wait_cq(0);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Ib, RdmaReadPullsTheRemoteRegion) {
  IbBed bed(2);
  const std::size_t size = 48 * 1024;
  const auto source = make_pattern_buffer(size, 7);
  IbMr source_mr;
  bed.simulator.spawn("target", [&] {
    source_mr = bed.network.port(1).register_memory(source);
    // One-sided: the target CPU never runs for the read itself.
  });
  bed.simulator.spawn("reader", [&] {
    bed.simulator.advance(sim::microseconds(100));
    std::vector<std::byte> landing(size);
    const std::uint64_t wr = bed.network.port(0).post_rdma_read(
        1, 0, landing, source_mr.key, /*roffset=*/0);
    const IbCompletion c = bed.network.port(0).wait_cq(0);
    EXPECT_EQ(c.kind, IbCompletion::Kind::kRdmaRead);
    EXPECT_EQ(c.wr_id, wr);
    EXPECT_TRUE(c.ok);
    EXPECT_TRUE(verify_pattern(landing, 7));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

// ------------------------------------------------- registration costs ---

TEST(Ib, RegistrationChargesBasePlusPerPage) {
  IbBed bed(1);
  std::vector<std::byte> small(4096);
  std::vector<std::byte> large(4096 * 64);
  sim::Duration small_cost = 0;
  sim::Duration large_cost = 0;
  bed.simulator.spawn("f", [&] {
    const sim::Time t0 = bed.simulator.now();
    const IbMr h1 = bed.network.port(0).register_memory(small);
    small_cost = bed.simulator.now() - t0;
    const sim::Time t1 = bed.simulator.now();
    const IbMr h2 = bed.network.port(0).register_memory(large);
    large_cost = bed.simulator.now() - t1;
    bed.network.port(0).deregister(h1);
    bed.network.port(0).deregister(h2);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  // 30us base + 3us/page: 1 page vs 64 pages.
  EXPECT_NEAR(to_us(small_cost), 33.0, 1.0);
  EXPECT_NEAR(to_us(large_cost - small_cost), 3.0 * 63, 2.0);
}

TEST(Ib, PinnedMemoryCountersTrackRegistration) {
  IbBed bed(1);
  std::vector<std::byte> buffer(10000);
  bed.simulator.spawn("f", [&] {
    const IbMr mr = bed.network.port(0).register_memory(buffer);
    EXPECT_EQ(bed.nodes[0]->mem().pinned_bytes, 10000u);
    EXPECT_EQ(bed.nodes[0]->mem().reg_count, 1u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 0u);
    bed.network.port(0).deregister(mr);
    EXPECT_EQ(bed.nodes[0]->mem().pinned_bytes, 0u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 1u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

// ---------------------------------------------------- registration cache ---

TEST(IbRegCache, RepeatedAcquireHitsWithoutReRegistering) {
  IbBed bed(1);
  std::vector<std::byte> buffer(16 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    const IbMr a = cache.acquire(buffer.data(), buffer.size());
    cache.release(a);
    const IbMr b = cache.acquire(buffer.data(), buffer.size());
    cache.release(b);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    // The pin persisted across release: exactly one registration.
    EXPECT_EQ(bed.nodes[0]->mem().reg_count, 1u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 0u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, SubRangeOfACachedRegionHits) {
  IbBed bed(1);
  std::vector<std::byte> buffer(16 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    const IbMr whole = cache.acquire(buffer.data(), buffer.size());
    cache.release(whole);
    const IbMr part = cache.acquire(buffer.data() + 4096, 2048);
    cache.release(part);
    EXPECT_EQ(part.key, whole.key);
    EXPECT_EQ(cache.stats().hits, 1u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, OverlappingAndAdjacentRegionsCoalesce) {
  IbBed bed(1);
  std::vector<std::byte> buffer(32 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    // [0, 8k) then the overlapping [4k, 16k): one merged entry pinning
    // the union [0, 16k).
    cache.release(cache.acquire(buffer.data(), 8192));
    cache.release(cache.acquire(buffer.data() + 4096, 12288));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().merges, 1u);
    // Adjacent [16k, 24k) also coalesces (no gap, no overlap).
    cache.release(cache.acquire(buffer.data() + 16384, 8192));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().merges, 2u);
    // The union now covers everything: a spanning request is a pure hit.
    const IbMr all = cache.acquire(buffer.data(), 24576);
    cache.release(all);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(all.bytes, 24576u);
    // Merging deregistered the absorbed pins: one live registration.
    EXPECT_EQ(bed.nodes[0]->mem().reg_count,
              bed.nodes[0]->mem().dereg_count + 1);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, DisjointRegionsDoNotCoalesce) {
  IbBed bed(1);
  std::vector<std::byte> buffer(32 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    cache.release(cache.acquire(buffer.data(), 4096));
    cache.release(cache.acquire(buffer.data() + 8192, 4096));  // gap at 4k
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().merges, 0u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, EvictsLeastRecentlyUsed) {
  IbParams params = IbParams::mellanox_like();
  params.regcache_capacity = 2;
  IbBed bed(1, params);
  std::vector<std::byte> a(4096);
  std::vector<std::byte> b(4096);
  std::vector<std::byte> c(4096);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    cache.release(cache.acquire(a.data(), a.size()));
    cache.release(cache.acquire(b.data(), b.size()));
    // Touch `a` so `b` is the least recently used entry.
    cache.release(cache.acquire(a.data(), a.size()));
    EXPECT_EQ(cache.stats().hits, 1u);
    // Capacity 2: inserting `c` must evict `b`, not `a`.
    cache.release(cache.acquire(c.data(), c.size()));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    cache.release(cache.acquire(a.data(), a.size()));
    EXPECT_EQ(cache.stats().hits, 2u);  // survived
    cache.release(cache.acquire(b.data(), b.size()));
    EXPECT_EQ(cache.stats().misses, 4u);  // evicted: re-registered
    // Evictions pay the deregistration cost.
    EXPECT_GT(bed.nodes[0]->mem().dereg_count, 0u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, InvalidateUnpinsOverlappingEntries) {
  IbBed bed(1);
  std::vector<std::byte> buffer(16 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    cache.release(cache.acquire(buffer.data(), 8192));
    cache.release(cache.acquire(buffer.data() + 12288, 4096));
    EXPECT_EQ(cache.size(), 2u);
    // Freeing the first half must drop only the overlapping pin.
    cache.invalidate(buffer.data(), 8192);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    // The freed range re-registers on next use.
    cache.release(cache.acquire(buffer.data(), 8192));
    EXPECT_EQ(cache.stats().misses, 3u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, CapacityZeroRegistersEveryTime) {
  IbParams params = IbParams::mellanox_like();
  params.regcache_capacity = 0;
  IbBed bed(1, params);
  std::vector<std::byte> buffer(4096);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    for (int i = 0; i < 3; ++i) {
      const IbMr mr = cache.acquire(buffer.data(), buffer.size());
      cache.release(mr);
    }
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.size(), 0u);
    // Uncached: every acquire registers, every release deregisters.
    EXPECT_EQ(bed.nodes[0]->mem().reg_count, 3u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 3u);
    EXPECT_EQ(bed.nodes[0]->mem().pinned_bytes, 0u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, ReferencedEntriesAreNotMergedAway) {
  IbBed bed(1);
  std::vector<std::byte> buffer(32 * 1024);
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    // Hold both registrations, as a TM does while the rkeys are advertised
    // to a peer. The second region abuts the first, but merging would
    // deregister `a` mid-flight — the adjacent regions must coexist.
    const IbMr a = cache.acquire(buffer.data(), 8192);
    const IbMr b = cache.acquire(buffer.data() + 8192, 8192);
    EXPECT_NE(a.key, b.key);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().merges, 0u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 0u);
    cache.release(a);
    cache.release(b);
    // Idle again: a spanning acquire coalesces both into one union pin.
    const IbMr all = cache.acquire(buffer.data(), 16384);
    cache.release(all);
    EXPECT_EQ(cache.stats().merges, 2u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(all.bytes, 16384u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbRegCache, ReferencedEntriesAreNotEvicted) {
  IbParams params = IbParams::mellanox_like();
  params.regcache_capacity = 1;
  IbBed bed(1, params);
  std::vector<std::byte> buffer(64 * 1024);  // gaps keep the regions apart
  std::byte* const a_ptr = buffer.data();
  std::byte* const b_ptr = buffer.data() + 16384;
  std::byte* const c_ptr = buffer.data() + 32768;
  bed.simulator.spawn("f", [&] {
    IbRegCache& cache = bed.network.port(0).reg_cache();
    const IbMr a = cache.acquire(a_ptr, 4096);
    // `a` is still referenced, so inserting `b` cannot evict it even at
    // capacity 1: the cache temporarily exceeds capacity instead.
    const IbMr b = cache.acquire(b_ptr, 4096);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(bed.nodes[0]->mem().dereg_count, 0u);
    cache.release(a);
    // Now `a` is the only idle entry: inserting `c` evicts it, and only
    // it (`b` is still in use).
    const IbMr c = cache.acquire(c_ptr, 4096);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    cache.release(b);
    cache.release(c);
    // `b` survived the over-capacity episode: still a hit.
    cache.release(cache.acquire(b_ptr, 4096));
    EXPECT_EQ(cache.stats().hits, 1u);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

// -------------------------------------------------------- fault overlay ---

TEST(IbFault, PartitionTripsTheGiveUpTimerAndPoisonsTheLink) {
  IbParams params = IbParams::mellanox_like();
  params.op_timeout = sim::microseconds(500);
  FaultPlan plan(/*seed=*/3);
  plan.partition(0, 1, /*from=*/0);  // never heals
  params.fabric.faults = &plan;
  IbBed bed(2, params);
  int handler_calls = 0;
  Status handler_status;
  bed.network.set_link_error_handler(
      [&](std::uint32_t, std::uint32_t, const Status& status) {
        ++handler_calls;
        handler_status = status;
      });
  std::vector<std::byte> sink(4096);
  IbMr mr;
  bed.simulator.spawn("target", [&] {
    mr = bed.network.port(1).register_memory(sink);
  });
  bed.simulator.spawn("writer", [&] {
    bed.simulator.advance(sim::microseconds(100));
    const auto payload = make_pattern_buffer(4096, 9);
    const std::uint64_t wr =
        bed.network.port(0).post_rdma_write(1, 0, payload, mr.key, 0);
    const IbCompletion c = bed.network.port(0).wait_cq(0);
    EXPECT_EQ(c.wr_id, wr);
    EXPECT_FALSE(c.ok);  // flushed in error by the give-up timer
    EXPECT_FALSE(bed.network.port(0).link_status(1).is_ok());
    // Work toward the dead peer now fails immediately.
    const std::uint64_t wr2 = bed.network.port(0).post_send(
        1, 0, payload, /*imm=*/0, /*signaled=*/true);
    const IbCompletion c2 = bed.network.port(0).wait_cq(0);
    EXPECT_EQ(c2.wr_id, wr2);
    EXPECT_FALSE(c2.ok);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(handler_calls, 1);  // both directions poisoned, one report
  EXPECT_EQ(handler_status.code(), ErrorCode::kUnavailable);
}

TEST(IbFault, ExplicitFailLinkFlushesOutstandingWork) {
  IbBed bed(2);
  std::vector<std::byte> sink(64 * 1024);
  IbMr mr;
  bed.simulator.spawn("target", [&] {
    mr = bed.network.port(1).register_memory(sink);
  });
  bed.simulator.spawn("writer", [&] {
    bed.simulator.advance(sim::microseconds(100));
    const auto payload = make_pattern_buffer(64 * 1024, 4);
    bed.network.port(0).post_rdma_write(1, 0, payload, mr.key, 0);
    const IbCompletion c = bed.network.port(0).wait_cq(0);
    EXPECT_FALSE(c.ok);
  });
  bed.simulator.spawn_daemon("killer", [&] {
    bed.simulator.advance(sim::microseconds(110));
    bed.network.fail_link(0, 1, unavailable("cable pulled"));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(IbFault, CorruptionOverlayFlipsPayloadBytes) {
  IbParams params = IbParams::mellanox_like();
  FaultPlan plan(/*seed=*/17);
  LinkFaults faults;
  faults.corrupt_rate = 1.0;  // every packet loses a byte
  plan.set_default_faults(faults);
  params.fabric.faults = &plan;
  IbBed bed(2, params);
  std::vector<std::byte> sink(4096);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, 0, sink);
    const IbCompletion c = bed.network.port(1).wait_cq(0);
    EXPECT_EQ(c.bytes, 4096u);
    // The HCA has no end-to-end checksum in this model: the corrupt
    // payload lands silently — exactly what the overlay is for.
    EXPECT_FALSE(verify_pattern(sink, 11));
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    bed.network.port(0).post_send(1, 0, make_pattern_buffer(4096, 11));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

// ------------------------------------------------------------- PCI slot ---

// One node carries an SBP NIC and an IB HCA and DMAs on each in turn: every
// DMA that takes the bus over from the other NIC pays the bus turnaround.
TEST(NicSlot, IbAndSbpOnOneNodeChargeBusTurnaround) {
  Testbed bed(2);
  SbpNetwork sbp(&bed.simulator, bed.node_ptrs(), SbpParams::fast_ethernet());
  IbNetwork ib(&bed.simulator, bed.node_ptrs(), IbParams::mellanox_like());
  std::vector<std::byte> landing(1000);
  ib.port(1).post_recv(0, 0, landing);
  bed.simulator.spawn("sender", [&] {
    sbp.port(0).send(1, 0, sbp.port(0).acquire_tx_buffer(), 1000);
    ib.port(0).post_send(1, 0, make_pattern_buffer(1000, 1));
    sbp.port(0).send(1, 0, sbp.port(0).acquire_tx_buffer(), 1000);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_TRUE(verify_pattern(landing, 1));

  const hw::HostParams& host = bed.nodes[0]->params();
  const sim::Duration sbp_dma = sim::transfer_time(
      1000 + sbp.params().header_bytes, host.pci_dma_mbs);
  const sim::Duration ib_dma = sim::transfer_time(
      1000 + ib.params().header_bytes, ib.params().pci_dma_mbs);
  const auto turnaround = [&](sim::Duration dma) {
    return static_cast<sim::Duration>(static_cast<double>(dma) *
                                      host.pci_turnaround_factor);
  };
  EXPECT_EQ(bed.nodes[0]->pci_bus().busy_time(),
            sbp_dma + (ib_dma + turnaround(ib_dma)) +
                (sbp_dma + turnaround(sbp_dma)));
}

}  // namespace
}  // namespace mad2::net
