// Tests for the pooled zero-copy forwarding data path: recycled fixed-MTU
// packet buffers, piece-preserving gateway retransmit, in-place endpoint
// reassembly and unpack_view borrowing (docs/FORWARDING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "fwd/packet_pool.hpp"
#include "fwd/virtual_channel.hpp"
#include "hw/node.hpp"
#include "obs/metrics.hpp"
#include "routing_testlib.hpp"
#include "sim/explore.hpp"
#include "sim/simulator.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad2::fwd {
namespace {

using mad::ChannelDef;
using mad::NetworkDef;
using mad::NetworkKind;
using mad::NodeRuntime;
using mad::Session;
using mad::SessionConfig;

// Same testbed as fwd_test: cluster {0, 1} and cluster {1, 2} sharing
// gateway node 1.
SessionConfig two_cluster_config(NetworkKind left = NetworkKind::kSisci,
                                 NetworkKind right = NetworkKind::kBip) {
  SessionConfig config;
  config.node_count = 3;
  NetworkDef a;
  a.name = "neta";
  a.kind = left;
  a.nodes = {0, 1};
  NetworkDef b;
  b.name = "netb";
  b.kind = right;
  b.nodes = {1, 2};
  config.networks.push_back(a);
  config.networks.push_back(b);
  config.channels.push_back(ChannelDef{"vcha", "neta"});
  config.channels.push_back(ChannelDef{"vchb", "netb"});
  return config;
}

VirtualChannelDef vdef(std::size_t mtu, std::size_t depth = 2) {
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"vcha", "vchb"};
  def.mtu = mtu;
  def.pipeline_depth = depth;
  return def;
}

void run_one_message(NetworkKind left, NetworkKind right, std::size_t mtu,
                     std::size_t depth, std::size_t size) {
  SCOPED_TRACE("mtu=" + std::to_string(mtu) + " depth=" +
               std::to_string(depth) + " size=" + std::to_string(size));
  Session session(two_cluster_config(left, right));
  VirtualChannel vc(session, vdef(mtu, depth));
  session.spawn(0, "sender", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(size, 3);
    auto& conn = vc.endpoint(0).begin_packing(2);
    conn.pack(payload);
    conn.end_packing();
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    auto& conn = vc.endpoint(2).begin_unpacking();
    std::vector<std::byte> out(size);
    conn.unpack(out);
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(out, 3));
  });
  ASSERT_TRUE(session.run().is_ok());
}

// Byte-identical delivery across MTU x pipeline depth x message size,
// including sizes that land exactly on, just under and just over packet
// boundaries.
TEST(PooledDelivery, SweepMtuDepthSize) {
  for (std::size_t mtu : {2048u, 8192u, 16384u}) {
    for (std::size_t depth : {1u, 2u, 4u}) {
      for (std::size_t size :
           {std::size_t{1}, std::size_t{777}, mtu - 1, mtu, mtu + 1,
            3 * mtu + 100}) {
        run_one_message(NetworkKind::kSisci, NetworkKind::kBip, mtu, depth,
                        size);
      }
    }
  }
}

// A multi-block message whose blocks straddle packet boundaries: the
// first block ends mid-packet, later blocks span several packets. The
// gateway must re-emit the original piece list (meta and payload pieces
// alike) without re-segmenting on block edges.
TEST(PooledDelivery, BlocksStraddlePacketBoundaries) {
  const std::size_t mtu = 4096;
  const std::vector<std::size_t> blocks{4000, 200, 9000, 1, 4096, 13};
  for (std::size_t depth : {1u, 2u}) {
    Session session(two_cluster_config());
    VirtualChannel vc(session, vdef(mtu, depth));
    session.spawn(0, "sender", [&](NodeRuntime&) {
      std::vector<std::vector<std::byte>> payloads;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        payloads.push_back(make_pattern_buffer(blocks[i], i + 1));
      }
      auto& conn = vc.endpoint(0).begin_packing(2);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        conn.pack(payloads[i], mad::send_CHEAPER,
                  i % 2 == 0 ? mad::receive_CHEAPER : mad::receive_EXPRESS);
      }
      conn.end_packing();
    });
    session.spawn(2, "receiver", [&](NodeRuntime&) {
      auto& conn = vc.endpoint(2).begin_unpacking();
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        std::vector<std::byte> out(blocks[i]);
        conn.unpack(out, mad::send_CHEAPER,
                    i % 2 == 0 ? mad::receive_CHEAPER : mad::receive_EXPRESS);
        EXPECT_TRUE(verify_pattern(out, i + 1)) << "block " << i;
      }
      conn.end_unpacking();
    });
    ASSERT_TRUE(session.run().is_ok());
  }
}

// Regression: messages made of many small blocks over a credit-windowed
// hop (BIP shorts) used to deadlock — borrowed slots held by staged
// packets shrank the sender's credit window while the receiver's owed
// credit returns sat below the batching threshold. The short TMs now cap
// retained slots at half the window and flush owed credits before
// blocking.
TEST(PooledDelivery, ManyShortBlocksDoNotStarveCredits) {
  const std::size_t size = 30000;
  for (std::size_t chunk : {100u, 1024u, 2000u, 4000u}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    Session session(two_cluster_config(NetworkKind::kBip, NetworkKind::kBip));
    VirtualChannel vc(session, vdef(16 * 1024));
    session.spawn(0, "sender", [&](NodeRuntime&) {
      auto payload = make_pattern_buffer(size, 8);
      auto& conn = vc.endpoint(0).begin_packing(2);
      for (std::size_t off = 0; off < size; off += chunk) {
        conn.pack(std::span(payload).subspan(off,
                                             std::min(chunk, size - off)));
      }
      conn.end_packing();
    });
    session.spawn(2, "receiver", [&](NodeRuntime&) {
      auto& conn = vc.endpoint(2).begin_unpacking();
      std::vector<std::byte> copy;
      copy.reserve(size);
      std::size_t left = size;
      while (left > 0) {
        const std::size_t want = std::min(left, chunk);
        std::vector<std::byte> out(want);
        conn.unpack(out);
        copy.insert(copy.end(), out.begin(), out.end());
        left -= want;
      }
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(copy, 8));
    });
    const Status run = session.run();
    ASSERT_TRUE(run.is_ok()) << run.message();
  }
}

// ---------------------------------------------------------- the pool ----

// Hand out every free buffer of `pool` (no node: nothing is counted).
std::vector<PooledBuffer> acquire_all(PacketPool& pool) {
  std::vector<PooledBuffer> handles;
  while (pool.free_buffers() > 0) handles.push_back(pool.acquire(nullptr));
  return handles;
}

// prewarm(N) yields N buffers of exactly one MTU each, and no two of them
// share a byte: a landing in one buffer can never overwrite another's.
TEST(PacketPool, PrewarmCarvesDisjointMtuBuffers) {
  const std::size_t mtu = 1000;  // odd: no alignment hides an overlap
  const std::size_t count = 37;
  PacketPool pool(mtu);
  pool.prewarm(count);
  EXPECT_EQ(pool.total_buffers(), count);
  EXPECT_EQ(pool.free_buffers(), count);

  std::vector<PooledBuffer> handles = acquire_all(pool);
  ASSERT_EQ(handles.size(), count);
  std::vector<std::span<std::byte>> areas;
  for (const PooledBuffer& handle : handles) {
    EXPECT_EQ(handle->bytes.size(), mtu);
    areas.push_back(handle->bytes);
  }
  std::sort(areas.begin(), areas.end(), [](const auto& a, const auto& b) {
    return std::less<const std::byte*>()(a.data(), b.data());
  });
  for (std::size_t i = 1; i < areas.size(); ++i) {
    EXPECT_FALSE(std::less<const std::byte*>()(
        areas[i].data(), areas[i - 1].data() + areas[i - 1].size()))
        << "buffers " << i - 1 << " and " << i << " (by address) overlap";
  }
}

// A second prewarm to the same (or a smaller) count is a no-op: the same
// buffers, no new storage.
TEST(PacketPool, RepeatedPrewarmAllocatesNothing) {
  PacketPool pool(512);
  pool.prewarm(8);
  std::vector<std::byte*> before;
  for (const PooledBuffer& handle : acquire_all(pool)) {
    before.push_back(handle->bytes.data());
  }
  pool.prewarm(8);
  pool.prewarm(3);
  EXPECT_EQ(pool.total_buffers(), 8u);
  EXPECT_EQ(pool.free_buffers(), 8u);
  std::vector<std::byte*> after;
  for (const PooledBuffer& handle : acquire_all(pool)) {
    after.push_back(handle->bytes.data());
  }
  std::sort(before.begin(), before.end(), std::less<std::byte*>());
  std::sort(after.begin(), after.end(), std::less<std::byte*>());
  EXPECT_EQ(before, after);
}

// Past the prewarm, each acquire that finds the free list dry adds exactly
// one buffer and counts exactly one allocation on the acquiring node; an
// acquire served from the free list counts a recycle. Once every handle
// drops, every buffer is home again.
TEST(PacketPool, GrowthCountsOneAllocPerDryAcquire) {
  sim::Simulator simulator;
  hw::Node node(&simulator, 0, "n0", hw::HostParams{});
  const std::size_t mtu = 256;
  PacketPool pool(mtu);
  pool.prewarm(4);

  std::vector<PooledBuffer> handles;
  for (std::size_t i = 0; i < 4; ++i) handles.push_back(pool.acquire(&node));
  EXPECT_EQ(node.mem().alloc_count, 0u);
  EXPECT_EQ(node.mem().pool_recycle_count, 4u);
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    handles.push_back(pool.acquire(&node));
    EXPECT_EQ(pool.total_buffers(), 4 + extra);
    EXPECT_EQ(pool.free_buffers(), 0u);
    EXPECT_EQ(node.mem().alloc_count, extra);
    EXPECT_EQ(handles.back()->bytes.size(), mtu);
  }
  EXPECT_EQ(node.mem().pool_recycle_count, 4u);

  handles.clear();
  EXPECT_EQ(pool.free_buffers(), pool.total_buffers());
  EXPECT_EQ(pool.total_buffers(), 7u);
  // The grown buffers recycle like the prewarmed ones.
  PooledBuffer again = pool.acquire(&node);
  EXPECT_EQ(node.mem().alloc_count, 3u);
  EXPECT_EQ(node.mem().pool_recycle_count, 5u);
  again.reset();
  EXPECT_EQ(pool.free_buffers(), pool.total_buffers());
}

// ------------------------------------------------------------- stats ----

// Stats regression for the tentpole claim: on a DMA-capable relay
// (Myrinet on both hops) the gateway copies only packet headers — its
// charged memcpy traffic stays orders of magnitude below the forwarded
// payload — and after the pool has warmed up, forwarding allocates
// nothing: every packet buffer is a recycle.
TEST(PooledStats, GatewayZeroPayloadCopyAndNoSteadyStateAllocs) {
  Session session(two_cluster_config(NetworkKind::kBip, NetworkKind::kBip));
  VirtualChannel vc(session, vdef(16 * 1024));
  const std::size_t size = 200000;
  const int warmups = 1;
  const int measured = 4;
  hw::MemCounters after_warmup;
  hw::MemCounters after_run;
  session.spawn(0, "sender", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(size, 9);
    for (int i = 0; i < warmups + measured; ++i) {
      auto& out = vc.endpoint(0).begin_packing(2);
      out.pack(payload);
      out.end_packing();
      // Wait for the ack so the gateway is quiescent before sampling.
      auto& in = vc.endpoint(0).begin_unpacking();
      std::byte ack;
      in.unpack(std::span(&ack, 1));
      in.end_unpacking();
      if (i == warmups - 1) after_warmup = session.node(1).mem();
    }
    after_run = session.node(1).mem();
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    for (int i = 0; i < warmups + measured; ++i) {
      auto& in = vc.endpoint(2).begin_unpacking();
      std::vector<std::byte> out(size);
      in.unpack(out);
      in.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, 9));
      auto& out_conn = vc.endpoint(2).begin_packing(0);
      std::byte ack{1};
      out_conn.pack(std::span(&ack, 1));
      out_conn.end_packing();
    }
  });
  ASSERT_TRUE(session.run().is_ok());

  const std::uint64_t forwarded =
      static_cast<std::uint64_t>(size) * measured;
  const std::uint64_t copied =
      after_run.memcpy_bytes - after_warmup.memcpy_bytes;
  // Headers + size lists + the tiny ack: well under 1% of the payload.
  EXPECT_LT(copied, forwarded / 100)
      << "gateway charged payload copies: " << copied << " bytes for "
      << forwarded << " forwarded";
  EXPECT_EQ(after_run.alloc_count, after_warmup.alloc_count)
      << "forwarding allocated packet buffers after warm-up";
  EXPECT_GT(after_run.pool_recycle_count, after_warmup.pool_recycle_count)
      << "steady-state packets should come from the recycled pool";
}

// unpack_view on the terminal endpoint lends bytes straight out of the
// landed pool buffer: delivery stays byte-identical and the receiving
// node's charged copies stay far below the message size.
TEST(PooledView, UnpackViewBorrowsFromPool) {
  Session session(two_cluster_config(NetworkKind::kBip, NetworkKind::kBip));
  VirtualChannel vc(session, vdef(16 * 1024));
  const std::size_t size = 150000;
  hw::MemCounters receiver_mem;
  // Blocks of 4000 over a 16 kB MTU: most views are in-place lends from
  // the landed packet, roughly every fourth straddles a boundary and goes
  // through the staged scratch copy.
  const std::size_t chunk = 4000;
  session.spawn(0, "sender", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(size, 4);
    auto& conn = vc.endpoint(0).begin_packing(2);
    for (std::size_t off = 0; off < size; off += chunk) {
      conn.pack(std::span(payload).subspan(off,
                                           std::min(chunk, size - off)));
    }
    conn.end_packing();
  });
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    auto& conn = vc.endpoint(2).begin_unpacking();
    std::vector<std::byte> copy;
    copy.reserve(size);
    std::size_t left = size;
    while (left > 0) {
      const std::size_t want = std::min(left, chunk);
      auto view = conn.unpack_view(want);
      ASSERT_EQ(view.size(), want);
      copy.insert(copy.end(), view.begin(), view.end());
      left -= want;
    }
    conn.end_unpacking();
    EXPECT_TRUE(verify_pattern(copy, 4));
    receiver_mem = session.node(2).mem();
  });
  const Status run = session.run();
  ASSERT_TRUE(run.is_ok()) << run.message();
  // The landing is DMA'd into the pool and views are lent in place; only
  // packet-straddling tails go through the scratch staging copy.
  EXPECT_LT(receiver_mem.memcpy_bytes, size / 2)
      << "unpack_view should not copy every byte";
}

// ------------------------------------------------------- fresh slabs ----

// What a run leaves behind that a read of an unwritten pool byte could
// change: the bytes the applications received, the final virtual time,
// and every counter the session and the channel export (per-channel
// TrafficStats, per-node MemCounters, flow and routing counters).
struct RunPrint {
  std::vector<std::byte> delivered;
  std::string failure;  // run_flows' verdict: every payload checked
  sim::Time end = 0;
  std::string metrics;
};

RunPrint finish_run(Session& session, const VirtualChannel& vc) {
  RunPrint print;
  const Status run = session.run();
  EXPECT_TRUE(run.is_ok()) << run.to_string();
  print.end = session.simulator().now();
  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  vc.export_metrics(registry);
  print.metrics = registry.to_json();
  return print;
}

// A FwdFuzz-style gateway run: a seeded random plan of multi-block
// messages with random modes through one gateway, odd MTUs included.
RunPrint random_gateway_run(std::uint64_t seed, NetworkKind left,
                            NetworkKind right, std::size_t mtu,
                            std::size_t depth) {
  Rng rng(seed);
  Session session(two_cluster_config(left, right));
  VirtualChannel vc(session, vdef(mtu, depth));
  struct Block {
    std::size_t size;
    mad::SendMode smode;
    mad::ReceiveMode rmode;
  };
  std::vector<std::vector<Block>> messages(rng.next_range(3, 5));
  for (auto& message : messages) {
    message.resize(rng.next_range(1, 5));
    for (Block& block : message) {
      block.size = rng.next_below(3) == 0 ? rng.next_range(0, 200)
                                          : rng.next_range(201, 30000);
      block.smode = rng.next_bool(0.3) ? mad::send_SAFER : mad::send_CHEAPER;
      block.rmode =
          rng.next_bool(0.3) ? mad::receive_EXPRESS : mad::receive_CHEAPER;
    }
  }
  session.spawn(0, "sender", [&](NodeRuntime&) {
    std::uint64_t pattern = seed * 100;
    for (const auto& message : messages) {
      std::vector<std::vector<std::byte>> payloads;
      for (const Block& block : message) {
        payloads.push_back(make_pattern_buffer(block.size, ++pattern));
      }
      auto& conn = vc.endpoint(0).begin_packing(2);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.pack(payloads[i], message[i].smode, message[i].rmode);
      }
      conn.end_packing();
    }
  });
  std::vector<std::byte> delivered;
  session.spawn(2, "receiver", [&](NodeRuntime&) {
    for (const auto& message : messages) {
      auto& conn = vc.endpoint(2).begin_unpacking();
      std::vector<std::vector<std::byte>> outs;
      for (const Block& block : message) outs.emplace_back(block.size);
      for (std::size_t i = 0; i < message.size(); ++i) {
        conn.unpack(outs[i], message[i].smode, message[i].rmode);
      }
      conn.end_unpacking();
      for (const auto& out : outs) {
        delivered.insert(delivered.end(), out.begin(), out.end());
      }
    }
  });
  RunPrint print = finish_run(session, vc);
  print.delivered = std::move(delivered);
  return print;
}

// Resilient routing over a small TCP fat tree (every hop stages into pool
// bytes: TCP lends no slots), optionally with congestion control's DRR
// gateway queues, and a gateway killed mid-transfer so retained packets
// are replayed over the survivor.
RunPrint fat_tree_run(bool congestion, bool kill) {
  FatTreeBed bed = make_fat_tree(2, 4, 2);
  Session session(bed.config);
  VirtualChannelDef def;
  def.name = "vc";
  def.hops = bed.route(0, 1);
  def.mtu = 4 * 1024;
  mad::TopologyConfig topology;
  topology.enabled = true;
  def.topology = topology;
  std::vector<FlowSpec> flows;
  if (congestion) {
    mad::CongestionConfig config;
    config.enabled = true;
    def.congestion = config;
    // Three senders converge on one leaf.
    for (std::size_t i = 0; i < 3; ++i) {
      flows.push_back(FlowSpec{bed.leaf(0, i), bed.leaf(1, 0)});
    }
  } else {
    for (std::size_t i = 0; i < 4; ++i) {
      flows.push_back(FlowSpec{bed.leaf(0, i), bed.leaf(1, i)});
    }
  }
  VirtualChannel vc(session, def);
  if (kill) {
    GatewayKiller::at_packet_count(
        vc, vc.router().next_node(0, flows[0].src, flows[0].dst), 12);
  }
  auto failure = run_flows(session, vc, flows, /*messages=*/2,
                           /*message_bytes=*/10 * 1024 + 77);
  RunPrint print = finish_run(session, vc);
  print.failure = *failure;
  EXPECT_EQ(print.failure, "");
  EXPECT_EQ(check_channel_drained(vc), "");
  if (kill) {
    EXPECT_EQ(vc.routing_counters().gateway_kills, 1u);
  }
  return print;
}

/// Sets the fresh-slab fill for one scope, then restores the default.
struct ScopedSlabFill {
  explicit ScopedSlabFill(std::byte fill) {
    PacketPool::fill_fresh_slabs_for_testing(fill);
  }
  ~ScopedSlabFill() { PacketPool::fill_fresh_slabs_for_testing(std::nullopt); }
  ScopedSlabFill(const ScopedSlabFill&) = delete;
  ScopedSlabFill& operator=(const ScopedSlabFill&) = delete;
};

// Pool bytes are never zero-filled. Each scenario runs once over slabs
// pre-filled with 0x00 and once with 0xA5: if any byte the landing loop
// did not write reached a wire, a piece or the application, the two runs
// would differ in what they delivered, when they finished, or what they
// counted.
TEST(PooledDelivery, FreshBufferContentsNeverReachTheWire) {
  const std::vector<std::pair<std::string, std::function<RunPrint()>>>
      scenarios{
          {"random_gateway",
           [] {
             return random_gateway_run(21, NetworkKind::kTcp,
                                       NetworkKind::kBip, 1000, 2);
           }},
          {"random_gateway_paired",
           [] {
             return random_gateway_run(22, NetworkKind::kSisci,
                                       NetworkKind::kVia, 4096, 4);
           }},
          {"store_and_forward",
           [] {
             return random_gateway_run(23, NetworkKind::kSbp,
                                       NetworkKind::kTcp, 2048, 1);
           }},
          {"resilient_fat_tree", [] { return fat_tree_run(false, true); }},
          {"congestion_controlled",
           [] { return fat_tree_run(true, false); }},
      };
  for (const auto& [name, scenario] : scenarios) {
    SCOPED_TRACE(name);
    RunPrint prints[2];
    const std::byte fills[2] = {std::byte{0x00}, std::byte{0xA5}};
    for (int i = 0; i < 2; ++i) {
      ScopedSlabFill fill(fills[i]);
      // The hook is live: a fresh slab really carries the fill.
      PacketPool probe(64);
      probe.prewarm(1);
      PooledBuffer buffer = probe.acquire(nullptr);
      EXPECT_TRUE(std::all_of(buffer->bytes.begin(), buffer->bytes.end(),
                              [&](std::byte b) { return b == fills[i]; }));
      prints[i] = scenario();
    }
    EXPECT_GT(prints[0].end, 0);
    EXPECT_TRUE(prints[0].delivered == prints[1].delivered)
        << "delivered bytes depend on unwritten pool bytes";
    EXPECT_EQ(prints[0].failure, prints[1].failure);
    EXPECT_EQ(prints[0].end, prints[1].end);
    EXPECT_EQ(prints[0].metrics, prints[1].metrics);
  }
}

// ---------------------------------------------------------- madcheck ----

// Schedule exploration over the pooled path: small MTU, store-and-forward
// depth, and a reply riding the same recycled pool. Any ordering of the
// gateway's acquire/recycle against the endpoints' borrow/release must
// keep delivery byte-identical (use-after-recycle would corrupt it).
TEST(PooledExplore, PoolRecyclingHoldsAcross200Schedules) {
  const auto body = []() -> Status {
    std::string failure;
    auto fail = [&failure](std::string detail) {
      if (failure.empty()) failure = std::move(detail);
    };
    Session session(two_cluster_config());
    VirtualChannel vc(session, vdef(/*mtu=*/2048, /*depth=*/1));
    const std::size_t size = 9000;  // ~5 packets per direction
    session.spawn(0, "pinger", [&](NodeRuntime&) {
      auto payload = make_pattern_buffer(size, 2);
      auto& out = vc.endpoint(0).begin_packing(2);
      // Two blocks so the receiver can mix unpack_view and unpack.
      out.pack(std::span(payload).first(5000));
      out.pack(std::span(payload).subspan(5000));
      out.end_packing();
      auto& in = vc.endpoint(0).begin_unpacking();
      std::vector<std::byte> back(size);
      in.unpack(back);
      in.end_unpacking();
      if (!verify_pattern(back, 3)) fail("reply corrupt at node 0");
    });
    session.spawn(2, "ponger", [&](NodeRuntime&) {
      auto& in = vc.endpoint(2).begin_unpacking();
      // Mix view-based and copying consumption under exploration.
      std::vector<std::byte> data;
      data.reserve(size);
      auto head = in.unpack_view(5000);
      data.insert(data.end(), head.begin(), head.end());
      std::vector<std::byte> tail(size - 5000);
      in.unpack(tail);
      data.insert(data.end(), tail.begin(), tail.end());
      in.end_unpacking();
      if (!verify_pattern(data, 2)) fail("request corrupt at node 2");
      auto payload = make_pattern_buffer(size, 3);
      auto& out = vc.endpoint(2).begin_packing(0);
      out.pack(payload);
      out.end_packing();
    });
    const Status run = session.run();
    if (!run.is_ok()) return run;
    if (!failure.empty()) return internal_error(failure);
    return Status::ok();
  };
  sim::ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const sim::ExploreResult result = sim::explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

}  // namespace
}  // namespace mad2::fwd
