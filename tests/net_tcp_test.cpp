// Tests for the TCP/Fast-Ethernet driver: stream semantics, multiplexed
// stream ids, flow control, and calibration (latency ~75 us, ~11.5 MB/s).
#include <gtest/gtest.h>

#include <algorithm>

#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "sim/time.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

using sim::to_us;

struct TcpBed : Testbed {
  explicit TcpBed(int n)
      : Testbed(n),
        network(&simulator, node_ptrs(), TcpParams::fast_ethernet()) {}
  TcpNetwork network;
};

TEST(Tcp, StreamRoundTripsBytes) {
  TcpBed bed(2);
  const auto payload = make_pattern_buffer(10000, 1);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).stream(1).send(payload);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(10000);
    bed.network.port(1).stream(0).recv(out);
    EXPECT_TRUE(verify_pattern(out, 1));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, SmallMessageLatencyIsTensOfMicroseconds) {
  TcpBed bed(2);
  sim::Time arrival = 0;
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> m(4, std::byte{1});
    bed.network.port(0).stream(1).send(m);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(4);
    bed.network.port(1).stream(0).recv(out);
    arrival = bed.simulator.now();
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(to_us(arrival), 50.0);
  EXPECT_LT(to_us(arrival), 110.0);
}

TEST(Tcp, BandwidthIsFastEthernetClass) {
  TcpBed bed(2);
  const std::size_t size = 2 * 1024 * 1024;
  const auto payload = make_pattern_buffer(size, 2);
  sim::Time end = 0;
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).stream(1).send(payload);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(size);
    bed.network.port(1).stream(0).recv(out);
    end = bed.simulator.now();
    EXPECT_TRUE(verify_pattern(out, 2));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  const double mbs = sim::bandwidth_mbs(size, end);
  EXPECT_GT(mbs, 10.0);
  EXPECT_LT(mbs, 12.5);
}

TEST(Tcp, StreamIdsAreIndependent) {
  TcpBed bed(2);
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> a{std::byte{1}};
    std::vector<std::byte> b{std::byte{2}};
    bed.network.port(0).stream(1, 0).send(a);
    bed.network.port(0).stream(1, 1).send(b);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(1);
    bed.network.port(1).stream(0, 1).recv(out);
    EXPECT_EQ(out[0], std::byte{2});
    bed.network.port(1).stream(0, 0).recv(out);
    EXPECT_EQ(out[0], std::byte{1});
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, RecvSomeReturnsPartialData) {
  TcpBed bed(2);
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> m(100, std::byte{7});
    bed.network.port(0).stream(1).send(m);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(1000);
    auto& stream = bed.network.port(1).stream(0);
    std::size_t total = 0;
    while (total < 100) {
      total += stream.recv_some(std::span(out).subspan(total));
    }
    EXPECT_EQ(total, 100u);
    for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], std::byte{7});
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, SendBlocksOnFullSocketBufferUntilReceiverDrains) {
  TcpBed bed(2);
  const std::size_t big = 512 * 1024;  // far beyond the 64 kB socket buffer
  const auto payload = make_pattern_buffer(big, 3);
  sim::Time send_done = 0;
  sim::Time recv_done = 0;
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).stream(1).send(payload);
    send_done = bed.simulator.now();
  });
  bed.simulator.spawn("receiver", [&] {
    bed.simulator.advance(sim::milliseconds(5));  // drain late
    std::vector<std::byte> out(big);
    bed.network.port(1).stream(0).recv(out);
    recv_done = bed.simulator.now();
    EXPECT_TRUE(verify_pattern(out, 3));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(send_done, sim::milliseconds(4));  // was throttled
  EXPECT_GT(recv_done, send_done);
}

TEST(Tcp, ReceiveWindowBoundsUnreadBytes) {
  // The peer's receive window is one socket buffer: a sender writing
  // 1 MiB to a peer that is not reading ships whole frames until the next
  // one would overfill it, then parks; each 64 KB the peer reads lets
  // exactly that much more through, rounded down to whole frames.
  TcpBed bed(2);
  const TcpParams& params = bed.network.params();
  const std::size_t size = 1 << 20;
  const std::size_t step = 64 * 1024;
  const auto payload = make_pattern_buffer(size, 5);
  bool send_done = false;
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).stream(1).send(payload);
    send_done = true;
  });
  bed.simulator.spawn("receiver", [&] {
    TcpStream& stream = bed.network.port(1).stream(0);
    std::vector<std::byte> out(size);
    std::size_t read = 0;
    for (;;) {
      // 20 ms moves ~230 KB at wire speed: far more than the window.
      bed.simulator.advance(sim::milliseconds(20));
      EXPECT_LE(stream.rx_buffered(), params.socket_buffer);
      // Whole frames up to the window's end, or the stream's short tail
      // frame once that fits too.
      const std::size_t delivered =
          size - read <= params.socket_buffer
              ? size
              : (read + params.socket_buffer) / params.mss * params.mss;
      EXPECT_EQ(read + stream.rx_buffered(), delivered)
          << "after reading " << read;
      // send() cannot return while more than the window plus the
      // sender's own socket buffer is still unread.
      if (read + 2 * params.socket_buffer < size) {
        EXPECT_FALSE(send_done) << "after reading " << read;
      }
      if (read == size) break;
      const std::size_t chunk = std::min(step, size - read);
      stream.recv(std::span(out).subspan(read, chunk));
      read += chunk;
    }
    EXPECT_TRUE(send_done);
    EXPECT_TRUE(verify_pattern(out, 5));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, DirectSendWaitsForInFlightPendingFlush) {
  // Regression: a flush_pending() parked mid-batch on socket-buffer room
  // must finish its whole span before a racing direct send() may start
  // copying, or the two writers refill the drained buffer in alternating
  // mss-sized chunks and corrupt the stream's byte order.
  TcpBed bed(2);
  const std::size_t batch = 100 * 1024;  // beyond the 64 kB socket buffer
  const std::size_t direct = 8 * 1024;
  const auto staged = make_pattern_buffer(batch, 1);
  const auto block = make_pattern_buffer(direct, 2);
  bed.simulator.spawn("tick", [&] {
    auto& stream = bed.network.port(0).stream(1);
    stream.send_deferred(staged);
    stream.flush_pending();  // parks once tx fills; pending_ already swapped
  });
  bed.simulator.spawn("app", [&] {
    // 2 ms: past the staging memcpy and the initial 64 kB fill, but well
    // before the flush finishes draining at wire speed (~4.3 ms) — the
    // flush is parked with pending_ empty, so a pre-fix send() saw
    // nothing to flush and walked straight into enqueue_tx.
    bed.simulator.advance(sim::milliseconds(2));
    bed.network.port(0).stream(1).send(block);
  });
  bed.simulator.spawn("receiver", [&] {
    bed.simulator.advance(sim::milliseconds(2));  // both writers parked
    std::vector<std::byte> out(batch + direct);
    bed.network.port(1).stream(0).recv(out);
    EXPECT_TRUE(
        std::equal(out.begin(), out.begin() + batch, staged.begin()));
    EXPECT_TRUE(std::equal(out.begin() + batch, out.end(), block.begin()));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, StreamsSpawnTheirTransmitFiberWithTheFirstByte) {
  // Touching every stream of the mesh leaves only the per-port rx loops
  // live; one send starts exactly one transmit fiber, and its bytes still
  // arrive in order.
  constexpr std::uint32_t kNodes = 6;
  TcpBed bed(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t j = 0; j < kNodes; ++j) {
      if (i != j) (void)bed.network.port(i).stream(j);
    }
  }
  EXPECT_EQ(bed.simulator.live_fiber_count(), kNodes);
  const auto payload = make_pattern_buffer(10000, 4);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).stream(1).send(payload);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(payload.size());
    bed.network.port(1).stream(0).recv(out);
    EXPECT_TRUE(verify_pattern(out, 4));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(bed.simulator.live_fiber_count(), kNodes + 1);
}

TEST(Tcp, WaitReadableAndReadableAgree) {
  TcpBed bed(2);
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(500));
    std::vector<std::byte> m{std::byte{5}};
    bed.network.port(0).stream(1).send(m);
  });
  bed.simulator.spawn("receiver", [&] {
    auto& stream = bed.network.port(1).stream(0);
    EXPECT_FALSE(stream.readable());
    stream.wait_readable();
    EXPECT_TRUE(stream.readable());
    std::vector<std::byte> out(1);
    stream.recv(out);
    EXPECT_FALSE(stream.readable());
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Tcp, ConcurrentBidirectionalStreams) {
  TcpBed bed(2);
  const std::size_t size = 100 * 1024;
  int done = 0;
  for (int me = 0; me < 2; ++me) {
    bed.simulator.spawn("peer" + std::to_string(me), [&, me] {
      const std::uint32_t other = 1 - me;
      const auto payload = make_pattern_buffer(size, 10 + me);
      // Each peer sends on one fiber...
      bed.network.port(me).stream(other).send(payload);
      ++done;
    });
    bed.simulator.spawn("peer_rx" + std::to_string(me), [&, me] {
      const std::uint32_t other = 1 - me;
      std::vector<std::byte> out(size);
      bed.network.port(me).stream(other).recv(out);
      EXPECT_TRUE(verify_pattern(out, 10 + other));
      ++done;
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(done, 4);
}

TEST(Tcp, PoisonWakesASenderParkedOnTheWindow) {
  // Rank 1 never reads, so rank 0's transmit fiber parks on the receive
  // window and the writer parks on the full socket buffer behind it. A
  // permanent partition then kills the link, detected on rank 1's reply,
  // the only traffic left. Both checked calls must return the link
  // Status, and the transmit fiber must leave the window wait too: it
  // ships its last frames into the partition, so rank 0's shim gives up
  // as well. A fiber still parked on the window would leave it healthy.
  FaultPlan plan(/*seed=*/5);
  plan.partition(0, 1, sim::milliseconds(30), sim::kNever);
  TcpParams params = TcpParams::fast_ethernet();
  params.fabric.faults = &plan;
  params.reliability.max_retransmits = 5;
  Testbed bed(2);
  TcpNetwork network(&bed.simulator, bed.node_ptrs(), params);
  const auto payload = make_pattern_buffer(1 << 20, 6);
  Status sent = Status::ok();
  Status flushed = Status::ok();
  std::size_t buffered = 0;
  bed.simulator.spawn("sender", [&] {
    TcpStream& stream = network.port(0).stream(1);
    sent = stream.send_checked(payload);
    flushed = stream.flush();
  });
  bed.simulator.spawn("receiver", [&] {
    TcpStream& stream = network.port(1).stream(0);
    bed.simulator.advance(sim::milliseconds(40));
    buffered = stream.rx_buffered();
    const std::vector<std::byte> reply(64);
    (void)stream.send_checked(reply);
    while (stream.status().is_ok()) {
      bed.simulator.advance(sim::milliseconds(1));
    }
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(buffered, params.socket_buffer - params.mss);
  EXPECT_LE(buffered, params.socket_buffer);
  const Status& death = network.port(0).stream(1).status();
  ASSERT_EQ(death.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(sent.message(), death.message());
  EXPECT_EQ(flushed.message(), death.message());
  EXPECT_EQ(network.reliable()->endpoint(0).health().code(),
            ErrorCode::kUnavailable);
}

TEST(Tcp, StreamOpenedAfterItsEndpointDiedStartsPoisoned) {
  // Rank 0's shim gives up on a permanent partition. Streams that touch
  // rank 0 but are opened only afterwards, from either end or from a
  // bystander, must report the same death rather than look healthy.
  FaultPlan plan(/*seed=*/3);
  plan.partition(0, 1, 0, sim::kNever);
  TcpParams params = TcpParams::fast_ethernet();
  params.fabric.faults = &plan;
  params.reliability.max_retransmits = 5;
  Testbed bed(3);
  TcpNetwork network(&bed.simulator, bed.node_ptrs(), params);
  Status death = Status::ok();
  bed.simulator.spawn("sender", [&] {
    TcpStream& stream = network.port(0).stream(1, 0);
    const std::vector<std::byte> payload(64);
    while (stream.status().is_ok()) {
      (void)stream.send_checked(payload);
      bed.simulator.advance(sim::milliseconds(1));
    }
    death = stream.status();
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  ASSERT_EQ(death.code(), ErrorCode::kUnavailable);
  for (TcpStream* late :
       {&network.port(0).stream(1, 7), &network.port(2).stream(0, 7),
        &network.port(1).stream(0, 7)}) {
    EXPECT_EQ(late->status().code(), death.code());
    EXPECT_EQ(late->status().message(), death.message());
  }
}


TEST(Tcp, FlushWaitsForTheLastFrameToReachTheShim) {
  // The transmit fiber takes a frame out of the socket buffer before its
  // PCI transfer and its hand-off to the reliable shim. A flush that
  // wakes in between sees an empty socket buffer and a shim with nothing
  // outstanding; it must still wait for that frame, so on a link that
  // never delivers it reports the link's death instead of OK.
  FaultPlan plan(/*seed=*/7);
  plan.partition(0, 1, 0, sim::kNever);
  TcpParams params = TcpParams::fast_ethernet();
  params.fabric.faults = &plan;
  params.reliability.max_retransmits = 5;
  Testbed bed(2);
  TcpNetwork network(&bed.simulator, bed.node_ptrs(), params);
  Status sent = Status::ok();
  Status flushed = Status::ok();
  bed.simulator.spawn("sender", [&] {
    TcpStream& stream = network.port(0).stream(1);
    const std::vector<std::byte> payload(64);
    sent = stream.send_checked(payload);
    flushed = stream.flush();
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_TRUE(sent.is_ok());
  const Status& death = network.port(0).stream(1).status();
  ASSERT_EQ(death.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(flushed.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(flushed.message(), death.message());
}

}  // namespace
}  // namespace mad2::net
