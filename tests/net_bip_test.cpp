// Tests for the BIP/Myrinet driver: short-path buffering, long-path
// rendezvous requirements, ordering, integrity, and calibration against
// the paper's raw numbers (latency ~5 us, bandwidth ~126 MB/s).
#include <gtest/gtest.h>

#include "net/bip.hpp"
#include "sim/time.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

using sim::to_us;

struct BipBed : Testbed {
  explicit BipBed(int n)
      : Testbed(n),
        network(&simulator, node_ptrs(), BipParams::myrinet_lanai43()) {}
  BipNetwork network;
};

TEST(Bip, ShortMessageRoundTripsData) {
  BipBed bed(2);
  const auto payload = make_pattern_buffer(256, 1);
  bool received = false;
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send_short(1, 7, payload);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(256);
    std::uint32_t src = 99;
    const std::size_t n = bed.network.port(1).recv_short_copy(7, out, &src);
    EXPECT_EQ(n, 256u);
    EXPECT_EQ(src, 0u);
    EXPECT_TRUE(verify_pattern(out, 1));
    received = true;
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_TRUE(received);
}

TEST(Bip, ShortLatencyIsAboutFiveMicroseconds) {
  BipBed bed(2);
  sim::Time arrival = 0;
  const auto payload = make_pattern_buffer(4, 2);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send_short(1, 0, payload);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(4);
    bed.network.port(1).recv_short_copy(0, out);
    arrival = bed.simulator.now();
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(to_us(arrival), 3.0);
  EXPECT_LT(to_us(arrival), 7.0);
}

TEST(Bip, ShortMessagesKeepFifoOrderPerTag) {
  BipBed bed(2);
  std::vector<int> order;
  bed.simulator.spawn("sender", [&] {
    for (int i = 0; i < 10; ++i) {
      std::vector<std::byte> m{static_cast<std::byte>(i)};
      bed.network.port(0).send_short(1, 3, m);
    }
  });
  bed.simulator.spawn("receiver", [&] {
    for (int i = 0; i < 10; ++i) {
      std::vector<std::byte> out(1);
      bed.network.port(1).recv_short_copy(3, out);
      order.push_back(static_cast<int>(out[0]));
    }
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Bip, TagsAreIndependentQueues) {
  BipBed bed(2);
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> a{std::byte{1}};
    std::vector<std::byte> b{std::byte{2}};
    bed.network.port(0).send_short(1, 10, a);
    bed.network.port(0).send_short(1, 20, b);
  });
  bed.simulator.spawn("receiver", [&] {
    std::vector<std::byte> out(1);
    // Receive tag 20 first even though tag 10 arrived first.
    bed.network.port(1).recv_short_copy(20, out);
    EXPECT_EQ(out[0], std::byte{2});
    bed.network.port(1).recv_short_copy(10, out);
    EXPECT_EQ(out[0], std::byte{1});
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, ZeroCopyShortSlotIsStableUntilRelease) {
  BipBed bed(2);
  const auto payload = make_pattern_buffer(512, 9);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send_short(1, 0, payload);
    // A second message while the first slot is checked out.
    bed.network.port(0).send_short(1, 0, payload);
  });
  bed.simulator.spawn("receiver", [&] {
    BipShortSlot first = bed.network.port(1).recv_short(0);
    BipShortSlot second = bed.network.port(1).recv_short(0);
    EXPECT_TRUE(verify_pattern(first.data, 9));
    EXPECT_TRUE(verify_pattern(second.data, 9));
    bed.network.port(1).release_short(first);
    bed.network.port(1).release_short(second);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, WaitShortPeeksSourceWithoutConsuming) {
  BipBed bed(3);
  bed.simulator.spawn("sender2", [&] {
    std::vector<std::byte> m{std::byte{42}};
    bed.network.port(2).send_short(1, 0, m);
  });
  bed.simulator.spawn("receiver", [&] {
    const std::uint32_t src = bed.network.port(1).inbox().peek(0).src;
    EXPECT_EQ(src, 2u);
    EXPECT_TRUE(bed.network.port(1).inbox().pending(0));
    std::vector<std::byte> out(1);
    bed.network.port(1).recv_short_copy(0, out);
    EXPECT_FALSE(bed.network.port(1).inbox().pending(0));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, LongMessageDeliversDirectlyIntoPostedBuffer) {
  BipBed bed(2);
  const auto payload = make_pattern_buffer(256 * 1024, 4);
  std::vector<std::byte> sink(256 * 1024);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv_long(0, 5, sink);
    // Tell the sender we are ready (the rendezvous Madeleine's TM does).
    std::vector<std::byte> ack{std::byte{1}};
    bed.network.port(1).send_short(0, 5, ack);
    bed.network.port(1).wait_recv_long(0, 5);
    EXPECT_TRUE(verify_pattern(sink, 4));
  });
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> ack(1);
    bed.network.port(0).recv_short_copy(5, ack);
    bed.network.port(0).send_long(1, 5, payload);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, LongBandwidthApproaches126MBs) {
  BipBed bed(2);
  const std::size_t size = 4 * 1024 * 1024;
  const auto payload = make_pattern_buffer(size, 6);
  std::vector<std::byte> sink(size);
  sim::Time start = 0;
  sim::Time end = 0;
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv_long(0, 0, sink);
    std::vector<std::byte> ack{std::byte{1}};
    bed.network.port(1).send_short(0, 0, ack);
    bed.network.port(1).wait_recv_long(0, 0);
    end = bed.simulator.now();
  });
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> ack(1);
    bed.network.port(0).recv_short_copy(0, ack);
    start = bed.simulator.now();
    bed.network.port(0).send_long(1, 0, payload);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  const double mbs = sim::bandwidth_mbs(size, end - start);
  EXPECT_GT(mbs, 110.0);
  EXPECT_LT(mbs, 130.0);
  EXPECT_TRUE(verify_pattern(sink, 6));
}

TEST(Bip, MultipleLongPostsCompleteInOrder) {
  BipBed bed(2);
  const auto a = make_pattern_buffer(10000, 11);
  const auto b = make_pattern_buffer(20000, 12);
  std::vector<std::byte> sink_a(10000);
  std::vector<std::byte> sink_b(20000);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv_long(0, 0, sink_a);
    bed.network.port(1).post_recv_long(0, 0, sink_b);
    std::vector<std::byte> ack{std::byte{1}};
    bed.network.port(1).send_short(0, 0, ack);
    bed.network.port(1).wait_recv_long(0, 0);
    EXPECT_TRUE(verify_pattern(sink_a, 11));
    bed.network.port(1).wait_recv_long(0, 0);
    EXPECT_TRUE(verify_pattern(sink_b, 12));
  });
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> ack(1);
    bed.network.port(0).recv_short_copy(0, ack);
    bed.network.port(0).send_long(1, 0, a);
    bed.network.port(0).send_long(1, 0, b);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, LongPostsOnOneTagFillInPostOrder) {
  // Two same-sized receives on one (src, tag): each message must land in
  // the oldest receive still filling, never in a later one.
  BipBed bed(2);
  const auto a = make_pattern_buffer(10000, 21);
  const auto b = make_pattern_buffer(10000, 22);
  std::vector<std::byte> sink_a(10000);
  std::vector<std::byte> sink_b(10000);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv_long(0, 3, sink_a);
    bed.network.port(1).post_recv_long(0, 3, sink_b);
    std::vector<std::byte> ack{std::byte{1}};
    bed.network.port(1).send_short(0, 3, ack);
    bed.network.port(1).wait_recv_long(0, 3);
    bed.network.port(1).wait_recv_long(0, 3);
  });
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> ack(1);
    bed.network.port(0).recv_short_copy(3, ack);
    bed.network.port(0).send_long(1, 3, a);
    bed.network.port(0).send_long(1, 3, b);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_TRUE(verify_pattern(sink_a, 21));
  EXPECT_TRUE(verify_pattern(sink_b, 22));
}

TEST(Bip, EmptyLongMessageCompletes) {
  BipBed bed(2);
  std::vector<std::byte> empty;
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv_long(0, 0, {});
    std::vector<std::byte> ack{std::byte{1}};
    bed.network.port(1).send_short(0, 0, ack);
    bed.network.port(1).wait_recv_long(0, 0);
  });
  bed.simulator.spawn("sender", [&] {
    std::vector<std::byte> ack(1);
    bed.network.port(0).recv_short_copy(0, ack);
    bed.network.port(0).send_long(1, 0, empty);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Bip, LongChunkWithoutPostedRecvAborts) {
  BipBed bed(2);
  const auto payload = make_pattern_buffer(8192, 1);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send_long(1, 0, payload);
  });
  EXPECT_DEATH(
      { (void)bed.simulator.run(); }, "no posted receive");
}

TEST(Bip, BidirectionalTrafficDoesNotDeadlock) {
  BipBed bed(2);
  const auto payload = make_pattern_buffer(64 * 1024, 3);
  int done = 0;
  for (int me = 0; me < 2; ++me) {
    bed.simulator.spawn("peer" + std::to_string(me), [&, me] {
      const std::uint32_t other = 1 - me;
      std::vector<std::byte> sink(64 * 1024);
      bed.network.port(me).post_recv_long(other, 0, sink);
      std::vector<std::byte> ack{std::byte{1}};
      bed.network.port(me).send_short(other, 0, ack);
      std::vector<std::byte> ack_in(1);
      bed.network.port(me).recv_short_copy(0, ack_in);
      bed.network.port(me).send_long(other, 0, payload);
      bed.network.port(me).wait_recv_long(other, 0);
      EXPECT_TRUE(verify_pattern(sink, 3));
      ++done;
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(done, 2);
}

}  // namespace
}  // namespace mad2::net
