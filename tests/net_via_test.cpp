// Tests for the VIA driver: descriptor queues, posted-receive discipline,
// registration costs, and fatal behaviour on unposted sends.
#include <gtest/gtest.h>

#include "net/via.hpp"
#include "sim/time.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

using sim::to_us;

struct ViaBed : Testbed {
  explicit ViaBed(int n)
      : Testbed(n), network(&simulator, node_ptrs(), ViaParams::generic_nic()) {}
  ViaNetwork network;
};

TEST(Via, SendLandsInPostedDescriptor) {
  ViaBed bed(2);
  const auto payload = make_pattern_buffer(2048, 1);
  std::vector<std::byte> sink(4096);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, sink);
    auto completion = bed.network.port(1).wait_recv(0);
    EXPECT_EQ(completion.bytes, 2048u);
    EXPECT_TRUE(verify_pattern(
        std::span<const std::byte>(sink).subspan(0, 2048), 1));
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));  // after the post
    bed.network.port(0).send(1, payload);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Via, DescriptorsConsumeInPostOrder) {
  ViaBed bed(2);
  std::vector<std::byte> first(4096);
  std::vector<std::byte> second(4096);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, first);
    bed.network.port(1).post_recv(0, second);
    auto c1 = bed.network.port(1).wait_recv(0);
    auto c2 = bed.network.port(1).wait_recv(0);
    EXPECT_EQ(c1.bytes, 100u);
    EXPECT_EQ(c2.bytes, 200u);
    EXPECT_EQ(c1.buffer.data(), first.data());
    EXPECT_EQ(c2.buffer.data(), second.data());
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    bed.network.port(0).send(1, make_pattern_buffer(100, 1));
    bed.network.port(0).send(1, make_pattern_buffer(200, 2));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Via, PostsOnOneViFillInPostOrder) {
  // Two same-sized descriptors on one VI, two multi-MTU messages of
  // different content: each lands whole in its own descriptor, in order.
  ViaBed bed(2);
  const std::size_t size = 10000;
  std::vector<std::byte> first(size);
  std::vector<std::byte> second(size);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, first);
    bed.network.port(1).post_recv(0, second);
    EXPECT_EQ(bed.network.port(1).wait_recv(0).bytes, size);
    EXPECT_EQ(bed.network.port(1).wait_recv(0).bytes, size);
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    bed.network.port(0).send(1, make_pattern_buffer(size, 31));
    bed.network.port(0).send(1, make_pattern_buffer(size, 32));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_TRUE(verify_pattern(first, 31));
  EXPECT_TRUE(verify_pattern(second, 32));
}

TEST(Via, MultiMtuSendsFillOneDescriptor) {
  ViaBed bed(2);
  const std::size_t size = 64 * 1024;  // 16 MTUs
  const auto payload = make_pattern_buffer(size, 3);
  std::vector<std::byte> sink(size);
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, sink);
    auto completion = bed.network.port(1).wait_recv(0);
    EXPECT_EQ(completion.bytes, size);
    EXPECT_TRUE(verify_pattern(sink, 3));
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    bed.network.port(0).send(1, payload);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Via, SendWithoutPostedDescriptorAborts) {
  ViaBed bed(2);
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send(1, make_pattern_buffer(64, 1));
  });
  EXPECT_DEATH({ (void)bed.simulator.run(); }, "no posted receive");
}

TEST(Via, RegistrationChargesPerPage) {
  ViaBed bed(1);
  std::vector<std::byte> small(4096);
  std::vector<std::byte> large(4096 * 256);
  sim::Duration small_cost = 0;
  sim::Duration large_cost = 0;
  bed.simulator.spawn("f", [&] {
    const sim::Time t0 = bed.simulator.now();
    auto h1 = bed.network.port(0).register_memory(small);
    small_cost = bed.simulator.now() - t0;
    const sim::Time t1 = bed.simulator.now();
    auto h2 = bed.network.port(0).register_memory(large);
    large_cost = bed.simulator.now() - t1;
    bed.network.port(0).deregister(h1);
    bed.network.port(0).deregister(h2);
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(large_cost, small_cost);
  EXPECT_NEAR(to_us(large_cost - small_cost), 0.2 * 255, 1.0);
}

TEST(Via, RecvReadyAndPostedCountTrackState) {
  ViaBed bed(2);
  std::vector<std::byte> sink(4096);
  bed.simulator.spawn("receiver", [&] {
    EXPECT_EQ(bed.network.port(1).posted_count(0), 0u);
    bed.network.port(1).post_recv(0, sink);
    EXPECT_EQ(bed.network.port(1).posted_count(0), 1u);
    EXPECT_FALSE(bed.network.port(1).recv_ready(0));
    auto completion = bed.network.port(1).wait_recv(0);
    EXPECT_EQ(completion.bytes, 16u);
    EXPECT_EQ(bed.network.port(1).posted_count(0), 0u);
  });
  bed.simulator.spawn("sender", [&] {
    bed.simulator.advance(sim::microseconds(5));
    bed.network.port(0).send(1, make_pattern_buffer(16, 1));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
}

TEST(Via, LatencyIsLowSingleDigitMicroseconds) {
  ViaBed bed(2);
  std::vector<std::byte> sink(64);
  sim::Time arrival = 0;
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, sink);
    bed.network.port(1).wait_recv(0);
    arrival = bed.simulator.now();
  });
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send(1, make_pattern_buffer(4, 1));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_GT(to_us(arrival), 2.0);
  EXPECT_LT(to_us(arrival), 8.0);
}

TEST(Via, BandwidthIsHigh) {
  ViaBed bed(2);
  const std::size_t size = 2 * 1024 * 1024;
  std::vector<std::byte> sink(size);
  sim::Time end = 0;
  bed.simulator.spawn("receiver", [&] {
    bed.network.port(1).post_recv(0, sink);
    bed.network.port(1).wait_recv(0);
    end = bed.simulator.now();
  });
  bed.simulator.spawn("sender", [&] {
    bed.network.port(0).send(1, make_pattern_buffer(size, 4));
  });
  ASSERT_TRUE(bed.simulator.run().is_ok());
  const double mbs = sim::bandwidth_mbs(size, end);
  EXPECT_GT(mbs, 95.0);
  EXPECT_LT(mbs, 130.0);
}

}  // namespace
}  // namespace mad2::net
