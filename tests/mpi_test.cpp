// Tests for the mini-MPI layer: ch_mad point-to-point semantics (matching,
// wildcards, unexpected messages, nonblocking ops), collectives, and the
// two SISCI baselines used in Figure 6.
#include <gtest/gtest.h>

#include "mpi/ch_mad.hpp"
#include "mpi/sci_baselines.hpp"
#include "util/bytes.hpp"

namespace mad2::mpi {
namespace {

using mad::ChannelDef;
using mad::NetworkDef;
using mad::NetworkKind;
using mad::NodeRuntime;
using mad::Session;
using mad::SessionConfig;

SessionConfig mpi_config(NetworkKind kind, std::size_t nodes) {
  SessionConfig config;
  config.node_count = nodes;
  NetworkDef net;
  net.name = "net0";
  net.kind = kind;
  for (std::uint32_t i = 0; i < nodes; ++i) net.nodes.push_back(i);
  config.networks.push_back(net);
  config.channels.push_back(ChannelDef{"mpi", "net0"});
  return config;
}

TEST(ChMad, SendRecvRoundTrip) {
  Session session(mpi_config(NetworkKind::kBip, 2));
  ChMadWorld world(session, "mpi");
  const std::size_t size = 100000;
  session.spawn(0, "r0", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(size, 1);
    world.comm(0).send(payload, 1, 42);
  });
  session.spawn(1, "r1", [&](NodeRuntime&) {
    std::vector<std::byte> out(size);
    const RecvStatus status = world.comm(1).recv(out, 0, 42);
    EXPECT_EQ(status.source, 0);
    EXPECT_EQ(status.tag, 42);
    EXPECT_EQ(status.bytes, size);
    EXPECT_TRUE(verify_pattern(out, 1));
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, TagMatchingReordersDelivery) {
  Session session(mpi_config(NetworkKind::kSisci, 2));
  ChMadWorld world(session, "mpi");
  session.spawn(0, "r0", [&](NodeRuntime&) {
    auto a = make_pattern_buffer(1000, 1);
    auto b = make_pattern_buffer(2000, 2);
    world.comm(0).send(a, 1, 10);
    world.comm(0).send(b, 1, 20);
  });
  session.spawn(1, "r1", [&](NodeRuntime&) {
    // Receive tag 20 first: the tag-10 message must wait in the
    // unexpected queue.
    std::vector<std::byte> b(2000);
    world.comm(1).recv(b, 0, 20);
    EXPECT_TRUE(verify_pattern(b, 2));
    std::vector<std::byte> a(1000);
    world.comm(1).recv(a, 0, 10);
    EXPECT_TRUE(verify_pattern(a, 1));
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, AnySourceAndAnyTagWildcardsMatch) {
  Session session(mpi_config(NetworkKind::kBip, 3));
  ChMadWorld world(session, "mpi");
  session.spawn(2, "r2", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(500, 7);
    world.comm(2).send(payload, 0, 99);
  });
  session.spawn(0, "r0", [&](NodeRuntime&) {
    std::vector<std::byte> out(500);
    const RecvStatus status = world.comm(0).recv(out, kAnySource, kAnyTag);
    EXPECT_EQ(status.source, 2);
    EXPECT_EQ(status.tag, 99);
    EXPECT_TRUE(verify_pattern(out, 7));
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, NonblockingOverlapsBothDirections) {
  Session session(mpi_config(NetworkKind::kBip, 2));
  ChMadWorld world(session, "mpi");
  const std::size_t size = 50000;
  for (int me = 0; me < 2; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime&) {
      const int other = 1 - me;
      auto payload = make_pattern_buffer(size, 10 + me);
      std::vector<std::byte> incoming(size);
      Request rx = world.comm(me).irecv(incoming, other, 5);
      Request tx = world.comm(me).isend(payload, other, 5);
      world.comm(me).wait(rx);
      world.comm(me).wait(tx);
      EXPECT_TRUE(verify_pattern(incoming, 10 + other));
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, SendrecvExchanges) {
  Session session(mpi_config(NetworkKind::kSisci, 2));
  ChMadWorld world(session, "mpi");
  for (int me = 0; me < 2; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime&) {
      const int other = 1 - me;
      std::uint64_t mine = 100 + me;
      std::uint64_t theirs = 0;
      world.comm(me).sendrecv(
          std::as_bytes(std::span(&mine, 1)), other, 3,
          std::as_writable_bytes(std::span(&theirs, 1)), other, 3);
      EXPECT_EQ(theirs, 100u + other);
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, BarrierSynchronizesRanks) {
  Session session(mpi_config(NetworkKind::kBip, 4));
  ChMadWorld world(session, "mpi");
  std::vector<sim::Time> after(4);
  for (int me = 0; me < 4; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime& rt) {
      rt.simulator().advance(sim::microseconds(10 * (me + 1)));
      world.comm(me).barrier();
      after[me] = rt.simulator().now();
    });
  }
  ASSERT_TRUE(session.run().is_ok());
  for (int me = 0; me < 4; ++me) {
    EXPECT_GE(after[me], sim::microseconds(40));
  }
}

TEST(ChMad, BcastReachesAllRanks) {
  Session session(mpi_config(NetworkKind::kBip, 5));
  ChMadWorld world(session, "mpi");
  for (int me = 0; me < 5; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime&) {
      std::vector<std::byte> data(10000);
      if (me == 2) fill_pattern(data, 123);
      world.comm(me).bcast(data, /*root=*/2);
      EXPECT_TRUE(verify_pattern(data, 123)) << "rank " << me;
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, ReduceAndAllreduceSum) {
  Session session(mpi_config(NetworkKind::kSisci, 4));
  ChMadWorld world(session, "mpi");
  for (int me = 0; me < 4; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime&) {
      std::vector<double> data{static_cast<double>(me),
                               static_cast<double>(me) * 10.0};
      world.comm(me).allreduce_sum(data);
      EXPECT_DOUBLE_EQ(data[0], 6.0);   // 0+1+2+3
      EXPECT_DOUBLE_EQ(data[1], 60.0);
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

TEST(ChMad, GatherCollectsChunks) {
  Session session(mpi_config(NetworkKind::kBip, 3));
  ChMadWorld world(session, "mpi");
  for (int me = 0; me < 3; ++me) {
    const std::string rank = std::string("r").append(std::to_string(me));
    session.spawn(me, rank, [&, me](NodeRuntime&) {
      std::vector<std::byte> chunk(100);
      fill_pattern(chunk, 50 + me);
      std::vector<std::byte> out(me == 0 ? 300 : 0);
      world.comm(me).gather(chunk, out, 0);
      if (me == 0) {
        for (int peer = 0; peer < 3; ++peer) {
          EXPECT_TRUE(verify_pattern(
              std::span<const std::byte>(out).subspan(100 * peer, 100),
              50 + peer));
        }
      }
    });
  }
  ASSERT_TRUE(session.run().is_ok());
}

// ------------------------------------------------------------- baselines ---

struct BaselineCase {
  bool scampi;
};

class SciBaseline : public testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Both, SciBaseline, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("scampi")
                                             : std::string("scimpich");
                         });

SciBaselineParams baseline_params(bool scampi) {
  return scampi ? SciBaselineParams::scampi_like()
                : SciBaselineParams::scimpich_like();
}

TEST_P(SciBaseline, RoundTripsAcrossSizes) {
  Session session(mpi_config(NetworkKind::kSisci, 2));
  SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                         baseline_params(GetParam()));
  const std::vector<std::size_t> sizes{0, 4, 1000, 8192, 16384, 100000};
  session.spawn(0, "r0", [&](NodeRuntime&) {
    for (std::size_t size : sizes) {
      auto payload = make_pattern_buffer(size, size + 1);
      world.comm(0).send(payload, 1, 7);
    }
  });
  session.spawn(1, "r1", [&](NodeRuntime&) {
    for (std::size_t size : sizes) {
      std::vector<std::byte> out(size);
      const RecvStatus status = world.comm(1).recv(out, 0, 7);
      EXPECT_EQ(status.bytes, size);
      EXPECT_TRUE(verify_pattern(out, size + 1)) << size;
    }
  });
  ASSERT_TRUE(session.run().is_ok());
}

TEST_P(SciBaseline, AnySourceWildcardWorks) {
  Session session(mpi_config(NetworkKind::kSisci, 3));
  SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                         baseline_params(GetParam()));
  session.spawn(2, "r2", [&](NodeRuntime&) {
    auto payload = make_pattern_buffer(300, 3);
    world.comm(2).send(payload, 0, 1);
  });
  session.spawn(0, "r0", [&](NodeRuntime&) {
    std::vector<std::byte> out(300);
    const RecvStatus status = world.comm(0).recv(out, kAnySource, kAnyTag);
    EXPECT_EQ(status.source, 2);
    EXPECT_TRUE(verify_pattern(out, 3));
  });
  ASSERT_TRUE(session.run().is_ok());
}

// ---------------------------------------------------- figure 6 orderings ---

double mpi_pingpong_latency_us(Comm& a, Comm& b, mad::Session& session,
                               std::size_t size, int iterations = 10) {
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "ping", [&](NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    std::vector<std::byte> back(size);
    start = rt.simulator().now();
    for (int i = 0; i < iterations; ++i) {
      a.send(payload, 1, 0);
      a.recv(back, 1, 0);
    }
    end = rt.simulator().now();
  });
  session.spawn(1, "pong", [&](NodeRuntime&) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < iterations; ++i) {
      b.recv(data, 0, 0);
      b.send(data, 0, 0);
    }
  });
  EXPECT_TRUE(session.run().is_ok());
  return sim::to_us(end - start) / (2.0 * iterations);
}

TEST(Figure6, LatencyOrderMatchesThePaper) {
  // Direct SCI MPIs beat MPICH/Madeleine on small-message latency.
  double chmad_lat;
  double scampi_lat;
  double scimpich_lat;
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    ChMadWorld world(session, "mpi");
    chmad_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                        session, 4);
  }
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                           SciBaselineParams::scampi_like());
    scampi_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                         session, 4);
  }
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                           SciBaselineParams::scimpich_like());
    scimpich_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                           session, 4);
  }
  EXPECT_LT(scampi_lat, scimpich_lat);
  EXPECT_LT(scimpich_lat, chmad_lat);
}

TEST(Figure6, ChMadWinsBandwidthAtLargeSizes) {
  // Paper: "our ch_mad module provides the best results for messages of
  // 32 kB and above".
  const std::size_t size = 256 * 1024;
  double chmad_lat;
  double scampi_lat;
  double scimpich_lat;
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    ChMadWorld world(session, "mpi");
    chmad_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                        session, size, 4);
  }
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                           SciBaselineParams::scampi_like());
    scampi_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                         session, size, 4);
  }
  {
    Session session(mpi_config(NetworkKind::kSisci, 2));
    SciBaselineWorld world(session.network("net0").as<net::SciNetwork>(),
                           SciBaselineParams::scimpich_like());
    scimpich_lat = mpi_pingpong_latency_us(world.comm(0), world.comm(1),
                                           session, size, 4);
  }
  EXPECT_LT(chmad_lat, scampi_lat);
  EXPECT_LT(scampi_lat, scimpich_lat);
}

}  // namespace
}  // namespace mad2::mpi
