// Tests for the mad-over-MPI port (paper Section 5.3: "Madeleine II has
// also been ported, quite straightforwardly, on top of MPI") and the
// custom-PMM extension point it is built on.
#include <gtest/gtest.h>

#include <memory>

#include "mad/madeleine.hpp"
#include "mpi/pmm_mpi.hpp"
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

/// A session whose "madompi" channel runs Madeleine over a ScaMPI-like
/// MPI, which itself runs on a raw SCI network of the same nodes.
struct MadOverMpiBed {
  explicit MadOverMpiBed(std::size_t nodes) {
    SessionConfig config;
    config.node_count = nodes;
    // The substrate network the MPI library drives directly.
    NetworkDef sci;
    sci.name = "sci0";
    sci.kind = NetworkKind::kSisci;
    for (std::uint32_t i = 0; i < nodes; ++i) sci.nodes.push_back(i);
    config.networks.push_back(sci);
    // The custom network: Madeleine over that MPI.
    std::vector<std::uint32_t> members(sci.nodes);
    // The world is created lazily on first PMM construction, after the
    // session has built the SCI driver.
    auto world = std::make_shared<std::unique_ptr<SciBaselineWorld>>();
    session_holder = std::make_shared<Session*>(nullptr);
    auto holder = session_holder;
    config.networks.push_back(make_mad_over_mpi_network(
        "madompi", members, [world, holder](std::uint32_t node) -> Comm& {
          if (!*world) {
            *world = std::make_unique<SciBaselineWorld>(
                (*holder)->network("sci0").as<net::SciNetwork>(),
                SciBaselineParams::scampi_like());
          }
          return (*world)->comm(node);
        }));
    config.channels.push_back(ChannelDef{"ch", "madompi"});
    session = std::make_unique<Session>(std::move(config));
    *session_holder = session.get();
  }

  std::shared_ptr<Session*> session_holder;
  std::unique_ptr<Session> session;
};

TEST(MadOverMpi, RoundTripsAcrossSizes) {
  MadOverMpiBed bed(2);
  const std::vector<std::size_t> sizes{1, 100, 4096, 65536, 300000};
  bed.session->spawn(0, "sender", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto payload = make_pattern_buffer(size, size);
      auto& conn = rt.channel("ch").begin_packing(1);
      conn.pack(payload);
      conn.end_packing();
    }
  });
  bed.session->spawn(1, "receiver", [&](NodeRuntime& rt) {
    for (std::size_t size : sizes) {
      auto& conn = rt.channel("ch").begin_unpacking();
      std::vector<std::byte> out(size);
      conn.unpack(out);
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, size)) << size;
    }
  });
  ASSERT_TRUE(bed.session->run().is_ok());
}

TEST(MadOverMpi, Figure1StyleMessagesWork) {
  MadOverMpiBed bed(2);
  bed.session->spawn(0, "sender", [&](NodeRuntime& rt) {
    const std::uint32_t n = 5000;
    auto payload = make_pattern_buffer(n, 3);
    auto& conn = mad_begin_packing(rt.channel("ch"), 1);
    mad_pack_value(conn, n, mad::send_CHEAPER, mad::receive_EXPRESS);
    mad_pack(conn, payload, mad::send_CHEAPER, mad::receive_CHEAPER);
    mad_end_packing(conn);
  });
  bed.session->spawn(1, "receiver", [&](NodeRuntime& rt) {
    auto& conn = mad_begin_unpacking(rt.channel("ch"));
    std::uint32_t n = 0;
    mad_unpack_value(conn, n, mad::send_CHEAPER, mad::receive_EXPRESS);
    ASSERT_EQ(n, 5000u);
    std::vector<std::byte> data(n);
    mad_unpack(conn, data, mad::send_CHEAPER, mad::receive_CHEAPER);
    mad_end_unpacking(conn);
    EXPECT_TRUE(verify_pattern(data, 3));
  });
  ASSERT_TRUE(bed.session->run().is_ok());
}

TEST(MadOverMpi, ThreeNodesDemultiplexBySource) {
  MadOverMpiBed bed(3);
  for (std::uint32_t s : {1u, 2u}) {
    bed.session->spawn(s, "sender" + std::to_string(s),
                       [&, s](NodeRuntime& rt) {
      if (s == 2) rt.simulator().advance(sim::milliseconds(1));
      auto payload = make_pattern_buffer(1000, s);
      auto& conn = rt.channel("ch").begin_packing(0);
      conn.pack(payload);
      conn.end_packing();
    });
  }
  bed.session->spawn(0, "receiver", [&](NodeRuntime& rt) {
    for (int m = 0; m < 2; ++m) {
      auto& conn = rt.channel("ch").begin_unpacking();
      std::vector<std::byte> out(1000);
      conn.unpack(out);
      const std::uint32_t src = conn.remote();
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, src));
    }
  });
  ASSERT_TRUE(bed.session->run().is_ok());
}

TEST(MadOverMpi, SlowerThanNativeSisciButWorks) {
  // The point of native protocol modules (paper Section 1): MPI underneath
  // costs real latency. Compare 4-byte one-way times.
  auto one_way = [](bool over_mpi) {
    std::unique_ptr<MadOverMpiBed> bed;
    std::unique_ptr<Session> native;
    Session* session = nullptr;
    if (over_mpi) {
      bed = std::make_unique<MadOverMpiBed>(2);
      session = bed->session.get();
    } else {
      SessionConfig config;
      config.node_count = 2;
      NetworkDef net;
      net.name = "sci0";
      net.kind = NetworkKind::kSisci;
      net.nodes = {0, 1};
      config.networks.push_back(net);
      config.channels.push_back(ChannelDef{"ch", "sci0"});
      native = std::make_unique<Session>(std::move(config));
      session = native.get();
    }
    const int iterations = 10;
    sim::Time start = 0;
    sim::Time end = 0;
    session->spawn(0, "ping", [&](NodeRuntime& rt) {
      std::uint32_t v = 1;
      start = rt.simulator().now();
      for (int i = 0; i < iterations; ++i) {
        auto& out = rt.channel("ch").begin_packing(1);
        mad_pack_value(out, v);
        out.end_packing();
        auto& in = rt.channel("ch").begin_unpacking();
        mad_unpack_value(in, v);
        in.end_unpacking();
      }
      end = rt.simulator().now();
    });
    session->spawn(1, "pong", [&](NodeRuntime& rt) {
      std::uint32_t v = 0;
      for (int i = 0; i < iterations; ++i) {
        auto& in = rt.channel("ch").begin_unpacking();
        mad_unpack_value(in, v);
        in.end_unpacking();
        auto& out = rt.channel("ch").begin_packing(0);
        mad_pack_value(out, v);
        out.end_packing();
      }
    });
    EXPECT_TRUE(session->run().is_ok());
    return sim::to_us(end - start) / (2.0 * iterations);
  };
  const double native_us = one_way(false);
  const double over_mpi_us = one_way(true);
  EXPECT_GT(over_mpi_us, native_us * 1.3);
}

TEST(MadOverMpi, TwoChannelsOnOneMpiNetworkAbort) {
  SessionConfig config;
  config.node_count = 2;
  NetworkDef sci;
  sci.name = "sci0";
  sci.kind = NetworkKind::kSisci;
  sci.nodes = {0, 1};
  config.networks.push_back(sci);
  config.networks.push_back(make_mad_over_mpi_network(
      "madompi", {0, 1}, [](std::uint32_t) -> Comm& {
        MAD2_CHECK(false, "never reached: config validation fires first");
      }));
  config.channels.push_back(ChannelDef{"a", "madompi"});
  config.channels.push_back(ChannelDef{"b", "madompi"});
  EXPECT_DEATH({ Session session(std::move(config)); },
               "exactly one channel");
}

}  // namespace
}  // namespace mad2::mpi
