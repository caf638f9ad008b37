// Pins the exact virtual timing of the six raw packet drivers. Each test
// runs one fixed two-node exchange: both nodes send a 64 B, a 4,097 B and
// a 64 KiB message to each other, from one sender fiber per node, and the
// test checks the payloads, then the end time and each node's PCI bus
// occupancy and byte count to the nanosecond and the byte. The per-driver
// suites check timing only approximately (EXPECT_NEAR), and no bench
// baseline covers VIA, SBP or raw-driver timing, so these figures are what
// holds a driver refactor to the same schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/bip.hpp"
#include "net/ib.hpp"
#include "net/sbp.hpp"
#include "net/sisci.hpp"
#include "net/tcp.hpp"
#include "net/via.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

constexpr std::array<std::size_t, 3> kSizes = {64, 4097, 64 * 1024};

/// The payload node `from` sends as its message `index`.
std::vector<std::byte> message(std::uint32_t from, std::size_t index) {
  return make_pattern_buffer(kSizes[index], 10 * from + index + 1);
}

bool holds_message(std::span<const std::byte> bytes, std::uint32_t from,
                   std::size_t index) {
  return bytes.size() == kSizes[index] &&
         verify_pattern(bytes, 10 * from + index + 1);
}

struct Pinned {
  sim::Time end;
  std::array<sim::Duration, 2> pci_busy;
  std::array<std::uint64_t, 2> pci_bytes;
};

void expect_pinned(Testbed& bed, const Pinned& want) {
  EXPECT_EQ(bed.simulator.now(), want.end);
  for (std::size_t n = 0; n < 2; ++n) {
    EXPECT_EQ(bed.nodes[n]->pci_bus().busy_time(), want.pci_busy[n])
        << "node " << n;
    EXPECT_EQ(bed.nodes[n]->pci_bus().bytes_transferred(), want.pci_bytes[n])
        << "node " << n;
  }
}

TEST(DriverPin, Bip) {
  Testbed bed(2);
  BipNetwork network(&bed.simulator, bed.node_ptrs(),
                     BipParams::myrinet_lanai43());
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("receiver", [&, me, peer] {
      BipPort& port = network.port(me);
      std::vector<std::byte> mid(kSizes[1]);
      std::vector<std::byte> big(kSizes[2]);
      port.post_recv_long(peer, 1, mid);
      port.post_recv_long(peer, 2, big);
      std::vector<std::byte> small(kSizes[0]);
      EXPECT_EQ(port.recv_short_copy(0, small), kSizes[0]);
      port.wait_recv_long(peer, 1);
      port.wait_recv_long(peer, 2);
      EXPECT_TRUE(holds_message(small, peer, 0));
      EXPECT_TRUE(holds_message(mid, peer, 1));
      EXPECT_TRUE(holds_message(big, peer, 2));
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      BipPort& port = network.port(me);
      port.send_short(peer, 0, message(me, 0));
      port.send_long(peer, 1, message(me, 1));
      port.send_long(peer, 2, message(me, 2));
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  expect_pinned(bed, {1223633, {1111130, 1111130}, {140002, 140002}});
}

TEST(DriverPin, Sisci) {
  Testbed bed(2);
  SciNetwork network(&bed.simulator, bed.node_ptrs(),
                     SciParams::dolphin_d310());
  const std::size_t total = kSizes[0] + kSizes[1] + kSizes[2];
  std::array<SegmentId, 2> segments{};
  for (std::uint32_t me = 0; me < 2; ++me) {
    segments[me] = network.port(me).create_segment(total);
  }
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("receiver", [&, me, peer] {
      SciPort& port = network.port(me);
      std::vector<std::byte> expected;
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        const std::vector<std::byte> part = message(peer, i);
        expected.insert(expected.end(), part.begin(), part.end());
      }
      port.wait_segment(segments[me], [&] {
        const std::span<std::byte> memory =
            port.segment_memory(segments[me]);
        return std::equal(memory.begin(), memory.end(), expected.begin());
      });
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      SciPort& port = network.port(me);
      const RemoteSegment remote = port.connect(peer, segments[peer]);
      port.pio_write(remote, 0, message(me, 0));
      port.dma_write(remote, kSizes[0], message(me, 1));
      port.pio_write(remote, kSizes[0] + kSizes[1], message(me, 2));
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  expect_pinned(bed, {1861677, {1825337, 1825337}, {139698, 139698}});
}

TEST(DriverPin, Via) {
  Testbed bed(2);
  ViaNetwork network(&bed.simulator, bed.node_ptrs(),
                     ViaParams::generic_nic());
  std::array<std::array<std::vector<std::byte>, 3>, 2> landing;
  for (std::uint32_t me = 0; me < 2; ++me) {
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
      landing[me][i].resize(kSizes[i]);
      network.port(me).post_recv(1 - me, landing[me][i]);
    }
  }
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("receiver", [&, me, peer] {
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        const ViaRecvCompletion done = network.port(me).wait_recv(peer);
        EXPECT_TRUE(holds_message(done.buffer.first(done.bytes), peer, i));
      }
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        network.port(me).send(peer, message(me, i));
      }
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  expect_pinned(bed, {1114330, {1111130, 1111130}, {140002, 140002}});
}

TEST(DriverPin, Sbp) {
  Testbed bed(2);
  SbpNetwork network(&bed.simulator, bed.node_ptrs(),
                     SbpParams::fast_ethernet());
  const std::size_t buffer = network.params().buffer_bytes;
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("receiver", [&, me, peer] {
      SbpPort& port = network.port(me);
      // Messages over one kernel buffer arrive split, in order.
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        std::vector<std::byte> whole;
        while (whole.size() < kSizes[i]) {
          const SbpRxBuffer part = port.recv(0);
          EXPECT_EQ(part.src, peer);
          whole.insert(whole.end(), part.data.begin(), part.data.end());
          port.release(part);
        }
        EXPECT_TRUE(holds_message(whole, peer, i));
      }
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      SbpPort& port = network.port(me);
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        const std::vector<std::byte> data = message(me, i);
        for (std::size_t done = 0; done < data.size(); done += buffer) {
          const std::size_t used = std::min(buffer, data.size() - done);
          SbpTxBuffer tx = port.acquire_tx_buffer();
          std::copy_n(data.begin() + done, used, tx.memory.begin());
          port.send(peer, 0, tx, used);
        }
      }
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  expect_pinned(bed, {6870518, {1113524, 1113524}, {140306, 140306}});
}

TEST(DriverPin, Ib) {
  Testbed bed(2);
  IbNetwork network(&bed.simulator, bed.node_ptrs(),
                    IbParams::mellanox_like());
  // Node n receives the two sends in landing[n][0..1] and the RDMA write
  // in its registered region landing[n][2].
  std::array<std::array<std::vector<std::byte>, 3>, 2> landing;
  std::array<IbMr, 2> regions;
  for (std::uint32_t me = 0; me < 2; ++me) {
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
      landing[me][i].resize(kSizes[i]);
    }
    network.port(me).post_recv(1 - me, 0, landing[me][0]);
    network.port(me).post_recv(1 - me, 0, landing[me][1]);
    regions[me] = network.port(me).register_memory(landing[me][2]);
  }
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("reaper", [&, me, peer] {
      // Two receives and the peer's write land here; this node's own
      // write completes here too.
      std::array<int, 5> kinds{};
      for (int n = 0; n < 4; ++n) {
        const IbCompletion done = network.port(me).wait_cq(0);
        EXPECT_TRUE(done.ok);
        ++kinds[static_cast<std::size_t>(done.kind)];
      }
      EXPECT_EQ(kinds[static_cast<std::size_t>(IbCompletion::Kind::kRecv)],
                2);
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        EXPECT_TRUE(holds_message(landing[me][i], peer, i));
      }
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      IbPort& port = network.port(me);
      port.post_send(peer, 0, message(me, 0), /*imm=*/1);
      port.post_send(peer, 0, message(me, 1), /*imm=*/2);
      port.post_rdma_write(peer, 0, message(me, 2), regions[peer].key, 0,
                           /*imm=*/3);
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  // The run ends when the RDMA writes' 50 ms give-up timers expire idle.
  expect_pinned(bed, {50306944, {314647, 314647}, {141584, 141584}});
}

TEST(DriverPin, Tcp) {
  Testbed bed(2);
  TcpNetwork network(&bed.simulator, bed.node_ptrs(),
                     TcpParams::fast_ethernet());
  int received = 0;
  for (std::uint32_t me = 0; me < 2; ++me) {
    const std::uint32_t peer = 1 - me;
    bed.simulator.spawn("receiver", [&, me, peer] {
      TcpStream& stream = network.port(me).stream(peer);
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        std::vector<std::byte> out(kSizes[i]);
        stream.recv(out);
        EXPECT_TRUE(holds_message(out, peer, i));
      }
      ++received;
    });
    bed.simulator.spawn("sender", [&, me, peer] {
      TcpStream& stream = network.port(me).stream(peer);
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        stream.send(message(me, i));
      }
    });
  }
  ASSERT_TRUE(bed.simulator.run().is_ok());
  EXPECT_EQ(received, 2);
  expect_pinned(bed, {6566179, {1151448, 1151448}, {145078, 145078}});
}

}  // namespace
}  // namespace mad2::net
