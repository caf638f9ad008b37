// Pins the exported metric surface: every name and value that
// Session::export_metrics and VirtualChannel::export_metrics write for a
// small mixed session, compared against a checked-in table. A refactor
// of where counters live must leave this table untouched; a change that
// means to rename or re-value a metric edits the table and says why.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace mad2 {
namespace {

// The session: nodes 0 and 1 send, node 2 is the gateway, node 3 the
// receiver. The left network is TCP over a seeded lossy fabric and carries
// two channels (the incast hop and "side"), so nodes 0-2 each hold two
// endpoints on one node and one reliable port. The right network is BIP.
// Traffic: a congestion-controlled virtual channel from 0 and 1 to 3, plus
// a mixed-size exchange 0 -> 1 on "side".
std::string run_mixed_session() {
  IncastBed bed = make_incast(2, mad::NetworkKind::kTcp,
                              mad::NetworkKind::kBip);
  bed.config.channels.push_back(
      mad::ChannelDef{"side", bed.config.networks[0].name});
  net::FaultPlan plan(7);
  net::LinkFaults faults;
  faults.drop_rate = 0.02;
  faults.dup_rate = 0.01;
  plan.set_default_faults(faults);
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.faults = &plan;
  bed.config.networks[0].tcp_params = tcp;
  mad::CongestionConfig cc;
  cc.enabled = true;
  cc.max_window = 8;
  cc.gateway_queue = 8;
  cc.quantum = 2048;
  bed.config.congestion = cc;

  mad::Session session(bed.config);
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {IncastBed::kLeftChannel, IncastBed::kRightChannel};
  def.mtu = 2 * 1024;
  fwd::VirtualChannel vc(session, def);

  constexpr std::size_t kMessage = 8 * 1024;
  const std::vector<std::size_t> side_sizes{16, 3000, 40000};
  for (std::uint32_t sender : bed.senders) {
    session.spawn(sender, "sender" + std::to_string(sender),
                  [&, sender](mad::NodeRuntime& rt) {
                    auto payload = make_pattern_buffer(
                        kMessage, static_cast<int>(sender) + 1);
                    auto& conn =
                        vc.endpoint(sender).begin_packing(bed.receiver);
                    conn.pack(payload);
                    conn.end_packing();
                    if (sender != 0) return;
                    for (std::size_t size : side_sizes) {
                      auto block = make_pattern_buffer(size, 5);
                      auto& side = rt.channel("side").begin_packing(1);
                      side.pack(block);
                      side.end_packing();
                    }
                  });
  }
  session.spawn(1, "side_rx", [&](mad::NodeRuntime& rt) {
    for (std::size_t size : side_sizes) {
      auto& side = rt.channel("side").begin_unpacking();
      std::vector<std::byte> out(size);
      side.unpack(out);
      side.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, 5)) << "side size " << size;
    }
  });
  session.spawn(bed.receiver, "receiver", [&](mad::NodeRuntime&) {
    for (std::size_t i = 0; i < bed.senders.size(); ++i) {
      auto& conn = vc.endpoint(bed.receiver).begin_unpacking();
      std::vector<std::byte> out(kMessage);
      conn.unpack(out);
      const std::uint32_t src = conn.remote();
      conn.end_unpacking();
      EXPECT_TRUE(verify_pattern(out, static_cast<int>(src) + 1))
          << "corrupt message from " << src;
    }
  });
  const Status run = session.run();
  EXPECT_TRUE(run.is_ok()) << run.to_string();

  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  vc.export_metrics(registry);
  std::string table;
  for (const auto& [name, value] : registry.values()) {
    // Present only when a trace recorder is installed (MAD2_TRACE).
    if (name == "trace.dropped_events") continue;
    table += name + " " + std::to_string(value) + "\n";
  }
  return table;
}

// Generated by this test at the commit that introduced it; every row is
// an exported name and its value.
constexpr const char* kExpected = R"(mem.node0.allocs 0
mem.node0.deregs 0
mem.node0.memcpy_bytes 51392
mem.node0.pinned_bytes 0
mem.node0.pool_recycles 0
mem.node0.regs 0
mem.node1.allocs 0
mem.node1.deregs 0
mem.node1.memcpy_bytes 51392
mem.node1.pinned_bytes 0
mem.node1.pool_recycles 0
mem.node1.regs 0
mem.node2.allocs 0
mem.node2.deregs 0
mem.node2.memcpy_bytes 17100
mem.node2.pinned_bytes 0
mem.node2.pool_recycles 10
mem.node2.regs 0
mem.node3.allocs 0
mem.node3.deregs 0
mem.node3.memcpy_bytes 10588
mem.node3.pinned_bytes 0
mem.node3.pool_recycles 10
mem.node3.regs 0
rel.incast_left_net:0.acks_sent 0
rel.incast_left_net:0.corrupt_frames 0
rel.incast_left_net:0.data_frames 41
rel.incast_left_net:0.dup_frames 0
rel.incast_left_net:0.give_ups 0
rel.incast_left_net:0.min_rtt_us 67
rel.incast_left_net:0.retransmits 2
rel.incast_left_net:0.rtt_samples 39
rel.incast_left_net:0.srtt_us 1424
rel.incast_left_net:1.acks_sent 32
rel.incast_left_net:1.corrupt_frames 0
rel.incast_left_net:1.data_frames 10
rel.incast_left_net:1.dup_frames 1
rel.incast_left_net:1.give_ups 0
rel.incast_left_net:1.min_rtt_us 75
rel.incast_left_net:1.retransmits 0
rel.incast_left_net:1.rtt_samples 10
rel.incast_left_net:1.srtt_us 132
rel.incast_left_net:2.acks_sent 20
rel.incast_left_net:2.corrupt_frames 0
rel.incast_left_net:2.data_frames 0
rel.incast_left_net:2.dup_frames 0
rel.incast_left_net:2.give_ups 0
rel.incast_left_net:2.min_rtt_us 0
rel.incast_left_net:2.retransmits 0
rel.incast_left_net:2.rtt_samples 0
rel.incast_left_net:2.srtt_us 0
stats.incast_left.messages_received 10
stats.incast_left.messages_sent 10
stats.incast_left.rx.tcp.blocks 42
stats.incast_left.rx.tcp.bytes 16732
stats.incast_left.switch.fast_selects 84
stats.incast_left.switch.pack_cpu_ticks 14400
stats.incast_left.switch.unpack_cpu_ticks 14400
stats.incast_left.tx.tcp.blocks 42
stats.incast_left.tx.tcp.bytes 16732
stats.incast_right.messages_received 10
stats.incast_right.messages_sent 10
stats.incast_right.rx.bip-long.blocks 8
stats.incast_right.rx.bip-long.bytes 16364
stats.incast_right.rx.bip-short.blocks 34
stats.incast_right.rx.bip-short.bytes 368
stats.incast_right.switch.fast_selects 84
stats.incast_right.switch.pack_cpu_ticks 14400
stats.incast_right.switch.unpack_cpu_ticks 14400
stats.incast_right.tx.bip-long.blocks 8
stats.incast_right.tx.bip-long.bytes 16364
stats.incast_right.tx.bip-short.blocks 34
stats.incast_right.tx.bip-short.bytes 368
stats.side.messages_received 3
stats.side.messages_sent 3
stats.side.rx.tcp.blocks 3
stats.side.rx.tcp.bytes 43016
stats.side.switch.fast_selects 6
stats.side.switch.pack_cpu_ticks 2400
stats.side.switch.unpack_cpu_ticks 2400
stats.side.tx.tcp.blocks 3
stats.side.tx.tcp.bytes 43016
vc.flow.0-3.cwnd_x1000 6677
vc.flow.0-3.packets 5
vc.flow.0-3.srtt_us 868
vc.flow.1-3.cwnd_x1000 6677
vc.flow.1-3.packets 5
vc.flow.1-3.srtt_us 1023
vc.gw2.0to1.queue_depth_hwm 3
vc.gw2.1to0.queue_depth_hwm 0
)";

TEST(MetricsExport, MixedSessionMatchesPinnedTable) {
  EXPECT_EQ(run_mixed_session(), kExpected);
}

}  // namespace
}  // namespace mad2
