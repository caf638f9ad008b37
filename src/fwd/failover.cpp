// Resilient mode of a virtual channel (docs/ROUTING.md): gateway deaths,
// the replay of unconfirmed packets over the survivors, and the per-source
// send serialization that keeps a replay from interleaving with a flush.
#include "fwd/virtual_channel.hpp"

#include <algorithm>

#include "fwd/packet_queue.hpp"
#include "obs/trace.hpp"

namespace mad2::fwd {

sim::Mutex& VirtualChannel::send_mutex(std::uint32_t src) {
  return send_mutexes_.try_emplace(src, &session_->simulator()).first->second;
}

void VirtualChannel::kill_gateway(std::uint32_t node) {
  MAD2_CHECK(resilient(),
             "kill_gateway requires the topology stanza (resilient mode)");
  mad::Hostdb& hostdb = session_->hostdb();
  if (!hostdb.alive(node)) return;  // idempotent
  MAD2_CHECK(hostdb.is_gateway(node), "kill_gateway on a non-gateway node");
  MAD2_CHECK(router_.can_absorb_gateway(node),
             "killing the last healthy gateway of a boundary");

  // 1. While the pre-death routes are still in force, find the flows
  //    whose unconfirmed packets were traveling through the dying
  //    gateway: those are the ones that must replay.
  for (auto& [key, flow] : flows_) {
    flow.unacked.confirm(flow.received.expected());
    if (flow.unacked.empty()) continue;
    if (router_.route_uses_gateway(key.first, key.second, node)) {
      flow.replay_pending = true;
    }
  }

  // 2. Membership update: directory epoch bump + healthy-set shrink.
  //    From this call on, every next_node() resolves around the corpse.
  hostdb.mark_dead(node);
  router_.drop_gateway(node);
  ++counters_.gateway_kills;

  // 3. Packets parked in the dead gateway's pump queues go back to the
  //    pool (they are unconfirmed by definition — replay covers them).
  drain_gateway_queues(node);

  // 4. Repair: replay the marked flows over surviving gateways, off the
  //    killer's fiber so a kill from inside a pump cannot deadlock on
  //    its own queue.
  session_->simulator().spawn(
      def_.name + ".repair.gw" + std::to_string(node),
      [this] { replay_pending_flows(); });
}

void VirtualChannel::arm_gateway_kill(std::uint32_t node,
                                      std::uint64_t after_packets) {
  MAD2_CHECK(resilient(),
             "arm_gateway_kill requires the topology stanza");
  armed_kill_ = ArmedKill{node, gateway_rx_packets_ + after_packets};
}

void VirtualChannel::note_gateway_packet() {
  ++gateway_rx_packets_;
  if (armed_kill_.has_value() &&
      gateway_rx_packets_ >= armed_kill_->after_packets) {
    const std::uint32_t victim = armed_kill_->gateway;
    armed_kill_.reset();
    kill_gateway(victim);
  }
}

void VirtualChannel::drain_gateway_queues(std::uint32_t gateway) {
  for (const GatewayPump& pump : pumps_) {
    if (pump.gateway != gateway || pump.queue == nullptr) continue;
    while (auto packet = pump.queue->try_receive()) {
      ++counters_.discarded;  // buffer recycles as `packet` dies
    }
  }
}

void VirtualChannel::replay_pending_flows() {
  std::vector<std::span<const std::byte>> one_piece(1);
  std::vector<std::uint32_t> sizes_scratch;
  for (auto& [key, flow] : flows_) {
    if (!flow.replay_pending) continue;
    const std::uint32_t src = key.first;
    const std::uint32_t dst = key.second;
    sim::Mutex& mutex = send_mutex(src);
    mutex.lock();
    flow.unacked.confirm(flow.received.expected());
    const std::size_t hop = router_.hop_of(src, dst);
    mad::ChannelEndpoint& ep = hop_channels_[hop]->endpoint(src);
    // Confirmations only advance the watermark, so the retained packets
    // stay put across the blocking sends; already-confirmed entries are
    // skipped instead of replayed as guaranteed duplicates.
    for (std::uint64_t seq = flow.unacked.front_seq();
         seq < flow.unacked.end_seq(); ++seq) {
      if (seq < flow.received.expected()) continue;
      const RetainedPacket& retained = *flow.unacked.find(seq);
      const std::size_t bytes = retained.bytes.size();
      const std::uint32_t to = router_.next_node(hop, src, dst);
      one_piece[0] = std::span<const std::byte>(retained.bytes);
      // A retained bare `last` marker has no payload: replay it with an
      // empty gather list, exactly as it first went out.
      const std::span<const std::span<const std::byte>> pieces =
          bytes == 0
              ? std::span<const std::span<const std::byte>>()
              : std::span<const std::span<const std::byte>>(one_piece);
      MAD2_TRACE_SPAN(span, obs::Category::kFwd, "fwd.replay");
      span.args(static_cast<std::uint32_t>(bytes), dst);
      // The retained extension re-ships as-is: the replay inherits the
      // original packet's trace identity, so the weaved span shows the
      // journey that actually delivered.
      send_packet(ep, to, retained.header, pieces, sizes_scratch,
                  retained.ext);
      ++counters_.replayed_packets;
      counters_.replayed_bytes += bytes;
      ++flow.replays;
    }
    flow.replay_pending = false;
    mutex.unlock();
    replay_settled_.notify_all();
  }
}

mad::FailureDomain VirtualChannel::on_network_failure(
    const mad::NetworkFailure& failure) {
  // Only failures of networks backing this channel's hops concern us.
  if (std::none_of(hop_channels_.begin(), hop_channels_.end(),
                   [&](mad::Channel* hop) {
                     return &hop->network() == failure.network;
                   })) {
    return mad::FailureDomain::kUnknown;
  }
  // The unresponsive end decides whether this is our failure to absorb:
  // a dead leaf is a node-domain problem however it was reported, so
  // anything but a gateway with healthy siblings passes through.
  // (NetworkFailure::kNoNode is never a member.)
  const std::uint32_t dst = failure.dst_node;
  if (!router_.has_node(dst)) return mad::FailureDomain::kUnknown;
  if (session_->hostdb().alive(dst)) {
    if (!router_.can_absorb_gateway(dst)) return mad::FailureDomain::kUnknown;
    kill_gateway(dst);
  }
  // A give-up is terminal for the *reporting* endpoint too (the net
  // layer fails the whole endpoint and poisons every stream touching
  // it, see net/reliable.cpp and TcpNetwork::on_link_failed), so the
  // reporter must leave the gateway rotation as well — routing replays
  // through it would black-hole them. If it is the last healthy gateway
  // of a boundary it stays, and flows hashed there are on their own;
  // there is no failover left to run.
  const std::uint32_t src = failure.src_node;
  if (router_.has_node(src) && session_->hostdb().alive(src) &&
      router_.can_absorb_gateway(src)) {
    kill_gateway(src);
  }
  return mad::FailureDomain::kHop;
}

}  // namespace mad2::fwd
