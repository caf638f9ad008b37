#include "fwd/virtual_channel.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "fwd/fair_queue.hpp"
#include "fwd/packet_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/span_weaver.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"

namespace mad2::fwd {

namespace {

/// The channel-def override if set, else the session's setting, else off.
template <typename T>
T resolve(const std::optional<T>& def_value,
          const std::optional<T>& session_value) {
  return def_value.value_or(session_value.value_or(T{}));
}

/// Hands the riding fields of `ext` to `field` in wire order (stamp ->
/// seq -> hop trail). Encoder, decoder and the size count all walk this
/// one list, so they cannot disagree on the layout.
template <typename Ext, typename Field>
void walk_ext(Ext& ext, const PacketExt::Layout& layout, Field field) {
  if (layout.stamp) field(ext.stamp);
  if (layout.seq) field(ext.seq);
  if (!layout.hops) return;
  field(ext.hops.hop_count);
  for (auto& hop : ext.hops.hops) {
    field(hop.node);
    field(hop.enqueue);
    field(hop.dequeue);
    field(hop.wire);
  }
}

void encode_ext(const PacketExt::Layout& layout, const PacketExt& ext,
                std::byte* out) {
  walk_ext(ext, layout, [&out](const auto& value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  });
}

void decode_ext(const PacketExt::Layout& layout, const std::byte* in,
                PacketExt& ext) {
  walk_ext(ext, layout, [&in](auto& value) {
    std::memcpy(&value, in, sizeof(value));
    in += sizeof(value);
  });
}

}  // namespace

// ---------------------------------------------------------- VirtualChannel ---

VirtualChannel::VirtualChannel(mad::Session& session, VirtualChannelDef def)
    : session_(&session),
      def_(std::move(def)),
      pool_(def_.mtu),
      replay_settled_(&session.simulator()),
      retention_freed_(&session.simulator()) {
  MAD2_CHECK(!def_.hops.empty(), "virtual channel needs at least one hop");
  MAD2_CHECK(def_.mtu > kBlockHeaderBytes, "MTU too small");
  const mad::SessionConfig& config = session_->config();
  congestion_ = resolve(def_.congestion, config.congestion);
  topology_ = resolve(def_.topology, config.topology);
  propagation_ = resolve(def_.propagation,
                         config.trace ? std::optional(config.trace->propagation)
                                      : std::nullopt);
  MAD2_CHECK(!topology_.enabled || topology_.replay_quota > 0,
             "topology replay_quota must be positive");
  // Every node of the channel resolves the same layout, so the block
  // needs no presence mask.
  ext_layout_.stamp = congestion_.enabled;
  ext_layout_.seq = topology_.enabled || propagation_;
  ext_layout_.hops = propagation_;
  const PacketExt sizing;
  walk_ext(sizing, ext_layout_, [this](const auto& value) {
    ext_layout_.bytes += sizeof(value);
  });
  std::vector<std::vector<std::uint32_t>> hop_nodes;
  for (const std::string& hop : def_.hops) {
    hop_channels_.push_back(&session_->channel(hop));
    hop_nodes.push_back(hop_channels_.back()->nodes());
  }
  router_ = Router(hop_nodes, session_->node_count(), topology_);

  // Register the gateway roles in the session directory (liveness is
  // consulted on the pump hot paths in resilient mode).
  std::size_t total_gateways = 0;
  for (const Router::Boundary& boundary : router_.boundaries()) {
    for (std::uint32_t gateway : boundary.gateways) {
      session_->hostdb().set_gateway_role(gateway);
    }
    total_gateways += boundary.gateways.size();
  }

  // Size the pool for the steady state: every gateway direction keeps
  // pipeline_depth packets queued plus one in each pump fiber, and each
  // endpoint looks ahead by a couple of packets while draining. Extra
  // demand (e.g. a failover's out-of-order stash) grows the pool
  // (counted via hw::MemCounters::alloc_count).
  pool_.prewarm(total_gateways * 2 * (def_.pipeline_depth + 2) +
                nodes().size() * 2);

  for (std::uint32_t node : nodes()) {
    endpoints_.emplace(node, std::unique_ptr<VirtualEndpoint>(
                                 new VirtualEndpoint(this, node)));
  }

  spawn_gateways();

  if (topology_.enabled) {
    failure_listener_id_ = session_->add_failure_listener(
        [this](const mad::NetworkFailure& failure) {
          return on_network_failure(failure);
        });
  }
}

VirtualChannel::~VirtualChannel() {
  if (failure_listener_id_ != 0) {
    session_->remove_failure_listener(failure_listener_id_);
  }
}

VirtualEndpoint& VirtualChannel::endpoint(std::uint32_t node) {
  auto it = endpoints_.find(node);
  MAD2_CHECK(it != endpoints_.end(), "node not on this virtual channel");
  return *it->second;
}

void VirtualChannel::send_packet(
    mad::ChannelEndpoint& hop_endpoint, std::uint32_t to, PacketHeader header,
    std::span<const std::span<const std::byte>> pieces,
    std::vector<std::uint32_t>& sizes_scratch, const PacketExt& ext) {
  header.n_pieces = static_cast<std::uint32_t>(pieces.size());
  sizes_scratch.clear();
  std::uint64_t total = 0;
  for (const auto& piece : pieces) {
    sizes_scratch.push_back(static_cast<std::uint32_t>(piece.size()));
    total += piece.size();
  }
  // The header carries the payload length as u32; a >= 4 GiB packet would
  // silently wrap it. (Messages are fragmented to the MTU well below
  // that; this guards direct callers handing over-long gather lists.)
  MAD2_CHECK(total <= std::numeric_limits<std::uint32_t>::max(),
             "virtual packet payload overflows the u32 length header");
  header.payload_len = static_cast<std::uint32_t>(total);

  MAD2_TRACE_SPAN(span, obs::Category::kFwd, "fwd.packet_flush");
  span.args(header.payload_len, header.dst);
  mad::Connection& conn = hop_endpoint.begin_packing(to);
  mad::mad_pack_value(conn, header, mad::send_CHEAPER, mad::receive_EXPRESS);
  // The extension is EXPRESS and never a payload piece, so it is never an
  // unpack_borrow candidate and stays out of the copies-per-byte
  // accounting. Its bytes (a subset of the struct's) live until
  // end_packing below.
  std::byte ext_wire[sizeof(PacketExt)];
  if (ext_layout_.bytes > 0) {
    encode_ext(ext_layout_, ext, ext_wire);
    conn.pack(std::span<const std::byte>(ext_wire, ext_layout_.bytes),
              mad::send_CHEAPER, mad::receive_EXPRESS);
  }
  if (!sizes_scratch.empty()) {
    conn.pack(std::as_bytes(std::span(sizes_scratch)), mad::send_CHEAPER,
              mad::receive_EXPRESS);
  }
  for (const auto& piece : pieces) {
    conn.pack(piece, mad::send_CHEAPER, mad::receive_CHEAPER);
  }
  conn.end_packing();
}

Packet VirtualChannel::receive_packet(mad::ChannelEndpoint& hop_endpoint,
                                      Demand* demand, bool at_destination) {
  mad::Connection& conn = hop_endpoint.begin_unpacking();
  // Starts after begin_unpacking returns (a message is incoming), so the
  // span measures the packet landing, not idle waiting for traffic.
  MAD2_TRACE_SPAN(span, obs::Category::kFwd, "fwd.packet_land");
  Packet packet;
  packet.storage = pool_.acquire(&hop_endpoint.node());
  PacketBuffer& buffer = *packet.storage;
  mad::mad_unpack_value(conn, packet.header, mad::send_CHEAPER,
                        mad::receive_EXPRESS);
  if (ext_layout_.bytes > 0) {
    std::byte ext_wire[sizeof(PacketExt)];
    conn.unpack(std::span<std::byte>(ext_wire, ext_layout_.bytes),
                mad::send_CHEAPER, mad::receive_EXPRESS);
    decode_ext(ext_layout_, ext_wire, packet.ext);
  }
  // The stream is self-described, so a corrupted or hostile header could
  // otherwise drive the landing loop past the fixed-MTU buffer.
  MAD2_CHECK(packet.header.payload_len <= def_.mtu,
             "malformed virtual packet: payload length exceeds the MTU");
  MAD2_CHECK(packet.header.n_pieces <= def_.mtu,
             "malformed virtual packet: piece count exceeds the MTU");
  // The seq unpacks before any payload lands, so an out-of-order packet
  // (replay duplicate or a packet that overtook a replayed one) is known
  // up front and must stage everything — demand landing would put its
  // bytes into user memory out of stream order.
  bool in_sequence = true;
  if (topology_.enabled && at_destination) {
    in_sequence = packet.ext.seq ==
                  flow_control(packet.header.src, packet.header.dst)
                      .received.expected();
  }
  buffer.sizes.resize(packet.header.n_pieces);
  if (!buffer.sizes.empty()) {
    conn.unpack(std::as_writable_bytes(std::span(buffer.sizes)),
                mad::send_CHEAPER, mad::receive_EXPRESS);
  }
  std::uint64_t total = 0;
  for (std::uint32_t size : buffer.sizes) total += size;
  MAD2_CHECK(total == packet.header.payload_len,
             "piece sizes do not add up to the packet payload");

  // Land the pieces, in stream order. Each piece goes to exactly one
  // destination so the hop-level unpack sequence stays symmetric with the
  // sender:
  //  1. straight into the demanded user window (endpoints, while every
  //     earlier piece also landed there — staged bytes must keep stream
  //     order);
  //  2. borrowed from the hop TM's static receive buffer (no copy at all;
  //     the slot is released when the packet buffer recycles);
  //  3. staged into the pooled bytes.
  bool direct_ok =
      demand != nullptr && demand->src == packet.header.src && in_sequence;
  std::size_t offset = 0;
  for (std::uint32_t size : buffer.sizes) {
    if (direct_ok && demand->filled + size <= demand->window.size()) {
      conn.unpack(demand->window.subspan(demand->filled, size),
                  mad::send_CHEAPER, mad::receive_CHEAPER);
      demand->filled += size;
      continue;
    }
    direct_ok = false;
    const std::size_t first_new = buffer.borrows.size();
    if (conn.unpack_borrow(size, mad::send_CHEAPER, mad::receive_CHEAPER,
                           buffer.borrows)) {
      // A borrow may split the piece at protocol-buffer boundaries; each
      // chunk becomes a piece of its own (the block framing is inline in
      // the byte stream, so piece granularity is free to change).
      for (std::size_t i = first_new; i < buffer.borrows.size(); ++i) {
        buffer.pieces.push_back(buffer.borrows[i].data);
      }
    } else {
      const auto dst = buffer.bytes.subspan(offset, size);
      conn.unpack(dst, mad::send_CHEAPER, mad::receive_CHEAPER);
      buffer.pieces.push_back(dst);
      offset += size;
    }
  }
  conn.end_unpacking();
  span.args(packet.header.payload_len, packet.header.src);
  return packet;
}

void VirtualChannel::spawn_gateways() {
  // One pump per direction; each is the paper's Figure 9: a receiving
  // fiber and a sending fiber exchanging a bounded queue of packet buffers
  // (pipeline_depth == 2 -> dual buffering). Under congestion control the
  // queue is deficit-round-robin keyed by (src, dst), so one heavy flow
  // converging on this gateway cannot monopolize the outgoing hop.
  // pipeline_depth <= 1 degrades to strict store-and-forward (no queue:
  // the receiving fiber forwards inline) — the no-overlap baseline the
  // dual-buffering design improves on. Either way the landed buffer is
  // forwarded with its original gather list and recycled afterwards: the
  // gateway never consolidates the payload.
  sim::Simulator& simulator = session_->simulator();
  auto add_pump = [&](std::uint32_t gateway, std::size_t in, std::size_t out) {
    std::unique_ptr<PacketQueue> queue;
    FairPacketQueue* fair = nullptr;
    if (def_.pipeline_depth > 1 && congestion_.enabled) {
      auto drr = std::make_unique<FairPacketQueue>(
          &simulator, congestion_.gateway_queue, congestion_.quantum);
      fair = drr.get();
      queue = std::move(drr);
    } else if (def_.pipeline_depth > 1) {
      queue =
          std::make_unique<FifoPacketQueue>(&simulator, def_.pipeline_depth);
    }
    pumps_.push_back(GatewayPump{gateway, in, out, std::move(queue), fair, 0});
  };
  const auto& boundaries = router_.boundaries();
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    for (std::uint32_t gateway : boundaries[i].gateways) {
      add_pump(gateway, i, i + 1);
      add_pump(gateway, i + 1, i);
    }
  }
  // The fibers keep pointers into pumps_, which is complete by now.
  for (GatewayPump& pump : pumps_) spawn_pump(pump);
}

void VirtualChannel::spawn_pump(GatewayPump& pump) {
  sim::Simulator& simulator = session_->simulator();
  const std::string tag = def_.name + ".gw" + std::to_string(pump.gateway) +
                          "." + std::to_string(pump.hop_in) + "to" +
                          std::to_string(pump.hop_out);
  simulator.spawn_daemon(tag + (pump.queue ? ".rx" : ".sf"), [this, &pump] {
    mad::ChannelEndpoint& ep_in =
        hop_channels_[pump.hop_in]->endpoint(pump.gateway);
    mad::ChannelEndpoint& ep_out =
        hop_channels_[pump.hop_out]->endpoint(pump.gateway);
    for (;;) {
      Packet packet = receive_packet(ep_in);
      // Dead-check before the sanity CHECK: a poisoned stream hands a
      // dying gateway zero-filled truncated packets whose garbage
      // headers must not trip assertions.
      if (resilient()) {
        note_gateway_packet();
        if (!session_->hostdb().alive(pump.gateway)) {
          ++counters_.discarded;
          continue;  // dead gateway black-holes; replay redelivers
        }
      }
      MAD2_CHECK(packet.header.dst != pump.gateway,
                 "forwarding packet addressed to the gateway itself");
      if (propagation_) {
        // Residency opens on landing; forward_packet closes it.
        packet.ext.hops.push(pump.gateway, session_->simulator().now(), 0,
                             0);
      }
      if (pump.queue == nullptr) {
        forward_packet(pump, ep_out, packet);
        continue;
      }
      // Time spent waiting for a free queue slot (backpressure from the
      // sending fiber shows up as a long enqueue).
      MAD2_TRACE_SPAN(stage, obs::Category::kFwd, "fwd.gw_enqueue");
      stage.args(packet.header.payload_len, packet.header.dst);
      pump.queue->send(std::move(packet));
    }
  });
  if (pump.queue == nullptr) return;
  simulator.spawn_daemon(tag + ".tx", [this, &pump] {
    mad::ChannelEndpoint& ep_out =
        hop_channels_[pump.hop_out]->endpoint(pump.gateway);
    for (;;) {
      auto packet = pump.queue->receive();
      if (!packet.has_value()) return;
      if (resilient() && !session_->hostdb().alive(pump.gateway)) {
        // A packet that slipped into the queue around the kill's drain
        // (e.g. an rx fiber unblocked mid-enqueue): discard it here so
        // the queue still ends empty and the buffer recycles.
        ++counters_.discarded;
        continue;
      }
      forward_packet(pump, ep_out, *packet);
      // `packet` dies here: borrows release to the incoming TM and the
      // buffer recycles into the pool.
    }
  });
}

void VirtualChannel::forward_packet(GatewayPump& pump,
                                    mad::ChannelEndpoint& out,
                                    Packet& packet) {
  const std::uint32_t to =
      router_.next_node(pump.hop_out, packet.header.src, packet.header.dst);
  // Gateway residence, outgoing half (the incoming half is the rx fiber's
  // packet_land + gw_enqueue spans on its own track).
  MAD2_TRACE_SPAN(hop, obs::Category::kFwd, "fwd.hop",
                  pump.queue == nullptr ? "store_forward"
                  : congestion_.enabled ? "fair"
                                        : "pipelined");
  hop.args(packet.header.payload_len, packet.header.dst);
  ++pump.forwarded;
  HopStamp& trail = packet.ext.hops;
  // A route longer than HopStamp::kMaxHops stopped recording hops: the
  // last one then belongs to an earlier gateway and must stay as it is.
  if (propagation_ && trail.hop_count > 0 &&
      trail.hops[trail.hop_count - 1].node == pump.gateway) {
    HopStamp::Hop& here = trail.hops[trail.hop_count - 1];
    here.dequeue = session_->simulator().now();
    here.wire = here.dequeue;
  }
  // Re-emit the landed gather list as-is; the outgoing TM rides it as one
  // send_buffer_group. The received size list is dead by now, so it
  // doubles as the send-side scratch.
  send_packet(out, to, packet.header, packet.storage->pieces,
              packet.storage->sizes, packet.ext);
}
VirtualChannel::FlowControl& VirtualChannel::flow_control(std::uint32_t src,
                                                          std::uint32_t dst) {
  const auto key = std::make_pair(src, dst);
  auto it = flows_.find(key);
  if (it != flows_.end()) return it->second;
  FlowControl flow;
  if (congestion_.enabled) {
    // First packet of this flow: seed the window from the sender's
    // first-hop driver bandwidth self-report (about one millisecond of
    // line rate, in MTU packets), clamped to the configured window
    // bounds. Resilient-only flows keep no window — the entry then just
    // carries the failover cursors.
    const std::size_t hop = router_.hop_of(src, dst);
    const double hint =
        hop_channels_[hop]->endpoint(src).pmm().bandwidth_hint_mbs();
    const double initial = mad::seed_window(congestion_, hint, def_.mtu);
    flow.window = std::make_unique<mad::CongestionWindow>(
        &session_->simulator(), congestion_, initial);
    flow.hist_name = def_.name + ".flow." + std::to_string(src) + "-" +
                     std::to_string(dst) + ".e2e";
  }
  return flows_.emplace(key, std::move(flow)).first->second;
}

void VirtualChannel::set_flow_weight(std::uint32_t src, std::uint32_t dst,
                                     double weight) {
  MAD2_CHECK(congestion_.enabled,
             "flow weights need the congestion stanza (the FIFO pipeline "
             "has no per-flow schedule to weight)");
  const std::uint64_t key = FairPacketQueue::flow_key(src, dst);
  for (GatewayPump& pump : pumps_) {
    if (pump.fair != nullptr) pump.fair->set_weight(key, weight);
  }
}

void VirtualChannel::on_packet_delivered(const Packet& packet) {
  FlowControl& flow = flow_control(packet.header.src, packet.header.dst);
  ++flow.packets;
  flow.bytes += packet.header.payload_len;
  if (flow.window == nullptr) return;  // resilient-only: no windowing
  const sim::Duration delay =
      session_->simulator().now() - packet.ext.stamp;
  flow.window->on_delivered(delay);
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->histogram(flow.hist_name)->record(delay);
  }
}

void VirtualChannel::note_packet_trace(Packet& packet) {
  if (!propagation_) return;
  const sim::Time now = session_->simulator().now();
  // The delivery hop: landing time only, no queue and no outgoing wire.
  packet.ext.hops.push(packet.header.dst, now, now, 0);

  obs::TraceRecorder* rec = obs::recorder();
  const bool record_events = rec != nullptr &&
                             obs::trace_enabled(obs::Category::kFwd) &&
                             rec->channel_enabled(def_.name);
  obs::MetricsRegistry* registry = obs::metrics();
  if (!record_events && registry == nullptr) return;

  FlowControl& flow = flow_control(packet.header.src, packet.header.dst);
  const std::uint64_t id =
      obs::flow_id(packet.header.src, packet.header.dst);
  const HopStamp& trail = packet.ext.hops;
  for (std::uint32_t k = 0; k < trail.hop_count; ++k) {
    const HopStamp::Hop& hop = trail.hops[k];
    const bool last = k + 1 == trail.hop_count;
    const sim::Duration queue_ns = hop.dequeue - hop.enqueue;
    const sim::Duration wire_ns =
        last ? 0 : trail.hops[k + 1].enqueue - hop.wire;
    const std::uint64_t arg = obs::hop_arg(packet.ext.seq, hop.node, k);
    if (record_events) {
      // Explicit timestamps: the events are written at delivery but dated
      // back to when each hop actually happened, so the weaved timeline
      // is causal, not delivery-batched. Nothing here charges time.
      rec->record(obs::Category::kFwd, obs::kHopQueueEvent, nullptr,
                  hop.enqueue, queue_ns, id, arg);
      if (!last) {
        rec->record(obs::Category::kFwd, obs::kHopWireEvent, nullptr,
                    hop.wire, wire_ns, id, arg);
      }
    }
    if (registry != nullptr) {
      while (flow.hop_hists.size() <= k) {
        const std::string stem =
            def_.name + ".hop." + std::to_string(packet.header.src) + "-" +
            std::to_string(packet.header.dst) + "." +
            std::to_string(flow.hop_hists.size());
        flow.hop_hists.emplace_back(registry->histogram(stem + ".queue"),
                                    registry->histogram(stem + ".wire"));
      }
      flow.hop_hists[k].first->record(queue_ns);
      if (!last) flow.hop_hists[k].second->record(wire_ns);
    }
  }
}

std::map<std::string, FlowCounters> VirtualChannel::flow_stats() const {
  std::map<std::string, FlowCounters> stats;
  for (const auto& [key, flow] : flows_) {
    FlowCounters counters;
    counters.packets = flow.packets;
    counters.bytes = flow.bytes;
    if (flow.window != nullptr) {
      counters.cwnd = flow.window->cwnd();
      counters.srtt_us = sim::to_us(flow.window->srtt());
    }
    counters.replays = flow.replays;
    counters.dup_drops = flow.dup_drops;
    stats[std::to_string(key.first) + "->" + std::to_string(key.second)] =
        counters;
  }
  for (const GatewayPump& pump : pumps_) {
    if (pump.fair == nullptr) continue;
    for (const auto& [key, fstats] : pump.fair->flow_stats()) {
      const std::string name =
          std::to_string(FairPacketQueue::flow_src(key)) + "->" +
          std::to_string(FairPacketQueue::flow_dst(key));
      FlowCounters& mine = stats[name];
      mine.queue_depth_hwm =
          std::max<std::uint64_t>(mine.queue_depth_hwm, fstats.depth_hwm);
    }
  }
  return stats;
}

void VirtualChannel::export_metrics(obs::MetricsRegistry& registry) const {
  for (const auto& [key, flow] : flows_) {
    const std::string prefix = def_.name + ".flow." +
                               std::to_string(key.first) + "-" +
                               std::to_string(key.second);
    if (flow.window != nullptr) {
      registry.set_value(
          prefix + ".cwnd_x1000",
          static_cast<std::int64_t>(flow.window->cwnd() * 1000.0));
      registry.set_value(
          prefix + ".srtt_us",
          static_cast<std::int64_t>(sim::to_us(flow.window->srtt())));
    }
    registry.set_value(prefix + ".packets",
                       static_cast<std::int64_t>(flow.packets));
  }
  for (const GatewayPump& pump : pumps_) {
    if (pump.fair == nullptr) continue;
    const std::string prefix =
        def_.name + ".gw" + std::to_string(pump.gateway) + "." +
        std::to_string(pump.hop_in) + "to" + std::to_string(pump.hop_out);
    registry.set_value(prefix + ".queue_depth_hwm",
                       static_cast<std::int64_t>(pump.fair->depth_hwm()));
  }
  if (resilient()) {
    const std::string prefix = def_.name + ".routing";
    registry.set_value(prefix + ".gateway_kills",
                       static_cast<std::int64_t>(counters_.gateway_kills));
    registry.set_value(prefix + ".replayed_packets",
                       static_cast<std::int64_t>(counters_.replayed_packets));
    registry.set_value(prefix + ".dup_drops",
                       static_cast<std::int64_t>(counters_.dup_drops));
    registry.set_value(prefix + ".discarded",
                       static_cast<std::int64_t>(counters_.discarded));
    // A row per gateway that forwarded anything (a gateway on two
    // boundaries writes its row twice, with the same total).
    for (const Router::Boundary& boundary : router_.boundaries()) {
      for (std::uint32_t gateway : boundary.gateways) {
        const std::uint64_t forwarded = gateway_forwarded(gateway);
        if (forwarded == 0) continue;
        registry.set_value(
            def_.name + ".gw" + std::to_string(gateway) + ".forwarded",
            static_cast<std::int64_t>(forwarded));
      }
    }
  }
}

const mad::CongestionWindow* VirtualChannel::flow_window(
    std::uint32_t src, std::uint32_t dst) const {
  auto it = flows_.find(std::make_pair(src, dst));
  if (it == flows_.end()) return nullptr;
  return it->second.window.get();
}

std::vector<std::size_t> VirtualChannel::gateway_queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(pumps_.size());
  for (const GatewayPump& pump : pumps_) {
    // store-and-forward pumps hold no queue: nothing to report.
    if (pump.queue != nullptr) depths.push_back(pump.queue->depth());
  }
  return depths;
}

std::uint64_t VirtualChannel::gateway_forwarded(std::uint32_t gateway) const {
  std::uint64_t forwarded = 0;
  for (const GatewayPump& pump : pumps_) {
    if (pump.gateway == gateway) forwarded += pump.forwarded;
  }
  return forwarded;
}
}  // namespace mad2::fwd
