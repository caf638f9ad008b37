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
#include "util/bytes.hpp"

namespace mad2::fwd {

namespace {

/// Indices of the hops containing `node` (construction-time only; the hot
/// path reads the precomputed routing tables).
std::vector<std::size_t> hops_containing(
    const std::vector<mad::Channel*>& hops, std::uint32_t node) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const auto& nodes = hops[i]->nodes();
    if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
      result.push_back(i);
    }
  }
  return result;
}

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
    : session_(&session), def_(std::move(def)), pool_(def_.mtu) {
  MAD2_CHECK(!def_.hops.empty(), "virtual channel needs at least one hop");
  MAD2_CHECK(def_.mtu > kBlockHeaderBytes, "MTU too small");
  const mad::SessionConfig& config = session_->config();
  congestion_ = resolve(def_.congestion, config.congestion);
  topology_ = resolve(def_.topology, config.topology);
  propagation_ = resolve(def_.propagation,
                         config.trace ? std::optional(config.trace->propagation)
                                      : std::nullopt);
  if (topology_.enabled) {
    MAD2_CHECK(topology_.replay_quota > 0,
               "topology replay_quota must be positive");
  }
  // Every node of the channel resolves the same layout, so the block
  // needs no presence mask.
  ext_layout_.stamp = congestion_.enabled;
  ext_layout_.seq = topology_.enabled || propagation_;
  ext_layout_.hops = propagation_;
  const PacketExt sizing;
  walk_ext(sizing, ext_layout_, [this](const auto& value) {
    ext_layout_.bytes += sizeof(value);
  });
  for (const std::string& hop : def_.hops) {
    hop_channels_.push_back(&session_->channel(hop));
  }

  // Boundaries: the common nodes of each consecutive hop pair, in hop-a
  // membership order. Without the topology stanza only one gateway is
  // allowed — redundant siblings would silently idle, which is a config
  // mistake, not a feature.
  std::size_t total_gateways = 0;
  for (std::size_t i = 0; i + 1 < hop_channels_.size(); ++i) {
    const auto& a = hop_channels_[i]->nodes();
    const auto& b = hop_channels_[i + 1]->nodes();
    Boundary boundary;
    for (std::uint32_t node : a) {
      if (std::find(b.begin(), b.end(), node) != b.end()) {
        boundary.gateways.push_back(node);
      }
    }
    MAD2_CHECK(!boundary.gateways.empty(),
               "consecutive hops must share at least one gateway node");
    if (!topology_.enabled) {
      MAD2_CHECK(boundary.gateways.size() == 1,
                 "consecutive hops share several gateway nodes; redundant "
                 "gateways need the topology stanza");
    }
    boundary.healthy = boundary.gateways;
    total_gateways += boundary.gateways.size();
    boundaries_.push_back(std::move(boundary));
  }

  for (const mad::Channel* hop : hop_channels_) {
    for (std::uint32_t node : hop->nodes()) {
      if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) {
        nodes_.push_back(node);
      }
    }
  }
  std::sort(nodes_.begin(), nodes_.end());

  // Flat directory-indexed routing tables, precomputed once: a dense
  // node index over the session directory, then n x n vectors instead of
  // per-pair maps — O(1) cell reads with no tree walks, which is what
  // keeps the 256-1024-node scenarios' routing cost flat.
  node_index_.assign(session_->node_count(), kNoIndex);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_index_[nodes_[i]] = static_cast<std::uint32_t>(i);
  }
  const std::size_t n = nodes_.size();
  MAD2_CHECK(hop_channels_.size() < kNoHop, "too many hops");
  std::vector<std::vector<std::size_t>> hops_of_node(n);
  for (std::size_t i = 0; i < n; ++i) {
    hops_of_node[i] = hops_containing(hop_channels_, nodes_[i]);
  }
  hop_table_.assign(n * n, kNoHop);
  terminal_table_.assign(n, kNoHop);
  for (std::size_t ni = 0; ni < n; ++ni) {
    const auto& node_hops = hops_of_node[ni];
    for (std::size_t di = 0; di < n; ++di) {
      const auto& dst_hops = hops_of_node[di];
      std::size_t hop;
      auto common = std::find_first_of(node_hops.begin(), node_hops.end(),
                                       dst_hops.begin(), dst_hops.end());
      if (common != node_hops.end()) {
        hop = *common;  // same hop: direct
      } else if (node_hops.back() < dst_hops.front()) {
        hop = node_hops.back();  // forward
      } else {
        hop = node_hops.front();  // backward
      }
      hop_table_[ni * n + di] = static_cast<std::uint16_t>(hop);
    }
    if (node_hops.size() == 1) {
      terminal_table_[ni] = static_cast<std::uint16_t>(node_hops.front());
    }
  }
  next_table_.resize(hop_channels_.size());
  for (std::size_t hop = 0; hop < hop_channels_.size(); ++hop) {
    next_table_[hop].assign(n, NextHop{});
    const auto& on_hop = hop_channels_[hop]->nodes();
    for (std::size_t di = 0; di < n; ++di) {
      const std::uint32_t dst = nodes_[di];
      NextHop& cell = next_table_[hop][di];
      if (std::find(on_hop.begin(), on_hop.end(), dst) != on_hop.end()) {
        cell.kind = NextHop::Kind::kDirect;
      } else if (hops_of_node[di].front() > hop) {
        cell.kind = NextHop::Kind::kForward;
        cell.boundary = static_cast<std::uint32_t>(hop);
      } else {
        MAD2_CHECK(hop > 0, "no route to destination");
        cell.kind = NextHop::Kind::kBackward;
        cell.boundary = static_cast<std::uint32_t>(hop - 1);
      }
    }
  }

  // Register the gateway roles in the session directory (liveness is
  // consulted on the pump hot paths in resilient mode).
  for (const Boundary& boundary : boundaries_) {
    for (std::uint32_t gateway : boundary.gateways) {
      session_->hostdb().set_gateway_role(gateway);
    }
  }

  // Size the pool for the steady state: every gateway direction keeps
  // pipeline_depth packets queued plus one in each pump fiber, and each
  // endpoint looks ahead by a couple of packets while draining. Extra
  // demand (e.g. a failover's out-of-order stash) grows the pool
  // (counted via hw::MemCounters::alloc_count).
  pool_.prewarm(total_gateways * 2 * (def_.pipeline_depth + 2) +
                nodes_.size() * 2);

  for (std::uint32_t node : nodes_) {
    endpoints_.emplace(node, std::unique_ptr<VirtualEndpoint>(
                                 new VirtualEndpoint(this, node)));
  }

  for (std::size_t i = 0; i < boundaries_.size(); ++i) {
    for (std::uint32_t gateway : boundaries_[i].gateways) {
      spawn_gateway(gateway, i, i + 1);
    }
  }

  if (topology_.enabled) {
    replay_settled_ =
        std::make_unique<sim::WaitQueue>(&session_->simulator());
    retention_freed_ =
        std::make_unique<sim::WaitQueue>(&session_->simulator());
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

const Status& VirtualChannel::health() const { return session_->health(); }

VirtualEndpoint& VirtualChannel::endpoint(std::uint32_t node) {
  auto it = endpoints_.find(node);
  MAD2_CHECK(it != endpoints_.end(), "node not on this virtual channel");
  return *it->second;
}

std::uint32_t VirtualChannel::dense_index(std::uint32_t node) const {
  MAD2_CHECK(has_node(node), "node not on this virtual channel");
  return node_index_[node];
}

std::size_t VirtualChannel::hop_of(std::uint32_t node,
                                   std::uint32_t dst) const {
  const std::uint32_t ni = dense_index(node);
  MAD2_CHECK(has_node(dst), "destination not on this virtual channel");
  return hop_table_[static_cast<std::size_t>(ni) * nodes_.size() +
                    node_index_[dst]];
}

std::uint32_t VirtualChannel::pick_gateway(std::uint32_t boundary,
                                           std::uint32_t src,
                                           std::uint32_t dst) const {
  const Boundary& b = boundaries_[boundary];
  MAD2_CHECK(!b.healthy.empty(), "no healthy gateway left on a boundary");
  if (b.healthy.size() == 1) return b.healthy.front();
  // Deterministic flow spreading: splitmix64 of the flow identity (plus
  // the configured salt) over the *healthy* set. Same flow -> same
  // gateway while membership holds; an epoch bump re-deals only because
  // the healthy list changed.
  std::uint64_t x = ((static_cast<std::uint64_t>(src) << 32) | dst) ^
                    topology_.spread_salt;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return b.healthy[x % b.healthy.size()];
}

std::uint32_t VirtualChannel::next_node(std::size_t hop, std::uint32_t src,
                                        std::uint32_t dst) const {
  MAD2_CHECK(has_node(dst), "destination not on this virtual channel");
  const NextHop& cell = next_table_[hop][node_index_[dst]];
  MAD2_CHECK(cell.kind != NextHop::Kind::kUnreachable,
             "no route to destination");
  if (cell.kind == NextHop::Kind::kDirect) return dst;
  return pick_gateway(cell.boundary, src, dst);
}

std::size_t VirtualChannel::terminal_hop(std::uint32_t node) const {
  const std::uint32_t ni = dense_index(node);
  MAD2_CHECK(terminal_table_[ni] != kNoHop,
             "gateway nodes cannot be virtual-channel receivers");
  return terminal_table_[ni];
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

void VirtualChannel::spawn_gateway(std::uint32_t gateway, std::size_t hop_in,
                                   std::size_t hop_out) {
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
  auto spawn_direction = [this, gateway](std::size_t in, std::size_t out) {
    sim::Simulator& simulator = session_->simulator();
    PacketQueue* queue = nullptr;
    if (def_.pipeline_depth > 1) {
      if (congestion_.enabled) {
        auto fair = std::make_unique<FairPacketQueue>(
            &simulator, congestion_.gateway_queue, congestion_.quantum);
        fair_queues_.push_back(fair.get());
        queues_.push_back(std::move(fair));
      } else {
        queues_.push_back(std::make_unique<FifoPacketQueue>(
            &simulator, def_.pipeline_depth));
      }
      queue = queues_.back().get();
    }
    const GatewayPump pump{gateway, in, out, queue};
    pumps_.push_back(pump);
    const std::string tag = def_.name + ".gw" + std::to_string(gateway) +
                            "." + std::to_string(in) + "to" +
                            std::to_string(out);
    simulator.spawn_daemon(tag + (queue ? ".rx" : ".sf"), [this, pump] {
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
    if (queue == nullptr) return;
    simulator.spawn_daemon(tag + ".tx", [this, pump] {
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
  };
  spawn_direction(hop_in, hop_out);
  spawn_direction(hop_out, hop_in);
}

void VirtualChannel::forward_packet(const GatewayPump& pump,
                                    mad::ChannelEndpoint& out,
                                    Packet& packet) {
  const std::uint32_t to =
      next_node(pump.hop_out, packet.header.src, packet.header.dst);
  // Gateway residence, outgoing half (the incoming half is the rx fiber's
  // packet_land + gw_enqueue spans on its own track).
  MAD2_TRACE_SPAN(hop, obs::Category::kFwd, "fwd.hop",
                  pump.queue == nullptr ? "store_forward"
                  : congestion_.enabled ? "fair"
                                        : "pipelined");
  hop.args(packet.header.payload_len, packet.header.dst);
  ++forwarded_by_gateway_[pump.gateway];
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

sim::Mutex& VirtualChannel::send_mutex(std::uint32_t src) {
  auto it = send_mutexes_.find(src);
  if (it == send_mutexes_.end()) {
    it = send_mutexes_
             .emplace(src, std::make_unique<sim::Mutex>(
                               &session_->simulator()))
             .first;
  }
  return *it->second;
}

bool VirtualChannel::route_uses_gateway(std::uint32_t src, std::uint32_t dst,
                                        std::uint32_t gateway) const {
  std::uint32_t node = src;
  while (node != dst) {
    const std::size_t hop = hop_of(node, dst);
    const std::uint32_t next = next_node(hop, src, dst);
    if (next == gateway) return true;
    if (next == node) return false;  // defensive: no progress
    node = next;
  }
  return false;
}

bool VirtualChannel::can_absorb_gateway(std::uint32_t node) const {
  bool member = false;
  for (const Boundary& boundary : boundaries_) {
    const auto it = std::find(boundary.healthy.begin(),
                              boundary.healthy.end(), node);
    if (it == boundary.healthy.end()) continue;
    if (boundary.healthy.size() < 2) return false;  // last one standing
    member = true;
  }
  return member;
}

void VirtualChannel::kill_gateway(std::uint32_t node) {
  MAD2_CHECK(resilient(),
             "kill_gateway requires the topology stanza (resilient mode)");
  mad::Hostdb& hostdb = session_->hostdb();
  if (!hostdb.alive(node)) return;  // idempotent
  MAD2_CHECK(hostdb.is_gateway(node), "kill_gateway on a non-gateway node");
  MAD2_CHECK(can_absorb_gateway(node),
             "killing the last healthy gateway of a boundary");

  // 1. While the pre-death routes are still in force, find the flows
  //    whose unconfirmed packets were traveling through the dying
  //    gateway: those are the ones that must replay.
  for (auto& [key, flow] : flows_) {
    flow.unacked.confirm(flow.received.expected());
    if (flow.unacked.empty()) continue;
    if (route_uses_gateway(key.first, key.second, node)) {
      flow.replay_pending = true;
    }
  }

  // 2. Membership update: directory epoch bump + healthy-set shrink.
  //    From this call on, every next_node() resolves around the corpse.
  hostdb.mark_dead(node);
  for (Boundary& boundary : boundaries_) {
    boundary.healthy.erase(std::remove(boundary.healthy.begin(),
                                       boundary.healthy.end(), node),
                           boundary.healthy.end());
  }
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
    const std::size_t hop = hop_of(src, dst);
    mad::ChannelEndpoint& ep = hop_channels_[hop]->endpoint(src);
    // Confirmations only advance the watermark, so the retained packets
    // stay put across the blocking sends; already-confirmed entries are
    // skipped instead of replayed as guaranteed duplicates.
    for (std::uint64_t seq = flow.unacked.front_seq();
         seq < flow.unacked.end_seq(); ++seq) {
      if (seq < flow.received.expected()) continue;
      const RetainedPacket& retained = *flow.unacked.find(seq);
      const std::size_t bytes = retained.bytes.size();
      const std::uint32_t to = next_node(hop, src, dst);
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
    replay_settled_->notify_all();
  }
}

mad::FailureDomain VirtualChannel::on_network_failure(
    const mad::NetworkFailure& failure) {
  // Only failures of networks backing this channel's hops concern us.
  bool ours = false;
  for (mad::Channel* hop : hop_channels_) {
    if (&hop->network() == failure.network) {
      ours = true;
      break;
    }
  }
  if (!ours) return mad::FailureDomain::kUnknown;
  // The unresponsive end decides whether this is our failure to absorb:
  // a dead leaf is a node-domain problem however it was reported, so
  // anything but a gateway with healthy siblings passes through.
  // (NetworkFailure::kNoNode is never a member.)
  const std::uint32_t dst = failure.dst_node;
  if (!has_node(dst)) return mad::FailureDomain::kUnknown;
  if (session_->hostdb().alive(dst)) {
    if (!can_absorb_gateway(dst)) return mad::FailureDomain::kUnknown;
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
  if (has_node(src) && session_->hostdb().alive(src) &&
      can_absorb_gateway(src)) {
    kill_gateway(src);
  }
  return mad::FailureDomain::kHop;
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
    const std::size_t hop = hop_of(src, dst);
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
  for (FairPacketQueue* queue : fair_queues_) queue->set_weight(key, weight);
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
  for (const FairPacketQueue* queue : fair_queues_) {
    for (const auto& [key, fstats] : queue->flow_stats()) {
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
  for (std::size_t i = 0; i < fair_queues_.size(); ++i) {
    const GatewayPump& pump = pumps_[i];
    const std::string prefix =
        def_.name + ".gw" + std::to_string(pump.gateway) + "." +
        std::to_string(pump.hop_in) + "to" + std::to_string(pump.hop_out);
    registry.set_value(prefix + ".queue_depth_hwm",
                       static_cast<std::int64_t>(fair_queues_[i]->depth_hwm()));
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
    for (const auto& [gateway, forwarded] : forwarded_by_gateway_) {
      registry.set_value(
          def_.name + ".gw" + std::to_string(gateway) + ".forwarded",
          static_cast<std::int64_t>(forwarded));
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
  auto it = forwarded_by_gateway_.find(gateway);
  return it == forwarded_by_gateway_.end() ? 0 : it->second;
}

// --------------------------------------------------------- VirtualEndpoint ---

VirtualEndpoint::VirtualEndpoint(VirtualChannel* channel, std::uint32_t local)
    : channel_(channel), local_(local) {}

VirtualConnection& VirtualEndpoint::connection(std::uint32_t remote) {
  auto it = connections_.find(remote);
  if (it == connections_.end()) {
    MAD2_CHECK(remote != local_ && channel_->has_node(remote),
               "unknown virtual destination");
    it = connections_
             .emplace(remote, std::unique_ptr<VirtualConnection>(
                                  new VirtualConnection(this, remote)))
             .first;
  }
  return *it->second;
}

VirtualConnection& VirtualEndpoint::begin_packing(std::uint32_t remote) {
  VirtualConnection& conn = connection(remote);
  MAD2_CHECK(!conn.packing_, "virtual message already open");
  conn.packing_ = true;
  conn.pieces_.clear();
  conn.metas_.clear();
  conn.pending_bytes_ = 0;
  return conn;
}

std::uint32_t VirtualEndpoint::fetch_packet(Demand* demand) {
  if (terminal_ep_ == nullptr) {
    const std::size_t hop = channel_->terminal_hop(local_);
    terminal_ep_ = &channel_->hop_channels_[hop]->endpoint(local_);
  }
  const bool resilient = channel_->resilient();
  for (;;) {
    Packet packet =
        channel_->receive_packet(*terminal_ep_, demand, resilient);
    MAD2_CHECK(packet.header.dst == local_,
               "virtual packet delivered to the wrong node");
    const std::uint32_t src = packet.header.src;
    if (!resilient) {
      deliver_packet(std::move(packet));
      return src;
    }
    // In sequence: deliver it and every stashed successor behind it. A
    // later packet that overtook the cursor across the re-route is parked
    // whole (demand landing was disabled for it) until the gap fills, so
    // delivery order per flow never deviates from seq order. A replay
    // duplicate is dropped (the buffer recycles right here).
    VirtualChannel::FlowControl& flow = channel_->flow_control(src, local_);
    const std::uint64_t seq = packet.ext.seq;
    const SeqVerdict verdict = flow.received.accept(
        seq, std::move(packet),
        [this](Packet&& next) { deliver_packet(std::move(next)); });
    if (verdict == SeqVerdict::kDelivered) return src;
    if (verdict == SeqVerdict::kStashed) {
      ++channel_->counters_.stashed;
    } else {
      ++flow.dup_drops;
      ++channel_->counters_.dup_drops;
    }
  }
}

void VirtualEndpoint::deliver_packet(Packet packet) {
  // End-to-end feedback: free the sender's window slot and feed the
  // delivery delay into the flow's estimator. Empty packets (bare `last`
  // markers) never took a slot, so they must not release one.
  if ((channel_->congestion_enabled() || channel_->resilient()) &&
      packet.header.payload_len > 0) {
    channel_->on_packet_delivered(packet);
  }
  channel_->note_packet_trace(packet);
  if (channel_->resilient()) {
    // The receiver cursor moved past this packet, which doubles as
    // confirming it to the sender: its retain window trims against it.
    channel_->retention_freed_->notify_all();
  }
  const std::uint32_t src = packet.header.src;
  std::size_t staged = 0;
  for (const auto& piece : packet.storage->pieces) staged += piece.size();
  if (staged > 0) {
    Stream& stream = streams_[src];
    stream.packets.push_back(std::move(packet));
    stream.bytes += staged;
  }
  // else: fully direct-landed (or empty) — the buffer recycles right here.
}

VirtualConnection& VirtualEndpoint::begin_unpacking() {
  MAD2_CHECK(active_incoming_ == nullptr,
             "virtual incoming message already open");
  // Leftover packets of a *different* source fetched while draining the
  // previous message start the next one; otherwise fetch.
  std::uint32_t src = 0;
  bool found = false;
  for (auto& [candidate, stream] : streams_) {
    if (stream.bytes > 0) {
      src = candidate;
      found = true;
      break;
    }
  }
  if (!found) src = fetch_packet(nullptr);
  VirtualConnection& conn = connection(src);
  MAD2_CHECK(!conn.unpacking_, "virtual connection already unpacking");
  conn.unpacking_ = true;
  active_incoming_ = &conn;
  return conn;
}

void VirtualEndpoint::retire_front(Stream& stream, PooledBuffer* retain) {
  if (retain != nullptr) *retain = std::move(stream.packets.front().storage);
  stream.packets.pop_front();
  stream.piece_index = 0;
  stream.piece_offset = 0;
}

void VirtualEndpoint::settle(Stream& stream) {
  while (!stream.packets.empty()) {
    const auto& pieces = stream.packets.front().storage->pieces;
    while (stream.piece_index < pieces.size() &&
           stream.piece_offset == pieces[stream.piece_index].size()) {
      ++stream.piece_index;
      stream.piece_offset = 0;
    }
    if (stream.piece_index < pieces.size()) return;
    retire_front(stream, nullptr);
  }
}

void VirtualEndpoint::read_stream(std::uint32_t src,
                                  std::span<std::byte> out) {
  Stream& stream = streams_[src];
  std::size_t done = 0;
  while (done < out.size()) {
    if (stream.bytes == 0) {
      // Nothing staged: fetch with the remaining window as the landing
      // demand, so payload goes straight from the hop driver into the
      // user memory (no pool -> user copy for those bytes).
      Demand demand{src, out.subspan(done), 0};
      fetch_packet(&demand);
      done += demand.filled;
      continue;
    }
    settle(stream);
    const auto piece = stream.packets.front().storage->pieces[
        stream.piece_index];
    const std::size_t chunk =
        std::min(piece.size() - stream.piece_offset, out.size() - done);
    // Staged bytes pay the one pool -> user copy.
    channel_->session().node(local_).charge_memcpy(chunk);
    std::memcpy(out.data() + done, piece.data() + stream.piece_offset,
                chunk);
    stream.piece_offset += chunk;
    stream.bytes -= chunk;
    done += chunk;
  }
  settle(stream);  // recycle a front packet this read fully drained
}

// ------------------------------------------------------- VirtualConnection ---

void VirtualConnection::append_meta(std::span<const std::byte> bytes) {
  // Consolidate into the trailing meta buffer when it is still the last
  // piece; re-point the span afterwards (the vector may reallocate).
  endpoint_->channel().session().node(endpoint_->local()).charge_memcpy(
      bytes.size());
  // Extend the trailing meta buffer only while the piece still covers the
  // whole buffer — a piece split by a packet flush must not be re-pointed
  // (its front part is already on the wire).
  if (!pieces_.empty() && pieces_.back().is_meta &&
      pieces_.back().data.data() == metas_.back().data() &&
      pieces_.back().data.size() == metas_.back().size()) {
    std::vector<std::byte>& meta = metas_.back();
    meta.insert(meta.end(), bytes.begin(), bytes.end());
    pieces_.back().data = std::span<const std::byte>(meta);
  } else {
    metas_.emplace_back(bytes.begin(), bytes.end());
    pieces_.push_back(
        Piece{std::span<const std::byte>(metas_.back()), true});
  }
  pending_bytes_ += bytes.size();
}

void VirtualConnection::append_piece(std::span<const std::byte> data) {
  pieces_.push_back(Piece{data, false});
  pending_bytes_ += data.size();
}

void VirtualConnection::pack(std::span<const std::byte> data,
                             mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(packing_, "pack outside begin_packing/end_packing");
  // The Generic TM self-describes every block (size + constraints) so
  // gateways and the receiver can handle the stream without application
  // knowledge (Section 6.1). Headers and small blocks are consolidated
  // into owned buffers; large blocks travel zero-copy from user memory
  // (read at packet flush — so send_LATER data may be read before
  // end_packing once the MTU fills).
  constexpr std::size_t kInlineMax = 512;
  std::byte header[VirtualChannel::kBlockHeaderBytes];
  store_u64(header, data.size());
  header[8] = static_cast<std::byte>(smode);
  header[9] = static_cast<std::byte>(rmode);
  append_meta(header);
  if (data.size() < kInlineMax) {
    append_meta(data);
  } else {
    append_piece(data);
  }
  while (pending_bytes_ >= endpoint_->channel().def().mtu) {
    flush_packet(/*last=*/false);
  }
}

void VirtualConnection::flush_packet(bool last) {
  VirtualChannel& channel = endpoint_->channel();
  const std::size_t take = std::min(pending_bytes_, channel.def().mtu);

  // Gather pieces off the front of the queue, splitting the last one at
  // the packet boundary. The gather list reuses this connection's scratch
  // vector — after warm-up no allocation happens per packet.
  gather_scratch_.clear();
  std::size_t taken = 0;
  std::size_t metas_consumed = 0;  // freed only after the send reads them
  while (taken < take) {
    Piece& piece = pieces_.front();
    const std::size_t chunk = std::min(piece.data.size(), take - taken);
    gather_scratch_.push_back(piece.data.subspan(0, chunk));
    taken += chunk;
    if (chunk == piece.data.size()) {
      if (piece.is_meta) ++metas_consumed;
      pieces_.pop_front();
    } else {
      piece.data = piece.data.subspan(chunk);
      // A split meta piece keeps its backing buffer alive in metas_.
    }
  }
  pending_bytes_ -= taken;

  sim::Simulator& simulator = channel.session().simulator();
  const std::uint32_t local = endpoint_->local();
  const std::size_t hop = channel.hop_of(local, remote_);
  mad::ChannelEndpoint& ep = channel.hop_channels_[hop]->endpoint(local);
  const VirtualChannel::PacketHeader header{local, remote_, 0,
                                            last ? 1u : 0u, 0};
  const bool tracing = channel.propagation_enabled();
  // Trace-context propagation: hop 0 opens at flush entry, so pacing,
  // window admission and (resilient) mutex waits below all show up as
  // sender-side queue residency instead of being misattributed to the
  // wire.
  const sim::Time flush_enter = simulator.now();
  PacketExt ext;

  // Bandwidth control (paper future work): pace packet departures so the
  // inbound flow at the gateway stays below the configured rate.
  if (channel.def().sender_rate_mbs > 0.0 && taken > 0) {
    if (simulator.now() < pace_next_send_) {
      simulator.advance(pace_next_send_ - simulator.now());
    }
    pace_next_send_ =
        simulator.now() +
        sim::transfer_time(taken, channel.def().sender_rate_mbs);
  }

  // End-to-end window: block until the flow has room in flight. The stamp
  // is taken after admission, so time spent waiting here is the sender's
  // own queueing, not network delay — the estimator only sees the path.
  // Admission happens BEFORE the send mutex below: a failover replay
  // needs that mutex to redeliver the lost packets that free the window,
  // so blocking on the window while holding it would deadlock.
  if (channel.congestion_enabled() && taken > 0) {
    channel.flow_control(local, remote_).window->before_send();
    ext.stamp = simulator.now();
  }

  // Resilient send: serialize with the repair fiber, then sequence and
  // retain the packet before it leaves, so a gateway death at any point
  // can replay it.
  const bool resilient = channel.resilient();
  sim::Mutex* mutex = resilient ? &channel.send_mutex(local) : nullptr;
  VirtualChannel::FlowControl* flow =
      resilient || tracing ? &channel.flow_control(local, remote_) : nullptr;
  if (resilient) {
    mutex->lock();
    for (;;) {
      flow->unacked.confirm(flow->received.expected());
      if (!flow->replay_pending &&
          flow->unacked.size() < channel.topology().replay_quota) {
        break;
      }
      // A failover is mid-replay for this flow, or the retain buffer is
      // full of unconfirmed packets: park until the repair fiber settles
      // / the receiver cursor advances, re-checking from scratch (the
      // kill may land exactly in this window).
      mutex->unlock();
      (flow->replay_pending ? channel.replay_settled_
                            : channel.retention_freed_)
          ->wait();
      mutex->lock();
    }
  }
  // One seq per flushed packet, the resilient order key and the trace
  // identity at once. Empty `last` markers are sequenced too — losing one
  // would wedge the receiver cursor forever.
  if (flow != nullptr) ext.seq = flow->next_seq++;
  if (tracing) {
    const sim::Time now = simulator.now();
    ext.hops.push(local, flush_enter, now, now);
  }
  if (resilient) {
    VirtualChannel::RetainedPacket retained{header, ext, {}};
    retained.bytes.reserve(taken);
    for (const auto& piece : gather_scratch_) {
      retained.bytes.insert(retained.bytes.end(), piece.begin(),
                            piece.end());
    }
    channel.session().node(local).charge_memcpy(taken);
    flow->unacked.push(ext.seq, std::move(retained));
  }
  // Route picked under the mutex, against the current healthy sets: a
  // kill that already happened re-routes this packet, a kill that lands
  // later replays it from the retain buffer.
  const std::uint32_t to = channel.next_node(hop, local, remote_);
  channel.send_packet(ep, to, header, gather_scratch_, sizes_scratch_, ext);
  if (resilient) mutex->unlock();
  // The packet is fully on the wire (end_packing committed every piece);
  // now the consumed meta buffers can go.
  for (std::size_t i = 0; i < metas_consumed; ++i) metas_.pop_front();
}

void VirtualConnection::end_packing() {
  MAD2_CHECK(packing_, "end_packing without begin_packing");
  flush_packet(/*last=*/true);
  MAD2_CHECK(pieces_.empty() && pending_bytes_ == 0,
             "unflushed virtual stream at end_packing");
  metas_.clear();
  packing_ = false;
}

void VirtualConnection::drop_view() {
  view_hold_.reset();  // view_scratch_ keeps its capacity for reuse
}

void VirtualConnection::read_block_header(std::size_t expected_len,
                                          mad::SendMode smode,
                                          mad::ReceiveMode rmode) {
  std::byte header[VirtualChannel::kBlockHeaderBytes];
  endpoint_->read_stream(remote_, header);
  const std::uint64_t len = load_u64(header);
  MAD2_CHECK(len == expected_len,
             "virtual unpack size does not match the self-described block");
  MAD2_CHECK(header[8] == static_cast<std::byte>(smode) &&
                 header[9] == static_cast<std::byte>(rmode),
             "virtual unpack modes do not match the self-described block");
}

void VirtualConnection::unpack(std::span<std::byte> out,
                               mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  drop_view();
  read_block_header(out.size(), smode, rmode);
  // Staged bytes are copied out of the pooled buffers (charged inside
  // read_stream); the rest of the block lands directly from the hop
  // driver into `out` via the demand-directed fetch — no blanket
  // reassembly copy.
  endpoint_->read_stream(remote_, out);
}

std::span<const std::byte> VirtualConnection::unpack_view(
    std::size_t len, mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  MAD2_CHECK(rmode == mad::receive_CHEAPER,
             "unpack_view is receive_CHEAPER-only (EXPRESS data must land "
             "in caller memory)");
  drop_view();
  read_block_header(len, smode, rmode);
  if (len == 0) return {};
  VirtualEndpoint::Stream& stream = endpoint_->streams_[remote_];
  while (stream.bytes == 0) endpoint_->fetch_packet(nullptr);
  endpoint_->settle(stream);
  const auto piece =
      stream.packets.front().storage->pieces[stream.piece_index];
  if (piece.size() - stream.piece_offset >= len) {
    // Contiguous inside the landed buffer: lend the memory out instead of
    // copying. Nothing is charged — this is the zero-copy receive_CHEAPER
    // path. If the view is the packet's tail, the storage moves to
    // view_hold_ so the memory survives until the next unpack.
    const auto view = piece.subspan(stream.piece_offset, len);
    stream.piece_offset += len;
    stream.bytes -= len;
    const auto& pieces = stream.packets.front().storage->pieces;
    std::size_t index = stream.piece_index;
    std::size_t pos = stream.piece_offset;
    while (index < pieces.size() && pos == pieces[index].size()) {
      ++index;
      pos = 0;
    }
    if (index == pieces.size()) {
      endpoint_->retire_front(stream, &view_hold_);
    }
    return view;
  }
  // The block straddles packets (or borrowed-slot chunks): stage it
  // through the scratch copy — still only one copy, pool -> scratch.
  view_scratch_.resize(len);
  endpoint_->read_stream(remote_, std::span<std::byte>(view_scratch_));
  return std::span<const std::byte>(view_scratch_);
}

void VirtualConnection::end_unpacking() {
  MAD2_CHECK(unpacking_, "end_unpacking without begin_unpacking");
  drop_view();
  unpacking_ = false;
  endpoint_->active_incoming_ = nullptr;
}

}  // namespace mad2::fwd
