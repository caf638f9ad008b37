// Inter-device data forwarding for clusters of clusters (paper Section 6).
//
// A *virtual channel* spans a sequence of real Madeleine channels joined at
// gateway nodes (each consecutive pair of hop channels shares at least one
// node — the *boundary*'s gateway set). The application uses the same
// pack/unpack interface; the only difference is the channel definition
// (Section 6: "instead of a single channel ... one has to specify a
// virtual channel that includes a sequence of real channels").
//
// Beyond the paper: with the `topology` stanza (mad::TopologyConfig) the
// channel runs in *resilient* mode — boundaries may hold several
// gateways, flows spread across the healthy ones by a deterministic
// hash, and a gateway death at runtime re-routes in-flight traffic with
// zero lost and zero duplicated bytes (per-flow sequence numbers, a
// bounded sender retain buffer replayed over a surviving gateway, and a
// receiver-side out-of-order stash). docs/ROUTING.md has the protocol.
//
// Mechanics, faithful to Section 6.1:
//  - all inter-cluster traffic goes through a *Generic TM*: messages are
//    fragmented into fixed-MTU packets and made self-describing — a packet
//    header carries (source, destination, payload size), and each packed
//    block is preceded by {size, send mode, receive mode} in the byte
//    stream, because gateways know nothing about message structure;
//  - gateway nodes run a two-fiber forwarding pipeline per direction with
//    a bounded buffer pool (dual buffering, Figure 9): one fiber receives
//    packet k+1 from the incoming network while the other transmits packet
//    k on the outgoing one;
//  - the hop channels must be dedicated to the virtual channel (the
//    gateway pump is their only receiver on gateway nodes).
//
// Data-path design (docs/FORWARDING.md has the full walk-through):
//  - every packet lands in a buffer recycled through the channel's
//    PacketPool, and carries its gather-list piece boundaries, so gateways
//    re-emit the original scatter/gather list without consolidating;
//  - where a hop TM uses static buffers, the gateway *borrows* the driver
//    slot (paper Section 6.1) instead of staging the bytes through a copy;
//  - receiving endpoints land payload pieces directly into the user
//    memory demanded by the current unpack whenever the stream cursor
//    allows it, and keep the rest staged in the pooled buffer until the
//    application drains it (one pool -> user copy, or none for a
//    receive_CHEAPER view via unpack_view).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fwd/packet_pool.hpp"
#include "mad/congestion.hpp"
#include "mad/madeleine.hpp"
#include "sim/sync.hpp"

namespace mad2::fwd {

class FairPacketQueue;
class PacketQueue;

struct VirtualChannelDef {
  std::string name;
  /// Real channel names, in hop order. Consecutive hops must share at
  /// least one (gateway) node; several shared nodes form a redundant
  /// gateway set (requires the topology stanza to be exploited — without
  /// it only the first common node forwards).
  std::vector<std::string> hops;
  /// Fixed packet size used along the route (paper: chosen at compile time
  /// so no network needs to re-fragment; Section 6.2 sweeps 8-128 kB).
  std::size_t mtu = 16 * 1024;
  /// Gateway pipeline depth (2 = the paper's dual buffering; <= 1 degrades
  /// to strict store-and-forward).
  std::size_t pipeline_depth = 2;
  /// Bandwidth control (the paper's stated future work: "some
  /// sophisticated bandwidth control mechanism is needed to regulate the
  /// incoming communication flow on gateways"). When positive, each
  /// sender paces its packet flushes to this rate (decimal MB/s) with a
  /// token bucket, so inbound traffic cannot thrash the gateway's PCI bus.
  /// 0 disables pacing.
  double sender_rate_mbs = 0.0;
  /// End-to-end congestion control override for this virtual channel
  /// (per-flow windows + fair gateway queues, see mad/congestion.hpp).
  /// Unset falls back to the session's `congestion` stanza; neither set
  /// leaves the data path exactly as before (no stamp on the wire, FIFO
  /// gateway queues, no windowing).
  std::optional<mad::CongestionConfig> congestion;
  /// Resilient multi-gateway routing override for this virtual channel
  /// (see mad/hostdb.hpp). Unset falls back to the session's `topology`
  /// stanza; neither set keeps single-gateway routing and the wire
  /// format bit-identical to earlier releases.
  std::optional<mad::TopologyConfig> topology;
  /// Trace-context propagation override (distributed madtrace). Unset
  /// falls back to the `propagation` flag of the session's trace stanza;
  /// neither set keeps the wire bit-identical to an untraced session.
  std::optional<bool> propagation;
};

/// Hop trail for distributed madtrace: enqueue/dequeue/wire timestamps for
/// every hop the packet has crossed so far. Senders stamp hop 0, every
/// gateway pump appends its hop, and the delivering endpoint appends the
/// final hop and replays the whole journey into the trace ring (see
/// obs/span_weaver.hpp for how the ring events weave back into cross-node
/// spans).
struct HopStamp {
  /// Longest traceable route: sender + 4 gateways + receiver. Longer
  /// routes truncate (push becomes a no-op) rather than corrupt: a
  /// gateway stamps dequeue/wire only on a hop it pushed itself.
  static constexpr std::uint32_t kMaxHops = 6;
  struct Hop {
    std::uint32_t node = 0;
    sim::Time enqueue = 0;  ///< entered this hop's send/forward queue
    sim::Time dequeue = 0;  ///< left the queue (admitted / scheduled)
    sim::Time wire = 0;     ///< handed to the outgoing wire
  };
  std::uint32_t hop_count = 0;
  Hop hops[kMaxHops] = {};

  void push(std::uint32_t node, sim::Time enqueue, sim::Time dequeue,
            sim::Time wire) {
    if (hop_count >= kMaxHops) return;
    hops[hop_count++] = Hop{node, enqueue, dequeue, wire};
  }
};

/// What a channel's opt-in features attach to each packet. The fields
/// that ride are fixed per channel at construction, in the order stamp ->
/// seq -> hops, and travel as one EXPRESS block after the header; with
/// every feature off nothing rides (docs/FORWARDING.md, "Packet format").
struct PacketExt {
  /// Send time, for the congestion control's end-to-end delay feedback.
  sim::Time stamp = 0;
  /// Per-flow packet number: the resilient order / dedup key and the
  /// trace identity (a replay reuses it, so it weaves into the same span).
  std::uint64_t seq = 0;
  /// Hop trail; unlike stamp and seq, gateways append to it in flight.
  HopStamp hops;

  /// The fields a channel's wire carries, derived once from its features.
  struct Layout {
    bool stamp = false;
    bool seq = false;
    bool hops = false;
    std::size_t bytes = 0;  // encoded size; 0 = no extension block
  };
};

class VirtualChannel;
class VirtualEndpoint;

/// Point-to-point virtual connection. Mirrors mad::Connection's interface.
class VirtualConnection {
 public:
  void pack(std::span<const std::byte> data,
            mad::SendMode smode = mad::send_CHEAPER,
            mad::ReceiveMode rmode = mad::receive_CHEAPER);
  void end_packing();

  void unpack(std::span<std::byte> out,
              mad::SendMode smode = mad::send_CHEAPER,
              mad::ReceiveMode rmode = mad::receive_CHEAPER);
  void end_unpacking();

  /// Zero-copy variant of unpack for receive_CHEAPER blocks: returns a
  /// read-only view of the next `len` stream bytes, borrowed from the
  /// landed packet buffer when the block is contiguous inside it (no copy,
  /// nothing charged), or staged through an internal scratch copy
  /// otherwise. The view is valid until the next unpack / unpack_view /
  /// end_unpacking on this connection.
  std::span<const std::byte> unpack_view(
      std::size_t len, mad::SendMode smode = mad::send_CHEAPER,
      mad::ReceiveMode rmode = mad::receive_CHEAPER);

  [[nodiscard]] std::uint32_t remote() const { return remote_; }

 private:
  friend class VirtualEndpoint;
  VirtualConnection(VirtualEndpoint* endpoint, std::uint32_t remote)
      : endpoint_(endpoint), remote_(remote) {}

  void flush_packet(bool last);
  void append_meta(std::span<const std::byte> bytes);
  void append_piece(std::span<const std::byte> data);
  void read_block_header(std::size_t expected_len, mad::SendMode smode,
                         mad::ReceiveMode rmode);
  void drop_view();

  VirtualEndpoint* endpoint_;
  std::uint32_t remote_;
  // --- send state ---
  // The outgoing logical stream is a gather list: block self-description
  // headers and small blocks are consolidated into owned `meta` buffers;
  // large blocks are referenced directly from user memory (zero-copy, read
  // at packet flush). Packets take `mtu` bytes off the front.
  bool packing_ = false;
  std::deque<std::vector<std::byte>> metas_;
  struct Piece {
    std::span<const std::byte> data;
    bool is_meta;  // points into metas_ (stable addresses)
  };
  std::deque<Piece> pieces_;
  std::size_t pending_bytes_ = 0;
  // Reused per-flush scratch (steady-state: no allocation per packet).
  std::vector<std::span<const std::byte>> gather_scratch_;
  std::vector<std::uint32_t> sizes_scratch_;
  // Token-bucket state for sender-side bandwidth control.
  sim::Time pace_next_send_ = 0;
  // --- receive state ---
  bool unpacking_ = false;
  // Backing for the current unpack_view: a fully consumed packet whose
  // memory is still lent out, or the scratch copy for non-contiguous
  // blocks. Released at the next unpack / end_unpacking.
  PooledBuffer view_hold_;
  std::vector<std::byte> view_scratch_;

  friend class VirtualChannel;
};

/// A packet in flight through the forwarding layer: self-describing
/// header plus a pooled buffer carrying the payload and its gather-list
/// piece boundaries (spans into the pooled bytes or into borrowed driver
/// slots kept alive by the buffer's holds).
struct Packet {
  struct PacketHeader {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t payload_len;
    std::uint32_t last;      // last packet of the message
    std::uint32_t n_pieces;  // gather-list entries in this packet
  } header;
  PacketExt ext;
  PooledBuffer storage;
};

/// Demand-directed landing window for receive_packet: pieces of a packet
/// from `src` are unpacked straight into `window` (in stream order, while
/// they fit) instead of being staged in the pooled buffer. `filled` is the
/// prefix of `window` that received data this way.
struct Demand {
  std::uint32_t src;
  std::span<std::byte> window;
  std::size_t filled = 0;
};

/// End-to-end activity of one congestion-controlled flow (src -> dst;
/// see mad/congestion.hpp). packets/bytes count delivered traffic; the
/// rest are snapshots of the control state: queue_depth_hwm is the flow's
/// high-water mark across every gateway fair queue it crossed, cwnd and
/// srtt_us the window and smoothed delay at collection time.
struct FlowCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t queue_depth_hwm = 0;
  double cwnd = 0.0;
  double srtt_us = 0.0;
  /// Failover activity (resilient routing only; zero otherwise).
  std::uint64_t replays = 0;
  std::uint64_t dup_drops = 0;
};

/// Per-node view of a virtual channel.
class VirtualEndpoint {
 public:
  VirtualConnection& begin_packing(std::uint32_t remote);
  VirtualConnection& begin_unpacking();

  [[nodiscard]] std::uint32_t local() const { return local_; }
  [[nodiscard]] VirtualChannel& channel() { return *channel_; }

 private:
  friend class VirtualChannel;
  friend class VirtualConnection;
  VirtualEndpoint(VirtualChannel* channel, std::uint32_t local);

  /// The connection to `remote`, created on first use; aborts for a node
  /// outside the channel and for this endpoint's own node.
  VirtualConnection& connection(std::uint32_t remote);

  /// The incoming byte stream of one source: landed packets in arrival
  /// order plus a cursor over the staged pieces of the front packet.
  /// `bytes` counts staged-and-unconsumed bytes; fully drained packets go
  /// back to the pool.
  struct Stream {
    std::deque<Packet> packets;
    std::size_t piece_index = 0;   // into the front packet's pieces
    std::size_t piece_offset = 0;  // into that piece
    std::size_t bytes = 0;
  };

  /// Receive one packet from the terminal hop. Pieces may land directly
  /// into `demand`'s window (see VirtualChannel::Demand); whatever stays
  /// staged is filed into the per-source stream. Returns the source.
  std::uint32_t fetch_packet(Demand* demand);

  /// Land one in-sequence packet: window/cursor bookkeeping, then file
  /// whatever stayed staged into the per-source stream (recycling the
  /// buffer immediately when nothing did).
  void deliver_packet(Packet packet);

  /// Pop `out.size()` bytes for `src`, fetching packets as needed.
  /// Staged bytes are copied out (charged); bytes landed directly by a
  /// demand-directed fetch cost nothing here.
  void read_stream(std::uint32_t src, std::span<std::byte> out);

  /// Drop the front packet of `stream`, resetting the cursor; `retain`
  /// receives the packet's storage instead of the pool when the caller
  /// still needs the memory (unpack_view).
  void retire_front(Stream& stream, PooledBuffer* retain);

  /// Normalize the cursor: skip exhausted pieces and recycle fully
  /// consumed front packets, so the cursor points at unread data whenever
  /// the stream has any.
  void settle(Stream& stream);

  VirtualChannel* channel_;
  std::uint32_t local_;
  // Only the peers this endpoint has exchanged a message with.
  std::map<std::uint32_t, std::unique_ptr<VirtualConnection>> connections_;
  std::map<std::uint32_t, Stream> streams_;
  mad::ChannelEndpoint* terminal_ep_ = nullptr;  // cached on first fetch
  VirtualConnection* active_incoming_ = nullptr;
};

class VirtualChannel {
 public:
  using PacketHeader = Packet::PacketHeader;

  /// Build the virtual channel over an existing session and spawn the
  /// gateway forwarding pipelines. The hop channels must not be used for
  /// anything else on the gateway nodes.
  VirtualChannel(mad::Session& session, VirtualChannelDef def);
  ~VirtualChannel();

  [[nodiscard]] const VirtualChannelDef& def() const { return def_; }
  [[nodiscard]] mad::Session& session() { return *session_; }
  [[nodiscard]] VirtualEndpoint& endpoint(std::uint32_t node);

  /// The nodes reachable through this virtual channel (union of hops).
  [[nodiscard]] const std::vector<std::uint32_t>& nodes() const {
    return nodes_;
  }

  /// OK while every hop's links are healthy; the session's first recorded
  /// failure otherwise. A failed hop stops the gateway pumps, so senders
  /// and receivers should consult this after run() returns early.
  [[nodiscard]] const Status& health() const;

  /// The channel's packet-buffer pool (introspection for tests/benches).
  [[nodiscard]] const PacketPool& pool() const { return pool_; }

  /// Resolved congestion config: the def's override, else the session's
  /// `congestion` stanza, else disabled.
  [[nodiscard]] const mad::CongestionConfig& congestion() const {
    return congestion_;
  }
  [[nodiscard]] bool congestion_enabled() const {
    return congestion_.enabled;
  }

  /// Resolved topology config: the def's override, else the session's
  /// `topology` stanza, else disabled (single-gateway routing).
  [[nodiscard]] const mad::TopologyConfig& topology() const {
    return topology_;
  }
  /// Resilient mode: gateway sets per boundary, per-flow sequencing, and
  /// runtime failover are all active.
  [[nodiscard]] bool resilient() const { return topology_.enabled; }

  /// Resolved trace-context propagation: the def's override, else the
  /// session trace stanza's `propagation` flag, else off. When on, packets
  /// carry a hop trail that deliveries replay into the trace ring.
  [[nodiscard]] bool propagation_enabled() const { return propagation_; }

  /// Declare gateway `node` dead right now (resilient mode only): mark it
  /// in the host directory (epoch bump), shrink every boundary's healthy
  /// set, drain its pump queues back to the pool, and replay unconfirmed
  /// packets of the flows routed through it over surviving gateways.
  /// Idempotent on an already-dead gateway. Every boundary holding the
  /// gateway must keep at least one healthy sibling.
  void kill_gateway(std::uint32_t node);

  /// Arm a one-shot kill_gateway(`node`) after the channel's gateways
  /// have received `after_packets` more packets (tests/bench: kill
  /// mid-transfer at a deterministic point in the packet stream).
  void arm_gateway_kill(std::uint32_t node, std::uint64_t after_packets);

  /// Failover bookkeeping (resilient mode; all zero otherwise).
  struct RoutingCounters {
    std::uint64_t gateway_kills = 0;
    std::uint64_t replayed_packets = 0;
    std::uint64_t replayed_bytes = 0;
    std::uint64_t dup_drops = 0;   // replay duplicates dropped at receivers
    std::uint64_t stashed = 0;     // packets parked in out-of-order stashes
    std::uint64_t discarded = 0;   // packets black-holed at dead gateways
  };
  [[nodiscard]] const RoutingCounters& routing_counters() const {
    return counters_;
  }
  /// Packets forwarded by `gateway`'s pumps (spread/evidence for tests).
  [[nodiscard]] std::uint64_t gateway_forwarded(std::uint32_t gateway) const;

  /// Boundary introspection: gateway sets joining consecutive hops.
  [[nodiscard]] std::size_t boundary_count() const {
    return boundaries_.size();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& boundary_gateways(
      std::size_t boundary) const {
    return boundaries_[boundary].gateways;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& healthy_gateways(
      std::size_t boundary) const {
    return boundaries_[boundary].healthy;
  }

  /// Weighted-fair share for flow src -> dst at every gateway fair queue
  /// of this channel: backlogged flows split each forwarding hop in
  /// weight proportion (default 1). Requires the congestion stanza — the
  /// FIFO pipeline has no per-flow schedule to weight.
  void set_flow_weight(std::uint32_t src, std::uint32_t dst, double weight);

  /// Per-flow traffic/control snapshot keyed "src->dst" (delivered
  /// packets/bytes, window + smoothed delay, gateway-queue depth
  /// high-water marks). Empty unless congestion control is on.
  [[nodiscard]] std::map<std::string, FlowCounters> flow_stats() const;
  /// Pour cwnd / srtt / queue-depth gauges into `registry` (per-flow e2e
  /// delay histograms accumulate in the ambient registry as packets
  /// deliver; this adds the control-state scalars next to them).
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// The send window of flow src -> dst; nullptr while congestion is off
  /// or the flow never sent. Test/bench introspection.
  [[nodiscard]] const mad::CongestionWindow* flow_window(
      std::uint32_t src, std::uint32_t dst) const;
  /// Current depth of every gateway pump queue (drain evidence for
  /// tests). Empty in store-and-forward mode, which holds no queue.
  [[nodiscard]] std::vector<std::size_t> gateway_queue_depths() const;

  // --- internals shared with endpoints/gateway pumps ---------------------
  /// Per-block self-description prepended to each packed block.
  struct BlockHeader {
    std::uint64_t len;
    std::uint8_t smode;
    std::uint8_t rmode;
  };
  static constexpr std::size_t kBlockHeaderBytes = 10;

  /// Index of the hop channel `node` uses to make progress toward `dst`
  /// (the first hop containing `node` that is not already past `dst`).
  /// Precomputed into a flat dense table at construction (O(1) at
  /// 1024-node fan-out) — no per-packet work.
  [[nodiscard]] std::size_t hop_of(std::uint32_t node,
                                   std::uint32_t dst) const;
  /// Next node on hop `hop` for flow src -> dst: `dst` itself if it is on
  /// the hop, else a gateway of the boundary toward `dst` — the flow's
  /// deterministic hash pick among the boundary's *currently healthy*
  /// gateways, so an epoch bump re-routes the very next packet.
  [[nodiscard]] std::uint32_t next_node(std::size_t hop, std::uint32_t src,
                                        std::uint32_t dst) const;
  /// The hop channel on which `node` receives virtual-channel traffic.
  [[nodiscard]] std::size_t terminal_hop(std::uint32_t node) const;

  /// Ship one packet: header, the riding fields of `ext` and the
  /// piece-size list (EXPRESS), then the pieces (CHEAPER — ridden
  /// zero-copy by the underlying TMs where possible). `sizes_scratch` is
  /// caller-owned reusable scratch for the size list.
  void send_packet(mad::ChannelEndpoint& hop_endpoint, std::uint32_t to,
                   PacketHeader header,
                   std::span<const std::span<const std::byte>> pieces,
                   std::vector<std::uint32_t>& sizes_scratch,
                   const PacketExt& ext);
  /// Receive one packet into a pooled buffer. Pieces land, in order:
  /// directly in `demand`'s window (when given, the source matches, and
  /// the piece fits — endpoints only), as borrowed driver slots (static-
  /// buffer hop TMs), or staged into the pooled bytes. The returned
  /// packet's pieces cover exactly the staged/borrowed (non-demand) data.
  /// `at_destination` (resilient endpoints only) disables demand landing
  /// for out-of-sequence packets — they are stashed whole, so stream
  /// order is restored before any byte reaches user memory.
  Packet receive_packet(mad::ChannelEndpoint& hop_endpoint,
                        Demand* demand = nullptr,
                        bool at_destination = false);

 private:
  friend class VirtualEndpoint;
  friend class VirtualConnection;
  void spawn_gateway(std::uint32_t gateway, std::size_t hop_in,
                     std::size_t hop_out);
  /// One gateway pump direction: packets landed on `hop_in` leave on
  /// `hop_out`, through `queue` (FIFO pipeline or DRR) or, with none,
  /// inline from the receiving fiber (store-and-forward).
  struct GatewayPump {
    std::uint32_t gateway;
    std::size_t hop_in;
    std::size_t hop_out;
    PacketQueue* queue;
  };
  /// The tx half shared by every pump mode: route, stamp this gateway's
  /// hop, and re-send the landed gather list on `out`.
  void forward_packet(const GatewayPump& pump, mad::ChannelEndpoint& out,
                      Packet& packet);

  /// One retained (sent but unconfirmed) packet of a resilient flow: the
  /// payload flattened to owned bytes (piece granularity is free to
  /// change — the block framing is inline in the byte stream), replayed
  /// as a single piece over a surviving gateway on failover.
  struct RetainedPacket {
    PacketHeader header;
    PacketExt ext;  // re-shipped as-is: same seq, same trace identity
    std::vector<std::byte> bytes;
  };

  /// End-to-end control state of one flow (src, dst). The sending fiber
  /// blocks on the window in flush_packet; the receiving endpoint feeds
  /// delivery timestamps back through on_packet_delivered — fibers share
  /// the channel object, so the feedback edge is a call, not a wire
  /// message (the simulated analogue of ack-borne signaling). Resilient
  /// mode adds the failover protocol state: sender cursor + retain
  /// buffer, receiver cursor (doubling as the confirm watermark — only
  /// the sender/repair fiber trims `unacked` against it, so there is no
  /// cross-fiber deque mutation) and out-of-order stash.
  struct FlowControl {
    std::unique_ptr<mad::CongestionWindow> window;
    std::string hist_name;  // per-flow e2e histogram in the registry
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    // --- resilient / propagation state ---
    std::uint64_t next_seq = 0;      // sender: next PacketExt::seq
    std::uint64_t expected_seq = 0;  // receiver cursor / confirm watermark
    bool replay_pending = false;     // failover marked; sender must wait
    std::deque<RetainedPacket> unacked;
    std::map<std::uint64_t, Packet> ooo;  // seq -> stashed future packet
    std::uint64_t replays = 0;
    std::uint64_t dup_drops = 0;
    /// Receiver-side cache of the per-hop attribution histograms
    /// ("<vc>.hop.<src>-<dst>.<k>.{queue,wire}"): registry pointers are
    /// stable, so after warm-up a delivery costs no string building.
    std::vector<std::pair<obs::Histogram*, obs::Histogram*>> hop_hists;
  };
  FlowControl& flow_control(std::uint32_t src, std::uint32_t dst);
  void on_packet_delivered(const Packet& packet);
  /// Delivery-side half of trace-context propagation: append the final
  /// hop to `packet.ext.hops`, replay the whole journey into the trace ring
  /// as hop.queue / hop.wire events (explicit timestamps — nothing here
  /// charges virtual time), and feed the per-(src,dst,hop) attribution
  /// histograms. No-op with propagation off.
  void note_packet_trace(Packet& packet);

  /// Gateway set joining hops i and i+1. `healthy` shrinks on deaths;
  /// `gateways` is the construction-time inventory.
  struct Boundary {
    std::vector<std::uint32_t> gateways;
    std::vector<std::uint32_t> healthy;
  };

  /// One routing-table cell: how hop `hop` reaches a destination.
  struct NextHop {
    enum class Kind : std::uint8_t {
      kUnreachable,
      kDirect,    // dst is on the hop
      kForward,   // through boundary `boundary` (toward hop+1)
      kBackward,  // through boundary `boundary` (toward hop-1)
    };
    Kind kind = Kind::kUnreachable;
    std::uint32_t boundary = 0;
  };

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
  static constexpr std::uint16_t kNoHop = 0xffffu;

  /// Whether `node` (a global id) is a member of this channel.
  [[nodiscard]] bool has_node(std::uint32_t node) const {
    return node < node_index_.size() && node_index_[node] != kNoIndex;
  }
  [[nodiscard]] std::uint32_t dense_index(std::uint32_t node) const;
  [[nodiscard]] std::uint32_t pick_gateway(std::uint32_t boundary,
                                           std::uint32_t src,
                                           std::uint32_t dst) const;
  /// Walks the flow's current deterministic route; true if it crosses
  /// `gateway`. Used at kill time, before the healthy sets shrink, to
  /// find the flows that need replay.
  [[nodiscard]] bool route_uses_gateway(std::uint32_t src, std::uint32_t dst,
                                        std::uint32_t gateway) const;
  /// True if this channel can absorb `node`'s death: it is a healthy
  /// gateway here and every boundary holding it keeps a sibling.
  [[nodiscard]] bool can_absorb_gateway(std::uint32_t node) const;
  mad::FailureDomain on_network_failure(const mad::NetworkFailure& failure);
  sim::Mutex& send_mutex(std::uint32_t src);
  void trim_unacked(FlowControl& flow);
  void note_gateway_packet();
  void drain_gateway_queues(std::uint32_t gateway);
  void replay_pending_flows();

  mad::Session* session_;
  VirtualChannelDef def_;
  mad::CongestionConfig congestion_;  // resolved (def > session > off)
  mad::TopologyConfig topology_;      // resolved (def > session > off)
  bool propagation_ = false;          // resolved (def > session > off)
  PacketExt::Layout ext_layout_;      // derived from the three above
  std::vector<mad::Channel*> hop_channels_;
  std::vector<Boundary> boundaries_;  // boundaries_[i] joins hop i, i+1
  std::vector<std::uint32_t> nodes_;
  // Flat directory-indexed routing tables, precomputed at construction:
  // global node id -> dense index, then dense n x n lookups. O(1) with no
  // tree walks at 256-1024-node fan-out.
  std::vector<std::uint32_t> node_index_;   // by global id; kNoIndex = off
  std::vector<std::uint16_t> hop_table_;    // [src_dense * n + dst_dense]
  std::vector<std::uint16_t> terminal_table_;  // [dense]; kNoHop = gateway
  std::vector<std::vector<NextHop>> next_table_;  // [hop][dst_dense]
  // Declared before every Packet holder below so recycling handles in
  // endpoints_/queues_/flows_ still find the pool during destruction.
  PacketPool pool_;
  std::map<std::uint32_t, std::unique_ptr<VirtualEndpoint>> endpoints_;
  std::vector<std::unique_ptr<PacketQueue>> queues_;  // every pump's queue
  // Congestion-control / failover state (empty/idle when both are off).
  std::map<std::pair<std::uint32_t, std::uint32_t>, FlowControl> flows_;
  /// The DRR queues of queues_. Under congestion control every pump has
  /// one, so fair_queues_[i] belongs to pumps_[i].
  std::vector<FairPacketQueue*> fair_queues_;
  std::vector<GatewayPump> pumps_;
  // --- resilient-mode machinery ---
  RoutingCounters counters_;
  std::map<std::uint32_t, std::uint64_t> forwarded_by_gateway_;
  /// Per-source send serialization: flush and replay of the same flow
  /// must not interleave, or a replayed seq could chase a newer one.
  std::map<std::uint32_t, std::unique_ptr<sim::Mutex>> send_mutexes_;
  std::unique_ptr<sim::WaitQueue> replay_settled_;   // replay_pending off
  std::unique_ptr<sim::WaitQueue> retention_freed_;  // unacked slot freed
  struct ArmedKill {
    std::uint32_t gateway;
    std::uint64_t after_packets;
  };
  std::optional<ArmedKill> armed_kill_;
  std::uint64_t gateway_rx_packets_ = 0;
  std::uint64_t failure_listener_id_ = 0;  // 0 = not registered
};

}  // namespace mad2::fwd
