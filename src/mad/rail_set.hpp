// Multi-rail striping (paper Sections 3 and 5: multi-protocol,
// multi-adapter sessions).
//
// A *rail set* groups channels a session holds to the same peers across
// different adapters. The first member is the *primary* rail: applications
// keep packing into its connections, and small blocks travel exactly as
// before. A large send_CHEAPER/receive_CHEAPER block, however, is split by
// the rail scheduler into per-rail segments — chunk sizes proportional to
// each rail's measured bandwidth, so a fast SISCI rail gets more bytes
// than a TCP rail — posted concurrently through per-rail sender fibers,
// and reassembled in order into user memory on the receive side (the
// segments land directly in the destination span: zero-copy landing).
//
// Wire protocol per striped block, all framing on the primary rail:
//
//   descriptor {magic, seq, lens[rail_count]}   send_SAFER/receive_EXPRESS
//   segment 0 (primary's slice, inline)         send_CHEAPER/receive_CHEAPER
//   ... secondary segments ride their rails concurrently ...
//   trailer {magic, seq, failed-rail mask}      send_SAFER/receive_EXPRESS
//
// The framing blocks ride the normal Switch machinery (select_tm +
// select_bmm_kind with forced commit/checkout), so both sides stay
// symmetric about them on every protocol — and since EXPRESS blocks are
// never striped, the recursion grounds out. The receiver derives its
// segment split from the descriptor alone; weights are sender-side state.
//
// Ordering contract (paper Section 4): striping preserves it because an
// eligible block forces a BMM flush before and after itself, and the
// block completes synchronously — by the time pack()/unpack() returns,
// every rail has joined. receive_EXPRESS blocks are never striped (they
// must be available at unpack return; scattering them would not help a
// latency-bound block anyway). Rail members must be dedicated: regular
// traffic on a member channel concurrent with a striped block would
// interleave with segment bytes.
//
// Degradation: a rail whose link reports a fault (net::Status through the
// session's error routing) is marked dead and drained; segments that were
// outstanding on it are resubmitted across the surviving rails (the
// trailer's failed mask keeps both sides symmetric about which slices
// travel again), the weight table is updated, and later blocks simply
// stop using the rail. The session stays healthy; RailSet::health()
// records the degradation. Only a *secondary* rail may die this way —
// the primary carries the framing, so its death fails the session.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/sync.hpp"
#include "util/status.hpp"

namespace mad2::mad {

class Channel;
class Connection;
class Session;
struct NetworkInstance;

/// Blocks at least this large are striped (segments below it would be
/// latency- rather than bandwidth-bound on every modeled adapter).
inline constexpr std::size_t kDefaultStripeThreshold = 64 * 1024;

/// No rail is assigned a segment smaller than this; tiny shares fold into
/// the primary rail instead of paying a slow rail's fixed costs.
inline constexpr std::size_t kMinStripeSegment = 16 * 1024;

/// One rail set in the session configuration.
struct RailSetDef {
  std::string name;
  /// Member channel names; the first is the primary rail. Members must be
  /// non-paranoid, on pairwise-distinct networks, and every member
  /// network must span the same node set.
  std::vector<std::string> channels;
  /// Blocks of at least this many bytes are striped.
  std::size_t stripe_threshold = kDefaultStripeThreshold;
};

class RailSet {
 public:
  RailSet(Session* session, RailSetDef def);
  ~RailSet();

  RailSet(const RailSet&) = delete;
  RailSet& operator=(const RailSet&) = delete;

  /// Second setup phase (after every channel endpoint exists): validate
  /// members, bind the primary channel's endpoints (their connections,
  /// built on first use, read the binding), seed weights from
  /// the drivers' bandwidth self-reports, spawn the per-rail lane fibers.
  void finish_setup();

  [[nodiscard]] const std::string& name() const { return def_.name; }
  [[nodiscard]] const RailSetDef& def() const { return def_; }
  [[nodiscard]] std::size_t threshold() const { return def_.stripe_threshold; }
  [[nodiscard]] std::size_t rail_count() const { return rails_.size(); }
  [[nodiscard]] double weight(std::size_t rail) const;
  [[nodiscard]] bool alive(std::size_t rail) const;

  /// OK while every rail is healthy; the first rail failure afterwards.
  /// The session keeps running degraded — this records the evidence.
  [[nodiscard]] const Status& health() const { return degraded_; }

  /// Session failure routing: if `network` backs a *secondary* rail, mark
  /// it dead (weight 0, no further segments) and return true — the
  /// session stays up. False for the primary rail or a foreign network.
  bool on_network_failed(const NetworkInstance* network,
                         const Status& status);

 private:
  friend class Connection;

  // Called from Connection's Switch for an eligible block (both sides of
  // the channel replay the same eligibility decision).
  void stripe_send(Connection& primary, std::span<const std::byte> data);
  void stripe_recv(Connection& primary, std::span<std::byte> out);

  struct Rail {
    Channel* channel = nullptr;
    double weight_mbs = 1.0;  // EWMA of measured segment throughput
    bool alive = true;
  };

  /// Join state of one striped block, shared with the lanes working on
  /// it. Stack-allocated in stripe_*_block; valid until pending == 0.
  struct BlockState {
    std::size_t pending = 0;
    sim::WaitQueue* join = nullptr;
    struct LaneResult {
      std::size_t done_bytes = 0;
      bool failed = false;
    };
    std::vector<LaneResult> lanes;  // indexed by rail
  };

  struct SendJob {
    const std::byte* data = nullptr;
    std::size_t len = 0;
    std::size_t rail = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    BlockState* block = nullptr;
  };
  struct RecvJob {
    std::byte* out = nullptr;
    std::size_t len = 0;
    std::size_t rail = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    BlockState* block = nullptr;
  };

  void validate_members();
  void stripe_send_block(Connection& primary,
                         std::span<const std::byte> data, std::uint32_t src,
                         std::uint32_t dst);
  void stripe_recv_block(Connection& primary, std::span<std::byte> out,
                         std::uint32_t src, std::uint32_t dst);

  /// Sender-side split of `total` bytes across the currently-alive rails,
  /// proportional to weight; index 0 (primary) takes the remainder.
  [[nodiscard]] std::vector<std::uint64_t> plan_split(
      std::uint64_t total) const;

  // Raw segment transfer on rail `rail` between global nodes src -> dst,
  // outside any pack/unpack message (rails are dedicated). Fallible on a
  // faulty-fabric TCP rail and on an IB rail (the write TM's rendezvous
  // with a give-up deadline); every other driver is lossless.
  Status send_segment(std::size_t rail, std::uint32_t src, std::uint32_t dst,
                      std::span<const std::byte> data);
  Status recv_segment(std::size_t rail, std::uint32_t src, std::uint32_t dst,
                      std::span<std::byte> out, std::size_t* got);
  /// Finish landing a segment whose sender flushed OK but whose stream was
  /// poisoned while the tail was still in the shim's delivery queue.
  void drain_segment(std::size_t rail, std::uint32_t src, std::uint32_t dst,
                     std::span<std::byte> out);

  void send_lane(std::size_t rail, sim::BoundedChannel<SendJob>* jobs);
  void recv_lane(std::size_t rail, sim::BoundedChannel<RecvJob>* jobs);
  [[nodiscard]] sim::BoundedChannel<SendJob>& send_lane_queue(
      std::size_t rail, std::uint32_t src, std::uint32_t dst);
  [[nodiscard]] sim::BoundedChannel<RecvJob>& recv_lane_queue(
      std::size_t rail, std::uint32_t src, std::uint32_t dst);

  void observe_throughput(std::size_t rail, std::size_t bytes,
                          std::int64_t elapsed_ns);
  void mark_rail_dead(std::size_t rail, const Status& status);

  static constexpr std::uint32_t kDescMagic = 0x53524c31u;   // "SRL1"
  static constexpr std::uint32_t kTrailMagic = 0x53524c32u;  // "SRL2"

  Session* session_;
  RailSetDef def_;
  std::vector<Rail> rails_;
  Status degraded_;
  // Directed (rail, src, dst) -> lane job queue; one persistent fiber per
  // queue, spawned in finish_setup (fiber-per-rail, not fiber-per-segment:
  // a finished Fiber object lives until the simulator dies, item 1.2).
  std::map<std::uint64_t, std::unique_ptr<sim::BoundedChannel<SendJob>>>
      send_lanes_;
  std::map<std::uint64_t, std::unique_ptr<sim::BoundedChannel<RecvJob>>>
      recv_lanes_;
};

}  // namespace mad2::mad
