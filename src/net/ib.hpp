// Simulated InfiniBand-style HCA (ROADMAP item 3).
//
// The model the IbPmm targets ("Design and Implementation of MPICH2 over
// InfiniBand with RDMA Support", PAPERS.md):
//  - reliable-connection *queue pairs* per (peer, qp number), with a
//    bounded send-queue depth — posting a work request on a full SQ
//    blocks until completions free a slot;
//  - *explicit memory registration*: every buffer the HCA touches must be
//    pinned first, at a syscall-plus-per-page cost that dwarfs the
//    per-message overhead (the pin-down cost the registration cache
//    amortizes), and unpinned at a deregistration cost;
//  - two-sided *send/recv* (a send consumes the oldest posted receive
//    descriptor at the target and carries 64 bits of immediate data) and
//    one-sided *RDMA write / RDMA read* against a remote region named by
//    an rkey — no receive descriptor is consumed and the target CPU never
//    runs; a write carrying immediate data additionally raises a
//    completion at the target when its last byte lands;
//  - *completion queues* per qp number shared by every peer's QP, drained
//    by polling at a configurable per-CQE reap cost, with doorbell
//    (post) latency on the submission side.
//
// Unlike the paper-era NICs, the HCA sits on its own 64-bit/66 MHz PCI
// segment: DMA is charged at IbParams::pci_dma_mbs rather than the
// host's legacy-bus rate, which is what lets the IB rail set a new
// bandwidth ceiling on the same simulated hosts.
//
// Failure model: remotely-dependent work requests (RDMA write acks, RDMA
// read responses) carry a give-up timer. When one expires — e.g. the
// fabric's fault plan partitioned the link — the port declares the peer
// link dead: every outstanding and future work request toward that peer
// completes with ok=false, and the network-level link error handler
// fires (Session routes it through route_network_failure, so an IB rail
// inside a RailSet is marked dead and its segments resubmitted).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/nic.hpp"
#include "net/rx_queue.hpp"
#include "util/status.hpp"

namespace mad2::net {

struct IbParams {
  // Host-interface per-op costs.
  sim::Duration doorbell = sim::from_us(0.8);  ///< WR post (PIO + WQE fetch)
  sim::Duration cq_poll = sim::from_us(0.4);   ///< per reaped CQE
  // Memory registration (pin-down) costs.
  sim::Duration register_base = sim::from_us(30.0);
  sim::Duration register_per_page = sim::from_us(3.0);
  sim::Duration deregister_base = sim::from_us(10.0);
  std::uint32_t page_bytes = 4096;
  // Link layer.
  std::uint32_t mtu = 2048;
  std::uint32_t header_bytes = 30;  ///< LRH + BTH + ICRC/VCRC
  /// Send-queue depth per QP: outstanding WRs beyond this block the
  /// poster. Doubles as the IbPmm's eager credit window.
  std::uint32_t qp_depth = 16;
  /// HCA-side DMA rate (64-bit/66 MHz PCI segment; see file comment).
  double pci_dma_mbs = 450.0;
  /// Give-up timer for remotely-dependent WRs (see failure model above).
  sim::Duration op_timeout = sim::from_us(50'000.0);
  /// Per-port registration-cache capacity, in cached regions. 0 disables
  /// the cache entirely: every acquire registers and every release
  /// deregisters (the abl_ib off-ablation).
  std::size_t regcache_capacity = 64;
  FabricParams fabric;

  /// Early-2000s 4X HCA: ~800 MB/s effective wire, 64-bit PCI DMA.
  static IbParams mellanox_like();
};

/// A pinned memory region. `key` doubles as the rkey peers use to name
/// this region in RDMA work requests.
struct IbMr {
  std::uint64_t key = 0;
  std::uintptr_t base = 0;
  std::size_t bytes = 0;

  [[nodiscard]] bool valid() const { return key != 0; }
};

struct IbCompletion {
  enum class Kind : std::uint32_t {
    kSend,       ///< signaled send finished serializing (local)
    kRecv,       ///< posted receive descriptor filled
    kRdmaWrite,  ///< write acknowledged by the target HCA (local)
    kRdmaRead,   ///< read response fully landed (local)
    kWriteImm,   ///< a peer's RDMA-write-with-immediate landed here
  };
  Kind kind = Kind::kSend;
  std::uint32_t peer = 0;
  std::uint64_t wr_id = 0;  ///< local WR id (0 for kRecv / kWriteImm)
  std::uint64_t imm = 0;
  std::size_t bytes = 0;
  std::span<std::byte> buffer{};  ///< kRecv: the posted buffer
  bool ok = true;  ///< false: flushed in error (peer link declared dead)
};

/// Registration-cache observability (surfaced via Session::export_metrics
/// and the abl_ib JSON sidecar).
struct IbRegCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t merges = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Per-port work/completion counters.
struct IbCounters {
  std::uint64_t send_wrs = 0;
  std::uint64_t recv_posts = 0;
  std::uint64_t write_wrs = 0;
  std::uint64_t read_wrs = 0;
  std::uint64_t cqes = 0;
  std::uint64_t cq_polls = 0;  ///< reaps (poll_cq hits + wait_cq)
};

class IbPort;

/// LRU pin-down cache, shared per adapter (one per IbPort): interval-keyed
/// registered regions, overlapping/adjacent-region merge, explicit
/// invalidation on free, capacity eviction paying the deregistration
/// cost. acquire() returns a registration covering the request; release()
/// only drops the reference (the pin persists until eviction or
/// invalidation) — that persistence is the entire win for repeated-buffer
/// traffic.
///
/// Entries are refcounted between acquire() and release(): a referenced
/// entry is never merged away, evicted, or invalidated, because its rkey
/// may already be advertised to a peer or backing an in-flight RDMA op —
/// deregistering it would make the peer's write/read hit "unknown rkey".
class IbRegCache {
 public:
  IbRegCache(IbPort* port, std::size_t capacity);

  /// A registration covering [addr, addr+len). Cache hit: no cost. Miss:
  /// registers the union of the request and any *idle* cached regions it
  /// overlaps or abuts (those are deregistered and their stats merged);
  /// referenced overlapping regions are left pinned and simply coexist.
  IbMr acquire(const std::byte* addr, std::size_t len);

  /// Drop the caller's use of a region obtained from acquire(). With the
  /// cache enabled this only unpins when `mr` bypassed the cache
  /// (capacity 0); cached pins stay hot for the next acquire.
  void release(const IbMr& mr);

  /// The registered-memory hook for freed buffers: deregister every
  /// cached region overlapping [addr, addr+len) so a recycled address
  /// range cannot alias a stale pin.
  void invalidate(const std::byte* addr, std::size_t len);

  [[nodiscard]] const IbRegCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    IbMr mr;
    std::uint64_t last_use = 0;
    std::size_t refs = 0;  ///< acquires not yet released
  };

  /// Deregister the least-recently-used *idle* entry. False when every
  /// entry is referenced (the cache then temporarily exceeds capacity:
  /// in-use pins cannot be dropped).
  bool evict_lru();

  IbPort* port_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;
  IbRegCacheStats stats_;
};

struct IbPacket {
  enum class Kind : std::uint32_t {
    kSend,       ///< two-sided send fragment
    kWriteData,  ///< RDMA write fragment
    kWriteAck,   ///< target HCA ack completing a write WR
    kReadReq,    ///< RDMA read request
    kReadData,   ///< RDMA read response fragment
  };
  Kind kind = Kind::kSend;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t qp = 0;
  std::uint64_t wr = 0;      ///< requester WR id (echoed back)
  std::uint64_t key = 0;     ///< rkey for kWriteData / kReadReq
  std::uint64_t offset = 0;  ///< op-relative byte offset
  std::uint64_t total = 0;   ///< op length
  std::uint64_t imm = 0;
  std::vector<std::byte> data{};

  friend std::span<std::byte> fault_payload(IbPacket& p) { return p.data; }
};

class IbNetwork : public NicNetwork<IbPort, IbPacket, IbParams> {
 public:
  static constexpr NicSpec kNic{"ib", /*pci_slot=*/5, /*stage_depth=*/8};

  IbNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
            IbParams params);

  /// Called once per dead link (both port directions poisoned first).
  void set_link_error_handler(LinkErrorHandler handler) {
    link_error_handler_ = std::move(handler);
  }

  /// Declare the a<->b link dead (test hook; the ports' give-up timers
  /// call the same path). Idempotent per direction.
  void fail_link(std::uint32_t a, std::uint32_t b, const Status& status);

 private:
  friend class IbPort;

  /// Report a dead link discovered by `reporter`: poison both ports, then
  /// run the handler once.
  void report_link_failure(std::uint32_t reporter, std::uint32_t peer,
                           const Status& status);

  LinkErrorHandler link_error_handler_;
};

class IbPort : public StagedNicPort<IbNetwork, IbPacket> {
 public:
  [[nodiscard]] const IbParams& params() const { return network_->params_; }

  // --- memory registration ------------------------------------------------
  /// Pin [region.begin(), region.end()): charged base + per-page, counted
  /// in the node's MemCounters (pinned_bytes / reg_count). The returned
  /// key is valid as an rkey for peers' RDMA work requests. Registering
  /// from immutable memory and then letting a peer RDMA-write through the
  /// rkey is caller error, exactly as with real access flags.
  IbMr register_memory(std::span<const std::byte> region);
  void deregister(const IbMr& mr);
  [[nodiscard]] IbRegCache& reg_cache() { return reg_cache_; }

  // --- queue pairs --------------------------------------------------------
  /// Post a receive descriptor on the (peer, qp) queue pair. Descriptors
  /// fill strictly in post order; a send arriving with none posted breaks
  /// the QP (fatal — the IbPmm's credit window prevents it).
  void post_recv(std::uint32_t peer, std::uint32_t qp,
                 std::span<std::byte> buffer);

  /// Two-sided send. Blocks while the SQ is full, then stages the data
  /// (the host buffer is reusable on return). `signaled` pushes a kSend
  /// CQE once the last fragment has serialized; unsignaled sends free
  /// their SQ slot silently (the verbs idiom for eager paths).
  std::uint64_t post_send(std::uint32_t peer, std::uint32_t qp,
                          std::span<const std::byte> data,
                          std::uint64_t imm = 0, bool signaled = false);

  /// One-sided RDMA write of `local` into the peer region named by
  /// (rkey, roffset). Completes (kRdmaWrite CQE) when the target HCA has
  /// landed and acknowledged the last byte. A nonzero `imm` additionally
  /// raises a kWriteImm completion at the target.
  std::uint64_t post_rdma_write(std::uint32_t peer, std::uint32_t qp,
                                std::span<const std::byte> local,
                                std::uint64_t rkey, std::uint64_t roffset,
                                std::uint64_t imm = 0);

  /// One-sided RDMA read of the peer region (rkey, roffset, local.size())
  /// into `local`. Completes (kRdmaRead CQE) when every byte has landed.
  std::uint64_t post_rdma_read(std::uint32_t peer, std::uint32_t qp,
                               std::span<std::byte> local, std::uint64_t rkey,
                               std::uint64_t roffset);

  // --- completion queues (one per qp number, shared across peers) ---------
  /// Non-blocking reap; charges cq_poll per reaped CQE (empty polls are
  /// free — the progress engine's batched drain relies on that).
  std::optional<IbCompletion> poll_cq(std::uint32_t qp);
  /// Blocking reap.
  IbCompletion wait_cq(std::uint32_t qp);
  [[nodiscard]] bool cq_ready(std::uint32_t qp) const;
  /// Run `fn` after every CQE pushed to `qp`'s CQ (progress-engine
  /// doorbell; must not block).
  void set_cq_callback(std::uint32_t qp, std::function<void()> fn);

  /// Outstanding (posted, uncompleted) WRs on the (peer, qp) SQ.
  [[nodiscard]] std::size_t outstanding(std::uint32_t peer,
                                        std::uint32_t qp) const;
  /// Receive descriptors posted and not yet filled on (peer, qp).
  [[nodiscard]] std::size_t posted_count(std::uint32_t peer,
                                         std::uint32_t qp) const;

  // --- failure surface ----------------------------------------------------
  /// OK while the link to `peer` is healthy.
  [[nodiscard]] const Status& link_status(std::uint32_t peer) const;
  /// Declare the link to `peer` dead (local poison + network handler).
  void fail_link(std::uint32_t peer, const Status& status);
  /// Run `fn(peer, status)` after the link to `peer` is declared dead and
  /// its outstanding WRs flushed (the poison pass). Protocol modules
  /// register one each: a fiber blocked on protocol state (credits, a
  /// rendezvous answer) holds no failable WR of its own, so without this
  /// hook only the side that owned the timed-out WR would ever learn of
  /// the death.
  void add_link_down_callback(
      std::function<void(std::uint32_t, const Status&)> fn);

  [[nodiscard]] const IbCounters& counters() const { return counters_; }

 private:
  friend class IbNetwork::NicNetwork;
  friend class IbNetwork;
  friend class IbRegCache;
  using Packet = IbPacket;

  IbPort(IbNetwork* network, hw::Node* node, std::uint32_t rank);

  void tx_loop();
  void rx_loop();
  void handle_rx(Packet& packet);

  struct QpState {
    explicit QpState(sim::Simulator* simulator)
        : posted(simulator), sq_wq(simulator) {}
    PostedReceives posted;
    std::size_t sq_outstanding = 0;
    sim::WaitQueue sq_wq;  ///< SQ slot waiters
  };
  struct Cq {
    explicit Cq(sim::Simulator* simulator) : wq(simulator) {}
    std::deque<IbCompletion> cqes;
    sim::WaitQueue wq;
    std::function<void()> callback;
  };
  /// A locally-posted WR whose completion depends on the remote HCA.
  struct PendingOp {
    std::uint32_t peer = 0;
    std::uint32_t qp = 0;
    IbCompletion::Kind kind = IbCompletion::Kind::kRdmaWrite;
    std::span<std::byte> local;  ///< read landing buffer
    std::uint64_t received = 0;
    std::uint64_t total = 0;
  };
  /// Target-side landing progress of a peer's write WR.
  struct WriteLanding {
    std::uint64_t received = 0;
  };

  Cq& cq(std::uint32_t qp);
  void push_cqe(std::uint32_t qp, IbCompletion completion);
  void sq_acquire(std::uint32_t peer, std::uint32_t qp);
  void sq_release(std::uint32_t peer, std::uint32_t qp);
  /// Take an SQ slot for WR `wr`. False when the link to `peer` is dead:
  /// the WR is then complete, in error, with a CQE only if `signaled`.
  bool open_wr(std::uint32_t peer, std::uint32_t qp, std::uint64_t wr,
               IbCompletion::Kind kind, bool signaled);
  /// DMA-charge + fragment `data` into staged packets (template carries
  /// everything but offset/data).
  void stage_fragments(Packet prototype, std::span<const std::byte> data);
  void stage(Packet packet);
  /// Arm the give-up timer for WR `wr` toward `peer`.
  void arm_op_timeout(std::uint32_t peer, std::uint64_t wr);
  void charge_dma(std::uint64_t bytes);
  /// Retire the remote-dependent WR at `it`: free its SQ slot and raise
  /// its CQE, carrying its byte count if `ok`, flushed in error if not.
  void finish_op(std::map<std::uint64_t, PendingOp>::iterator it, bool ok);
  /// Poison every QP/SQ/pending op toward `peer` (no handler callback).
  void poison_peer(std::uint32_t peer, const Status& status);

  std::map<std::uint64_t, QpState> qps_;  // key: peer << 32 | qp
  std::map<std::uint32_t, Cq> cqs_;       // key: qp number
  std::map<std::uint64_t, PendingOp> pending_;  // key: local wr id
  // Landing progress is keyed by (source rank, requester wr id): two peers
  // number their WRs independently.
  std::map<std::pair<std::uint32_t, std::uint64_t>, WriteLanding> landings_;
  std::map<std::uint64_t, IbMr> regions_;  // key -> pinned region
  std::map<std::uint32_t, Status> peer_status_;
  std::vector<std::function<void(std::uint32_t, const Status&)>>
      link_down_callbacks_;
  /// HCA-originated responses (write acks, read-response jobs): unbounded
  /// so the rx fiber never blocks shipping into its own full staging.
  std::deque<Packet> nic_tx_;
  sim::WaitQueue tx_work_;
  IbRegCache reg_cache_;
  std::uint64_t next_wr_ = 1;
  std::uint64_t next_key_ = 1;
  IbCounters counters_;
  Status ok_status_;
};

}  // namespace mad2::net
