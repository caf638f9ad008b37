// InfiniBand protocol management module (ROADMAP item 3).
//
// Three transmission modules over one queue pair per connection, the
// protocol family of "Design and Implementation of MPICH2 over InfiniBand
// with RDMA Support" (PAPERS.md):
//  - the *eager* TM copies short messages through pre-registered,
//    pre-posted buffers under a credit window sized by the QP depth (a
//    send with no posted receive breaks the QP, so the window is load-
//    bearing); the message kind rides in the 64-bit immediate. It is a
//    StaticSlotTm over this PMM's hooks;
//  - the *rendezvous-write* TM: RTS announces the block, the receiver
//    pins the landing area through the registration cache and answers CTS
//    with its rkeys, the sender RDMA-writes straight from (cache-pinned)
//    user memory with an immediate on the last block — the write-with-
//    immediate completion replaces a FIN round;
//  - the *rendezvous-read* TM (receiver-driven, for CHEAPER landings):
//    the source pins its blocks and advertises rkeys; the receiver pulls
//    them with RDMA reads whenever it gets around to landing the data,
//    then fires DONE.
// Completion-queue reaping is either a per-endpoint pump fiber (legacy)
// or — under the session's `fastpath` stanza — a ProgressEngine client
// that drains the CQ once per scheduled batch, with the CQ's doorbell
// callback ringing the engine.
//
// Rail integration: a RailSet moves an IB segment as a one-block group
// through the write TM's own send/receive bodies, with a give-up deadline.
// Link death comes back as a Status instead of wedging, so an IB rail
// survives mid-rendezvous link death (the RailSet resubmits the segment
// elsewhere).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "mad/static_slot_tm.hpp"
#include "net/ib.hpp"

namespace mad2::mad {

class IbPmm;

class IbRdmaWriteTm final : public GroupTm {
 public:
  explicit IbRdmaWriteTm(IbPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "ib-write"; }

  void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group) override {
    (void)send(connection, group, sim::kNever);
  }
  void receive_sub_buffer_group(
      Connection& connection,
      const std::vector<std::span<std::byte>>& group) override {
    (void)receive(connection, group, sim::kNever);
  }

  /// The write rendezvous of one group; the GroupTm calls pass sim::kNever.
  /// A handshake still quiet at `deadline` kills the link. All-or-nothing:
  /// a dead link's Status claims nothing of the group delivered.
  Status send(Connection& connection,
              const std::vector<std::span<const std::byte>>& group,
              sim::Time deadline);
  Status receive(Connection& connection,
                 const std::vector<std::span<std::byte>>& group,
                 sim::Time deadline);

 private:
  IbPmm* pmm_;
};

class IbRdmaReadTm final : public GroupTm {
 public:
  explicit IbRdmaReadTm(IbPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "ib-read"; }

  void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group) override;
  void receive_sub_buffer_group(
      Connection& connection,
      const std::vector<std::span<std::byte>>& group) override;

 private:
  IbPmm* pmm_;
};

class IbPmm final : public Pmm, private StaticSlotTm::Driver {
 public:
  IbPmm(ChannelEndpoint& endpoint, IbPmmOptions options);

  [[nodiscard]] std::string_view name() const override { return "ib"; }

  /// Message kind, carried in the low byte of the 64-bit immediate; the
  /// remaining 56 bits are the kind-specific value.
  enum class MsgKind : std::uint64_t {
    kData = 1,     ///< eager payload (length = completion bytes)
    kCredit = 2,   ///< value = returned credit count
    kRts = 3,      ///< value = total bytes (write rendezvous announce)
    kCts = 4,      ///< value = seq; payload = u32 count + (rkey,off) pairs
    kRtsRead = 5,  ///< value = total; payload = u32 count + (rkey,off,len)
    kDone = 6,     ///< read rendezvous finished
    kFin = 7,      ///< write-with-immediate marker; value = seq
  };

  /// A peer block advertised in a CTS (write rendezvous) or an RTS_READ
  /// (read rendezvous, which also carries the length).
  struct RemoteBlock {
    std::uint64_t rkey = 0;
    std::uint64_t offset = 0;  // within the registered region
    std::uint64_t len = 0;     // RTS_READ only
  };
  struct Cts {
    std::uint64_t seq = 0;
    std::vector<RemoteBlock> blocks;
  };

  /// The eager TM's slots (window = IbParams::qp_depth), plus the
  /// rendezvous state of the write and read TMs.
  struct State : StaticSlotTm::Slots {
    State(sim::Simulator* simulator, std::uint32_t remote_port,
          std::size_t depth, std::size_t batch)
        : Slots(simulator, remote_port, depth, batch), rdv_wq(simulator) {}
    // --- send side ---
    std::deque<Cts> cts_queue;       // answers to our RTS
    std::size_t write_acks = 0;      // kRdmaWrite completions reaped
    std::size_t read_done_acks = 0;  // kDone messages received
    sim::WaitQueue rdv_wq;
    // --- receive side (filled by the CQ dispatch; woken via recv_wq;
    // Slots::reqs holds the announced write totals) ---
    std::deque<std::vector<RemoteBlock>> rts_read;
    std::deque<std::uint64_t> write_imms;    // landed write seqs
    std::size_t read_dones = 0;              // kRdmaRead completions
    std::uint64_t next_seq = 1;
    // Pre-registered, pre-posted eager receive pool. A received slot's
    // StaticBuffer handle is its index here plus one.
    std::vector<std::vector<std::byte>> pool;
    // Set once the link died (error CQE or give-up deadline); every
    // rendezvous wait bails, the write TM's with dead_status.
    bool dead = false;
    Status dead_status;
  };

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Eager vs rendezvous, split at the eager cutoff.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {options_.eager_cutoff};
  }
  std::uint32_t wait_incoming() override;
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  // --- helpers used by the TMs ---
  [[nodiscard]] net::IbPort& port() { return *port_; }
  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] const IbPmmOptions& options() const { return options_; }
  [[nodiscard]] std::uint32_t qp() const;
  [[nodiscard]] std::size_t window() const;
  /// Eager receive-pool size: the worst-case number of messages a peer
  /// can have in flight toward us before our dispatcher runs (every
  /// arrival consumes a posted receive, and a send with none posted
  /// breaks the QP). See the definition for the derivation.
  [[nodiscard]] std::size_t recv_pool_size() const;

  static std::uint64_t encode_imm(MsgKind kind, std::uint64_t value) {
    return static_cast<std::uint64_t>(kind) | (value << 8);
  }

  void send_ctrl(State& state, MsgKind kind, std::uint64_t value,
                 std::span<const std::byte> payload = {});

  /// Drain every reaped completion into the per-connection state. Safe to
  /// call from anywhere; re-entry (engine tick vs inline drain) no-ops.
  void drain_cq();

  /// The write TM; a RailSet moves its IB segments through it.
  [[nodiscard]] IbRdmaWriteTm& write_tm() { return write_tm_; }

 private:
  // --- StaticSlotTm::Driver: registered staging out, posted pool in ---
  StaticBuffer tx_slot() override;
  void post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void send_credits(StaticSlotTm::Slots& slots, std::size_t count) override;
  void poll() override { drain_cq(); }
  /// A poisoned port closes the window (mark_dead) before we would sleep.
  void check_link(StaticSlotTm::Slots& slots) override {
    check_dead(static_cast<State&>(slots));
  }
  /// The link died while the slot waited for a credit: the session is
  /// failing, so the message is dropped.
  void drop_slot(StaticBuffer& slot) override;

  void pump_loop();
  void dispatch(const net::IbCompletion& completion);
  State& state_of_port(std::uint32_t port);
  std::size_t pool_index(State& state, const std::byte* data);
  void repost(State& state, std::size_t index);
  void mark_dead(State& state, const Status& status);
  /// True once the connection is unusable (local flag or poisoned port).
  bool check_dead(State& state);
  /// Wait on `wq` until `ready()` or the connection dies (a `deadline`
  /// passing first kills the link). True iff the connection is alive.
  template <typename Ready>
  bool await(State& state, sim::WaitQueue& wq, sim::Time deadline,
             Ready ready);
  /// Pin each block through the registration cache into `mrs` and encode
  /// the CTS / RTS_READ payload (see decode_blocks in pmm_ib.cpp).
  template <typename Byte>
  std::vector<std::byte> pin_and_advertise(
      const std::vector<std::span<Byte>>& group, bool with_len,
      std::vector<net::IbMr>& mrs);
  void release(const std::vector<net::IbMr>& mrs);

  ChannelEndpoint& endpoint_;
  IbPmmOptions options_;
  net::IbPort* port_;
  StaticSlotTm eager_tm_;
  IbRdmaWriteTm write_tm_;
  IbRdmaReadTm read_tm_;
  std::map<std::uint32_t, std::unique_ptr<State>> by_port_;  // by port
  PeerScan<const State*> scan_;
  sim::WaitQueue incoming_wq_;
  // Staging pool for outgoing eager buffers (registered once).
  std::vector<std::vector<std::byte>> staging_;
  std::vector<std::size_t> staging_free_;
  // Fastpath state (inert without the session stanza).
  ProgressEngine* engine_ = nullptr;
  std::size_t doorbell_ = 0;
  bool engine_mode_ = false;
  bool drain_active_ = false;

  friend class IbRdmaWriteTm;
  friend class IbRdmaReadTm;
};

}  // namespace mad2::mad
