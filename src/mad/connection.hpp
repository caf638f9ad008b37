// The Connection object (paper Section 2.1): a reliable, in-order,
// point-to-point link between two session nodes within a channel. Hosts
// the Switch logic of Section 4: per-block TM selection, BMM routing, and
// the commit/checkout flushes that keep delivery ordered across TM changes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "mad/bmm.hpp"
#include "mad/pmm.hpp"
#include "mad/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace mad2 {
namespace hw {
class Node;
}
namespace sim {
class Simulator;
}
}  // namespace mad2

namespace mad2::mad {

class ChannelEndpoint;
class RailSet;

class Connection {
 public:
  /// Built on first use (ChannelEndpoint::connection). `state` is the
  /// PMM's, made at setup.
  Connection(ChannelEndpoint* endpoint, std::uint32_t remote,
             Pmm::ConnState& state);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // --- Message construction (paper Table 1 / Section 4.1) ----------------
  /// Append a data block to the outgoing message.
  void pack(std::span<const std::byte> data, SendMode smode = send_CHEAPER,
            ReceiveMode rmode = receive_CHEAPER);
  /// Finalize the outgoing message: every packed block is flushed.
  void end_packing();

  // --- Message extraction (Section 4.2) -----------------------------------
  /// Extract the next data block (must mirror the sender's pack sequence).
  void unpack(std::span<std::byte> out, SendMode smode = send_CHEAPER,
              ReceiveMode rmode = receive_CHEAPER);
  /// Finalize the reception: all expected blocks are made available.
  void end_unpacking();

  /// Zero-copy unpack: borrow the next `len` stream bytes as views of the
  /// protocol's static receive buffers (appended to `out`, one entry per
  /// protocol-buffer chunk) instead of copying them into user memory.
  /// Only possible when the Switch would route this block to the
  /// static-copy BMM (the selected TM uses_static_buffers()) and the
  /// channel is not paranoid; returns false *without consuming anything*
  /// otherwise — the caller must then fall back to a copying unpack with
  /// the same (len, smode, rmode) so both sides stay symmetric.
  bool unpack_borrow(std::size_t len, SendMode smode, ReceiveMode rmode,
                     std::vector<BorrowedBlock>& out);

  [[nodiscard]] std::uint32_t remote() const { return remote_; }
  [[nodiscard]] std::uint32_t local() const;
  [[nodiscard]] bool packing() const { return packing_; }
  [[nodiscard]] bool unpacking() const { return unpacking_; }

  [[nodiscard]] ChannelEndpoint& endpoint() { return *endpoint_; }
  [[nodiscard]] hw::Node& node();
  [[nodiscard]] sim::Simulator& simulator();

  /// Traffic accounting for this connection (both directions).
  [[nodiscard]] const TrafficStats& stats() const { return stats_; }

  /// OK while the underlying links are healthy; the session's first
  /// recorded failure (e.g. a reliable link that gave up retransmitting)
  /// otherwise. Check after run() stops early to tell a clean finish from
  /// a degraded one.
  [[nodiscard]] const Status& link_status() const;

  /// Protocol state accessor for TMs (each PMM knows its concrete type).
  template <typename T>
  [[nodiscard]] T& state() {
    return *static_cast<T*>(state_);
  }

  /// Resolve the Switch decision for a hypothetical block without touching
  /// any message state — the dispatch-table equivalence sweep in
  /// tests/fastpath_test.cpp compares this against Pmm::select_tm.
  struct SwitchDecision {
    Tm* tm = nullptr;
    BmmKind kind{};
  };
  [[nodiscard]] SwitchDecision probe_switch(std::size_t len, SendMode smode,
                                            ReceiveMode rmode);

 private:
  friend class ChannelEndpoint;
  friend class RailSet;
  void begin_packing_message();
  void begin_unpacking_message();

  void pack_impl(std::span<const std::byte> data, SendMode smode,
                 ReceiveMode rmode);
  void unpack_impl(std::span<std::byte> out, SendMode smode,
                   ReceiveMode rmode);

  /// Paranoid-mode check block: one precedes every user block.
  struct CheckBlock {
    std::uint32_t magic;
    std::uint32_t length;
    std::uint8_t smode;
    std::uint8_t rmode;
    std::uint16_t sequence;
  };
  static constexpr std::uint32_t kCheckMagic = 0x3a2d11eeu;

  SendBmm* send_bmm_for(Tm* tm, BmmKind kind);
  RecvBmm* recv_bmm_for(Tm* tm, BmmKind kind);

  // --- flat dispatch table (docs/PERFORMANCE.md) --------------------------
  // The Switch decision — TM, BMM kind, BMM instance, stats counters — is
  // a pure function of (size class, send mode, receive mode), and every
  // PMM declares its size classes (Pmm::selection_breakpoints), so it is
  // resolved once here: the per-block hot path is a bounded scan over a
  // handful of boundaries plus one indexed load. Entries of one (TM, kind)
  // share a BMM (send_bmm_for/recv_bmm_for), so the flush-on-change
  // pointer comparisons stay exact. Built lazily on first use.
  struct DispatchEntry {
    Tm* tm = nullptr;
    BmmKind kind{};
    SendBmm* send_bmm = nullptr;
    RecvBmm* recv_bmm = nullptr;
    TmCounters* sent = nullptr;
    TmCounters* received = nullptr;
  };
  void build_dispatch();
  [[nodiscard]] DispatchEntry& dispatch_entry(std::size_t len, SendMode smode,
                                              ReceiveMode rmode);
  /// Resolve `entry`'s receive-side BMM and stats row on first use.
  void bind_recv(DispatchEntry& entry);
  static constexpr std::size_t kModePairs = 6;  // 3 send x 2 receive modes
  static std::size_t mode_pair(SendMode smode, ReceiveMode rmode) {
    return static_cast<std::size_t>(smode) * 2 +
           static_cast<std::size_t>(rmode);
  }

  // --- madtrace bindings (obs/) ------------------------------------------
  /// Rebind the cached histogram/flow state when the ambient recorder or
  /// metrics registry changed since the last message. Called from the
  /// begin_* hooks, so mid-message installs take effect on the next one.
  void obs_bind();
  [[nodiscard]] sim::Time obs_now() const {
    const obs::ExecContext& exec = obs::exec_context();
    return exec.now != nullptr ? *exec.now : 0;
  }
  [[nodiscard]] bool obs_switch_on() const {
    return obs_channel_ok_ &&
           obs::trace_enabled(obs::Category::kSwitch);
  }

  ChannelEndpoint* endpoint_;
  std::uint32_t remote_;
  Pmm::ConnState* state_;  // owned by the PMM
  TrafficStats stats_;

  // madtrace state: histogram pointers are cached find-or-create results
  // (valid for the registry's lifetime); e2e stamps correlate through the
  // ambient registry because sender and receiver are distinct Connection
  // objects. All of it reads the clock only — zero virtual-time cost.
  obs::MetricsRegistry* obs_registry_ = nullptr;
  const obs::TraceRecorder* obs_recorder_ = nullptr;
  obs::Histogram* obs_hist_pack_ = nullptr;
  obs::Histogram* obs_hist_unpack_ = nullptr;
  obs::Histogram* obs_hist_e2e_ = nullptr;
  std::string obs_flow_tx_;  // "<channel>/<local>-<remote>"
  std::string obs_flow_rx_;  // "<channel>/<remote>-<local>"
  bool obs_channel_ok_ = false;  // recorder channel filter verdict
  sim::Time obs_pack_start_ = 0;
  sim::Time obs_unpack_start_ = 0;

  // Rail striping: when the endpoint heads a rail set (ChannelEndpoint::
  // rails_, mad/rail_set.hpp), large CHEAPER/CHEAPER blocks are handed to
  // the scheduler instead of a single TM; `striping_` guards the framing
  // and inline-segment blocks the scheduler itself packs through this
  // connection from being striped again.
  bool striping_ = false;
  std::uint32_t stripe_seq_tx_ = 0;
  std::uint32_t stripe_seq_rx_ = 0;

  // Send-side switch state.
  bool packing_ = false;
  std::uint16_t pack_sequence_ = 0;
  std::uint16_t unpack_sequence_ = 0;
  Tm* send_tm_ = nullptr;
  SendBmm* send_bmm_ = nullptr;
  std::map<std::pair<Tm*, BmmKind>, std::unique_ptr<SendBmm>> send_bmms_;

  // Receive-side switch state.
  bool unpacking_ = false;
  Tm* recv_tm_ = nullptr;
  RecvBmm* recv_bmm_ = nullptr;
  std::map<std::pair<Tm*, BmmKind>, std::unique_ptr<RecvBmm>> recv_bmms_;

  // Flat dispatch table state (see build_dispatch).
  bool dispatch_built_ = false;
  std::vector<std::size_t> dispatch_breaks_;  // sorted class upper bounds
  std::vector<DispatchEntry> dispatch_;  // [mode_pair * classes + class]
};

}  // namespace mad2::mad
