// TCP protocol management module: one stream per connection (stream id =
// channel id), a single TM, and symmetric small-block coalescing so that
// grouped sends pay one kernel crossing instead of one per block.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "net/tcp.hpp"

namespace mad2::mad {

class TcpPmm;

/// The single TCP transmission module (dynamic buffers, stream-backed).
class TcpTm final : public Tm {
 public:
  explicit TcpTm(TcpPmm* pmm) : pmm_(pmm) {}

  [[nodiscard]] std::string_view name() const override { return "tcp"; }
  [[nodiscard]] bool supports_groups() const override { return true; }

  void send_buffer(Connection& connection,
                   std::span<const std::byte> data) override;
  void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group) override;
  void receive_buffer(Connection& connection,
                      std::span<std::byte> out) override;
  void receive_sub_buffer_group(
      Connection& connection,
      const std::vector<std::span<std::byte>>& group) override;

  /// Blocks smaller than this are coalesced into one stream write when
  /// they appear consecutively in a group (fewer syscalls).
  static constexpr std::size_t kCoalesceMax = 1024;
  /// A coalesced run never exceeds this many bytes.
  static constexpr std::size_t kRunMax = 8192;

  /// Segment boundaries for a group, as (first, count, coalesced) runs —
  /// a pure function of the block sizes, replayed on both sides.
  struct Run {
    std::size_t first;
    std::size_t count;
    bool coalesced;
  };
  static std::vector<Run> plan_runs(const std::vector<std::size_t>& sizes);

 private:
  TcpPmm* pmm_;
};

class TcpPmm final : public Pmm {
 public:
  explicit TcpPmm(ChannelEndpoint& endpoint);

  [[nodiscard]] std::string_view name() const override { return "tcp"; }

  /// `stream` stays null until the connection's first use in either
  /// direction (see stream_of).
  struct State : ConnState {
    net::TcpStream* stream = nullptr;
  };

  /// The connection's stream, opened on first use. Opening one half also
  /// binds the peer PMM's mirror state (not its Connection), so the
  /// receiver's wait_incoming sees the first byte.
  static net::TcpStream& stream_of(Connection& connection);

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Single TM: selection is size-independent.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {};
  }
  /// Wires the fastpath when the session has the stanza: streams bound
  /// from then on use staged receives, and this PMM registers a flush
  /// client with the node's progress engine for deferred small sends.
  void finish_setup() override;
  std::uint32_t wait_incoming() override;
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] net::TcpPort& port() { return *port_; }

  // --- fastpath hooks for TcpTm ------------------------------------------
  [[nodiscard]] bool fastpath() const { return fast_; }
  /// Inline-flush threshold for a stream's deferred-send staging.
  static constexpr std::size_t kFlushBytes = 8 * 1024;
  void ring_doorbell() { engine_->ring(doorbell_); }

 private:
  /// Open the stream of `remote`'s state.
  void bind(std::uint32_t remote);
  void flush_pending_streams();

  ChannelEndpoint& endpoint_;
  net::TcpPort* port_;
  TcpTm tm_;
  // One state per network port (the own port's slot stays unused), sized
  // once at construction so the scan's pointers stay valid.
  std::vector<State> states_;
  PeerScan<const State*> scan_;
  // wait_incoming's select predicate, built once (no per-message
  // std::function churn); the result passes through incoming_found_.
  std::function<bool()> incoming_pred_;
  std::uint32_t incoming_found_ = 0;
  // Fastpath state (inert without the session stanza).
  ProgressEngine* engine_ = nullptr;
  std::size_t doorbell_ = 0;
  bool fast_ = false;
};

}  // namespace mad2::mad
