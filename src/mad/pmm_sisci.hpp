// SISCI protocol management module (paper Section 5.2.1).
//
// Three transmission modules, as the paper ships:
//  - an optimized *short-message* TM: payload + header written in one PIO
//    transaction into a small slot ring (this is what produces the 3.9 us
//    Madeleine latency);
//  - the *regular PIO* TM: data PIO-written into a 2-deep ring of 8 kB
//    buffers. For blocks above one buffer the transfer naturally becomes
//    the paper's adaptive dual-buffering pipeline (sender fills buffer
//    k+1 while the receiver drains buffer k) — the Figure 4 kink at 8 kB;
//  - a *DMA* TM, implemented but disabled by default because the D310 DMA
//    engine cannot exceed ~35 MB/s (enable via SciPmmOptions).
//
// Wire structure per connection direction: a ring segment on the receiver
// (short slots + bulk buffers, each with a {seq, len} header written after
// the payload) and a feedback segment on the sender where the receiver
// PIO-writes consumed counters (slot reuse / dual-buffer pacing).
//
// Under the session's `fastpath` stanza the per-unit feedback writes are
// deferred to the node's ProgressEngine tick (one PIO write per dirty
// counter per tick), with a flush-before-block safety net; see
// docs/PERFORMANCE.md. Without the stanza the legacy per-message flush is
// bit-identical to earlier releases.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "net/sisci.hpp"

namespace mad2::mad {

class SciPmm;

class SciShortTm final : public Tm {
 public:
  explicit SciShortTm(SciPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "sci-short"; }
  [[nodiscard]] bool supports_groups() const override { return false; }
  void send_buffer(Connection&, std::span<const std::byte>) override;
  void receive_buffer(Connection&, std::span<std::byte>) override;

 private:
  SciPmm* pmm_;
};

class SciBulkTm : public Tm {
 public:
  SciBulkTm(SciPmm* pmm, bool dma) : pmm_(pmm), dma_(dma) {}
  [[nodiscard]] std::string_view name() const override {
    return dma_ ? "sci-dma" : "sci-pio";
  }
  void send_buffer(Connection&, std::span<const std::byte>) override;
  void receive_buffer(Connection&, std::span<std::byte>) override;

 private:
  SciPmm* pmm_;
  bool dma_;
};

class SciPmm final : public Pmm {
 public:
  SciPmm(ChannelEndpoint& endpoint, SciPmmOptions options);

  [[nodiscard]] std::string_view name() const override { return "sisci"; }

  struct State : ConnState {
    std::uint32_t remote_port = 0;
    // Local segments.
    net::SegmentId rx_ring = 0;      // peer writes data here (peer -> me)
    net::SegmentId tx_feedback = 0;  // peer writes consumed counts (me -> peer)
    // Remote handles (resolved in finish_setup).
    net::RemoteSegment tx_ring;      // peer's rx_ring for me -> peer
    net::RemoteSegment rx_feedback;  // peer's tx_feedback for peer -> me
    // Send counters (me -> peer).
    std::uint64_t short_sent = 0;
    std::uint64_t bulk_sent = 0;
    // Receive counters (peer -> me).
    std::uint64_t short_rcvd = 0;
    std::uint64_t bulk_rcvd = 0;
    std::uint64_t short_fb_written = 0;
    std::uint64_t bulk_fb_written = 0;
  };

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// short | PIO | (optionally) DMA, split purely by length.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override;
  std::uint32_t wait_incoming() override;
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  // --- ring geometry and helpers used by the TMs -------------------------
  [[nodiscard]] const SciPmmOptions& options() const { return options_; }
  [[nodiscard]] net::SciPort& port() { return *port_; }
  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }

  static constexpr std::uint32_t kHeaderBytes = 8;  // u32 seq, u32 len
  [[nodiscard]] std::uint64_t short_slot_offset(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t bulk_buffer_offset(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t ring_bytes() const;

  /// True if the next expected incoming unit from this peer has arrived.
  [[nodiscard]] bool incoming_ready(const State& state);

  void send_short_unit(Connection& connection,
                       std::span<const std::byte> data);
  void recv_short_unit(Connection& connection, std::span<std::byte> out);
  void send_bulk(Connection& connection, std::span<const std::byte> data,
                 bool dma);
  void recv_bulk(Connection& connection, std::span<std::byte> out);

 private:
  /// Progress-tick callback (fastpath only): PIO-write every dirty
  /// consumed counter, one write per counter per peer.
  void flush_owed_feedback();
  /// Flush-before-block safety net: a fiber about to sleep returns its
  /// owed feedback inline so a peer waiting on slot/buffer credits is
  /// never serialized behind the next progress tick.
  void maybe_flush_owed() {
    if (defer_feedback_) flush_owed_feedback();
  }
  ChannelEndpoint& endpoint_;
  SciPmmOptions options_;
  net::SciPort* port_;
  SciShortTm short_tm_;
  SciBulkTm pio_tm_;
  SciBulkTm dma_tm_;
  std::map<std::uint32_t, std::unique_ptr<State>> states_;
  PeerScan<const State*> scan_;
  // Fastpath feedback deferral (docs/PERFORMANCE.md).
  ProgressEngine* engine_ = nullptr;
  std::size_t doorbell_ = 0;
  bool defer_feedback_ = false;
};

}  // namespace mad2::mad
