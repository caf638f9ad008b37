// Protocol Management Module interface (paper Section 3.3).
//
// One PMM instance exists per (channel, node): it groups the channel's
// Transmission Modules for one network interface, owns the protocol-level
// demultiplexing for incoming traffic, and answers the Switch's TM
// selection query (Fig. 3, step 2).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "mad/tm.hpp"
#include "mad/types.hpp"

namespace mad2::mad {

class Pmm {
 public:
  virtual ~Pmm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Per-connection protocol state (driver handles, segment rings, credit
  /// counters). The PMM builds one per peer at session setup, in channel
  /// order, and owns it; the peer's Connection, built on first use, binds
  /// to it through conn_state.
  struct ConnState {
    virtual ~ConnState() = default;
  };
  virtual void make_conn_state(std::uint32_t remote) = 0;
  /// The state make_conn_state built for `remote`.
  virtual ConnState& conn_state(std::uint32_t remote) = 0;

  /// Second setup phase, run after every endpoint of the channel exists:
  /// resolve handles that live on peer nodes (e.g. map the SISCI segments
  /// the peers created). The real library bootstraps this over a control
  /// TCP connection; the simulation wires it directly.
  virtual void finish_setup() {}

  /// The Switch's TM query: pick the best transmission module for a block
  /// of `len` bytes with the given semantics. Must be a pure function of
  /// its arguments — the receive side replays it to stay symmetric.
  virtual Tm& select_tm(std::size_t len, SendMode smode,
                        ReceiveMode rmode) = 0;

  /// Size-class boundaries of select_tm, for the Switch's flat dispatch
  /// tables (see Connection): each value `b` marks that the verdict may
  /// change between `len <= b` and `len > b`, and the verdict must be
  /// constant on every interval between consecutive boundaries (for every
  /// send/receive-mode pair). An empty vector means selection is
  /// size-independent.
  [[nodiscard]] virtual std::vector<std::size_t> selection_breakpoints()
      const = 0;

  /// Block until the first packet of a new incoming message is available
  /// on this channel; returns the remote global node id. Called by
  /// begin_unpacking.
  virtual std::uint32_t wait_incoming() = 0;

  /// Nominal large-block bandwidth of this protocol module, decimal MB/s:
  /// the driver's self-report of what its data path can sustain. Seeds
  /// the rail scheduler's weight for a rail on this adapter (refined at
  /// runtime from measured per-segment throughput); never used for TM
  /// selection, which stays a pure function of (len, modes).
  [[nodiscard]] virtual double bandwidth_hint_mbs() const { return 100.0; }
};

/// wait_incoming's choice among a channel's peers: each scan resumes just
/// past the peer it last returned, so one busy sender cannot starve the
/// others. `Peer` is whatever the driver's has_incoming test reads (its
/// per-connection state, a stream).
template <typename Peer>
class PeerScan {
 public:
  void add(std::uint32_t remote, Peer peer) {
    peers_.emplace_back(remote, peer);
  }

  /// The next peer, in round-robin order, for which `has_incoming(peer)`
  /// holds; nullopt if there is none.
  template <typename HasIncoming>
  std::optional<std::uint32_t> next(HasIncoming&& has_incoming) {
    for (std::size_t k = 0; k < peers_.size(); ++k) {
      const std::size_t idx = (rr_next_ + k) % peers_.size();
      if (has_incoming(peers_[idx].second)) {
        rr_next_ = (idx + 1) % peers_.size();
        return peers_[idx].first;
      }
    }
    return std::nullopt;
  }

  /// next(), calling `sleep()` until some peer has input.
  template <typename HasIncoming, typename Sleep>
  std::uint32_t wait(HasIncoming&& has_incoming, Sleep&& sleep) {
    for (;;) {
      if (const auto remote = next(has_incoming)) return *remote;
      sleep();
    }
  }

  [[nodiscard]] const std::vector<std::pair<std::uint32_t, Peer>>& peers()
      const {
    return peers_;
  }

 private:
  std::vector<std::pair<std::uint32_t, Peer>> peers_;
  std::size_t rr_next_ = 0;
};

}  // namespace mad2::mad
