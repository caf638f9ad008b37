// SBP protocol management module: a single transmission module, and it is
// a *static-buffer* one — every byte moves through the kernel's fixed
// buffer pools via the static-copy BMM (Section 6.1's SBP case). Credits
// bound the receiver pool, as with BIP's short path.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "mad/credit_window.hpp"
#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "net/sbp.hpp"

namespace mad2::mad {

class SbpPmm;

class SbpTm final : public Tm {
 public:
  explicit SbpTm(SbpPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "sbp"; }
  [[nodiscard]] bool uses_static_buffers() const override { return true; }

  void send_buffer(Connection&, std::span<const std::byte>) override;
  void receive_buffer(Connection&, std::span<std::byte>) override;
  StaticBuffer obtain_static_buffer(Connection& connection) override;
  void send_static_buffer(Connection& connection,
                          StaticBuffer& buffer) override;
  StaticBuffer receive_static_buffer(Connection& connection) override;
  void release_static_buffer(Connection& connection,
                             StaticBuffer& buffer) override;
  CreditWindow* credit_window(Connection& connection) override;

 private:
  SbpPmm* pmm_;
};

class SbpPmm final : public Pmm {
 public:
  static constexpr std::size_t kInitialCredits = 8;
  static constexpr std::size_t kCreditBatch = 4;
  static constexpr std::uint32_t kMaxPorts = 64;

  explicit SbpPmm(ChannelEndpoint& endpoint);

  [[nodiscard]] std::string_view name() const override { return "sbp"; }

  struct State : ConnState {
    explicit State(sim::Simulator* simulator)
        : window(simulator, kInitialCredits, kCreditBatch),
          recv_wq(simulator) {}
    std::uint32_t remote = 0;
    std::uint32_t remote_port = 0;
    CreditWindow window;  // both directions
    std::deque<net::SbpRxBuffer> incoming;
    sim::WaitQueue recv_wq;
  };

  std::unique_ptr<ConnState> make_conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Single (static-buffer) TM: selection is size-independent.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {};
  }
  std::uint32_t wait_incoming() override;
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  [[nodiscard]] net::SbpPort& port() { return *port_; }
  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] std::uint32_t data_tag(std::uint32_t sender_port) const;
  [[nodiscard]] std::uint32_t ctrl_tag(std::uint32_t sender_port) const;
  void send_credits(State& state, std::uint64_t count);

  /// Stash for checked-out rx buffers behind StaticBuffer handles.
  StaticBuffer wrap(net::SbpRxBuffer buffer);
  net::SbpRxBuffer unwrap(const StaticBuffer& buffer);
  /// Stash for borrowed tx buffers behind StaticBuffer handles.
  StaticBuffer wrap_tx(net::SbpTxBuffer buffer);
  net::SbpTxBuffer unwrap_tx(const StaticBuffer& buffer);

 private:
  void pump_loop();

  ChannelEndpoint& endpoint_;
  net::SbpPort* port_;
  SbpTm tm_;
  std::map<std::uint32_t, State*> states_;
  std::map<std::uint32_t, std::uint32_t> by_port_;
  std::vector<std::uint32_t> peer_order_;
  std::size_t rr_next_ = 0;
  std::unique_ptr<sim::WaitQueue> incoming_wq_;
  std::map<std::uint64_t, net::SbpRxBuffer> checked_out_rx_;
  std::map<std::uint64_t, net::SbpTxBuffer> checked_out_tx_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace mad2::mad
