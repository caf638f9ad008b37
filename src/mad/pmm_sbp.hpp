// SBP protocol management module: a single transmission module, and it is
// a *static-buffer* one — every byte moves through the kernel's fixed
// buffer pools via the static-copy BMM (Section 6.1's SBP case). It is a
// StaticSlotTm, like BIP's short path: credits bound the receiver pool.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "mad/static_slot_tm.hpp"
#include "net/sbp.hpp"

namespace mad2::mad {

class SbpPmm final : public Pmm, private StaticSlotTm::Driver {
 public:
  static constexpr std::size_t kInitialCredits = 8;
  static constexpr std::size_t kCreditBatch = 4;

  explicit SbpPmm(ChannelEndpoint& endpoint);

  [[nodiscard]] std::string_view name() const override { return "sbp"; }

  /// The TM's slots are the whole per-connection state.
  using State = StaticSlotTm::Slots;

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Single (static-buffer) TM: selection is size-independent.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {};
  }
  std::uint32_t wait_incoming() override {
    return StaticSlotTm::wait_incoming(scan_, incoming_wq_);
  }
  [[nodiscard]] double bandwidth_hint_mbs() const override;

 private:
  // --- StaticSlotTm::Driver: kernel tx buffers out, kernel rx buffers
  // in. Each StaticBuffer handle is the kernel buffer's own handle. ---
  StaticBuffer tx_slot() override;
  void post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void send_credits(StaticSlotTm::Slots& slots, std::size_t count) override;

  void pump_loop();

  ChannelEndpoint& endpoint_;
  StaticSlotTm::Tags tags_;
  std::uint32_t my_port_;
  net::SbpPort* port_;
  StaticSlotTm tm_;
  std::map<std::uint32_t, std::unique_ptr<State>> by_port_;  // by port
  PeerScan<const StaticSlotTm::Slots*> scan_;
  sim::WaitQueue incoming_wq_;
};

}  // namespace mad2::mad
