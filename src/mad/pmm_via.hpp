// VIA protocol management module.
//
// Two transmission modules over two VIs per connection:
//  - VI 0, the *short* TM: user data is copied through preregistered
//    4 kB buffers (VIA requires registered memory), pre-posted at the
//    receiver and governed by credits, with an 8-byte in-band header
//    carrying the packet kind (data / rendezvous REQ / ACK / credit
//    return) and a u32 value: a StaticSlotTm over this PMM's hooks;
//  - VI 1, the *bulk* TM: rendezvous through VI 0, then a direct send from
//    (just-registered) user memory into the posted user buffer —
//    zero-copy, at the cost of per-transfer registration.
// A per-endpoint pump fiber decodes VI 0's packets for
// StaticSlotTm::Slots::dispatch.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "mad/static_slot_tm.hpp"
#include "net/via.hpp"

namespace mad2::mad {

class ViaPmm;

class ViaBulkTm final : public GroupTm {
 public:
  explicit ViaBulkTm(ViaPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "via-bulk"; }

  void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group) override;
  void receive_sub_buffer_group(
      Connection& connection,
      const std::vector<std::span<std::byte>>& group) override;

 private:
  ViaPmm* pmm_;
};

class ViaPmm final : public Pmm, private StaticSlotTm::Driver {
 public:
  static constexpr std::uint32_t kPacketBytes = 4096;
  static constexpr std::uint32_t kHeaderBytes = 8;  // u32 kind, u32 value
  static constexpr std::uint32_t kShortCapacity = kPacketBytes - kHeaderBytes;
  static constexpr std::size_t kInitialCredits = 8;
  static constexpr std::size_t kCreditBatch = 4;
  static constexpr std::uint32_t kShortVi = 0;  // per-channel VI pair base
  static constexpr std::uint32_t kBulkVi = 1;

  explicit ViaPmm(ChannelEndpoint& endpoint);

  [[nodiscard]] std::string_view name() const override { return "via"; }

  /// The header's kind field, by StaticSlotTm::Packet (data, credit, req,
  /// ack).
  static constexpr std::array<std::uint32_t, 4> kWireKind = {1, 4, 2, 3};

  /// The short TM's slots, which carry the bulk TM's rendezvous too.
  struct State : StaticSlotTm::Slots {
    State(sim::Simulator* simulator, std::uint32_t remote_port)
        : Slots(simulator, remote_port, kInitialCredits, kCreditBatch) {}
    // Preregistered, pre-posted receive buffers for VI 0. A received
    // slot's StaticBuffer handle is its index here plus one.
    std::vector<std::vector<std::byte>> pool;
  };

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Short vs rendezvous, split at the packet payload capacity.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {kShortCapacity};
  }
  std::uint32_t wait_incoming() override {
    return StaticSlotTm::wait_incoming(scan_, incoming_wq_);
  }
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  [[nodiscard]] net::ViaPort& port() { return *port_; }
  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] std::uint32_t short_vi() const;
  [[nodiscard]] std::uint32_t bulk_vi() const;

  /// A control packet: the header alone.
  void send_ctrl(StaticSlotTm::Slots& slots, StaticSlotTm::Packet kind,
                 std::uint64_t value);

 private:
  // --- StaticSlotTm::Driver: registered staging out, posted pool in ---
  StaticBuffer tx_slot() override;
  void post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void send_credits(StaticSlotTm::Slots& slots, std::size_t count) override;

  void pump_loop();

  ChannelEndpoint& endpoint_;
  net::ViaPort* port_;
  StaticSlotTm short_tm_;
  ViaBulkTm bulk_tm_;
  std::map<std::uint32_t, std::unique_ptr<State>> states_;
  PeerScan<const StaticSlotTm::Slots*> scan_;
  sim::WaitQueue incoming_wq_;
  // Staging for outgoing VI-0 packets (header + payload assembled here).
  std::vector<std::vector<std::byte>> staging_;
  std::vector<std::size_t> staging_free_;
};

}  // namespace mad2::mad
