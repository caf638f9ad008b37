// BIP protocol management module (paper Section 5.2.2).
//
// Two transmission modules, exactly as the paper describes:
//  - the *short message* TM uses BIP's preallocated receive buffers behind
//    a credit-based flow-control algorithm (so the finite buffer pool can
//    never overflow): a StaticSlotTm over this PMM's hooks;
//  - the *long message* TM implements the receiver-acknowledgment
//    rendezvous BIP requires before a long message may be transmitted
//    (zero-copy delivery into the posted user buffer).
//
// A per-endpoint *pump* fiber is the single consumer of the driver's short
// queues for this channel: it decodes each packet (data, or a rendezvous
// REQ/ACK or credit return) and hands it to StaticSlotTm::Slots::dispatch.
// Driver tags (StaticSlotTm::Tags) encode (channel, sender, data|ctrl) so
// channels and peers never share queues.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mad/pmm.hpp"
#include "mad/session.hpp"
#include "mad/static_slot_tm.hpp"
#include "net/bip.hpp"

namespace mad2::mad {

class BipPmm;

class BipLongTm final : public GroupTm {
 public:
  explicit BipLongTm(BipPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "bip-long"; }

  void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group) override;
  void receive_sub_buffer_group(
      Connection& connection,
      const std::vector<std::span<std::byte>>& group) override;

 private:
  BipPmm* pmm_;
};

class BipPmm final : public Pmm, private StaticSlotTm::Driver {
 public:
  BipPmm(ChannelEndpoint& endpoint, BipPmmOptions options);

  [[nodiscard]] std::string_view name() const override { return "bip"; }

  /// The short TM's slots, which carry the long TM's rendezvous too.
  struct State : StaticSlotTm::Slots {
    State(sim::Simulator* simulator, std::uint32_t remote_port,
          const BipPmmOptions& options)
        : Slots(simulator, remote_port, options.credits,
                options.credit_batch) {}
  };

  void make_conn_state(std::uint32_t remote) override;
  State& conn_state(std::uint32_t remote) override;
  void finish_setup() override;
  Tm& select_tm(std::size_t len, SendMode smode, ReceiveMode rmode) override;
  /// Two TMs split at the driver's short capacity.
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {short_capacity()};
  }
  std::uint32_t wait_incoming() override {
    return StaticSlotTm::wait_incoming(scan_, incoming_wq_);
  }
  [[nodiscard]] double bandwidth_hint_mbs() const override;

  // --- helpers used by the TMs ---
  [[nodiscard]] net::BipPort& port() { return *port_; }
  [[nodiscard]] ChannelEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] std::uint32_t short_capacity() const {
    return params_->short_max_bytes;
  }
  [[nodiscard]] const StaticSlotTm::Tags& tags() const { return tags_; }
  [[nodiscard]] std::uint32_t my_port() const { return my_port_; }

  /// A 9-byte control packet: the Packet kind, then a u64 value.
  void send_ctrl(StaticSlotTm::Slots& slots, StaticSlotTm::Packet kind,
                 std::uint64_t value);

 private:
  // --- StaticSlotTm::Driver: staging buffers out, driver slots in. A
  // received slot's StaticBuffer handle is its driver slot id. ---
  StaticBuffer tx_slot() override;
  void post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) override;
  void send_credits(StaticSlotTm::Slots& slots, std::size_t count) override;
  /// Fastpath: owed credits accumulate for the progress tick.
  bool defer_credit_return() override;

  void pump_loop();
  /// Progress-tick client: return every connection's owed credits, one
  /// control packet per indebted peer.
  void flush_owed_credits();

  ChannelEndpoint& endpoint_;
  BipPmmOptions options_;
  StaticSlotTm::Tags tags_;
  std::uint32_t my_port_;
  net::BipPort* port_;
  const net::BipParams* params_;
  StaticSlotTm short_tm_;
  BipLongTm long_tm_;
  std::map<std::uint32_t, std::unique_ptr<State>> states_;  // by remote
  std::map<std::uint32_t, State*> by_port_;                 // by remote port
  sim::WaitQueue incoming_wq_;
  PeerScan<const StaticSlotTm::Slots*> scan_;
  // Staging pool for outgoing short buffers. Pre-sized at finish_setup so
  // the steady state never allocates; growth past the pre-size is counted
  // against the node (hw::MemCounters::alloc_count).
  std::vector<std::vector<std::byte>> staging_;
  std::vector<std::size_t> staging_free_;
  // Fastpath state (inert without the session stanza).
  ProgressEngine* engine_ = nullptr;
  std::size_t doorbell_ = 0;
  bool defer_credits_ = false;
};

}  // namespace mad2::mad
