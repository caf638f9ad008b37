// The static-slot transmission module (paper Section 5.2.2's short-message
// algorithm): the one TM behind BIP-short, VIA-short, SBP and IB-eager.
// Data travels in fixed protocol slots — preallocated receive buffers the
// sender must never overrun — so every slot sent takes a credit from the
// connection's CreditWindow, and every slot the receiver gives back
// returns one, in batches. This class owns that shell; a driver only says
// how a slot is obtained, posted and given back, and how a credit packet
// travels (StaticSlotTm::Driver). docs/PROTOCOLS.md lists each driver's
// hooks.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string_view>

#include "mad/credit_window.hpp"
#include "mad/pmm.hpp"
#include "sim/sync.hpp"

namespace mad2::mad {

class StaticSlotTm final : public Tm {
 public:
  /// One connection's slots, both directions. A driver's own per-
  /// connection state derives from this, so the TM reaches it through
  /// Connection::state and the driver's hooks downcast it back.
  struct Slots : Pmm::ConnState {
    Slots(sim::Simulator* simulator, std::size_t window, std::size_t batch)
        : window(simulator, window, batch), recv_wq(simulator) {}
    CreditWindow window;
    std::deque<StaticBuffer> rx;  // received slots, in arrival order
    sim::WaitQueue recv_wq;       // woken on every arrival from the peer

    /// The driver's demultiplexer hands over one received slot: `bytes`
    /// stay the driver's until return_slot, and the TM only reads them.
    void deliver(std::span<const std::byte> bytes, std::uint64_t handle) {
      rx.push_back(StaticBuffer{
          std::span<std::byte>(const_cast<std::byte*>(bytes.data()),
                               bytes.size()),
          bytes.size(), handle});
      recv_wq.notify_all();
    }
  };

  /// What a driver supplies. Each hook gets the connection's Slots.
  class Driver {
   public:
    /// An empty slot to fill, `memory` sized to the payload capacity.
    virtual StaticBuffer tx_slot() = 0;
    /// Transmit `used` bytes of a filled slot (a credit is held), then
    /// recycle it.
    virtual void post_slot(Slots& slots, StaticBuffer& slot) = 0;
    /// Give a received slot back to the driver's receive pool.
    virtual void return_slot(Slots& slots, StaticBuffer& slot) = 0;
    /// Send `count` credits back to the peer.
    virtual void send_credits(Slots& slots, std::size_t count) = 0;

    /// Reap pending completions before the TM looks at its receive queue
    /// or sleeps on a credit.
    virtual void poll() {}
    /// Runs before a credit wait that would block: a driver that can
    /// learn of link death here closes the window.
    virtual void check_link(Slots&) {}
    /// Replaces post_slot once the window has closed (the link died):
    /// recycle the slot unsent. Only a driver that closes its window
    /// needs it.
    virtual void drop_slot(StaticBuffer&) {}
    /// A credit batch fell due. Returns true if the driver returns it
    /// later itself; false sends it now.
    virtual bool defer_credit_return() { return false; }

   protected:
    ~Driver() = default;
  };

  /// `name` is the TM's (stats, trace); `credit_span` names the trace span
  /// around a credit wait.
  StaticSlotTm(Driver* driver, std::string_view name, const char* credit_span)
      : driver_(driver), name_(name), credit_span_(credit_span) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] bool uses_static_buffers() const override { return true; }
  StaticSlotTm* static_slots() override { return this; }

  /// A dynamic buffer travels as a run of whole slots, copied through.
  void send_buffer(Connection& connection,
                   std::span<const std::byte> data) override;
  void receive_buffer(Connection& connection,
                      std::span<std::byte> out) override;

  // --- Static buffers (Table 2's obtain/release_static_buffer; sending
  // and receiving one are folded into its buffer send/receive entries) ---
  /// An empty slot to fill (send side).
  StaticBuffer obtain_static_buffer(Connection& connection);
  /// Transmit a filled slot (`used` bytes).
  void send_static_buffer(Connection& connection, StaticBuffer& buffer);
  /// Blocking: the next received slot. An empty buffer means the window
  /// closed (the link died) with nothing left queued.
  StaticBuffer receive_static_buffer(Connection& connection);
  /// Give a received slot back (receive side).
  void release_static_buffer(Connection& connection, StaticBuffer& buffer);
  CreditWindow* credit_window(Connection& connection) override;

  /// Send everything owed to the peer. Before blocking on an empty queue
  /// (the sender may be stalled below the batch threshold), on a due
  /// batch, and on BIP's progress tick.
  void flush_owed(Slots& slots);

 private:
  Driver* driver_;
  std::string_view name_;
  const char* credit_span_;
};

}  // namespace mad2::mad
