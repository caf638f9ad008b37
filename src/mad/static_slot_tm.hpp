// The static-slot transmission module (paper Section 5.2.2's short-message
// algorithm): the one TM behind BIP-short, VIA-short, SBP and IB-eager.
// Data travels in fixed protocol slots — preallocated receive buffers the
// sender must never overrun — so every slot sent takes a credit from the
// connection's CreditWindow, and every slot the receiver gives back
// returns one, in batches. This class owns that shell; a driver only says
// how a slot is obtained, posted and given back, and how a credit packet
// travels (StaticSlotTm::Driver). The receive demultiplexing of BIP, VIA
// and SBP is shared too: their pumps only wait for a packet and decode it,
// and Slots::dispatch does the rest. docs/PROTOCOLS.md lists each
// driver's hooks.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string_view>
#include <vector>

#include "mad/credit_window.hpp"
#include "mad/pmm.hpp"
#include "sim/sync.hpp"

namespace mad2::mad {

class StaticSlotTm final : public Tm {
 public:
  /// What a packet from the peer is, once its driver has decoded it. BIP's
  /// control byte is this value; VIA maps its header kind onto it.
  enum class Packet : std::uint8_t { kData, kCredit, kReq, kAck };

  /// One connection's slots, both directions, and the rendezvous of the
  /// driver's large-message TM (BIP long, VIA bulk), whose requests and
  /// acks travel as control packets beside the slots. A driver's own per-
  /// connection state derives from this, so the TM reaches it through
  /// Connection::state and the driver's hooks downcast it back.
  struct Slots : Pmm::ConnState {
    Slots(sim::Simulator* simulator, std::uint32_t remote_port,
          std::size_t window, std::size_t batch)
        : remote_port(remote_port),
          window(simulator, window, batch),
          recv_wq(simulator),
          ack_wq(simulator) {}
    std::uint32_t remote_port;  // the peer's port on the network
    CreditWindow window;
    std::deque<StaticBuffer> rx;  // received slots, in arrival order
    sim::WaitQueue recv_wq;       // woken on every arrival from the peer
    std::deque<std::uint64_t> reqs;  // announced rendezvous sizes
    std::size_t acks = 0;            // rendezvous acks not yet taken
    sim::WaitQueue ack_wq;

    /// The driver's demultiplexer hands over one decoded packet: a data
    /// slot (its `bytes` stay the driver's until return_slot gets
    /// `handle`, and the TM only reads them), `value` credits, a
    /// rendezvous request for `value` bytes, or an ack.
    void dispatch(Packet kind, std::uint64_t value,
                  std::span<const std::byte> bytes = {},
                  std::uint64_t handle = 0);
    /// A slot or a rendezvous request waits to be received.
    [[nodiscard]] bool has_incoming() const {
      return !rx.empty() || !reqs.empty();
    }

    /// Rendezvous, send side, after the request went out: wait for the
    /// receiver's ack. `span` names the wait in the trace.
    void wait_ack(const char* span, std::uint64_t total, std::size_t blocks);
    /// Rendezvous, receive side: take the next request, which must
    /// announce `total` bytes. The caller posts its receives, then acks.
    void take_req(std::uint64_t total);
  };

  /// The tag space of the drivers that demultiplex by tag (BIP, SBP). Each
  /// channel owns 2 * kMaxPorts tags: a data tag per sender port, then a
  /// control tag per sender port, so channels and peers never share a
  /// queue.
  class Tags {
   public:
    static constexpr std::uint32_t kMaxPorts = 64;
    /// `overflow` is the abort message for a port past kMaxPorts.
    Tags(std::uint32_t channel, const char* overflow)
        : base_(channel * 2 * kMaxPorts), overflow_(overflow) {}
    [[nodiscard]] std::uint32_t data(std::uint32_t sender_port) const {
      return base_ + checked(sender_port);
    }
    [[nodiscard]] std::uint32_t ctrl(std::uint32_t sender_port) const {
      return base_ + kMaxPorts + checked(sender_port);
    }
    /// Both tags of every sender port in `by_port` (keyed by port): the
    /// set a pump waits on.
    template <typename ByPort>
    [[nodiscard]] std::vector<std::uint32_t> of(const ByPort& by_port) const {
      std::vector<std::uint32_t> tags;
      for (const auto& [port, state] : by_port) {
        tags.push_back(data(port));
        tags.push_back(ctrl(port));
      }
      return tags;
    }
    /// Decoding one of this channel's tags.
    [[nodiscard]] bool is_ctrl(std::uint32_t tag) const {
      return tag >= base_ + kMaxPorts;
    }
    [[nodiscard]] std::uint32_t sender(std::uint32_t tag) const {
      return (tag - base_) % kMaxPorts;
    }

   private:
    [[nodiscard]] std::uint32_t checked(std::uint32_t port) const {
      MAD2_CHECK(port < kMaxPorts, overflow_);
      return port;
    }
    std::uint32_t base_;
    const char* overflow_;
  };

  /// Pmm::wait_incoming for a driver whose demultiplexer feeds Slots: the
  /// next peer in `scan`, round-robin, that has_incoming, sleeping on
  /// `incoming` (woken after every packet) until there is one.
  static std::uint32_t wait_incoming(PeerScan<const Slots*>& scan,
                                     sim::WaitQueue& incoming);

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
