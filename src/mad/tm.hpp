// Transmission Module interface (paper Table 2 and Section 3.2).
//
// One TM exists per protocol *sub-interface* (BIP-short, BIP-long,
// SISCI-short-PIO, SISCI-PIO, SISCI-DMA, TCP, VIA-short, VIA-bulk). TMs
// move buffers; the Buffer Management Modules above them decide how user
// data becomes buffers. Mapping to Table 2:
//   send_buffer / send_buffer_group            -> dynamic-buffer sends
//   receive_buffer / receive_sub_buffer_group  -> dynamic-buffer receives
//   obtain_static_buffer / release_static_buffer
//     plus send_static_buffer / receive_static_buffer, which Table 2 folds
//     into the buffer send/receive entries
// Every TM moves a user buffer; the static-buffer calls exist only on the
// TM that has static buffers, StaticSlotTm, which moves a user buffer by
// copying it through its slots. (The paper notes that not every TM
// implements every function.)
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "mad/types.hpp"

namespace mad2::mad {

class Connection;
class CreditWindow;
class StaticSlotTm;

class Tm {
 public:
  virtual ~Tm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True if this TM works through protocol-provided buffers (BMMs must
  /// copy user data through them, by way of static_slots()).
  [[nodiscard]] virtual bool uses_static_buffers() const { return false; }

  /// The static-buffer calls of a static-buffer TM; nullptr otherwise.
  virtual StaticSlotTm* static_slots() { return nullptr; }

  /// True if send_buffer_group is better than per-buffer sends (the group
  /// BMM aggregates when this holds).
  [[nodiscard]] virtual bool supports_groups() const { return true; }

  // --- Dynamic buffers (user memory referenced directly) -----------------
  /// Send one buffer; returns when the user memory is reusable.
  virtual void send_buffer(Connection& connection,
                           std::span<const std::byte> data) = 0;

  /// Send several buffers as one unit (scatter/gather when the protocol
  /// can). Default: sequential send_buffer calls.
  virtual void send_buffer_group(
      Connection& connection,
      const std::vector<std::span<const std::byte>>& group);

  /// Receive one buffer into user memory; returns when the data is there.
  virtual void receive_buffer(Connection& connection,
                              std::span<std::byte> out) = 0;

  /// Receive a (sub-)group of buffers. Default: sequential receive_buffer.
  virtual void receive_sub_buffer_group(
      Connection& connection, const std::vector<std::span<std::byte>>& group);

  /// The credit window governing this TM's static buffers on
  /// `connection`, or nullptr for a TM without flow control. Zero-copy
  /// lending (RecvBmm::unpack_borrow) keeps a receive buffer past its
  /// consumption only when the window grants the retention.
  [[nodiscard]] virtual CreditWindow* credit_window(Connection&) {
    return nullptr;
  }
};

/// A TM whose unit of transfer is a buffer group (the rendezvous TMs: one
/// handshake announces the whole group): a single buffer travels as a
/// group of one.
class GroupTm : public Tm {
 public:
  void send_buffer(Connection& connection,
                   std::span<const std::byte> data) final {
    send_buffer_group(connection, {data});
  }
  void receive_buffer(Connection& connection,
                      std::span<std::byte> out) final {
    receive_sub_buffer_group(connection, {out});
  }
};

}  // namespace mad2::mad
