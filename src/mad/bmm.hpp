// Buffer Management Modules (paper Section 3.4).
//
// A BMM implements one generic, protocol-independent buffer policy; the
// Switch picks the BMM per packed block from (TM, send mode, receive mode)
// via select_bmm_kind() — a pure function, so sender and receiver replay
// identical decisions from their (mandatorily symmetric) pack/unpack
// sequences without any on-the-wire mode information (Section 2.2: messages
// are not self-described).
//
// The four policies:
//   kEager      dynamic buffers, sent/received immediately (send_SAFER, or
//               anything needing immediate handling)
//   kGroup      dynamic buffers aggregated and flushed as one
//               scatter/gather group at commit (send_CHEAPER +
//               receive_CHEAPER on TMs that benefit from grouping)
//   kLater      blocks recorded by reference and read only at commit
//               (send_LATER semantics)
//   kStaticCopy user data copied through protocol buffers
//               (StaticSlotTm: BIP-short, VIA-short, SBP, IB-eager)
#pragma once

#include <memory>
#include <vector>

#include "mad/tm.hpp"
#include "mad/types.hpp"

namespace mad2::mad {

class Connection;

enum class BmmKind : std::uint8_t { kEager, kGroup, kLater, kStaticCopy };

/// The Switch's BMM policy. Pure function — both sides replay it.
BmmKind select_bmm_kind(const Tm& tm, SendMode smode, ReceiveMode rmode);

/// Send-side policy instance. One per (connection, TM, kind); holds the
/// in-flight aggregation state for the current message.
class SendBmm {
 public:
  virtual ~SendBmm() = default;
  virtual void pack(Connection& connection, Tm& tm,
                    std::span<const std::byte> data, SendMode smode,
                    ReceiveMode rmode) = 0;
  /// Flush everything delayed to the TM (the paper's *commit*).
  virtual void commit(Connection& connection, Tm& tm) = 0;
};

/// Receive-side policy instance (mirror image).
class RecvBmm {
 public:
  virtual ~RecvBmm() = default;
  virtual void unpack(Connection& connection, Tm& tm,
                      std::span<std::byte> out, SendMode smode,
                      ReceiveMode rmode) = 0;
  /// Complete all deferred extractions (the paper's *checkout*).
  virtual void checkout(Connection& connection, Tm& tm) = 0;

  /// Zero-copy variant of unpack: instead of copying the next `len` bytes
  /// into user memory, append views of the protocol buffers holding them
  /// to `out` (one BorrowedBlock per protocol-buffer chunk, so the block
  /// boundaries replayed from the sender's sequence are preserved). Only
  /// the static-copy BMM supports this; others return false without
  /// consuming anything. The stream advances exactly as a copying unpack
  /// of `len` bytes would, so borrow and copy calls may be mixed freely.
  virtual bool unpack_borrow(Connection&, Tm&, std::size_t /*len*/,
                             ReceiveMode /*rmode*/,
                             std::vector<BorrowedBlock>& /*out*/) {
    return false;
  }
};

std::unique_ptr<SendBmm> make_send_bmm(BmmKind kind);
std::unique_ptr<RecvBmm> make_recv_bmm(BmmKind kind);

}  // namespace mad2::mad
