#include "mad/bmm.hpp"

#include <algorithm>
#include <cstring>

#include "hw/node.hpp"
#include "mad/connection.hpp"
#include "mad/static_slot_tm.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace mad2::mad {

BmmKind select_bmm_kind(const Tm& tm, SendMode smode, ReceiveMode rmode) {
  if (tm.uses_static_buffers()) return BmmKind::kStaticCopy;
  if (smode == SendMode::kLater) return BmmKind::kLater;
  if (smode == SendMode::kSafer) return BmmKind::kEager;
  // send_CHEAPER: aggregate when deferral is allowed and pays off.
  if (rmode == ReceiveMode::kCheaper && tm.supports_groups()) {
    return BmmKind::kGroup;
  }
  return BmmKind::kEager;
}

namespace {

// ---------------------------------------------------------------- Eager ---
// Dynamic buffers, handled immediately. send_buffer returns once the user
// memory is reusable, which is exactly the send_SAFER contract.

class EagerSendBmm final : public SendBmm {
 public:
  void pack(Connection& connection, Tm& tm, std::span<const std::byte> data,
            SendMode, ReceiveMode) override {
    tm.send_buffer(connection, data);
  }
  void commit(Connection&, Tm&) override {}
};

class EagerRecvBmm final : public RecvBmm {
 public:
  void unpack(Connection& connection, Tm& tm, std::span<std::byte> out,
              SendMode, ReceiveMode) override {
    tm.receive_buffer(connection, out);
  }
  void checkout(Connection&, Tm&) override {}
};

// ---------------------------------------------------------------- Group ---
// Dynamic buffers aggregated into one scatter/gather group, flushed at
// commit. Only reached with send_CHEAPER + receive_CHEAPER (the policy
// above), so deferring both the read and the extraction is legal.

class GroupSendBmm final : public SendBmm {
 public:
  void pack(Connection&, Tm&, std::span<const std::byte> data, SendMode,
            ReceiveMode) override {
    MAD2_TRACE_EVENT(obs::Category::kBmm, "bmm.group_add", nullptr,
                     data.size(), group_.size());
    group_.push_back(data);
  }
  void commit(Connection& connection, Tm& tm) override {
    if (group_.empty()) return;
    MAD2_TRACE_EVENT(obs::Category::kBmm, "bmm.group_flush", nullptr,
                     group_.size());
    tm.send_buffer_group(connection, group_);
    group_.clear();
  }

 private:
  std::vector<std::span<const std::byte>> group_;
};

class GroupRecvBmm final : public RecvBmm {
 public:
  void unpack(Connection&, Tm&, std::span<std::byte> out, SendMode,
              ReceiveMode) override {
    pending_.push_back(out);
  }
  void checkout(Connection& connection, Tm& tm) override {
    if (pending_.empty()) return;
    tm.receive_sub_buffer_group(connection, pending_);
    pending_.clear();
  }

 private:
  std::vector<std::span<std::byte>> pending_;
};

// ---------------------------------------------------------------- Later ---
// send_LATER: blocks are recorded by reference and only read at commit, so
// user modifications between pack and end_packing reach the message. On
// the receive side, receive_EXPRESS forces draining up to the current
// block immediately (the data must be available when unpack returns).

class LaterSendBmm final : public SendBmm {
 public:
  void pack(Connection&, Tm&, std::span<const std::byte> data, SendMode,
            ReceiveMode) override {
    recorded_.push_back(data);
  }
  void commit(Connection& connection, Tm& tm) override {
    if (!recorded_.empty()) {
      MAD2_TRACE_EVENT(obs::Category::kBmm, "bmm.later_flush", nullptr,
                       recorded_.size());
    }
    for (const auto& block : recorded_) tm.send_buffer(connection, block);
    recorded_.clear();
  }

 private:
  std::vector<std::span<const std::byte>> recorded_;
};

class LaterRecvBmm final : public RecvBmm {
 public:
  void unpack(Connection& connection, Tm& tm, std::span<std::byte> out,
              SendMode, ReceiveMode rmode) override {
    pending_.push_back(out);
    if (rmode == ReceiveMode::kExpress) checkout(connection, tm);
  }
  void checkout(Connection& connection, Tm& tm) override {
    for (const auto& block : pending_) tm.receive_buffer(connection, block);
    pending_.clear();
  }

 private:
  std::vector<std::span<std::byte>> pending_;
};

// ----------------------------------------------------------- StaticCopy ---
// User data is copied through protocol buffers obtained from the TM.
// Successive blocks aggregate into one buffer until it fills, a
// receive_EXPRESS block closes it, or commit flushes it. The receive side
// replays exactly the same boundaries from the symmetric unpack sequence
// — no headers are needed (Section 2.2).

StaticSlotTm& slots_of(Tm& tm) {
  StaticSlotTm* slots = tm.static_slots();
  MAD2_CHECK(slots != nullptr, "a static-buffer TM must be a StaticSlotTm");
  return *slots;
}

class StaticCopySendBmm final : public SendBmm {
 public:
  void pack(Connection& connection, Tm& tm, std::span<const std::byte> data,
            SendMode smode, ReceiveMode rmode) override {
    std::size_t done = 0;
    while (done < data.size()) {
      if (!have_buffer_) {
        buffer_ = slots_of(tm).obtain_static_buffer(connection);
        have_buffer_ = true;
      }
      const std::size_t room = buffer_.memory.size() - buffer_.used;
      const std::size_t chunk = std::min(room, data.size() - done);
      if (smode == SendMode::kLater) {
        // send_LATER: reserve space now, read the user memory only when
        // the buffer is flushed (commit), so pre-flush modifications
        // reach the message.
        deferred_.push_back(
            DeferredCopy{buffer_.used, data.subspan(done, chunk)});
      } else {
        connection.node().charge_memcpy(chunk);
        std::memcpy(buffer_.memory.data() + buffer_.used, data.data() + done,
                    chunk);
      }
      buffer_.used += chunk;
      done += chunk;
      if (buffer_.used == buffer_.memory.size()) flush(connection, tm);
    }
    // EXPRESS blocks flush eagerly so the receiver gets the data without
    // waiting for the sender's end_packing. (send_LATER data in the same
    // buffer is necessarily read at this flush.)
    if (rmode == ReceiveMode::kExpress) flush(connection, tm);
  }

  void commit(Connection& connection, Tm& tm) override {
    flush(connection, tm);
  }

 private:
  struct DeferredCopy {
    std::size_t offset;  // within the current buffer
    std::span<const std::byte> source;
  };

  void flush(Connection& connection, Tm& tm) {
    if (!have_buffer_) return;
    for (const DeferredCopy& copy : deferred_) {
      connection.node().charge_memcpy(copy.source.size());
      std::memcpy(buffer_.memory.data() + copy.offset, copy.source.data(),
                  copy.source.size());
    }
    deferred_.clear();
    if (buffer_.used > 0) {
      MAD2_TRACE_EVENT(obs::Category::kBmm, "bmm.static_flush", nullptr,
                       buffer_.used, buffer_.memory.size());
      slots_of(tm).send_static_buffer(connection, buffer_);
    }
    have_buffer_ = false;
    buffer_ = StaticBuffer{};
  }

  bool have_buffer_ = false;
  StaticBuffer buffer_;
  std::vector<DeferredCopy> deferred_;
};

class StaticCopyRecvBmm final : public RecvBmm {
 public:
  void unpack(Connection& connection, Tm& tm, std::span<std::byte> out,
              SendMode, ReceiveMode rmode) override {
    std::size_t done = 0;
    while (done < out.size()) {
      if (!have_buffer_) obtain(connection, tm);
      if (buffer_.memory.empty()) {
        // The TM bailed on a dead link with nothing queued (an empty
        // static buffer signals the broken stream). Leave the rest of
        // `out` unfilled, like the rendezvous TMs: the session is
        // failing and the fiber must not wedge or spin here.
        release(connection, tm);
        return;
      }
      const std::size_t avail = buffer_.used - consumed_;
      const std::size_t chunk = std::min(avail, out.size() - done);
      connection.node().charge_memcpy(chunk);
      std::memcpy(out.data() + done, buffer_.memory.data() + consumed_,
                  chunk);
      consumed_ += chunk;
      done += chunk;
      if (consumed_ == buffer_.used) release(connection, tm);
    }
    if (rmode == ReceiveMode::kExpress && have_buffer_) {
      // Mirror of the sender's EXPRESS flush: the buffer boundary falls
      // exactly here; a partially consumed buffer means the pack/unpack
      // sequences were not symmetric.
      MAD2_CHECK(consumed_ == buffer_.used,
                 "asymmetric pack/unpack around receive_EXPRESS block");
      release(connection, tm);
    }
  }

  bool unpack_borrow(Connection& connection, Tm& tm, std::size_t len,
                     ReceiveMode rmode,
                     std::vector<BorrowedBlock>& out) override {
    // Same stream-advance as a copying unpack of `len` bytes, but the
    // chunks are lent out as views instead of copied (and nothing is
    // charged: no host copy happens). The protocol buffer is returned to
    // the TM when the last view is dropped.
    std::size_t done = 0;
    while (done < len) {
      if (!have_buffer_) obtain(connection, tm);
      if (buffer_.memory.empty()) {
        // Broken stream (see StaticCopyRecvBmm::unpack): bail instead of
        // spinning on empty dead-link buffers.
        release(connection, tm);
        return true;
      }
      const std::size_t avail = buffer_.used - consumed_;
      const std::size_t chunk = std::min(avail, len - done);
      if (hold_ != nullptr ||
          slots_of(tm).credit_window(connection)->try_retain()) {
        out.push_back(BorrowedBlock{
            std::span<const std::byte>(buffer_.memory.data() + consumed_,
                                       chunk),
            hold_for(connection, tm)});
      } else {
        // Retention denied (lending this buffer out would starve the
        // sender's flow-control window): stage the chunk through an owned
        // copy so the protocol slot can return promptly.
        MAD2_TRACE_EVENT(obs::Category::kBmm, "bmm.borrow_denied", nullptr,
                         chunk);
        connection.node().charge_memcpy(chunk);
        auto owned = std::make_shared<std::vector<std::byte>>(chunk);
        std::memcpy(owned->data(), buffer_.memory.data() + consumed_, chunk);
        const std::span<const std::byte> view(*owned);
        out.push_back(BorrowedBlock{view, std::move(owned)});
      }
      consumed_ += chunk;
      done += chunk;
      if (consumed_ == buffer_.used) release(connection, tm);
    }
    if (rmode == ReceiveMode::kExpress && have_buffer_) {
      MAD2_CHECK(consumed_ == buffer_.used,
                 "asymmetric pack/unpack around receive_EXPRESS block");
      release(connection, tm);
    }
    return true;
  }

  void checkout(Connection& connection, Tm& tm) override {
    // Static-copy extraction is always immediate; nothing is deferred.
    // A leftover partially-consumed buffer would indicate asymmetry.
    if (have_buffer_) {
      MAD2_CHECK(consumed_ == buffer_.used,
                 "message ended with unconsumed static-buffer data "
                 "(asymmetric pack/unpack sequences)");
      release(connection, tm);
    }
  }

 private:
  // Keeps a lent-out buffer alive past release(): the last BorrowedBlock
  // dropped returns it to the TM. At teardown the simulator discards
  // fiber stacks without unwinding and channel objects die on the main
  // thread, where virtual time is over and release could block on credit
  // traffic — the protocol slot is abandoned there instead.
  struct Hold {
    Connection* connection;
    StaticSlotTm* tm;
    StaticBuffer buffer;
    Hold(Connection* connection, StaticSlotTm* tm, StaticBuffer buffer)
        : connection(connection), tm(tm), buffer(buffer) {}
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    ~Hold() {
      if (connection->simulator().current() == nullptr) return;
      tm->credit_window(*connection)->unretain();
      tm->release_static_buffer(*connection, buffer);
    }
  };

  void obtain(Connection& connection, Tm& tm) {
    buffer_ = slots_of(tm).receive_static_buffer(connection);
    consumed_ = 0;
    have_buffer_ = true;
  }

  std::shared_ptr<Hold> hold_for(Connection& connection, Tm& tm) {
    if (hold_ == nullptr) {
      hold_ = std::make_shared<Hold>(&connection, &slots_of(tm), buffer_);
    }
    return hold_;
  }

  void release(Connection& connection, Tm& tm) {
    if (hold_ == nullptr) {
      slots_of(tm).release_static_buffer(connection, buffer_);
    }
    hold_.reset();  // borrowed: the views own the release now
    have_buffer_ = false;
    buffer_ = StaticBuffer{};
    consumed_ = 0;
  }

  bool have_buffer_ = false;
  StaticBuffer buffer_;
  std::size_t consumed_ = 0;
  std::shared_ptr<Hold> hold_;
};

}  // namespace

std::unique_ptr<SendBmm> make_send_bmm(BmmKind kind) {
  switch (kind) {
    case BmmKind::kEager:
      return std::make_unique<EagerSendBmm>();
    case BmmKind::kGroup:
      return std::make_unique<GroupSendBmm>();
    case BmmKind::kLater:
      return std::make_unique<LaterSendBmm>();
    case BmmKind::kStaticCopy:
      return std::make_unique<StaticCopySendBmm>();
  }
  MAD2_CHECK(false, "unknown BmmKind");
}

std::unique_ptr<RecvBmm> make_recv_bmm(BmmKind kind) {
  switch (kind) {
    case BmmKind::kEager:
      return std::make_unique<EagerRecvBmm>();
    case BmmKind::kGroup:
      return std::make_unique<GroupRecvBmm>();
    case BmmKind::kLater:
      return std::make_unique<LaterRecvBmm>();
    case BmmKind::kStaticCopy:
      return std::make_unique<StaticCopyRecvBmm>();
  }
  MAD2_CHECK(false, "unknown BmmKind");
}

}  // namespace mad2::mad
