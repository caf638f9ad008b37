// Credit-based flow control of the static-slot TM (paper Section 5.2.2):
// one window per connection for BIP-short, VIA-short, SBP and IB-eager,
// all run by StaticSlotTm (static_slot_tm.hpp). It holds
// the send side's credits toward the peer and the receive side's owed
// count and retained slots for traffic from it. docs/PROTOCOLS.md
// ("Credit window") states the invariant the tests check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "util/status.hpp"

namespace mad2::mad {

class CreditWindow {
 public:
  CreditWindow(sim::Simulator* simulator, std::size_t window,
               std::size_t batch)
      : window_(window), batch_(batch), credits_(window), wq_(simulator) {
    // A batch above half the window could starve the sender waiting for
    // returns that cannot fill; a batch of one suits any window.
    MAD2_CHECK(batch_ * 2 <= window_ || batch_ <= 1,
               "credit batching must not exhaust the window");
  }

  /// Take one credit, blocking while none is left. `span` names the trace
  /// span around the wait; `before_block` runs inside it before the first
  /// sleep. Returns false, taking nothing, once the window is closed.
  template <typename BeforeBlock = void (*)()>
  bool acquire(const char* span, std::uint64_t bytes,
               BeforeBlock&& before_block = [] {}) {
    if (credits_ == 0 && !closed_) {
      MAD2_TRACE_SPAN(wait, obs::Category::kTm, span);
      wait.args(bytes);
      before_block();
      while (credits_ == 0 && !closed_) wq_.wait();
    }
    if (closed_) return false;
    --credits_;
    return true;
  }

  /// Credits returned by the peer.
  void grant(std::size_t count) {
    credits_ += count;
    wq_.notify_all();
  }

  /// The link died: wake every waiter; acquire fails from now on.
  void close() {
    closed_ = true;
    wq_.notify_all();
  }

  /// Count one received slot given back to the pool; true once a batch of
  /// credit returns is due.
  [[nodiscard]] bool count_release() { return ++owed_ >= batch_; }

  /// Everything owed, zeroed before the caller sends it: the send can
  /// block, and releases that land meanwhile must stay owed. Also the
  /// flush before blocking on an empty receive queue, since the sender
  /// may be stalled below the batch threshold.
  [[nodiscard]] std::size_t take_owed() { return std::exchange(owed_, 0); }

  /// Keep a received slot past its consumption (a zero-copy borrow). Each
  /// retained slot shrinks the sender's window until dropped, so at most
  /// half the window may be lent out: more could leave the sender unable
  /// to push the data those views are waiting on.
  [[nodiscard]] bool try_retain() {
    if (retained_ >= window_ / 2) return false;
    ++retained_;
    return true;
  }
  void unretain() {
    MAD2_CHECK(retained_ > 0,
               "retained-slot release without a matching retain");
    --retained_;
  }

  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] std::size_t credits() const { return credits_; }
  [[nodiscard]] std::size_t owed() const { return owed_; }
  [[nodiscard]] std::size_t retained() const { return retained_; }
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  std::size_t window_;
  std::size_t batch_;
  std::size_t credits_;
  std::size_t owed_ = 0;
  std::size_t retained_ = 0;
  bool closed_ = false;
  sim::WaitQueue wq_;
};

}  // namespace mad2::mad
