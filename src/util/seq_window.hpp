// Sequence-window bookkeeping shared by the two retransmit layers: the
// per-link ARQ shim (net/reliable) and the resilient failover of virtual
// channels (fwd::VirtualChannel). Each layer detects its own failures —
// a retransmit timer there, a gateway death here — and keeps its own
// timers, acks and replay routing; both hand the delivery bookkeeping to
// these two halves.
//
//  - SeqSendWindow<T> retains the items a sender has numbered but not yet
//    seen confirmed. Seqs are consecutive: push() appends end_seq() and
//    nothing else, and confirm(watermark) trims every seq below the
//    cumulative watermark from the front.
//  - SeqReceiveWindow<T> delivers items exactly once and in seq order.
//    accept() delivers the expected seq and then every stashed successor
//    behind it, stashes a later seq until the gap fills, and reports an
//    earlier or already-stashed seq as a duplicate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

#include "util/status.hpp"

namespace mad2 {

template <typename T>
class SeqSendWindow {
 public:
  explicit SeqSendWindow(std::uint64_t first = 0) : front_(first) {}

  /// Retain `item` as `seq`, which must be end_seq(): the window has no
  /// gaps.
  void push(std::uint64_t seq, T item) {
    MAD2_CHECK(seq == end_seq(), "sequence window gap");
    items_.push_back(std::move(item));
  }

  /// Drop every item whose seq is below `watermark`, oldest first, calling
  /// `on_confirmed(item)` on each just before it goes. Returns how many
  /// went.
  template <typename Fn>
  std::size_t confirm(std::uint64_t watermark, Fn&& on_confirmed) {
    std::size_t count = 0;
    while (!items_.empty() && front_ < watermark) {
      on_confirmed(items_.front());
      items_.pop_front();
      ++front_;
      ++count;
    }
    return count;
  }
  std::size_t confirm(std::uint64_t watermark) {
    return confirm(watermark, [](T&) {});
  }

  /// The retained item numbered `seq`, or nullptr once it was confirmed
  /// (or was never pushed). Pointers stay valid until that seq is
  /// confirmed.
  [[nodiscard]] T* find(std::uint64_t seq) {
    if (seq < front_ || seq >= end_seq()) return nullptr;
    return &items_[seq - front_];
  }

  /// Oldest retained seq; equals end_seq() while the window is empty.
  [[nodiscard]] std::uint64_t front_seq() const { return front_; }
  /// The seq the next push() must carry.
  [[nodiscard]] std::uint64_t end_seq() const {
    return front_ + items_.size();
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  std::uint64_t front_;
  std::deque<T> items_;
};

enum class SeqVerdict : std::uint8_t { kDelivered, kStashed, kDuplicate };

template <typename T>
class SeqReceiveWindow {
 public:
  explicit SeqReceiveWindow(std::uint64_t first = 0) : expected_(first) {}

  /// The next seq to deliver: every seq below it was delivered once.
  [[nodiscard]] std::uint64_t expected() const { return expected_; }
  /// Items held back behind a gap.
  [[nodiscard]] std::size_t stashed() const { return stash_.size(); }

  /// Classify one arrival. The expected seq goes to `deliver(T&&)`,
  /// followed by every stashed successor it unblocks, in seq order; the
  /// cursor has moved past an item by the time it is delivered.
  template <typename Deliver>
  SeqVerdict accept(std::uint64_t seq, T item, Deliver&& deliver) {
    if (seq < expected_ || stash_.contains(seq)) {
      return SeqVerdict::kDuplicate;
    }
    if (seq > expected_) {
      stash_.emplace(seq, std::move(item));
      return SeqVerdict::kStashed;
    }
    ++expected_;
    deliver(std::move(item));
    for (auto next = stash_.begin();
         next != stash_.end() && next->first == expected_;
         next = stash_.begin()) {
      T successor = std::move(next->second);
      stash_.erase(next);
      ++expected_;
      deliver(std::move(successor));
    }
    return SeqVerdict::kDelivered;
  }

 private:
  std::uint64_t expected_;
  std::map<std::uint64_t, T> stash_;
};

}  // namespace mad2
