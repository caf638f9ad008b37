// The two receive disciplines the packet drivers build on.
//
//  - TaggedInbox (BIP short messages, SBP): the NIC lands each message in
//    one of a finite pool of buffers and queues it on its tag, with no
//    help from the receiver, who takes it, reads it in place and releases
//    the buffer. A message that finds the pool full is a protocol error,
//    so the Madeleine TM on top runs credits.
//  - PostedReceives (BIP long messages, VIA VIs, IB queue pairs): the
//    receiver posts buffers first and the NIC lands each message straight
//    in the oldest one still filling. A message that finds none posted is
//    a protocol error, so the TM on top runs a rendezvous or pre-posts.
//
// Each driver keeps its own virtual-time charges, abort texts and the
// wakes beyond the ones here (VIA's any-VI completion, IB's CQEs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "sim/sync.hpp"
#include "util/status.hpp"

namespace mad2::net {

/// A received message on loan from a TaggedInbox's pool.
struct RxSlot {
  std::uint32_t src = 0;
  std::uint32_t tag = 0;
  std::span<const std::byte> data;
  std::uint64_t handle = 0;  ///< for release()
};

class TaggedInbox {
 public:
  /// `overflow` aborts a delivery to a full pool, `unknown` the release of
  /// a handle that is not parked.
  TaggedInbox(sim::Simulator* simulator, std::size_t capacity,
              const char* overflow, const char* unknown)
      : capacity_(capacity),
        overflow_(overflow),
        unknown_(unknown),
        any_arrival_(simulator) {}

  /// Park `data` in a pool buffer and queue it on `tag`. Wakes the fibers
  /// waiting on `tag` first, then those in wait_any().
  void deliver(std::uint32_t src, std::uint32_t tag,
               std::vector<std::byte> data) {
    MAD2_CHECK(parked_.size() < capacity_, overflow_);
    const std::uint64_t handle = next_handle_++;
    const auto& bytes = parked_.emplace(handle, std::move(data)).first->second;
    Queue& queue = this->queue(tag);
    queue.slots.push_back(RxSlot{src, tag, bytes, handle});
    queue.arrival.notify_all();
    any_arrival_.notify_all();
  }

  /// Block until a message is queued on `tag`; it stays queued.
  const RxSlot& peek(std::uint32_t tag) {
    Queue& queue = this->queue(tag);
    while (queue.slots.empty()) queue.arrival.wait();
    return queue.slots.front();
  }

  /// Block until a message is queued on `tag` and dequeue it. Its buffer
  /// stays parked until release().
  RxSlot take(std::uint32_t tag) {
    const RxSlot slot = peek(tag);
    queue(tag).slots.pop_front();
    return slot;
  }

  void release(std::uint64_t handle) {
    const auto erased = parked_.erase(handle);
    MAD2_CHECK(erased == 1, unknown_);
  }

  [[nodiscard]] bool pending(std::uint32_t tag) const {
    auto it = queues_.find(tag);
    return it != queues_.end() && !it->second.slots.empty();
  }

  /// The first of `tags` with a message queued, if any.
  [[nodiscard]] std::optional<std::uint32_t> first_pending(
      const std::vector<std::uint32_t>& tags) const {
    for (std::uint32_t tag : tags) {
      if (pending(tag)) return tag;
    }
    return std::nullopt;
  }

  /// Block until first_pending(tags) finds one; consumes nothing.
  std::uint32_t wait_any(const std::vector<std::uint32_t>& tags) {
    MAD2_CHECK(!tags.empty(), "wait_any with no tags");
    for (;;) {
      if (const auto tag = first_pending(tags)) return *tag;
      any_arrival_.wait();
    }
  }

  /// Pool buffers in use: messages queued or taken and not yet released.
  [[nodiscard]] std::size_t in_use() const { return parked_.size(); }

 private:
  struct Queue {
    explicit Queue(sim::Simulator* simulator) : arrival(simulator) {}
    std::deque<RxSlot> slots;
    sim::WaitQueue arrival;
  };
  Queue& queue(std::uint32_t tag) {
    return queues_.try_emplace(tag, any_arrival_.simulator()).first->second;
  }

  std::size_t capacity_;
  const char* overflow_;
  const char* unknown_;
  std::map<std::uint32_t, Queue> queues_;
  std::map<std::uint64_t, std::vector<std::byte>> parked_;  // by handle
  sim::WaitQueue any_arrival_;
  std::uint64_t next_handle_ = 1;
};

/// The receive buffers posted on one queue, filled and taken in post order.
class PostedReceives {
 public:
  struct Posted {
    std::span<std::byte> buffer;
    std::uint64_t received = 0;  ///< bytes landed so far
    bool complete = false;
  };

  explicit PostedReceives(sim::Simulator* simulator)
      : completion_(simulator) {}

  void post(std::span<std::byte> buffer) {
    posted_.push_back(Posted{buffer, 0, false});
  }

  /// Copy `data`, the piece at `offset` of a `total`-byte message, into
  /// the oldest posted buffer still filling. True, after waking take(),
  /// once the whole message has landed. `none_posted` aborts when no
  /// buffer is filling, `overflow` when the piece does not fit.
  bool land(std::uint64_t offset, std::span<const std::byte> data,
            std::uint64_t total, const char* none_posted,
            const char* overflow) {
    const auto it = std::find_if(posted_.begin(), posted_.end(),
                                 [](const Posted& p) { return !p.complete; });
    MAD2_CHECK(it != posted_.end(), none_posted);
    MAD2_CHECK(it->buffer.size() >= offset + data.size(), overflow);
    std::copy(data.begin(), data.end(), it->buffer.begin() + offset);
    it->received += data.size();
    if (it->received < total) return false;
    it->complete = true;
    completion_.notify_all();
    return true;
  }

  /// Block until the oldest posted buffer is whole, then dequeue it.
  /// `none_posted` aborts when nothing is posted.
  Posted take(const char* none_posted = "take with nothing posted") {
    MAD2_CHECK(!posted_.empty(), none_posted);
    while (!posted_.front().complete) completion_.wait();
    const Posted done = posted_.front();
    posted_.pop_front();
    return done;
  }

  /// True when take() would not block.
  [[nodiscard]] bool ready() const {
    return !posted_.empty() && posted_.front().complete;
  }
  /// Buffers posted and not yet taken.
  [[nodiscard]] std::size_t size() const { return posted_.size(); }

 private:
  std::deque<Posted> posted_;
  sim::WaitQueue completion_;
};

}  // namespace mad2::net
