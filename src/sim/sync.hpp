// Fiber-level synchronization primitives for the simulator: wait queues,
// mutexes, condition variables, semaphores, barriers, and a bounded
// message channel. All of them operate on virtual time and must only be
// used from fibers of the Simulator they were constructed with.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/status.hpp"

namespace mad2::sim {

/// FIFO queue of blocked fibers. Building block for everything below.
/// An idle queue allocates nothing: the waiter list is a vector, which
/// stays empty until a fiber first blocks here.
class WaitQueue {
 public:
  explicit WaitQueue(Simulator* simulator) : simulator_(simulator) {}

  /// Block the current fiber until notified. With a deadline, returns true
  /// iff the deadline fired first (the fiber is removed from the queue).
  bool wait(Time deadline = kNever);

  /// Wake the longest-waiting fiber, if any. Returns whether one was woken.
  bool notify_one();

  /// Wake every waiting fiber.
  void notify_all();

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }
  [[nodiscard]] Simulator* simulator() const { return simulator_; }

 private:
  Simulator* simulator_;
  std::vector<Fiber*> waiters_;
};

/// Non-recursive mutex. Fibers are cooperative, so this only matters when
/// a critical section blocks (e.g. waits on a CondVar or NIC event) —
/// exactly the cases the gateway pipeline exercises.
class Mutex {
 public:
  explicit Mutex(Simulator* simulator) : queue_(simulator) {}

  void lock();
  void unlock();
  [[nodiscard]] bool try_lock();
  [[nodiscard]] bool locked() const { return holder_ != nullptr; }

 private:
  friend class CondVar;
  WaitQueue queue_;
  Fiber* holder_ = nullptr;
};

/// RAII lock guard for sim::Mutex.
class LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) : mutex_(mutex) { mutex_.lock(); }
  ~LockGuard() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable paired with sim::Mutex.
class CondVar {
 public:
  explicit CondVar(Simulator* simulator) : queue_(simulator) {}

  /// Atomically release `mutex`, wait, re-acquire. Spurious wakeups do not
  /// occur, but callers should still use predicate loops for clarity.
  void wait(Mutex& mutex);

  /// Returns true iff the deadline fired before a notification.
  bool wait_until(Mutex& mutex, Time deadline);

  void notify_one() { queue_.notify_one(); }
  void notify_all() { queue_.notify_all(); }

 private:
  WaitQueue queue_;
};

/// Counting semaphore; models credit-based flow control in the BIP driver.
class Semaphore {
 public:
  Semaphore(Simulator* simulator, std::size_t initial)
      : queue_(simulator), count_(initial) {}

  void acquire();
  [[nodiscard]] bool try_acquire();
  void release(std::size_t n = 1);
  [[nodiscard]] std::size_t available() const { return count_; }

 private:
  WaitQueue queue_;
  std::size_t count_;
};

/// Reusable barrier for `parties` fibers.
class Barrier {
 public:
  Barrier(Simulator* simulator, std::size_t parties)
      : queue_(simulator), parties_(parties) {}

  /// Block until `parties` fibers have arrived; the last arrival releases
  /// everyone and resets the barrier.
  void arrive_and_wait();

 private:
  WaitQueue queue_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t round_ = 0;
};

/// Bounded FIFO channel for passing values between fibers. `capacity == 0`
/// is not supported (no rendezvous semantics needed here).
template <typename T>
class BoundedChannel {
 public:
  BoundedChannel(Simulator* simulator, std::size_t capacity)
      : not_empty_(simulator), not_full_(simulator), capacity_(capacity) {
    MAD2_CHECK(capacity > 0, "BoundedChannel capacity must be positive");
  }

  /// Block until space is available, then enqueue.
  void send(T value) {
    while (items_.size() >= capacity_ && !closed_) not_full_.wait();
    MAD2_CHECK(!closed_, "send() on closed channel");
    items_.push_back(std::move(value));
    not_empty_.notify_one();
  }

  /// Enqueue without blocking; false if full or closed.
  bool try_send(T value) {
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Block until a value is available. nullopt once closed and drained.
  std::optional<T> receive() {
    while (items_.empty() && !closed_) not_empty_.wait();
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Close: senders must stop; receivers drain then get nullopt.
  void close() {
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  WaitQueue not_empty_;
  WaitQueue not_full_;
  std::size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
};

}  // namespace mad2::sim
