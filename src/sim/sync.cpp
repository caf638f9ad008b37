#include "sim/sync.hpp"

#include <algorithm>

namespace mad2::sim {

bool WaitQueue::wait(Time deadline) {
  Fiber* self = simulator_->current();
  MAD2_CHECK(self != nullptr, "WaitQueue::wait() outside a fiber");
  waiters_.push_back(self);
  const bool timed_out = simulator_->block_current(deadline);
  if (timed_out) {
    // We were woken by the deadline, not by notify_*: deregister.
    auto it = std::find(waiters_.begin(), waiters_.end(), self);
    MAD2_CHECK(it != waiters_.end(), "timed-out fiber missing from queue");
    waiters_.erase(it);
  }
  return timed_out;
}

bool WaitQueue::notify_one() {
  if (waiters_.empty()) return false;
  Fiber* fiber = waiters_.front();
  waiters_.erase(waiters_.begin());
  simulator_->wake(fiber);
  return true;
}

void WaitQueue::notify_all() {
  // One FIFO pass, then clear: wake() only schedules events and never
  // runs a fiber, so nothing can wait on this queue mid-loop, and keeping
  // the vector's capacity spares the next wait an allocation.
  for (Fiber* fiber : waiters_) simulator_->wake(fiber);
  waiters_.clear();
}

void Mutex::lock() {
  Fiber* self = queue_.simulator()->current();
  MAD2_CHECK(self != nullptr, "Mutex::lock() outside a fiber");
  MAD2_CHECK(holder_ != self, "recursive Mutex::lock()");
  while (holder_ != nullptr) queue_.wait();
  holder_ = self;
}

bool Mutex::try_lock() {
  Fiber* self = queue_.simulator()->current();
  MAD2_CHECK(self != nullptr, "Mutex::try_lock() outside a fiber");
  if (holder_ != nullptr) return false;
  holder_ = self;
  return true;
}

void Mutex::unlock() {
  MAD2_CHECK(holder_ == queue_.simulator()->current(),
             "Mutex::unlock() by non-holder");
  holder_ = nullptr;
  queue_.notify_one();
}

void CondVar::wait(Mutex& mutex) {
  mutex.unlock();
  queue_.wait();
  mutex.lock();
}

bool CondVar::wait_until(Mutex& mutex, Time deadline) {
  mutex.unlock();
  const bool timed_out = queue_.wait(deadline);
  mutex.lock();
  return timed_out;
}

void Semaphore::acquire() {
  while (count_ == 0) queue_.wait();
  --count_;
}

bool Semaphore::try_acquire() {
  if (count_ == 0) return false;
  --count_;
  return true;
}

void Semaphore::release(std::size_t n) {
  count_ += n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!queue_.notify_one()) break;
  }
}

void Barrier::arrive_and_wait() {
  const std::uint64_t my_round = round_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++round_;
    queue_.notify_all();
    return;
  }
  while (round_ == my_round) queue_.wait();
}

}  // namespace mad2::sim
