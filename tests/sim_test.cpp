// Tests for the discrete-event simulator core: fibers, virtual time,
// blocking/waking, timeouts, and the synchronization primitives — plus
// madcheck schedule-exploration cases asserting the order-independent
// invariants of the sync primitives across hundreds of interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/explore.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace mad2::sim {
namespace {

TEST(Simulator, RunsSingleFiberToCompletion) {
  Simulator simulator;
  bool ran = false;
  simulator.spawn("f", [&] { ran = true; });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.live_fiber_count(), 0u);
}

TEST(Simulator, AdvanceMovesVirtualTime) {
  Simulator simulator;
  Time end = -1;
  simulator.spawn("f", [&] {
    simulator.advance(microseconds(5));
    simulator.advance(microseconds(7));
    end = simulator.now();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(end, microseconds(12));
}

TEST(Simulator, FibersInterleaveDeterministically) {
  Simulator simulator;
  std::vector<int> order;
  simulator.spawn("a", [&] {
    order.push_back(1);
    simulator.advance(microseconds(10));
    order.push_back(3);
  });
  simulator.spawn("b", [&] {
    order.push_back(2);
    simulator.advance(microseconds(5));
    order.push_back(4);  // runs at t=5, before a's t=10 resume
    simulator.advance(microseconds(10));
    order.push_back(5);  // t=15
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3, 5}));
}

TEST(Simulator, YieldIsFairAtSameTimestamp) {
  Simulator simulator;
  std::vector<int> order;
  simulator.spawn("a", [&] {
    order.push_back(1);
    simulator.yield_fiber();
    order.push_back(3);
  });
  simulator.spawn("b", [&] { order.push_back(2); });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, BlockAndWake) {
  Simulator simulator;
  Fiber* sleeper = nullptr;
  Time woke_at = -1;
  sleeper = simulator.spawn("sleeper", [&] {
    const bool timed_out = simulator.block_current();
    EXPECT_FALSE(timed_out);
    woke_at = simulator.now();
  });
  simulator.spawn("waker", [&] {
    simulator.advance(microseconds(42));
    simulator.wake(sleeper);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(woke_at, microseconds(42));
}

TEST(Simulator, BlockWithDeadlineTimesOut) {
  Simulator simulator;
  bool timed_out = false;
  Time woke_at = -1;
  simulator.spawn("sleeper", [&] {
    timed_out = simulator.block_current(microseconds(100));
    woke_at = simulator.now();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(woke_at, microseconds(100));
}

TEST(Simulator, WakeBeforeDeadlineCancelsTimeout) {
  Simulator simulator;
  bool timed_out = true;
  Fiber* sleeper = simulator.spawn("sleeper", [&] {
    timed_out = simulator.block_current(microseconds(100));
  });
  simulator.spawn("waker", [&] {
    simulator.advance(microseconds(10));
    simulator.wake(sleeper);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_FALSE(timed_out);
}

TEST(Simulator, StaleTimeoutDoesNotReWakeLaterBlock) {
  Simulator simulator;
  Fiber* sleeper = nullptr;
  int wakes = 0;
  sleeper = simulator.spawn("sleeper", [&] {
    // First block with a deadline, woken early.
    EXPECT_FALSE(simulator.block_current(microseconds(100)));
    ++wakes;
    // Second block without deadline; the stale first deadline event must
    // not wake it.
    EXPECT_FALSE(simulator.block_current());
    ++wakes;
  });
  simulator.spawn("waker", [&] {
    simulator.advance(microseconds(10));
    simulator.wake(sleeper);
    simulator.advance(microseconds(500));
    simulator.wake(sleeper);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(wakes, 2);
}

TEST(Simulator, DeadlockIsReported) {
  Simulator simulator;
  simulator.spawn("stuck", [&] { simulator.block_current(); });
  const Status status = simulator.run();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("stuck"), std::string::npos);
}

TEST(Simulator, BlockedDaemonsAreNotADeadlock) {
  Simulator simulator;
  simulator.spawn_daemon("server", [&] { simulator.block_current(); });
  simulator.spawn("client", [&] { simulator.advance(microseconds(1)); });
  EXPECT_TRUE(simulator.run().is_ok());
}

TEST(Simulator, PostedCallbacksRunAtTheirTime) {
  Simulator simulator;
  std::vector<Time> fired;
  simulator.spawn("f", [&] {
    simulator.post_after(microseconds(30), [&] {
      fired.push_back(simulator.now());
    });
    simulator.post_after(microseconds(10), [&] {
      fired.push_back(simulator.now());
    });
    simulator.advance(microseconds(50));
  });
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], microseconds(10));
  EXPECT_EQ(fired[1], microseconds(30));
}

TEST(Simulator, StopAbortsTheRun) {
  Simulator simulator;
  int steps = 0;
  simulator.spawn("looper", [&] {
    for (;;) {
      ++steps;
      if (steps == 5) simulator.stop();
      simulator.advance(microseconds(1));
    }
  });
  // stop() means "ended by request", not a deadlock.
  EXPECT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(steps, 5);
}

// ---------------------------------------------------------- stack pool ---

/// A small run whose peak is four live stacks: a blocked daemon, a main
/// fiber and the two children it spawns before either runs.
void run_four_stack_session() {
  Simulator simulator;
  simulator.spawn_daemon("idle", [&] { simulator.block_current(); });
  simulator.spawn("main", [&] {
    for (int i = 0; i < 2; ++i) {
      simulator.spawn("child", [&] { simulator.advance(microseconds(1)); });
    }
    simulator.advance(microseconds(5));
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

TEST(StackPool, SecondIdenticalSessionMapsNoStack) {
  run_four_stack_session();
  const std::size_t mapped = Simulator::stacks_mapped();
  run_four_stack_session();
  EXPECT_EQ(Simulator::stacks_mapped(), mapped);
}

TEST(StackPool, SpawnFinishLoopReusesOneStack) {
  Simulator simulator;
  int finished = 0;
  simulator.spawn("main", [&] {
    for (int i = 0; i < 100; ++i) {
      simulator.spawn("child", [&] { ++finished; });
      simulator.yield_fiber();  // the child runs to completion first
    }
  });
  const std::size_t before = Simulator::stacks_mapped();
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(finished, 100);
  EXPECT_LE(Simulator::stacks_mapped() - before, 1u);
}

// ---------------------------------------------------------------- Sync ---

TEST(Sync, MutexProvidesExclusionAcrossBlocking) {
  Simulator simulator;
  Mutex mutex(&simulator);
  std::vector<int> order;
  simulator.spawn("a", [&] {
    LockGuard lock(mutex);
    order.push_back(1);
    simulator.advance(microseconds(10));  // holds the lock across a block
    order.push_back(2);
  });
  simulator.spawn("b", [&] {
    LockGuard lock(mutex);
    order.push_back(3);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Sync, TryLockFailsWhenHeld) {
  Simulator simulator;
  Mutex mutex(&simulator);
  simulator.spawn("a", [&] {
    ASSERT_TRUE(mutex.try_lock());
    EXPECT_FALSE(mutex.try_lock());
    mutex.unlock();
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

TEST(Sync, CondVarWaitAndNotify) {
  Simulator simulator;
  Mutex mutex(&simulator);
  CondVar cond(&simulator);
  bool flag = false;
  Time observed = -1;
  simulator.spawn("waiter", [&] {
    LockGuard lock(mutex);
    while (!flag) cond.wait(mutex);
    observed = simulator.now();
  });
  simulator.spawn("setter", [&] {
    simulator.advance(microseconds(25));
    LockGuard lock(mutex);
    flag = true;
    cond.notify_one();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(observed, microseconds(25));
}

TEST(Sync, CondVarWaitUntilTimesOut) {
  Simulator simulator;
  Mutex mutex(&simulator);
  CondVar cond(&simulator);
  bool timed_out = false;
  simulator.spawn("waiter", [&] {
    LockGuard lock(mutex);
    timed_out = cond.wait_until(mutex, microseconds(40));
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(timed_out);
}

TEST(Sync, SemaphoreBlocksAtZero) {
  Simulator simulator;
  Semaphore semaphore(&simulator, 2);
  std::vector<int> order;
  simulator.spawn("consumer", [&] {
    semaphore.acquire();
    semaphore.acquire();
    order.push_back(1);
    semaphore.acquire();  // blocks until release
    order.push_back(3);
  });
  simulator.spawn("producer", [&] {
    simulator.advance(microseconds(5));
    order.push_back(2);
    semaphore.release();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Sync, SemaphoreTryAcquire) {
  Simulator simulator;
  Semaphore semaphore(&simulator, 1);
  simulator.spawn("f", [&] {
    EXPECT_TRUE(semaphore.try_acquire());
    EXPECT_FALSE(semaphore.try_acquire());
    semaphore.release(3);
    EXPECT_EQ(semaphore.available(), 3u);
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

TEST(Sync, BarrierReleasesAllPartiesTogether) {
  Simulator simulator;
  Barrier barrier(&simulator, 3);
  std::vector<Time> arrival;
  for (int i = 0; i < 3; ++i) {
    simulator.spawn(std::string("p").append(std::to_string(i)), [&, i] {
      simulator.advance(microseconds(10 * (i + 1)));
      barrier.arrive_and_wait();
      arrival.push_back(simulator.now());
    });
  }
  ASSERT_TRUE(simulator.run().is_ok());
  ASSERT_EQ(arrival.size(), 3u);
  for (Time t : arrival) EXPECT_EQ(t, microseconds(30));
}

TEST(Sync, BarrierIsReusable) {
  Simulator simulator;
  Barrier barrier(&simulator, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    simulator.spawn(std::string("p").append(std::to_string(i)), [&, i] {
      for (int round = 0; round < 3; ++round) {
        simulator.advance(microseconds(i + 1));
        barrier.arrive_and_wait();
      }
      ++rounds_done;
    });
  }
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(rounds_done, 2);
}

TEST(Sync, BoundedChannelPassesValuesInOrder) {
  Simulator simulator;
  BoundedChannel<int> channel(&simulator, 2);
  std::vector<int> received;
  simulator.spawn("producer", [&] {
    for (int i = 0; i < 5; ++i) channel.send(i);
    channel.close();
  });
  simulator.spawn("consumer", [&] {
    while (auto v = channel.receive()) received.push_back(*v);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sync, BoundedChannelBlocksProducerWhenFull) {
  Simulator simulator;
  BoundedChannel<int> channel(&simulator, 1);
  Time producer_done = -1;
  simulator.spawn("producer", [&] {
    channel.send(1);
    channel.send(2);  // blocks until the consumer drains one
    producer_done = simulator.now();
  });
  simulator.spawn("consumer", [&] {
    simulator.advance(microseconds(50));
    EXPECT_TRUE(channel.receive().has_value());
    EXPECT_TRUE(channel.receive().has_value());
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(producer_done, microseconds(50));
}

TEST(Sync, TrySendAndTryReceive) {
  Simulator simulator;
  BoundedChannel<int> channel(&simulator, 1);
  simulator.spawn("f", [&] {
    EXPECT_FALSE(channel.try_receive().has_value());
    EXPECT_TRUE(channel.try_send(7));
    EXPECT_FALSE(channel.try_send(8));  // full
    auto v = channel.try_receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

// Regression suite for the timed-wait contract (see the block_current()
// comment in simulator.hpp). The woke_by_timeout_ machinery is easy to
// get subtly wrong; these pin the intended semantics.

TEST(TimeoutSemantics, DeadlineBeatsNotifyAtTheSameTimestamp) {
  // The deadline event is scheduled when the wait begins, so at a tied
  // timestamp it has the lower sequence number and runs first; by the time
  // the racing notify executes, the waiter is already deregistered.
  Simulator simulator;
  WaitQueue queue(&simulator);
  bool timed_out = false;
  bool notify_found_waiter = true;
  simulator.spawn("waiter", [&] {
    timed_out = queue.wait(microseconds(10));
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(10));
    notify_found_waiter = queue.notify_one();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(notify_found_waiter);
}

TEST(TimeoutSemantics, NotifyStrictlyBeforeDeadlineWins) {
  Simulator simulator;
  WaitQueue queue(&simulator);
  bool timed_out = true;
  sim::Time woke_at = 0;
  simulator.spawn("waiter", [&] {
    timed_out = queue.wait(microseconds(10));
    woke_at = simulator.now();
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(9));
    EXPECT_TRUE(queue.notify_one());
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(woke_at, microseconds(9));
}

TEST(TimeoutSemantics, TimedOutWaiterLeavesTheQueue) {
  // A timeout must deregister the waiter: a later notify_one may not
  // target it, and waiter_count drops back to zero.
  Simulator simulator;
  WaitQueue queue(&simulator);
  simulator.spawn("waiter", [&] {
    EXPECT_TRUE(queue.wait(microseconds(5)));
    EXPECT_EQ(queue.waiter_count(), 0u);
    // Step past the racing notify tick before re-waiting (re-registering
    // at the tied timestamp would legitimately absorb the notify); then
    // park again: a stale registration would have consumed the notify and
    // this second episode would hang instead of timing out.
    simulator.advance(microseconds(2));
    EXPECT_TRUE(queue.wait(microseconds(20)));
    EXPECT_EQ(simulator.now(), microseconds(20));
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(5));
    // Tied with the waiter's timeout: deadline wins, queue is empty.
    EXPECT_FALSE(queue.notify_one());
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

TEST(TimeoutSemantics, TimeoutFlagResetsBetweenEpisodes) {
  // woke_by_timeout_ describes only the *latest* episode: a timed-out
  // wait followed by a notified wait reports true then false.
  Simulator simulator;
  WaitQueue queue(&simulator);
  std::vector<bool> outcomes;
  simulator.spawn("waiter", [&] {
    outcomes.push_back(queue.wait(microseconds(5)));    // times out
    outcomes.push_back(queue.wait(microseconds(100)));  // notified
    outcomes.push_back(queue.wait(microseconds(15)));   // times out again
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(8));
    EXPECT_TRUE(queue.notify_one());
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(outcomes, (std::vector<bool>{true, false, true}));
}

TEST(TimeoutSemantics, NotifiedReturnDoesNotImplyThePredicate) {
  // The rule every block_current()/wait() caller must follow: false means
  // "woken", not "your condition holds". A fiber woken by an unrelated
  // notify must re-check and re-block, and the deadline of the *retry*
  // still works.
  Simulator simulator;
  WaitQueue queue(&simulator);
  bool ready = false;
  int wakeups = 0;
  bool gave_up = false;
  simulator.spawn("waiter", [&] {
    while (!ready) {
      if (queue.wait(microseconds(30))) {
        gave_up = true;  // deadline hit before the predicate held
        return;
      }
      ++wakeups;
    }
  });
  simulator.spawn("poker", [&] {
    simulator.advance(microseconds(5));
    queue.notify_one();  // spurious: predicate still false
    simulator.advance(microseconds(5));
    ready = true;        // now it holds
    queue.notify_one();
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_FALSE(gave_up);
  EXPECT_EQ(wakeups, 2);  // one spurious, one real
}

// Regression suite for the WaitQueue/wake_generation_ contract: every
// blocking episode is its own generation, so events armed for an episode
// that already ended (stale deadlines) are no-ops forever after.

TEST(WakeGeneration, NotifiedAndReblockedFiberIgnoresTheOldDeadline) {
  // wait(deadline=100), notified at t=10, immediately re-blocked without a
  // deadline: when the *old* deadline event fires at t=100 it must not
  // spuriously wake the new episode — only the second notify at t=500 may.
  Simulator simulator;
  WaitQueue queue(&simulator);
  std::vector<Time> wake_times;
  simulator.spawn("waiter", [&] {
    EXPECT_FALSE(queue.wait(microseconds(100)));  // notified at t=10
    wake_times.push_back(simulator.now());
    EXPECT_FALSE(queue.wait());  // must sleep through the stale t=100 event
    wake_times.push_back(simulator.now());
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(10));
    EXPECT_TRUE(queue.notify_one());
    simulator.advance(microseconds(490));
    EXPECT_TRUE(queue.notify_one());
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(wake_times,
            (std::vector<Time>{microseconds(10), microseconds(500)}));
}

TEST(WakeGeneration, ReblockedFibersOwnDeadlineStillFires) {
  // Same shape, but the second episode has its own deadline: the stale
  // t=100 event is skipped, and the fresh t=200 deadline fires normally.
  Simulator simulator;
  WaitQueue queue(&simulator);
  bool second_timed_out = false;
  Time second_woke_at = 0;
  simulator.spawn("waiter", [&] {
    EXPECT_FALSE(queue.wait(microseconds(100)));
    second_timed_out = queue.wait(microseconds(200));
    second_woke_at = simulator.now();
    EXPECT_EQ(queue.waiter_count(), 0u);  // the timeout deregistered us
  });
  simulator.spawn("notifier", [&] {
    simulator.advance(microseconds(10));
    EXPECT_TRUE(queue.notify_one());
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_TRUE(second_timed_out);
  EXPECT_EQ(second_woke_at, microseconds(200));
}

// ---------------------------------------------------------- exploration ---
//
// madcheck cases: the sync primitives promise their invariants for EVERY
// legal interleaving of same-time fibers, not just the FIFO one — so each
// body is re-run across 200+ schedules (see sim/explore.hpp). On failure
// gtest prints the shrunk decision trace; replay it with MAD2_SCHEDULE.

TEST(Explore, ProducerConsumerDeliversEverythingUnderAnySchedule) {
  const auto body = []() -> Status {
    Simulator simulator;
    BoundedChannel<int> channel(&simulator, 2);
    std::map<int, int> received;
    for (int p = 0; p < 3; ++p) {
      simulator.spawn("producer" + std::to_string(p), [&, p] {
        for (int i = 0; i < 4; ++i) channel.send(p * 100 + i);
      });
    }
    int producers_pending = 12;
    for (int c = 0; c < 2; ++c) {
      simulator.spawn("consumer" + std::to_string(c), [&] {
        while (producers_pending > 0) {
          auto value = channel.try_receive();
          if (value.has_value()) {
            ++received[*value];
            --producers_pending;
          } else {
            simulator.yield_fiber();
          }
        }
      });
    }
    const Status run = simulator.run();
    if (!run.is_ok()) return run;
    if (received.size() != 12) {
      return internal_error("lost or duplicated items: " +
                            std::to_string(received.size()) + "/12 keys");
    }
    for (const auto& [value, count] : received) {
      if (count != 1) {
        return internal_error("value " + std::to_string(value) +
                              " delivered " + std::to_string(count) +
                              " times");
      }
    }
    return Status::ok();
  };
  ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const ExploreResult result = explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(Explore, MutexAndCondVarInvariantsHoldUnderAnySchedule) {
  const auto body = []() -> Status {
    Simulator simulator;
    Mutex mutex(&simulator);
    CondVar cond(&simulator);
    int inside = 0;       // fibers inside the critical section
    int max_inside = 0;
    int turn = 0;         // round-robin baton passed via the condvar
    for (int f = 0; f < 4; ++f) {
      simulator.spawn(std::string("f").append(std::to_string(f)), [&, f] {
        LockGuard lock(mutex);
        while (turn != f) cond.wait(mutex);
        ++inside;
        max_inside = std::max(max_inside, inside);
        simulator.advance(microseconds(3));  // hold across a block
        --inside;
        ++turn;
        cond.notify_all();
      });
    }
    const Status run = simulator.run();
    if (!run.is_ok()) return run;
    if (max_inside != 1) {
      return internal_error("mutual exclusion violated: " +
                            std::to_string(max_inside) + " holders");
    }
    if (turn != 4) {
      return internal_error("baton stopped at " + std::to_string(turn));
    }
    return Status::ok();
  };
  ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const ExploreResult result = explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

TEST(Explore, BarrierAndSemaphoreHoldUnderAnySchedule) {
  const auto body = []() -> Status {
    Simulator simulator;
    Barrier barrier(&simulator, 3);
    Semaphore tokens(&simulator, 2);  // at most 2 fibers in the "resource"
    int in_resource = 0;
    int max_in_resource = 0;
    int through = 0;
    for (int f = 0; f < 3; ++f) {
      simulator.spawn(std::string("w").append(std::to_string(f)), [&] {
        for (int round = 0; round < 2; ++round) {
          tokens.acquire();
          ++in_resource;
          max_in_resource = std::max(max_in_resource, in_resource);
          simulator.yield_fiber();
          --in_resource;
          tokens.release();
          barrier.arrive_and_wait();
        }
        ++through;
      });
    }
    const Status run = simulator.run();
    if (!run.is_ok()) return run;
    if (max_in_resource > 2) {
      return internal_error("semaphore admitted " +
                            std::to_string(max_in_resource));
    }
    if (through != 3) {
      return internal_error("only " + std::to_string(through) +
                            " fibers finished");
    }
    return Status::ok();
  };
  ExploreOptions options;
  options.random_runs = 200;
  options.max_exhaustive_runs = 50;
  const ExploreResult result = explore(body, options);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(result.runs, 200);
}

}  // namespace
}  // namespace mad2::sim
