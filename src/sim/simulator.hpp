// Discrete-event simulator with stackful fibers.
//
// Simulated "processes" (application code on cluster nodes, gateway
// forwarding threads, NIC firmware loops) run as cooperatively-scheduled
// ucontext fibers inside one OS thread. Blocking operations suspend the
// fiber; the scheduler advances virtual time to the next pending event.
// This lets ordinary blocking library code — the whole Madeleine II stack —
// run unmodified inside the simulation, with overlap (pipelining,
// dual-buffering) modeled exactly and every run fully deterministic.
//
// Threading model: a Simulator and everything scheduled on it must be used
// from a single OS thread, and all Simulators of a process from the same
// one: they share the pool of fiber stacks (see stacks_mapped()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <ucontext.h>
#include <vector>

#include "sim/time.hpp"
#include "util/status.hpp"

namespace mad2::sim {

class Simulator;

/// Decides which runnable event executes next when several are tied at the
/// earliest virtual time. The tie set is presented in FIFO (scheduling)
/// order; returning 0 everywhere reproduces the classic behavior, and any
/// other answer is an equally legal execution of the simulated program —
/// the virtual clock never moves while a tie is being broken, so policies
/// explore *orderings*, not timings. madcheck (sim/explore.hpp) drives
/// this hook with random-walk, bounded-exhaustive, and replay policies.
///
/// choose() is only consulted for ties of two or more non-stale events;
/// singleton steps are not decision points, which keeps recorded decision
/// traces short and canonical.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  /// Pick one of `count` (>= 2) co-enabled events. Out-of-range answers
  /// are clamped to the last candidate.
  virtual std::size_t choose(std::size_t count) = 0;
};

/// A stackful fiber. Created via Simulator::spawn(); not user-constructible.
class Fiber {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool is_daemon() const { return daemon_; }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

 private:
  friend class Simulator;
  Fiber(Simulator* simulator, std::uint64_t id, std::string name,
        std::function<void()> body, bool daemon);

  static void trampoline(unsigned hi, unsigned lo);
  void run_body();
  /// Hand the stack back to the pool (see Simulator::stacks_mapped). Only
  /// once the fiber is done or being destroyed.
  void release_stack();

  Simulator* simulator_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;
  bool daemon_;
  State state_ = State::kReady;
  // Incremented on every wake; lets stale timeout events detect that the
  // blocking episode they were armed for has already ended.
  std::uint64_t wake_generation_ = 0;
  // Valid only between a block_current() return and the next block: true
  // iff the *latest* blocking episode ended via its deadline event rather
  // than wake(). Reset when the next episode begins. When a deadline event
  // and a wake() land on the same timestamp, whichever was scheduled first
  // wins (event-queue FIFO order) and the other becomes a no-op, so a
  // deadline armed before the racing notify reports a timeout.
  bool woke_by_timeout_ = false;
  // A pooled 256 kB anonymous mapping, committed page by page as fibers
  // touch it; null once returned to the pool.
  void* stack_;
  ucontext_t context_{};
};

/// The event loop: a virtual clock plus a priority queue of fiber wakeups
/// and plain callbacks. See file comment for the threading model.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Create a fiber, runnable at the current virtual time. The body runs
  /// when run() reaches its wakeup. Returned pointer is owned by the
  /// Simulator and stays valid for the Simulator's lifetime.
  Fiber* spawn(std::string name, std::function<void()> body);

  /// Like spawn(), but the fiber may still be blocked when the session ends
  /// without run() reporting a deadlock (for server/firmware loops).
  Fiber* spawn_daemon(std::string name, std::function<void()> body);

  /// Run until no event remains. OK if every non-daemon fiber finished;
  /// FAILED_PRECONDITION listing stuck fibers otherwise (deadlock).
  Status run();

  /// Abort the run loop after the current event (callable from a fiber).
  void stop() { stop_requested_ = true; }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Fiber* current() const { return current_; }
  [[nodiscard]] std::size_t live_fiber_count() const;

  /// How many fiber stacks the process has mmap'ed so far. Stacks are
  /// pooled process-wide: a fiber's stack goes back to the pool when the
  /// fiber finishes or its Simulator is destroyed, and a spawn maps a new
  /// one only when the pool is empty. Pooled stacks keep their committed
  /// pages until the process exits.
  [[nodiscard]] static std::size_t stacks_mapped();

  /// Schedule a plain callback at absolute time `t` (>= now()).
  void post_at(Time t, std::function<void()> fn);
  void post_after(Duration d, std::function<void()> fn) {
    post_at(now_ + d, std::move(fn));
  }

  // --- Fiber-context operations (must be called from inside a fiber). ---

  /// Let `d` of virtual time elapse on this fiber (models busy work).
  void advance(Duration d);

  /// Reschedule after other ready events at the same timestamp (fairness).
  void yield_fiber() { advance(0); }

  /// Block until another fiber/callback calls wake(). Returns false.
  /// With a deadline: returns true iff the deadline fired first.
  ///
  /// Contract for callers (the same rules as pthread timed waits):
  ///  - `false` means "woken", NOT "your condition holds". Anyone may have
  ///    called wake() for any reason; re-check the predicate and re-block.
  ///  - `true` means this episode's own deadline event ran. The fiber is
  ///    runnable again; a wake() arriving after the timeout targets a new
  ///    generation and cannot resurrect the expired episode.
  ///  - A deadline and a wake() at the same virtual timestamp resolve in
  ///    event-scheduling order (FIFO sequence numbers): the deadline was
  ///    scheduled when the wait began, so it beats any notify posted at
  ///    the deadline instant itself.
  /// The sync primitives (WaitQueue et al.) encode these rules; prefer
  /// them over calling this directly. Regression-tested in sim_test.cpp
  /// ("TimeoutSemantics" suite).
  bool block_current(Time deadline = kNever);

  /// Make a blocked fiber runnable at the current time. No-op if it is not
  /// blocked (wakeups are level-triggered through the sync primitives, not
  /// counted).
  void wake(Fiber* fiber);

  // --- Schedule exploration hooks (madcheck; see sim/explore.hpp). -------

  /// Install a tie-breaking policy for this simulator. nullptr restores
  /// the default FIFO order. The policy is borrowed, not owned, and must
  /// outlive every run() that uses it.
  void set_schedule_policy(SchedulePolicy* policy) {
    schedule_policy_ = policy;
  }
  [[nodiscard]] SchedulePolicy* schedule_policy() const {
    return schedule_policy_;
  }

  /// Process-wide default picked up by every subsequently constructed
  /// Simulator (explorers use this to reach simulators buried inside
  /// mad::Session et al.). Subject to the library's single-thread rule:
  /// do not flip the ambient policy from a second host thread.
  static void set_ambient_schedule_policy(SchedulePolicy* policy);
  [[nodiscard]] static SchedulePolicy* ambient_schedule_policy();

 private:
  struct Event {
    Time time;
    std::uint64_t sequence;  // FIFO tie-break for equal timestamps
    Fiber* fiber;            // nullptr => callback event
    std::uint64_t generation;
    std::function<void()> callback;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  void schedule_fiber(Fiber* fiber, Time t);
  void resume(Fiber* fiber);
  void switch_out();  // fiber -> scheduler
  /// Pop the next live event, letting schedule_policy_ break ties among
  /// the non-stale events at the earliest time. Returns false when the
  /// queue is drained.
  bool next_event(Event* out);
  /// A stale event targets a blocking episode that already ended (wrong
  /// generation or finished fiber); it is consumed without running
  /// anything and is never shown to a SchedulePolicy.
  static bool is_stale(const Event& event);

  Time now_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_fiber_id_ = 1;
  bool stop_requested_ = false;
  bool running_ = false;
  SchedulePolicy* schedule_policy_ = nullptr;
  Fiber* current_ = nullptr;
  ucontext_t scheduler_context_{};
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<std::unique_ptr<Fiber>> fibers_;

  friend class Fiber;
};

}  // namespace mad2::sim
