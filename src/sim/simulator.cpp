#include "sim/simulator.hpp"

#include <sys/mman.h>

#include <string>

#include "obs/trace.hpp"

namespace mad2::sim {

// ---------------------------------------------------------------- Fiber ---

Fiber::Fiber(Simulator* simulator, std::uint64_t id, std::string name,
             std::function<void()> body, bool daemon, std::size_t stack_bytes)
    : simulator_(simulator),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon),
      stack_(mmap(nullptr, stack_bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)),
      stack_bytes_(stack_bytes) {
  MAD2_CHECK(stack_ != MAP_FAILED, "fiber stack mmap failed");
  MAD2_CHECK(getcontext(&context_) == 0, "getcontext failed");
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // fibers never fall off the trampoline
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

Fiber::~Fiber() { munmap(stack_, stack_bytes_); }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t self = (static_cast<std::uintptr_t>(hi) << 32) |
                              static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_body();
}

void Fiber::run_body() {
  body_();
  state_ = State::kDone;
  // Hand control back to the scheduler; a kDone fiber is never resumed, so
  // this switch never returns.
  swapcontext(&context_, &simulator_->scheduler_context_);
  MAD2_CHECK(false, "resumed a finished fiber");
}

// ------------------------------------------------------------ Simulator ---

namespace {
// Ambient default for new simulators (see the header). Plain global on
// purpose: the library is single-host-thread by contract, and keeping it
// an ordinary variable lets ThreadSanitizer flag violations of that rule.
SchedulePolicy* g_ambient_schedule_policy = nullptr;
}  // namespace

void Simulator::set_ambient_schedule_policy(SchedulePolicy* policy) {
  g_ambient_schedule_policy = policy;
}

SchedulePolicy* Simulator::ambient_schedule_policy() {
  return g_ambient_schedule_policy;
}

Simulator::Simulator(Options options)
    : options_(options), schedule_policy_(g_ambient_schedule_policy) {}

// Unfinished fibers are discarded without stack unwinding: objects on
// their stacks are not destroyed. Sessions are expected to drain via run().
Simulator::~Simulator() = default;

Fiber* Simulator::spawn(std::string name, std::function<void()> body) {
  auto fiber = std::unique_ptr<Fiber>(
      new Fiber(this, next_fiber_id_++, std::move(name), std::move(body),
                /*daemon=*/false, options_.default_stack_bytes));
  Fiber* raw = fiber.get();
  fibers_.push_back(std::move(fiber));
  schedule_fiber(raw, now_);
  return raw;
}

Fiber* Simulator::spawn_daemon(std::string name, std::function<void()> body) {
  auto fiber = std::unique_ptr<Fiber>(
      new Fiber(this, next_fiber_id_++, std::move(name), std::move(body),
                /*daemon=*/true, options_.default_stack_bytes));
  Fiber* raw = fiber.get();
  fibers_.push_back(std::move(fiber));
  schedule_fiber(raw, now_);
  return raw;
}

std::size_t Simulator::live_fiber_count() const {
  std::size_t n = 0;
  for (const auto& fiber : fibers_) {
    if (fiber->state() != Fiber::State::kDone) ++n;
  }
  return n;
}

void Simulator::post_at(Time t, std::function<void()> fn) {
  MAD2_CHECK(t >= now_, "cannot post events in the past");
  events_.push(Event{t, next_sequence_++, nullptr, 0, std::move(fn)});
}

void Simulator::schedule_fiber(Fiber* fiber, Time t) {
  events_.push(Event{t, next_sequence_++, fiber, fiber->wake_generation_,
                     nullptr});
}

// Stale events are filtered *before* tie sets are shown to a
// SchedulePolicy so that no-op events are never decision points and
// recorded traces stay canonical.
bool Simulator::is_stale(const Event& event) {
  return event.fiber != nullptr &&
         (event.generation != event.fiber->wake_generation_ ||
          event.fiber->state() == Fiber::State::kDone);
}

bool Simulator::next_event(Event* out) {
  while (!events_.empty()) {
    Event first = events_.top();
    events_.pop();
    if (is_stale(first)) continue;
    if (schedule_policy_ == nullptr) {
      *out = std::move(first);
      return true;
    }
    // Gather every other live event tied at this timestamp, in FIFO
    // (sequence) order, and let the policy pick the one that runs.
    std::vector<Event> ties;
    const Time tie_time = first.time;
    ties.push_back(std::move(first));
    while (!events_.empty() && events_.top().time == tie_time) {
      Event next = events_.top();
      events_.pop();
      if (!is_stale(next)) ties.push_back(std::move(next));
    }
    std::size_t pick = 0;
    if (ties.size() > 1) {
      pick = schedule_policy_->choose(ties.size());
      if (pick >= ties.size()) pick = ties.size() - 1;
    }
    for (std::size_t i = 0; i < ties.size(); ++i) {
      if (i != pick) events_.push(std::move(ties[i]));
    }
    *out = std::move(ties[pick]);
    return true;
  }
  return false;
}

Status Simulator::run() {
  MAD2_CHECK(!running_, "Simulator::run() is not reentrant");
  MAD2_CHECK(current_ == nullptr, "run() called from inside a fiber");
  running_ = true;
  stop_requested_ = false;

  // Publish this simulator's clock to the tracing layer for the duration
  // of the run (restored on exit so stacked runs observe the right one).
  obs::ExecContext& exec = obs::exec_context();
  const sim::Time* previous_clock = exec.now;
  exec.now = &now_;

  Event event;
  while (!stop_requested_ && next_event(&event)) {
    MAD2_CHECK(event.time >= now_, "event queue went backwards");
    now_ = event.time;

    if (event.fiber == nullptr) {
      event.callback();
      continue;
    }

    Fiber* fiber = event.fiber;
    if (fiber->state() == Fiber::State::kReady) {
      resume(fiber);
    } else if (fiber->state() == Fiber::State::kBlocked) {
      // A block_current() deadline fired before anyone called wake().
      fiber->woke_by_timeout_ = true;
      fiber->wake_generation_++;
      fiber->state_ = Fiber::State::kReady;
      resume(fiber);
    }
    // kRunning cannot occur (single resume at a time); kDone was filtered
    // as stale by next_event().
  }

  running_ = false;
  exec.now = previous_clock;

  std::string stuck;
  for (const auto& fiber : fibers_) {
    if (fiber->state() != Fiber::State::kDone && !fiber->is_daemon()) {
      if (!stuck.empty()) stuck += ", ";
      stuck += fiber->name();
    }
  }
  if (!stuck.empty() && !stop_requested_) {
    return failed_precondition("simulation ended with stuck fibers: " +
                               stuck);
  }
  return Status::ok();
}

void Simulator::resume(Fiber* fiber) {
  fiber->state_ = Fiber::State::kRunning;
  current_ = fiber;
  // Trace events attribute to the running fiber's track; callbacks and
  // the scheduler itself fall back to track 0 ("main").
  obs::ExecContext& exec = obs::exec_context();
  exec.fiber = fiber->id();
  exec.fiber_name = fiber->name().c_str();
  swapcontext(&scheduler_context_, &fiber->context_);
  exec.fiber = 0;
  exec.fiber_name = "main";
  current_ = nullptr;
}

void Simulator::switch_out() {
  Fiber* fiber = current_;
  swapcontext(&fiber->context_, &scheduler_context_);
}

void Simulator::advance(Duration d) {
  MAD2_CHECK(current_ != nullptr, "advance() outside a fiber");
  MAD2_CHECK(d >= 0, "advance() with negative duration");
  Fiber* fiber = current_;
  fiber->state_ = Fiber::State::kReady;
  schedule_fiber(fiber, now_ + d);
  switch_out();
}

bool Simulator::block_current(Time deadline) {
  MAD2_CHECK(current_ != nullptr, "block_current() outside a fiber");
  Fiber* fiber = current_;
  fiber->state_ = Fiber::State::kBlocked;
  fiber->woke_by_timeout_ = false;
  if (deadline != kNever) {
    MAD2_CHECK(deadline >= now_, "deadline in the past");
    schedule_fiber(fiber, deadline);
  }
  switch_out();
  return fiber->woke_by_timeout_;
}

void Simulator::wake(Fiber* fiber) {
  MAD2_CHECK(fiber != nullptr, "wake(nullptr)");
  if (fiber->state() != Fiber::State::kBlocked) return;
  fiber->wake_generation_++;
  fiber->state_ = Fiber::State::kReady;
  schedule_fiber(fiber, now_);
}

}  // namespace mad2::sim
