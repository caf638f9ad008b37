#include "sim/explore.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "util/debug_hook.hpp"
#include "util/rng.hpp"

namespace mad2::sim {

namespace {

/// The one policy madcheck needs: replay a trace prefix exactly, then
/// either stay on FIFO (replay / exhaustive prefixes) or take seeded
/// random choices (random walks). Records the tie width and the decision
/// actually taken at every decision point.
class TracePolicy : public SchedulePolicy {
 public:
  TracePolicy(ScheduleTrace prefix, std::uint64_t seed, bool random_tail)
      : prefix_(std::move(prefix)), rng_(seed), random_tail_(random_tail) {}

  std::size_t choose(std::size_t count) override {
    std::size_t pick = 0;
    if (taken_.size() < prefix_.size()) {
      pick = std::min<std::size_t>(prefix_[taken_.size()], count - 1);
    } else if (random_tail_) {
      pick = static_cast<std::size_t>(rng_.next_below(count));
    }
    counts_.push_back(static_cast<std::uint32_t>(count));
    taken_.push_back(static_cast<std::uint32_t>(pick));
    return pick;
  }

  [[nodiscard]] const ScheduleTrace& taken() const { return taken_; }
  [[nodiscard]] const std::vector<std::uint32_t>& counts() const {
    return counts_;
  }

 private:
  ScheduleTrace prefix_;
  Rng rng_;
  bool random_tail_;
  ScheduleTrace taken_;
  std::vector<std::uint32_t> counts_;
};

/// Installs a policy as the ambient default (and restores the previous one
/// on scope exit) so bodies that construct their own Simulator — usually
/// buried inside a mad::Session — come under the explorer's control.
class ScopedAmbientPolicy {
 public:
  explicit ScopedAmbientPolicy(SchedulePolicy* policy)
      : previous_(Simulator::ambient_schedule_policy()) {
    Simulator::set_ambient_schedule_policy(policy);
  }
  ~ScopedAmbientPolicy() {
    Simulator::set_ambient_schedule_policy(previous_);
  }
  ScopedAmbientPolicy(const ScopedAmbientPolicy&) = delete;
  ScopedAmbientPolicy& operator=(const ScopedAmbientPolicy&) = delete;

 private:
  SchedulePolicy* previous_;
};

Status run_under(const ExploreBody& body, TracePolicy& policy) {
  ScopedAmbientPolicy scope(&policy);
  return body();
}

void strip_trailing_zeros(ScheduleTrace& trace) {
  while (!trace.empty() && trace.back() == 0) trace.pop_back();
}

/// Minimize a failing trace: find the shortest failing prefix (binary
/// search — failure is not strictly monotonic in prefix length, but in
/// practice the essential deviation is a prefix property), then try to
/// zero individual non-FIFO decisions. Every candidate is validated by
/// re-running the body; `budget` caps those re-runs.
ScheduleTrace shrink_trace(const ExploreBody& body, ScheduleTrace trace,
                           std::size_t budget) {
  auto fails = [&](const ScheduleTrace& candidate) {
    if (budget == 0) return false;
    --budget;
    TracePolicy policy(candidate, 0, /*random_tail=*/false);
    return !run_under(body, policy).is_ok();
  };

  strip_trailing_zeros(trace);  // semantically a no-op: beyond-prefix = 0

  // Shortest failing prefix. Invariant kept by the search: `trace`
  // (length hi) fails; probe lengths below it.
  std::size_t lo = 0;
  std::size_t hi = trace.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ScheduleTrace candidate(trace.begin(),
                            trace.begin() + static_cast<std::ptrdiff_t>(mid));
    if (fails(candidate)) {
      trace = std::move(candidate);
      strip_trailing_zeros(trace);
      hi = trace.size();
    } else {
      lo = mid + 1;
    }
  }

  // Zero out non-essential deviations, one at a time until a fixpoint.
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == 0) continue;
      ScheduleTrace candidate = trace;
      candidate[i] = 0;
      strip_trailing_zeros(candidate);
      if (fails(candidate)) {
        trace = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return trace;
}

void record_failure(ExploreResult& result, const ExploreBody& body,
                    ScheduleTrace trace, const Status& status,
                    const ExploreOptions& options) {
  result.ok = false;
  result.failure = status.to_string();
  // Dump the trace ring before shrinking reruns the body and overwrites
  // the failing run's events with passing-schedule noise.
  invoke_failure_dump_hook(result.failure.c_str());
  strip_trailing_zeros(trace);
  if (options.shrink) {
    trace = shrink_trace(body, std::move(trace), options.shrink_budget);
  }
  result.trace = std::move(trace);
  result.replay_hint = std::string(kScheduleEnvVar) + "=" +
                       trace_to_string(result.trace);
}

}  // namespace

std::string trace_to_string(const ScheduleTrace& trace) {
  std::string text;
  for (std::uint32_t choice : trace) {
    if (!text.empty()) text += ",";
    text += std::to_string(choice);
  }
  return text;
}

ScheduleTrace trace_from_string(std::string_view text) {
  ScheduleTrace trace;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(start, end - start);
    if (!token.empty()) {
      std::uint32_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      MAD2_CHECK(ec == std::errc() && ptr == token.data() + token.size(),
                 "bad MAD2_SCHEDULE entry");
      trace.push_back(value);
    }
    start = end + 1;
  }
  return trace;
}

std::string ExploreResult::summary() const {
  std::string text = "madcheck: " + std::to_string(runs) +
                     " schedule(s) explored";
  if (ok) return text + ", all invariants held";
  text += "; FAILED: " + failure;
  text += "\n  shrunk trace: [" + trace_to_string(trace) + "]";
  text += "\n  replay with: " + replay_hint;
  return text;
}

ReplayOutcome run_with_schedule(const ExploreBody& body,
                                const ScheduleTrace& trace) {
  TracePolicy policy(trace, 0, /*random_tail=*/false);
  ReplayOutcome outcome;
  outcome.status = run_under(body, policy);
  outcome.taken = policy.taken();
  return outcome;
}

ExploreResult explore(const ExploreBody& body, ExploreOptions options) {
  ExploreResult result;

  // Replay mode: MAD2_SCHEDULE pins the whole call to one schedule.
  if (options.env_replay) {
    if (const char* env = std::getenv(kScheduleEnvVar)) {
      const ScheduleTrace trace = trace_from_string(env);
      TracePolicy policy(trace, 0, /*random_tail=*/false);
      const Status status = run_under(body, policy);
      result.runs = 1;
      if (!status.is_ok()) {
        // Report verbatim — no shrinking during a pinned replay.
        result.ok = false;
        result.failure = status.to_string();
        invoke_failure_dump_hook(result.failure.c_str());
        result.trace = trace;
        result.replay_hint =
            std::string(kScheduleEnvVar) + "=" + trace_to_string(trace);
      }
      return result;
    }
  }

  // FIFO baseline: the schedule every other test in the repo runs under.
  {
    TracePolicy policy({}, 0, /*random_tail=*/false);
    const Status status = run_under(body, policy);
    ++result.runs;
    if (!status.is_ok()) {
      record_failure(result, body, policy.taken(), status, options);
      return result;
    }
  }

  // Seeded random walks.
  for (int run = 0; run < options.random_runs; ++run) {
    // SplitMix-style mix keeps per-run streams decorrelated even for
    // adjacent run indices.
    const std::uint64_t seed =
        (options.seed + 0x9e3779b97f4a7c15ULL * (run + 1)) ^ 0x5bf03635ULL;
    TracePolicy policy({}, seed, /*random_tail=*/true);
    const Status status = run_under(body, policy);
    ++result.runs;
    if (!status.is_ok()) {
      record_failure(result, body, policy.taken(), status, options);
      return result;
    }
  }

  // Bounded-exhaustive enumeration (delay-bounded DFS): children extend a
  // passing run's recorded trace with one extra non-FIFO decision, so
  // every schedule with <= delay_bound deviations is eventually visited
  // (subject to the run cap).
  if (options.max_exhaustive_runs > 0) {
    std::vector<ScheduleTrace> stack;
    stack.push_back({});
    std::size_t exhaustive_runs = 0;
    while (!stack.empty() &&
           exhaustive_runs < options.max_exhaustive_runs) {
      const ScheduleTrace prefix = std::move(stack.back());
      stack.pop_back();
      TracePolicy policy(prefix, 0, /*random_tail=*/false);
      const Status status = run_under(body, policy);
      ++exhaustive_runs;
      ++result.runs;
      if (!status.is_ok()) {
        record_failure(result, body, policy.taken(), status, options);
        return result;
      }
      const auto& taken = policy.taken();
      const auto& counts = policy.counts();
      const int deviations = static_cast<int>(
          std::count_if(taken.begin(), taken.end(),
                        [](std::uint32_t c) { return c != 0; }));
      if (deviations >= options.delay_bound) continue;
      for (std::size_t step = counts.size(); step-- > prefix.size();) {
        for (std::uint32_t alt = 1; alt < counts[step]; ++alt) {
          ScheduleTrace child(taken.begin(),
                              taken.begin() +
                                  static_cast<std::ptrdiff_t>(step));
          child.push_back(alt);
          stack.push_back(std::move(child));
        }
      }
    }
  }

  return result;
}

}  // namespace mad2::sim
