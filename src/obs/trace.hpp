// madtrace: per-block lifecycle tracing for the whole stack.
//
// A TraceRecorder is a fixed-capacity ring of POD trace events stamped
// with virtual time (sim::Time) and the id of the fiber that produced
// them. Instrumentation sites use the MAD2_TRACE_SPAN / MAD2_TRACE_EVENT
// macros below: when no recorder is installed (or the event's category is
// masked off) a site costs one global load and a branch; when enabled it
// costs one ring write. Nothing here ever charges virtual time, so a
// traced run is bit-identical to an untraced one — tracing observes the
// simulation, it never perturbs it.
//
// The clock is ambient rather than owned: the Simulator publishes a
// pointer to its virtual clock and the identity of the running fiber
// through exec_context() while run() is active (single-OS-thread
// contract), so one recorder can observe any number of simulators —
// benches install a process-wide recorder once and every Session built
// afterwards traces into it.
//
// Enablement, in precedence order:
//   1. MAD2_TRACE=<categories> env (ensure_env_recorder(); process-wide,
//      never uninstalled, so failure dumps work after sessions die);
//   2. a `trace` stanza in the session config (recorder owned by that
//      Session, uninstalled with it);
//   3. a recorder the test/bench installed by hand via install_recorder().
//
// On any MAD2_CHECK failure or madcheck invariant failure, the installed
// recorder auto-dumps its tail to stderr — and, when MAD2_TRACE_DUMP
// names a directory, full Chrome-trace + metrics JSON files land there so
// failing runs ship with a timeline (see dump_on_failure).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mad2::obs {

/// Event categories, one bit each (MAD2_TRACE=fwd,switch style masks).
enum class Category : std::uint32_t {
  kSwitch = 1u << 0,  // TM selection, BMM routing, flush reasons
  kBmm = 1u << 1,     // aggregation / copy decisions
  kTm = 1u << 2,      // post/complete, credit waits inside TMs
  kNet = 1u << 3,     // driver + reliable-shim work (retransmits, acks)
  kFwd = 1u << 4,     // forwarding pipeline (per-packet hop timing)
  kRail = 1u << 5,    // rail scheduler (per-segment post/land, resubmits)
};

inline constexpr std::uint32_t kAllCategories = 0x3fu;

[[nodiscard]] std::string_view to_string(Category category);

/// Parse "fwd,switch" / "all" into a category mask. Unknown names fail.
[[nodiscard]] bool parse_categories(std::string_view text,
                                    std::uint32_t* mask);

/// Who is executing right now: the running simulator's clock and fiber.
/// Published by Simulator::run()/resume(); zeroed outside a run. The
/// single-OS-thread contract makes one process-global context correct.
struct ExecContext {
  const sim::Time* now = nullptr;  // null outside Simulator::run()
  std::uint64_t fiber = 0;         // 0 = scheduler/callback context
  const char* fiber_name = "main";
};

[[nodiscard]] ExecContext& exec_context();

/// One ring slot. `name`/`detail` must be string literals (or otherwise
/// outlive the recorder): the ring never copies or frees them.
struct TraceEvent {
  sim::Time ts = 0;
  sim::Duration dur = -1;  // -1: instant event; >= 0: completed span
  std::uint64_t track = 0;
  const char* name = nullptr;
  const char* detail = nullptr;  // optional static string
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  Category cat = Category::kSwitch;
};

/// One SLO watchdog rule (`slo=<channel>:<p99_us>` on the trace stanza):
/// after Session::run() the watchdog compares the channel's e2e latency
/// histograms against the threshold and auto-dumps the weaved cross-node
/// trace on breach (see Session::check_slo_rules).
struct SloRule {
  std::string channel;
  std::int64_t p99_us = 0;
};

/// Recorder configuration (the session config `trace` stanza maps here).
struct TraceConfig {
  std::uint32_t categories = kAllCategories;
  std::size_t ring_kb = 256;
  /// Channel names the Switch-level instrumentation is restricted to;
  /// empty means every channel. Other categories ignore this filter.
  std::vector<std::string> channels;
  /// Trace-context propagation: virtual-channel packets carry a hop trail
  /// in their extension block and rail lanes emit segment-boundary
  /// events. Off keeps the wire byte stream bit-identical to an untraced
  /// session.
  bool propagation = false;
  /// SLO watchdog thresholds, checked after the session runs.
  std::vector<SloRule> slo;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] bool channel_enabled(const std::string& name) const;

  /// One ring write. Reads timestamp/track from exec_context() when
  /// `ts` is negative (the common case; spans pass their own start).
  void record(Category cat, const char* name, const char* detail,
              sim::Time ts, sim::Duration dur, std::uint64_t a0,
              std::uint64_t a1);

  /// Events in recording order, oldest first (at most capacity()).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Total record() calls; recorded() - size() events were overwritten.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap (flight-recorder truncation). Exported as
  /// the `trace.dropped_events` metric so a wrapped ring is never silent.
  [[nodiscard]] std::uint64_t dropped_events() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Interned track names (fiber names copied at first sight, so they
  /// survive the simulator that owned the fibers).
  [[nodiscard]] const std::map<std::uint64_t, std::string>& tracks() const {
    return tracks_;
  }

 private:
  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::map<std::uint64_t, std::string> tracks_;
};

// --- Ambient installation ---------------------------------------------------

/// Install `recorder` as the process-wide trace sink and raise the fast
/// category mask. Also arms the failure-dump hook (util/debug_hook.hpp).
void install_recorder(TraceRecorder* recorder);
/// Remove `recorder` if it is the installed one (no-op otherwise).
void uninstall_recorder(TraceRecorder* recorder);
[[nodiscard]] TraceRecorder* recorder();

/// Build and install a process-lifetime recorder from the MAD2_TRACE /
/// MAD2_TRACE_RING_KB environment (idempotent; returns the recorder, or
/// nullptr when MAD2_TRACE is unset or an ambient recorder already
/// exists). Never uninstalled: auto-dumps keep working after the Session
/// that triggered creation has died.
TraceRecorder* ensure_env_recorder();

/// Name of the enablement environment variable ("fwd,switch" or "all").
inline constexpr const char* kTraceEnvVar = "MAD2_TRACE";
/// Optional ring-size override (KiB) for the env-created recorder.
inline constexpr const char* kTraceRingEnvVar = "MAD2_TRACE_RING_KB";
/// Directory auto-dumps write trace/metrics JSON files into.
inline constexpr const char* kTraceDumpEnvVar = "MAD2_TRACE_DUMP";

// --- Hot-path check ---------------------------------------------------------

namespace detail {
/// Installed recorder's category mask; 0 when no recorder is installed.
extern std::uint32_t g_trace_mask;
extern TraceRecorder* g_recorder;
}  // namespace detail

[[nodiscard]] inline bool trace_enabled(Category cat) {
  return (detail::g_trace_mask & static_cast<std::uint32_t>(cat)) != 0;
}

/// Instant event on the current track at the current virtual time.
inline void trace_event(Category cat, const char* name,
                        const char* detail = nullptr, std::uint64_t a0 = 0,
                        std::uint64_t a1 = 0) {
  detail::g_recorder->record(cat, name, detail, -1, -1, a0, a1);
}

/// RAII span: stamps its start on construction, writes one complete event
/// (start + duration) on destruction. Construct only behind a
/// trace_enabled() check — the macro below does — so the disabled cost
/// stays one branch.
class TraceSpan {
 public:
  TraceSpan(Category cat, const char* name, const char* detail = nullptr)
      : cat_(cat), name_(name), detail_(detail) {
    if (trace_enabled(cat_)) {
      const ExecContext& context = exec_context();
      start_ = context.now != nullptr ? *context.now : 0;
      active_ = true;
    }
  }
  ~TraceSpan() {
    // The recorder can be uninstalled while a span is open (session
    // teardown); drop the event rather than write through null.
    if (!active_ || detail::g_recorder == nullptr) return;
    const ExecContext& context = exec_context();
    const sim::Time end = context.now != nullptr ? *context.now : start_;
    detail::g_recorder->record(cat_, name_, detail_, start_, end - start_,
                               a0_, a1_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach numeric arguments (exported as args.a0/args.a1).
  void args(std::uint64_t a0, std::uint64_t a1 = 0) {
    a0_ = a0;
    a1_ = a1;
  }
  [[nodiscard]] bool active() const { return active_; }

 private:
  Category cat_;
  const char* name_;
  const char* detail_;
  sim::Time start_ = 0;
  std::uint64_t a0_ = 0;
  std::uint64_t a1_ = 0;
  bool active_ = false;
};

// --- Failure dumps ----------------------------------------------------------

/// Dump the installed recorder's tail (last ~64 events) to stderr and,
/// when MAD2_TRACE_DUMP (or set_dump_directory) names a directory, write
/// full Chrome-trace and metrics JSON files there. No-op without an
/// installed recorder. Wired into MAD2_CHECK aborts, madcheck invariant
/// failures and reliable-shim give-ups via the util failure hook.
void dump_on_failure(const char* reason);

/// Test hook: override the dump directory (empty string restores the
/// MAD2_TRACE_DUMP environment lookup).
void set_dump_directory(std::string directory);
/// Path of the most recent Chrome-trace dump file ("" if none yet).
[[nodiscard]] const std::string& last_dump_path();

}  // namespace mad2::obs

// --- Instrumentation macros -------------------------------------------------
//
// MAD2_OBS_NO_TRACE compiles every site to nothing (cmake -DMAD2_NO_TRACE=ON);
// the default build keeps them at one global load + branch when disabled.

#ifdef MAD2_OBS_NO_TRACE

#define MAD2_TRACE_EVENT(cat, ...) \
  do {                             \
  } while (0)
#define MAD2_TRACE_SPAN(var, cat, name, ...) \
  ::mad2::obs::TraceSpan var {               \
    (cat), (name)                            \
  }

namespace mad2::obs::detail {
// Keeps the span variable a real (inactive) TraceSpan so .args() compiles.
}  // namespace mad2::obs::detail

#else

/// Instant event: MAD2_TRACE_EVENT(cat, "name"[, "detail"[, a0[, a1]]]).
/// Arguments are not evaluated when the category is disabled.
#define MAD2_TRACE_EVENT(cat, ...)                       \
  do {                                                   \
    if (::mad2::obs::trace_enabled(cat)) {               \
      ::mad2::obs::trace_event((cat), __VA_ARGS__);      \
    }                                                    \
  } while (0)

/// Named span object: MAD2_TRACE_SPAN(span, cat, "name"[, "detail"]);
/// call span.args(a0, a1) before scope exit to attach arguments.
#define MAD2_TRACE_SPAN(var, cat, ...) \
  ::mad2::obs::TraceSpan var {         \
    (cat), __VA_ARGS__                 \
  }

#endif  // MAD2_OBS_NO_TRACE
