// MetricsRegistry: one snapshot surface for everything the stack counts.
//
// The registry owns named Histograms (latency distributions recorded by
// the Switch: "<channel>.pack_to_wire", ".wire_to_unpack", ".e2e") and
// named scalar gauges/counters. Session::export_metrics copies each
// counter in from its one owner (the Switch's TrafficStats, each node's
// MemCounters, each reliable link's ReliabilityCounters, the IB ports and
// progress engines), and VirtualChannel::export_metrics adds the flow
// rows, so benches and CI read one flat JSON. The registry holds a
// snapshot of those values, not a second owner.
//
// It also carries the e2e correlation state: the sending Switch pushes a
// begin-packing timestamp per (channel, src, dst) flow, the receiving
// Switch pops it at end-unpacking. Channels deliver messages in FIFO
// order per connection, so a deque per flow matches stamps exactly; the
// deque is capped so a one-sided flow (receiver never draining) cannot
// grow without bound.
//
// Like the TraceRecorder, a registry can be installed process-wide; the
// Session installs its own when the config enables tracing and none is
// ambient.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "obs/histogram.hpp"
#include "sim/time.hpp"

namespace mad2::obs {

class MetricsRegistry {
 public:
  /// Find-or-create. References stay valid for the registry's lifetime
  /// (callers cache the pointer and skip the map lookup on hot paths).
  [[nodiscard]] Histogram* histogram(const std::string& name);
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Scalar counters/gauges, set-or-overwrite semantics.
  void set_value(const std::string& name, std::int64_t value);
  void add_value(const std::string& name, std::int64_t delta);
  [[nodiscard]] std::int64_t value(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::int64_t>& values() const {
    return values_;
  }

  /// E2e stamp FIFO per flow key (we use "<channel>/<src>-<dst>").
  void push_stamp(const std::string& flow, sim::Time t);
  /// Pops the oldest stamp; returns false when the flow has none
  /// (stamp dropped by the cap, or sender-side tracing was off).
  [[nodiscard]] bool pop_stamp(const std::string& flow, sim::Time* t);

  void clear();

  /// Flat JSON: {"values": {...}, "histograms": {name: {count, p50_us,
  /// p95_us, p99_us, max_us, mean_us}}}. Keys sorted (std::map), so the
  /// output is deterministic.
  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  static constexpr std::size_t kMaxStampsPerFlow = 4096;

 private:
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::int64_t> values_;
  std::map<std::string, std::deque<sim::Time>> stamps_;
};

/// Process-wide registry, mirroring the recorder install rules.
void install_metrics(MetricsRegistry* registry);
void uninstall_metrics(MetricsRegistry* registry);
[[nodiscard]] MetricsRegistry* metrics();

}  // namespace mad2::obs
