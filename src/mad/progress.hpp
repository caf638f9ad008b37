// Batched progress engine (ROADMAP item 4, LCI-style).
//
// One ProgressEngine runs per node when SessionConfig::fastpath is on: a
// daemon fiber that drains every pending doorbell in a single pass per
// schedule instead of one wakeup per message. Protocol modules register a
// flush callback once at setup and ring their doorbell from the hot path —
// a bit set plus one wait-queue notify, no allocation, no std::function
// construction per message. The tick then coalesces the deferred work: a
// TCP endpoint pushes every pending deferred send with one kernel crossing
// per stream (a stream whose staging reaches TcpPmm::kFlushBytes flushes
// inline), a BIP endpoint returns all owed credits with one control packet
// per peer, and a SISCI endpoint writes each dirty consumed counter once
// per peer (a fiber about to block still flushes its own first). VIA and
// SBP keep their per-message behavior.
//
// With the flag off no engine exists and every driver keeps its legacy
// per-message behavior — virtual time and the wire stay bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace mad2::mad {

/// What the engine did, exported via Session::export_metrics
/// ("progress.nodeN.*") and surfaced in the bench JSON sidecars.
struct ProgressCounters {
  std::uint64_t ticks = 0;      ///< daemon passes that found work
  std::uint64_t doorbells = 0;  ///< ring() calls from hot paths
  std::uint64_t flushes = 0;    ///< client callbacks run
};

class ProgressEngine {
 public:
  ProgressEngine(sim::Simulator* simulator, std::string name);

  /// Plain function pointer on purpose: registration happens once at
  /// setup, the hot path never builds a std::function.
  using FlushFn = void (*)(void* ctx);

  /// Register a flush client; returns its doorbell id. Must be called
  /// before the simulation runs the first tick that rings it.
  std::size_t register_client(void* ctx, FlushFn fn);

  /// Ring `client`'s doorbell: mark it pending and wake the tick fiber.
  /// Idempotent while already pending.
  void ring(std::size_t client);

  /// Spawn the tick daemon (idempotent; the session calls it once).
  void start();

  [[nodiscard]] const ProgressCounters& counters() const {
    return counters_;
  }

 private:
  void loop();

  struct Client {
    void* ctx;
    FlushFn fn;
    bool pending;
  };

  sim::Simulator* simulator_;
  std::string name_;
  std::vector<Client> clients_;
  sim::WaitQueue wq_;
  std::size_t pending_count_ = 0;
  bool started_ = false;
  ProgressCounters counters_;
};

}  // namespace mad2::mad
