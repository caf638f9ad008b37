// The benchmark's three workloads and its host/driver calibrations. Each
// workload builds one simulated cluster through the public API, runs it
// once, checks every delivered byte, and returns both clocks' numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace mbench {

/// One execution of a workload.
struct RepResult {
  // Host clock.
  double setup_s = 0.0;  ///< config build -> Session::run() call
  double run_s = 0.0;    ///< Session::run()
  // Outcome of the correctness checks.
  std::uint64_t attempted = 0;  ///< application messages attempted
  std::uint64_t delivered = 0;  ///< delivered exactly once, in order, intact
  std::uint64_t failed = 0;     ///< messages lost/corrupt + run violations
  std::map<std::string, std::uint64_t> violations;
  // Virtual clock: one-way latency of the latency-class messages and the
  // goodput of the bandwidth-class messages.
  std::vector<double> lat_us;
  double bw_mbs = 0.0;
  /// Per-layer metrics (complete only for traced executions).
  std::map<std::string, double> layer;
  /// Spans of a traced execution.
  SpanLog spans;
};

/// Runs one execution of a workload on `seed`. A traced execution also
/// records host-clock stamps, spans and the gateway-queue sampler.
using WorkloadFn = RepResult (*)(std::uint64_t seed, bool traced);

/// nullptr for an unknown name. Names: pingpong, gateway, fabric.
WorkloadFn find_workload(const std::string& name);

/// Host and raw-driver calibration measured in the calling process: the
/// per-layer metrics that do not depend on the workload.
std::map<std::string, double> calibrate();

}  // namespace mbench
