// A simulated cluster node: identity, its PCI bus, and host memory costs.
//
// Calibration target is the paper's testbed — dual Intel Pentium II
// 450 MHz, 128 MB RAM, one 33 MHz / 32-bit PCI bus per node (Section 5.1):
//   - PCI peak:        33 MHz * 4 B    = 132 MB/s
//   - practical DMA:   ~126 MB/s sustained bursts (what raw BIP reaches)
//   - practical PIO:   ~85 MB/s write-combined stores (what SCI PIO does)
//   - host memcpy:     ~180 MB/s (PII-450 copy loop through L2)
// The turnaround penalty erodes full-duplex throughput on gateway nodes
// exactly as Section 6.2.2 reports (60 MB/s one-way -> ~49.5 MB/s when
// both directions are active).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hw/resource.hpp"
#include "sim/simulator.hpp"

namespace mad2::hw {

/// Per-node host-memory traffic counters. `memcpy_bytes` mirrors the
/// virtual time charged through charge_memcpy (setup-phase copies outside
/// fiber context are free and therefore not counted); the allocation /
/// recycle counters are fed by buffer pools (e.g. the forwarding layer's
/// PacketPool) so benches and tests can assert steady-state behaviour.
struct MemCounters {
  std::uint64_t memcpy_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t pool_recycle_count = 0;
  /// Bytes currently pinned for NIC access (a gauge: registration adds,
  /// deregistration subtracts), plus cumulative pin/unpin counts — fed by
  /// the registration-capable drivers (IB, VIA) so registration-cache
  /// behaviour is observable like alloc/memcpy already are.
  std::uint64_t pinned_bytes = 0;
  std::uint64_t reg_count = 0;
  std::uint64_t dereg_count = 0;
};

struct HostParams {
  /// Sustained DMA bandwidth a bus-master NIC achieves on this bus.
  double pci_dma_mbs = 126.0;
  /// Sustained PIO (CPU store) bandwidth into a mapped device window.
  double pci_pio_mbs = 85.0;
  /// PCI arbitration granularity.
  std::uint32_t pci_chunk_bytes = 4096;
  /// Fractional efficiency loss per chunk when bus ownership alternates
  /// between masters (burst-breaking; see ChunkedResource).
  double pci_turnaround_factor = 0.35;
  /// The same loss for PIO chunks (worse: write-combining refill).
  double pci_pio_turnaround_factor = 2.0;
  /// Host memory copy bandwidth (static-buffer BMM copies, etc.).
  double memcpy_mbs = 180.0;

  /// The paper's testbed node (see file comment).
  static HostParams pentium_ii_450();
};

/// One cluster node. Owned by a topology/session object; NIC ports attach
/// to its PCI bus.
class Node {
 public:
  Node(sim::Simulator* simulator, std::uint32_t id, std::string name,
       HostParams params);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const HostParams& params() const { return params_; }
  [[nodiscard]] sim::Simulator* simulator() const { return simulator_; }
  [[nodiscard]] ChunkedResource& pci_bus() { return *pci_bus_; }

  /// Charge the calling fiber for a host-memory copy of `bytes`
  /// (does not touch the PCI bus).
  void charge_memcpy(std::uint64_t bytes);

  /// Host-memory traffic accounting (see MemCounters).
  [[nodiscard]] const MemCounters& mem() const { return mem_; }
  void count_alloc() { ++mem_.alloc_count; }
  void count_pool_recycle() { ++mem_.pool_recycle_count; }
  void count_mem_register(std::uint64_t bytes) {
    mem_.pinned_bytes += bytes;
    ++mem_.reg_count;
  }
  void count_mem_deregister(std::uint64_t bytes) {
    mem_.pinned_bytes -= bytes <= mem_.pinned_bytes ? bytes : mem_.pinned_bytes;
    ++mem_.dereg_count;
  }

  /// Charge a fixed CPU cost (protocol bookkeeping, syscalls, ...).
  /// Free outside fiber context (session setup).
  void charge_cpu(sim::Duration d) {
    if (simulator_->current() == nullptr) return;
    simulator_->advance(d);
  }

  /// Unique initiator id for the host CPU on this node's bus.
  [[nodiscard]] std::uint64_t cpu_initiator_id() const {
    return (static_cast<std::uint64_t>(id_) << 8) | 0xff;
  }
  /// Initiator id for NIC `slot` (0..254) on this node's bus.
  [[nodiscard]] std::uint64_t nic_initiator_id(std::uint32_t slot) const {
    return (static_cast<std::uint64_t>(id_) << 8) | slot;
  }

 private:
  sim::Simulator* simulator_;
  std::uint32_t id_;
  std::string name_;
  HostParams params_;
  MemCounters mem_;
  std::unique_ptr<ChunkedResource> pci_bus_;
};

}  // namespace mad2::hw
