// Deterministic fault injection for the packet fabric.
//
// A FaultPlan describes how one PacketFabric misbehaves: per-link
// probabilistic packet drop, duplication, bounded reordering, payload
// corruption, and delay jitter, plus scripted link partitions/heals keyed
// to virtual time. Every probabilistic decision is drawn from one seeded
// Rng in ship() order, so a given (seed, workload) pair replays the exact
// same fault schedule — the property the seed-sweep suites rely on.
//
// The plan only *decides*; the mechanics (holding packets back, flipping
// bytes, delaying delivery) live in PacketFabric so they work for any
// packet type. A fabric with no plan attached behaves exactly as before.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mad2::net {

/// Fault rates of one directed link (or the whole fabric as a default).
struct LinkFaults {
  /// Probability a packet silently disappears on the wire.
  double drop_rate = 0.0;
  /// Probability the NIC delivers a second copy of a packet.
  double dup_rate = 0.0;
  /// Probability a packet is held back so later packets overtake it.
  double reorder_rate = 0.0;
  /// Max packets that may overtake a held-back packet (its overtake budget
  /// is drawn uniformly from [1, reorder_window]). 0 disables reordering.
  std::uint32_t reorder_window = 0;
  /// Safety valve: a held-back packet is force-delivered this long after
  /// its normal arrival time even if no later traffic overtakes it.
  sim::Duration reorder_timeout = sim::microseconds(500);
  /// Probability one payload byte is flipped in flight. Only packet types
  /// that expose their bytes via fault_payload() (see wire.hpp) are
  /// actually corrupted; others are delivered intact.
  double corrupt_rate = 0.0;
  /// Probability of extra propagation delay, uniform in [0, jitter_max].
  double jitter_rate = 0.0;
  sim::Duration jitter_max = 0;

  [[nodiscard]] bool any() const {
    return drop_rate > 0 || dup_rate > 0 ||
           (reorder_rate > 0 && reorder_window > 0) || corrupt_rate > 0 ||
           (jitter_rate > 0 && jitter_max > 0);
  }
};

/// What the fault layer did to the traffic, for test assertions and bench
/// reports. `shipped` counts ship() calls; `delivered` counts packets
/// pushed into a receive queue (dups add, drops subtract).
struct FaultCounters {
  std::uint64_t shipped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t partition_dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t jittered = 0;
};

/// Ack/retransmit bookkeeping of the reliable-delivery shim (net/reliable).
/// All counters are per reliable endpoint (link level); read them from
/// ReliableEndpoint::counters().
struct ReliabilityCounters {
  std::uint64_t data_frames = 0;  // first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t dup_frames = 0;      // duplicates discarded on receive
  std::uint64_t corrupt_frames = 0;  // checksum failures discarded
  std::uint64_t give_ups = 0;        // links declared dead
  /// Largest retransmit timeout any frame backed off to (for asserting the
  /// exponential-backoff cap).
  sim::Duration max_rto = 0;
  /// RTT sampling over the shim's seq/ack stamps, feeding the congestion
  /// layer (mad/congestion.hpp). Karn's rule: only frames that were never
  /// retransmitted are sampled, so a retransmit ack cannot be mistaken
  /// for the original's. srtt is the smoothed estimate at the last
  /// sample; min_rtt the smallest clean sample. Both 0 until sampled.
  std::uint64_t rtt_samples = 0;
  sim::Duration srtt = 0;
  sim::Duration min_rtt = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Faults applied to links without a per-link override.
  void set_default_faults(const LinkFaults& faults) {
    default_faults_ = faults;
  }
  /// Faults of the directed link src -> dst.
  void set_link_faults(std::uint32_t src, std::uint32_t dst,
                       const LinkFaults& faults) {
    per_link_[{src, dst}] = faults;
  }
  [[nodiscard]] const LinkFaults& faults_for(std::uint32_t src,
                                             std::uint32_t dst) const;

  /// Script a symmetric partition between nodes a and b: every packet in
  /// either direction with ship time in [from, until) is dropped.
  /// `until == kNever` means the partition never heals.
  void partition(std::uint32_t a, std::uint32_t b, sim::Time from,
                 sim::Time until = sim::kNever);
  /// One-directional variant (asymmetric link failure).
  void partition_one_way(std::uint32_t src, std::uint32_t dst,
                         sim::Time from, sim::Time until = sim::kNever);
  [[nodiscard]] bool is_partitioned(std::uint32_t src, std::uint32_t dst,
                                    sim::Time now) const;

  /// The fate of one packet shipped src -> dst at virtual time `now`.
  /// Consumes random draws; the fabric must call it exactly once per
  /// ship() so the decision stream stays aligned across runs.
  struct Decision {
    bool drop = false;
    bool partition_drop = false;
    bool duplicate = false;
    bool corrupt = false;
    std::uint32_t corrupt_offset = 0;  // byte index mod payload size
    std::uint8_t corrupt_xor = 0;      // non-zero flip mask
    std::uint32_t hold_back = 0;       // overtake budget; 0 = in order
    sim::Duration reorder_timeout = 0;
    sim::Duration extra_delay = 0;
  };
  Decision decide(std::uint32_t src, std::uint32_t dst, sim::Time now);

  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  /// Mutable view for the fabric's delivery-side accounting.
  [[nodiscard]] FaultCounters& counters_mutable() { return counters_; }

 private:
  struct PartitionWindow {
    sim::Time from;
    sim::Time until;
  };

  std::uint64_t seed_;
  Rng rng_;
  LinkFaults default_faults_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkFaults> per_link_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<PartitionWindow>>
      partitions_;
  FaultCounters counters_;
};

/// Checksum carried in fault-aware wire headers (the reliable shim's frame
/// header uses it to detect in-flight corruption). 32-bit fold of FNV-1a.
[[nodiscard]] std::uint32_t wire_checksum(const std::byte* data,
                                          std::size_t size);

}  // namespace mad2::net
