// Recycled fixed-MTU packet buffers for the forwarding layer.
//
// Every packet that crosses a virtual channel lands in a PacketBuffer
// drawn from the channel's PacketPool instead of a freshly allocated
// vector: gateways hand buffers from the receiving fiber to the sending
// fiber and recycle them once the packet is back on the wire, endpoints
// recycle them once the application has drained the payload. After the
// constructor's prewarm (sized from the pipeline depth and endpoint
// lookahead) a steady forwarding flow performs no heap allocation at all
// — the pool hands the same buffers around in a cycle, which the per-node
// alloc/recycle counters (hw::MemCounters) make observable.
//
// The landing areas are carved from slabs that are never zero-filled: the
// prewarm is one allocation that set-up writes no byte of, so the pages of
// buffers that never carry a packet are never touched. Every byte a piece
// points at was first written by the landing loop, so no unwritten byte is
// ever read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mad/types.hpp"

namespace mad2::hw {
class Node;
}

namespace mad2::fwd {

class PacketPool;

/// One recyclable packet body: `bytes` is the fixed-MTU landing area (a
/// window into one of the pool's slabs, uninitialised until a packet
/// lands there), and the scratch vectors (gather list, piece sizes,
/// borrowed driver slots) ride along so the hot path never allocates.
/// Piece spans point into `bytes` (staged data) or into `borrows` (driver
/// slots lent out by a static-buffer TM, kept alive until the buffer is
/// recycled).
struct PacketBuffer {
  std::span<std::byte> bytes;
  std::vector<std::span<const std::byte>> pieces;
  std::vector<std::uint32_t> sizes;
  std::vector<mad::BorrowedBlock> borrows;
};

/// Move-only handle returning its PacketBuffer to the pool on destruction.
/// The pool outlives every handle by construction (it is the first member
/// of VirtualChannel); handles abandoned on discarded fiber stacks at
/// simulator teardown simply never run their destructor, which is safe
/// because the pool owns the buffers either way.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(other.pool_), buffer_(other.buffer_) {
    other.pool_ = nullptr;
    other.buffer_ = nullptr;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      buffer_ = other.buffer_;
      other.pool_ = nullptr;
      other.buffer_ = nullptr;
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { reset(); }

  [[nodiscard]] PacketBuffer* get() const { return buffer_; }
  PacketBuffer* operator->() const { return buffer_; }
  PacketBuffer& operator*() const { return *buffer_; }
  [[nodiscard]] explicit operator bool() const { return buffer_ != nullptr; }

  /// Return the buffer to the pool now.
  void reset();

 private:
  friend class PacketPool;
  PooledBuffer(PacketPool* pool, PacketBuffer* buffer)
      : pool_(pool), buffer_(buffer) {}

  PacketPool* pool_ = nullptr;
  PacketBuffer* buffer_ = nullptr;
};

class PacketPool {
 public:
  explicit PacketPool(std::size_t mtu);

  /// Grow the pool to `count` buffers up front, carving the missing ones
  /// from one new slab. Counts no allocation on any node: the prewarm is
  /// set-up, not traffic.
  void prewarm(std::size_t count);

  /// Hand out a free buffer, growing the pool if it ran dry. `node`
  /// (nullable) takes the alloc/recycle count for the stats trajectory.
  [[nodiscard]] PooledBuffer acquire(hw::Node* node);

  [[nodiscard]] std::size_t mtu() const { return mtu_; }
  [[nodiscard]] std::size_t total_buffers() const { return all_.size(); }
  /// Buffers currently at home in the pool. free == total means every
  /// handed-out buffer came back — the leak check after a gateway death.
  [[nodiscard]] std::size_t free_buffers() const { return free_.size(); }

  /// Tests only: fill every slab allocated from now on with `fill`
  /// (std::nullopt, the default, leaves slabs uninitialised). Running a
  /// scenario under two fills and comparing the results proves that no
  /// unwritten pool byte reaches the wire or the application.
  static void fill_fresh_slabs_for_testing(std::optional<std::byte> fill);

 private:
  friend class PooledBuffer;
  void recycle(PacketBuffer* buffer);
  /// Allocate one slab of `count` buffers and put them on the free list.
  void add_slab(std::size_t count);

  std::size_t mtu_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<std::unique_ptr<PacketBuffer>> all_;
  std::vector<PacketBuffer*> free_;
};

}  // namespace mad2::fwd
