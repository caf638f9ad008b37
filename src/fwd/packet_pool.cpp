#include "fwd/packet_pool.hpp"

#include <algorithm>

#include "hw/node.hpp"

namespace mad2::fwd {

namespace {
std::optional<std::byte> fresh_slab_fill;
}  // namespace

void PacketPool::fill_fresh_slabs_for_testing(std::optional<std::byte> fill) {
  fresh_slab_fill = fill;
}

void PooledBuffer::reset() {
  if (buffer_ != nullptr) pool_->recycle(buffer_);
  pool_ = nullptr;
  buffer_ = nullptr;
}

PacketPool::PacketPool(std::size_t mtu) : mtu_(mtu) {}

void PacketPool::add_slab(std::size_t count) {
  // make_unique_for_overwrite default-initialises: no byte is written.
  auto slab = std::make_unique_for_overwrite<std::byte[]>(count * mtu_);
  if (fresh_slab_fill.has_value()) {
    std::fill_n(slab.get(), count * mtu_, *fresh_slab_fill);
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto buffer = std::make_unique<PacketBuffer>();
    buffer->bytes = std::span<std::byte>(slab.get() + i * mtu_, mtu_);
    free_.push_back(buffer.get());
    all_.push_back(std::move(buffer));
  }
  slabs_.push_back(std::move(slab));
}

void PacketPool::prewarm(std::size_t count) {
  if (all_.size() < count) add_slab(count - all_.size());
}

PooledBuffer PacketPool::acquire(hw::Node* node) {
  if (free_.empty()) {
    add_slab(1);
    if (node != nullptr) node->count_alloc();
  } else if (node != nullptr) {
    node->count_pool_recycle();
  }
  PacketBuffer* buffer = free_.back();
  free_.pop_back();
  return PooledBuffer(this, buffer);
}

void PacketPool::recycle(PacketBuffer* buffer) {
  // Dropping the borrows returns the driver slots to their TMs (in
  // arrival order — the deque discipline of the gateway queues keeps
  // releases FIFO, which the credit-window protocols expect).
  buffer->borrows.clear();
  buffer->pieces.clear();
  buffer->sizes.clear();
  free_.push_back(buffer);
}

}  // namespace mad2::fwd
