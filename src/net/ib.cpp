#include "net/ib.hpp"

#include <algorithm>

namespace mad2::net {

IbParams IbParams::mellanox_like() {
  IbParams p;
  p.fabric.name = "ib";
  p.fabric.wire_mbs = 800.0;
  p.fabric.propagation = sim::from_us(1.3);
  p.fabric.per_packet = sim::from_us(0.3);
  p.fabric.wire_chunk_bytes = 2048;
  p.fabric.rx_slots = 256;
  return p;
}

// --- IbRegCache -----------------------------------------------------------

IbRegCache::IbRegCache(IbPort* port, std::size_t capacity)
    : port_(port), capacity_(capacity) {}

IbMr IbRegCache::acquire(const std::byte* addr, std::size_t len) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (capacity_ == 0) {
    // Cache disabled: pin per acquire, unpin per release.
    ++stats_.misses;
    return port_->register_memory({addr, len});
  }
  ++clock_;
  for (Entry& entry : entries_) {
    if (entry.mr.base <= a && a + len <= entry.mr.base + entry.mr.bytes) {
      ++stats_.hits;
      entry.last_use = clock_;
      ++entry.refs;
      return entry.mr;
    }
  }
  ++stats_.misses;
  // Re-register the union of the request and every *idle* cached region
  // it overlaps or abuts, so adjacent partial registrations coalesce
  // instead of accumulating. Referenced entries are left alone — their
  // rkey may be advertised to a peer or backing an in-flight RDMA op
  // (e.g. the previous block of the same buffer group) — so the new
  // registration simply overlaps them.
  std::uintptr_t lo = a;
  std::uintptr_t hi = a + len;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::uintptr_t begin = it->mr.base;
    const std::uintptr_t end = begin + it->mr.bytes;
    if (it->refs == 0 && begin <= hi && lo <= end) {
      lo = std::min(lo, begin);
      hi = std::max(hi, end);
      ++stats_.merges;
      port_->deregister(it->mr);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  const IbMr mr = port_->register_memory(
      {reinterpret_cast<const std::byte*>(lo), hi - lo});
  while (entries_.size() >= capacity_ && evict_lru()) {
  }
  entries_.push_back(Entry{mr, clock_, 1});
  return mr;
}

void IbRegCache::release(const IbMr& mr) {
  if (capacity_ == 0) {
    port_->deregister(mr);
    return;
  }
  for (Entry& entry : entries_) {
    if (entry.mr.key == mr.key) {
      MAD2_CHECK(entry.refs > 0, "registration-cache release without acquire");
      --entry.refs;
      return;  // the pin stays hot until eviction or invalidation
    }
  }
  MAD2_CHECK(false, "release of a region unknown to the registration cache");
}

void IbRegCache::invalidate(const std::byte* addr, std::size_t len) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::uintptr_t begin = it->mr.base;
    const std::uintptr_t end = begin + it->mr.bytes;
    if (begin < a + len && a < end) {
      MAD2_CHECK(it->refs == 0,
                 "invalidate of a referenced region (buffer freed while an "
                 "RDMA op still references it)");
      ++stats_.invalidations;
      port_->deregister(it->mr);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

bool IbRegCache::evict_lru() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->refs == 0 &&
        (victim == entries_.end() || it->last_use < victim->last_use)) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return false;  // every entry is in use
  ++stats_.evictions;
  port_->deregister(victim->mr);
  entries_.erase(victim);
  return true;
}

// --- IbNetwork ------------------------------------------------------------

IbNetwork::IbNetwork(sim::Simulator* simulator, std::vector<hw::Node*> nodes,
                     IbParams params)
    : NicNetwork(simulator, std::move(params)) {
  add_ports(this, nodes);
}

void IbNetwork::fail_link(std::uint32_t a, std::uint32_t b,
                          const Status& status) {
  ports_[a]->fail_link(b, status);
}

void IbNetwork::report_link_failure(std::uint32_t reporter,
                                    std::uint32_t peer,
                                    const Status& status) {
  // Poison both directions before the handler runs, so a re-entrant
  // fail_link from the handler (or a racing give-up timer) no-ops.
  ports_[reporter]->poison_peer(peer, status);
  ports_[peer]->poison_peer(reporter, status);
  if (link_error_handler_) link_error_handler_(reporter, peer, status);
}

// --- IbPort ---------------------------------------------------------------

IbPort::IbPort(IbNetwork* network, hw::Node* node, std::uint32_t rank)
    : StagedNicPort(network, node, rank),
      tx_work_(network->simulator_),
      reg_cache_(this, network->params_.regcache_capacity) {
  spawn("tx", [this] { tx_loop(); });
  spawn("rx", [this] { rx_loop(); });
}

IbPort::Cq& IbPort::cq(std::uint32_t qp) {
  return cqs_.try_emplace(qp, network_->simulator_).first->second;
}

void IbPort::push_cqe(std::uint32_t qp, IbCompletion completion) {
  Cq& queue = cq(qp);
  queue.cqes.push_back(completion);
  ++counters_.cqes;
  queue.wq.notify_all();
  if (queue.callback) queue.callback();
}

void IbPort::sq_acquire(std::uint32_t peer, std::uint32_t qp) {
  QpState& state = queue_of(qps_, peer, qp);
  while (state.sq_outstanding >= params().qp_depth &&
         peer_status_.find(peer) == peer_status_.end()) {
    state.sq_wq.wait();
  }
  ++state.sq_outstanding;
}

void IbPort::sq_release(std::uint32_t peer, std::uint32_t qp) {
  QpState& state = queue_of(qps_, peer, qp);
  MAD2_CHECK(state.sq_outstanding > 0, "SQ release without acquire");
  --state.sq_outstanding;
  state.sq_wq.notify_one();
}

void IbPort::charge_dma(std::uint64_t bytes) {
  // The HCA masters its own 64-bit PCI segment (see ib.hpp): DMA is
  // charged at the adapter's rate, not the host's legacy-bus rate.
  node_->pci_bus().transfer(bytes, params().pci_dma_mbs, hw::TxClass::kDma,
                            pci_initiator());
}

IbMr IbPort::register_memory(std::span<const std::byte> region) {
  const IbParams& params = network_->params_;
  const std::uint64_t pages =
      (region.size() + params.page_bytes - 1) / params.page_bytes;
  node_->charge_cpu(params.register_base +
                    static_cast<sim::Duration>(pages) *
                        params.register_per_page);
  IbMr mr{next_key_++, reinterpret_cast<std::uintptr_t>(region.data()),
          region.size()};
  regions_[mr.key] = mr;
  node_->count_mem_register(region.size());
  return mr;
}

void IbPort::deregister(const IbMr& mr) {
  auto it = regions_.find(mr.key);
  MAD2_CHECK(it != regions_.end(), "deregister of unknown memory region");
  node_->charge_cpu(network_->params_.deregister_base);
  node_->count_mem_deregister(it->second.bytes);
  regions_.erase(it);
}

void IbPort::post_recv(std::uint32_t peer, std::uint32_t qp,
                       std::span<std::byte> buffer) {
  ++counters_.recv_posts;
  queue_of(qps_, peer, qp).posted.post(buffer);
}

void IbPort::stage(Packet packet) {
  tx_stage_.send(std::move(packet));
  tx_work_.notify_all();
}

void IbPort::stage_fragments(Packet prototype,
                             std::span<const std::byte> data) {
  // prototype.offset carries the base offset (0 for op-relative sends /
  // read responses, the region offset for RDMA writes).
  const IbParams& params = network_->params_;
  const std::uint64_t base = prototype.offset;
  const std::uint64_t total = data.size();
  std::uint64_t offset = 0;
  do {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(total - offset, params.mtu);
    // The HCA pulls descriptor data from pinned host memory.
    charge_dma(chunk + params.header_bytes);
    Packet packet = prototype;
    packet.offset = base + offset;
    packet.data.assign(data.begin() + offset, data.begin() + offset + chunk);
    stage(std::move(packet));
    offset += chunk;
  } while (offset < total);
}

bool IbPort::open_wr(std::uint32_t peer, std::uint32_t qp, std::uint64_t wr,
                     IbCompletion::Kind kind, bool signaled) {
  sq_acquire(peer, qp);
  if (peer_status_.find(peer) == peer_status_.end()) return true;
  sq_release(peer, qp);
  if (signaled) {
    push_cqe(qp, {.kind = kind, .peer = peer, .wr_id = wr, .ok = false});
  }
  return false;
}

std::uint64_t IbPort::post_send(std::uint32_t peer, std::uint32_t qp,
                                std::span<const std::byte> data,
                                std::uint64_t imm, bool signaled) {
  node_->charge_cpu(params().doorbell);
  ++counters_.send_wrs;
  const std::uint64_t wr = next_wr_++;
  if (!open_wr(peer, qp, wr, IbCompletion::Kind::kSend, signaled)) return wr;
  stage_fragments({.kind = Packet::Kind::kSend,
                   .src = rank_,
                   .dst = peer,
                   .qp = qp,
                   .wr = signaled ? wr : 0,  // 0 = unsignaled (no CQE)
                   .offset = 0,
                   .total = data.size(),
                   .imm = imm},
                  data);
  return wr;
}

std::uint64_t IbPort::post_rdma_write(std::uint32_t peer, std::uint32_t qp,
                                      std::span<const std::byte> local,
                                      std::uint64_t rkey,
                                      std::uint64_t roffset,
                                      std::uint64_t imm) {
  MAD2_CHECK(!local.empty(), "RDMA write of an empty buffer");
  node_->charge_cpu(params().doorbell);
  ++counters_.write_wrs;
  const std::uint64_t wr = next_wr_++;
  if (!open_wr(peer, qp, wr, IbCompletion::Kind::kRdmaWrite, true)) return wr;
  pending_[wr] =
      PendingOp{peer, qp, IbCompletion::Kind::kRdmaWrite, {}, 0, local.size()};
  stage_fragments({.kind = Packet::Kind::kWriteData,
                   .src = rank_,
                   .dst = peer,
                   .qp = qp,
                   .wr = wr,
                   .key = rkey,
                   .offset = roffset,  // region-absolute landing offset
                   .total = local.size(),
                   .imm = imm},
                  local);
  arm_op_timeout(peer, wr);
  return wr;
}

std::uint64_t IbPort::post_rdma_read(std::uint32_t peer, std::uint32_t qp,
                                     std::span<std::byte> local,
                                     std::uint64_t rkey,
                                     std::uint64_t roffset) {
  MAD2_CHECK(!local.empty(), "RDMA read into an empty buffer");
  node_->charge_cpu(params().doorbell);
  ++counters_.read_wrs;
  const std::uint64_t wr = next_wr_++;
  if (!open_wr(peer, qp, wr, IbCompletion::Kind::kRdmaRead, true)) return wr;
  pending_[wr] = PendingOp{peer, qp, IbCompletion::Kind::kRdmaRead, local, 0,
                           local.size()};
  charge_dma(params().header_bytes);
  stage({.kind = Packet::Kind::kReadReq,
         .src = rank_,
         .dst = peer,
         .qp = qp,
         .wr = wr,
         .key = rkey,
         .offset = roffset,  // region-absolute source offset
         .total = local.size()});
  arm_op_timeout(peer, wr);
  return wr;
}

void IbPort::arm_op_timeout(std::uint32_t peer, std::uint64_t wr) {
  network_->simulator_->post_after(params().op_timeout, [this, peer, wr] {
    auto it = pending_.find(wr);
    if (it == pending_.end()) return;  // completed in time
    if (peer_status_.find(peer) == peer_status_.end()) {
      fail_link(peer,
                Status(ErrorCode::kUnavailable,
                       "ib: work request give-up timer expired (link to "
                       "peer presumed dead)"));
      return;  // poison_peer flushed the WR in error
    }
    // The link was already declared dead but this WR slipped in after the
    // poison pass: flush it directly.
    finish_op(it, /*ok=*/false);
  });
}

void IbPort::finish_op(std::map<std::uint64_t, PendingOp>::iterator it,
                       bool ok) {
  const std::uint64_t wr = it->first;
  const PendingOp op = it->second;
  pending_.erase(it);
  sq_release(op.peer, op.qp);
  push_cqe(op.qp, {.kind = op.kind,
                   .peer = op.peer,
                   .wr_id = wr,
                   .bytes = ok ? op.total : 0,
                   .ok = ok});
}

void IbPort::tx_loop() {
  const IbParams& params = network_->params_;
  for (;;) {
    // HCA-originated responses (write acks, read data) first: they must
    // never queue behind host posts, or two rendezvous peers could
    // deadlock with full staging channels.
    if (!nic_tx_.empty()) {
      Packet packet = std::move(nic_tx_.front());
      nic_tx_.pop_front();
      if (packet.kind == Packet::Kind::kReadData) {
        // Read responses DMA out of pinned host memory on their way to
        // the wire.
        charge_dma(packet.data.size() + params.header_bytes);
      }
      const std::uint32_t dst = packet.dst;
      const std::uint64_t wire_bytes = packet.data.size() + params.header_bytes;
      network_->fabric_.ship(rank_, dst, std::move(packet), wire_bytes);
      continue;
    }
    if (auto staged = tx_stage_.try_receive()) {
      const Packet::Kind kind = staged->kind;
      const std::uint32_t dst = staged->dst;
      const std::uint32_t qp = staged->qp;
      const std::uint64_t wr = staged->wr;
      const std::uint64_t total = staged->total;
      const bool final_fragment =
          staged->offset + staged->data.size() >= staged->total;
      const std::uint64_t wire_bytes =
          staged->data.size() + params.header_bytes;
      network_->fabric_.ship(rank_, dst, std::move(*staged), wire_bytes);
      if (kind == Packet::Kind::kSend && final_fragment) {
        // The SQ slot frees once the last fragment has serialized; a
        // signaled send additionally raises its local CQE.
        sq_release(dst, qp);
        if (wr != 0) {
          push_cqe(qp, {.kind = IbCompletion::Kind::kSend,
                        .peer = dst,
                        .wr_id = wr,
                        .bytes = total});
        }
      }
      continue;
    }
    tx_work_.wait();
  }
}

void IbPort::rx_loop() {
  for (;;) {
    Packet packet = network_->fabric_.receive(rank_);
    handle_rx(packet);
  }
}

void IbPort::handle_rx(Packet& packet) {
  const IbParams& params = network_->params_;
  if (peer_status_.find(packet.src) != peer_status_.end()) {
    return;  // late arrival on a link already declared dead
  }
  switch (packet.kind) {
    case Packet::Kind::kSend: {
      charge_dma(packet.data.size() + params.header_bytes);
      PostedReceives& posted = queue_of(qps_, packet.src, packet.qp).posted;
      // Sends funnel through the peer's single tx fiber, so fragments and
      // messages arrive in order: a receive completes at the queue's front
      // and leaves it at once.
      if (!posted.land(packet.offset, packet.data, packet.total,
                       "IB send with no posted receive descriptor: the QP is "
                       "broken (the IbPmm's credit window must pre-post)",
                       "IB send overflows the posted receive descriptor")) {
        break;
      }
      push_cqe(packet.qp, {.kind = IbCompletion::Kind::kRecv,
                           .peer = packet.src,
                           .imm = packet.imm,
                           .bytes = packet.total,
                           .buffer = posted.take().buffer});
      break;
    }
    case Packet::Kind::kWriteData: {
      charge_dma(packet.data.size() + params.header_bytes);
      auto it = regions_.find(packet.key);
      MAD2_CHECK(it != regions_.end(),
                 "RDMA write against an unknown rkey (region freed or "
                 "never registered)");
      const IbMr& mr = it->second;
      MAD2_CHECK(packet.offset + packet.data.size() <= mr.bytes,
                 "RDMA write overflows the registered region");
      // The HCA lands bytes directly in the pinned region: no host
      // memcpy, no receive descriptor consumed, target CPU never runs.
      std::copy(packet.data.begin(), packet.data.end(),
                reinterpret_cast<std::byte*>(mr.base) + packet.offset);
      WriteLanding& landing = landings_[{packet.src, packet.wr}];
      landing.received += packet.data.size();
      if (landing.received >= packet.total) {
        landings_.erase({packet.src, packet.wr});
        if (packet.imm != 0) {
          push_cqe(packet.qp, {.kind = IbCompletion::Kind::kWriteImm,
                               .peer = packet.src,
                               .imm = packet.imm,
                               .bytes = packet.total});
        }
        nic_tx_.push_back({.kind = Packet::Kind::kWriteAck,
                           .src = rank_,
                           .dst = packet.src,
                           .qp = packet.qp,
                           .wr = packet.wr});
        tx_work_.notify_all();
      }
      break;
    }
    case Packet::Kind::kWriteAck: {
      charge_dma(params.header_bytes);
      auto it = pending_.find(packet.wr);
      if (it == pending_.end()) break;  // already flushed in error
      finish_op(it, /*ok=*/true);
      break;
    }
    case Packet::Kind::kReadReq: {
      charge_dma(params.header_bytes);
      auto it = regions_.find(packet.key);
      MAD2_CHECK(it != regions_.end(),
                 "RDMA read against an unknown rkey (region freed or "
                 "never registered)");
      const IbMr& mr = it->second;
      MAD2_CHECK(packet.offset + packet.total <= mr.bytes,
                 "RDMA read overruns the registered region");
      const auto* base =
          reinterpret_cast<const std::byte*>(mr.base) + packet.offset;
      std::uint64_t offset = 0;
      do {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(packet.total - offset, params.mtu);
        Packet response;
        response.kind = Packet::Kind::kReadData;
        response.src = rank_;
        response.dst = packet.src;
        response.qp = packet.qp;
        response.wr = packet.wr;
        response.offset = offset;  // op-relative
        response.total = packet.total;
        response.data.assign(base + offset, base + offset + chunk);
        nic_tx_.push_back(std::move(response));
        offset += chunk;
      } while (offset < packet.total);
      tx_work_.notify_all();
      break;
    }
    case Packet::Kind::kReadData: {
      charge_dma(packet.data.size() + params.header_bytes);
      auto it = pending_.find(packet.wr);
      if (it == pending_.end()) break;  // already flushed in error
      PendingOp& op = it->second;
      MAD2_CHECK(op.local.size() >= packet.offset + packet.data.size(),
                 "RDMA read response overflows the landing buffer");
      std::copy(packet.data.begin(), packet.data.end(),
                op.local.begin() + packet.offset);
      op.received += packet.data.size();
      if (op.received >= op.total) finish_op(it, /*ok=*/true);
      break;
    }
  }
}

std::optional<IbCompletion> IbPort::poll_cq(std::uint32_t qp) {
  Cq& queue = cq(qp);
  if (queue.cqes.empty()) return std::nullopt;  // empty polls are free
  IbCompletion completion = queue.cqes.front();
  queue.cqes.pop_front();
  ++counters_.cq_polls;
  node_->charge_cpu(params().cq_poll);
  return completion;
}

IbCompletion IbPort::wait_cq(std::uint32_t qp) {
  Cq& queue = cq(qp);
  while (queue.cqes.empty()) queue.wq.wait();
  IbCompletion completion = queue.cqes.front();
  queue.cqes.pop_front();
  ++counters_.cq_polls;
  node_->charge_cpu(params().cq_poll);
  return completion;
}

bool IbPort::cq_ready(std::uint32_t qp) const {
  auto it = cqs_.find(qp);
  return it != cqs_.end() && !it->second.cqes.empty();
}

void IbPort::set_cq_callback(std::uint32_t qp, std::function<void()> fn) {
  cq(qp).callback = std::move(fn);
}

std::size_t IbPort::outstanding(std::uint32_t peer, std::uint32_t qp) const {
  const QpState* state = find_queue(qps_, peer, qp);
  return state == nullptr ? 0 : state->sq_outstanding;
}

std::size_t IbPort::posted_count(std::uint32_t peer, std::uint32_t qp) const {
  const QpState* state = find_queue(qps_, peer, qp);
  return state == nullptr ? 0 : state->posted.size();
}

const Status& IbPort::link_status(std::uint32_t peer) const {
  auto it = peer_status_.find(peer);
  return it == peer_status_.end() ? ok_status_ : it->second;
}

void IbPort::fail_link(std::uint32_t peer, const Status& status) {
  if (peer_status_.find(peer) != peer_status_.end()) return;
  network_->report_link_failure(rank_, peer, status);
}

void IbPort::add_link_down_callback(
    std::function<void(std::uint32_t, const Status&)> fn) {
  link_down_callbacks_.push_back(std::move(fn));
}

void IbPort::poison_peer(std::uint32_t peer, const Status& status) {
  if (peer_status_.find(peer) != peer_status_.end()) return;
  peer_status_.emplace(peer, status);
  // Flush every outstanding remote-dependent WR toward the peer in error.
  std::vector<std::uint64_t> doomed;
  for (const auto& [wr, op] : pending_) {
    if (op.peer == peer) doomed.push_back(wr);
  }
  for (const std::uint64_t wr : doomed) {
    finish_op(pending_.find(wr), /*ok=*/false);
  }
  // Wake SQ-slot waiters so blocked posters re-check the link status.
  for (auto& [key, state] : qps_) {
    if (static_cast<std::uint32_t>(key >> 32) == peer) {
      state.sq_wq.notify_all();
    }
  }
  // Last: tell the protocol modules, now that the flushed CQEs are
  // already queued (a callback that drains the CQ sees the final state).
  for (const auto& fn : link_down_callbacks_) fn(peer, status);
}

}  // namespace mad2::net
