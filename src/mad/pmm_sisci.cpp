#include "mad/pmm_sisci.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

SciPmm::SciPmm(ChannelEndpoint& endpoint, SciPmmOptions options)
    : endpoint_(endpoint),
      options_(options),
      short_tm_(this),
      pio_tm_(this, /*dma=*/false),
      dma_tm_(this, /*dma=*/true) {
  NetworkInstance& network = endpoint_.channel().network();
  port_ = &network.as<net::SciNetwork>().port(network.port(endpoint_.local()));
}

std::uint64_t SciPmm::short_slot_offset(std::uint64_t index) const {
  return index * (kHeaderBytes + options_.short_capacity);
}

std::uint64_t SciPmm::bulk_buffer_offset(std::uint64_t index) const {
  return short_slot_offset(options_.short_slots) +
         index * (kHeaderBytes + options_.bulk_capacity);
}

std::uint64_t SciPmm::ring_bytes() const {
  return bulk_buffer_offset(options_.bulk_buffers);
}

void SciPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>();
  state->remote_port = endpoint_.channel().network().port(remote);
  state->rx_ring = port_->create_segment(ring_bytes());
  state->tx_feedback = port_->create_segment(8);  // u32 short, u32 bulk
  scan_.add(remote, state.get());
  states_[remote] = std::move(state);
}

SciPmm::State& SciPmm::conn_state(std::uint32_t remote) {
  return *states_.at(remote);
}

void SciPmm::finish_setup() {
  // Resolve the segments our peers created for traffic in our direction.
  // (The real library exchanges these ids over a bootstrap TCP channel.)
  for (auto& [remote, state] : states_) {
    auto& peer_pmm = static_cast<SciPmm&>(
        endpoint_.channel().endpoint(remote).pmm());
    const SciPmm::State& peer_state = peer_pmm.conn_state(endpoint_.local());
    state->tx_ring = port_->connect(state->remote_port, peer_state.rx_ring);
    state->rx_feedback =
        port_->connect(state->remote_port, peer_state.tx_feedback);
  }

  // Fastpath: consumed-counter feedback accumulates for the node's
  // progress tick instead of one PIO write per consumed unit.
  const SessionConfig& config = endpoint_.session().config();
  if (config.fastpath) {
    engine_ = endpoint_.session().progress_engine(endpoint_.local());
    doorbell_ = engine_->register_client(this, [](void* ctx) {
      static_cast<SciPmm*>(ctx)->flush_owed_feedback();
    });
    defer_feedback_ = true;
  }
}

void SciPmm::flush_owed_feedback() {
  for (auto& [remote, state] : states_) {
    if (state->short_fb_written < state->short_rcvd) {
      // Capture-then-write: pio_write can yield, and a concurrent inline
      // flush must not double-write or regress the counter.
      const std::uint64_t upto = state->short_rcvd;
      state->short_fb_written = upto;
      std::byte counter[4];
      store_u32(counter, static_cast<std::uint32_t>(upto));
      port_->pio_write(state->rx_feedback, 0, counter);
    }
    if (state->bulk_fb_written < state->bulk_rcvd) {
      const std::uint64_t upto = state->bulk_rcvd;
      state->bulk_fb_written = upto;
      std::byte counter[4];
      store_u32(counter, static_cast<std::uint32_t>(upto));
      port_->pio_write(state->rx_feedback, 4, counter);
    }
  }
}

Tm& SciPmm::select_tm(std::size_t len, SendMode, ReceiveMode) {
  if (options_.enable_dma && len >= options_.dma_min_bytes) return dma_tm_;
  if (len <= options_.short_capacity) return short_tm_;
  return pio_tm_;
}

std::vector<std::size_t> SciPmm::selection_breakpoints()
    const {
  std::vector<std::size_t> breaks{options_.short_capacity};
  // The DMA cutoff is `len >= dma_min_bytes`, i.e. the verdict changes
  // between len <= dma_min_bytes - 1 and anything larger.
  if (options_.enable_dma && options_.dma_min_bytes > 0) {
    breaks.push_back(options_.dma_min_bytes - 1);
  }
  return breaks;
}

bool SciPmm::incoming_ready(const State& state) {
  auto ring = port_->segment_memory(state.rx_ring);
  const std::uint64_t short_off =
      short_slot_offset(state.short_rcvd % options_.short_slots);
  if (load_u32(ring.data() + short_off) ==
      static_cast<std::uint32_t>(state.short_rcvd + 1)) {
    return true;
  }
  const std::uint64_t bulk_off =
      bulk_buffer_offset(state.bulk_rcvd % options_.bulk_buffers);
  return load_u32(ring.data() + bulk_off) ==
         static_cast<std::uint32_t>(state.bulk_rcvd + 1);
}

std::uint32_t SciPmm::wait_incoming() {
  // About to sleep until a peer writes: owed feedback goes out first (the
  // peer may need those credits to produce the very unit we wait for).
  // Skipped when a unit already arrived — then nobody is starved and the
  // counters ride the next progress tick.
  const auto ready = [this](const State* state) {
    return incoming_ready(*state);
  };
  if (defer_feedback_ &&
      std::none_of(scan_.peers().begin(), scan_.peers().end(),
                   [&](const auto& peer) { return ready(peer.second); })) {
    flush_owed_feedback();
  }
  std::uint32_t found = 0;
  port_->wait_delivery([&] {
    const auto remote = scan_.next(ready);
    if (remote) found = *remote;
    return remote.has_value();
  });
  return found;
}

// --- send/receive units ----------------------------------------------------

void SciPmm::send_short_unit(Connection& connection,
                             std::span<const std::byte> data) {
  auto& state = connection.state<State>();
  MAD2_CHECK(data.size() <= options_.short_capacity, "short unit too large");
  MAD2_TRACE_SPAN(span, obs::Category::kTm, "sci.send_short");
  span.args(data.size());

  // Flow control: wait until the target slot has been consumed. When the
  // window is full, owed feedback flushes first — the peer may be blocked
  // on our counters in the opposite direction.
  auto feedback = port_->segment_memory(state.tx_feedback);
  const auto slot_free = [&] {
    return state.short_sent - load_u32(feedback.data()) <
           options_.short_slots;
  };
  if (!slot_free()) maybe_flush_owed();
  port_->wait_segment(state.tx_feedback, slot_free);

  // One PIO transaction: header + payload assembled in a scratch buffer.
  // (Packet delivery is atomic in the driver, so writing the header first
  // is safe; it becomes visible only with the payload.)
  std::vector<std::byte> scratch(kHeaderBytes + data.size());
  store_u32(scratch.data(), static_cast<std::uint32_t>(state.short_sent + 1));
  store_u32(scratch.data() + 4, static_cast<std::uint32_t>(data.size()));
  connection.node().charge_memcpy(data.size());
  std::memcpy(scratch.data() + kHeaderBytes, data.data(), data.size());
  port_->pio_write(state.tx_ring,
                   short_slot_offset(state.short_sent % options_.short_slots),
                   scratch);
  ++state.short_sent;
}

void SciPmm::recv_short_unit(Connection& connection,
                             std::span<std::byte> out) {
  auto& state = connection.state<State>();
  auto ring = port_->segment_memory(state.rx_ring);
  const std::uint64_t offset =
      short_slot_offset(state.short_rcvd % options_.short_slots);
  const auto arrived = [&] {
    return load_u32(ring.data() + offset) ==
           static_cast<std::uint32_t>(state.short_rcvd + 1);
  };
  if (!arrived()) maybe_flush_owed();
  port_->wait_segment(state.rx_ring, arrived);
  const std::uint32_t len = load_u32(ring.data() + offset + 4);
  MAD2_CHECK(len == out.size(),
             "short unit size mismatch: asymmetric pack/unpack sequences");
  connection.node().charge_memcpy(len);
  std::memcpy(out.data(), ring.data() + offset + kHeaderBytes, len);
  ++state.short_rcvd;

  if (defer_feedback_) {
    // Deferred: the progress tick writes the counter; ring() is a bit set
    // plus one notify while a flush is already pending.
    engine_->ring(doorbell_);
    return;
  }
  // Legacy path: return slot credits in batches.
  if (state.short_rcvd - state.short_fb_written >=
      options_.short_feedback_batch) {
    std::byte counter[4];
    store_u32(counter, static_cast<std::uint32_t>(state.short_rcvd));
    port_->pio_write(state.rx_feedback, 0, counter);
    state.short_fb_written = state.short_rcvd;
  }
}

void SciPmm::send_bulk(Connection& connection,
                       std::span<const std::byte> data, bool dma) {
  auto& state = connection.state<State>();
  MAD2_TRACE_SPAN(span, obs::Category::kTm, "sci.send_bulk",
                  dma ? "dma" : "pio");
  span.args(data.size());
  auto feedback = port_->segment_memory(state.tx_feedback);
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - done, options_.bulk_capacity);
    // Dual buffering: block only when all ring buffers are in flight.
    const auto buffer_free = [&] {
      return state.bulk_sent - load_u32(feedback.data() + 4) <
             options_.bulk_buffers;
    };
    if (!buffer_free()) maybe_flush_owed();
    port_->wait_segment(state.tx_feedback, buffer_free);
    const std::uint64_t offset =
        bulk_buffer_offset(state.bulk_sent % options_.bulk_buffers);
    const auto piece = data.subspan(done, chunk);
    // Payload straight from user memory (no local copy), header last so
    // the receiver only sees complete buffers.
    std::byte header[kHeaderBytes];
    store_u32(header, static_cast<std::uint32_t>(state.bulk_sent + 1));
    store_u32(header + 4, static_cast<std::uint32_t>(chunk));
    if (dma) {
      port_->dma_write(state.tx_ring, offset + kHeaderBytes, piece);
      port_->dma_write(state.tx_ring, offset, header);
    } else {
      port_->pio_write(state.tx_ring, offset + kHeaderBytes, piece);
      port_->pio_write(state.tx_ring, offset, header);
    }
    ++state.bulk_sent;
    done += chunk;
  }
}

void SciPmm::recv_bulk(Connection& connection, std::span<std::byte> out) {
  auto& state = connection.state<State>();
  MAD2_TRACE_SPAN(span, obs::Category::kTm, "sci.recv_bulk");
  span.args(out.size());
  auto ring = port_->segment_memory(state.rx_ring);
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t expected =
        std::min<std::size_t>(out.size() - done, options_.bulk_capacity);
    const std::uint64_t offset =
        bulk_buffer_offset(state.bulk_rcvd % options_.bulk_buffers);
    const auto arrived = [&] {
      return load_u32(ring.data() + offset) ==
             static_cast<std::uint32_t>(state.bulk_rcvd + 1);
    };
    if (!arrived()) maybe_flush_owed();
    port_->wait_segment(state.rx_ring, arrived);
    const std::uint32_t len = load_u32(ring.data() + offset + 4);
    MAD2_CHECK(len == expected,
               "bulk unit size mismatch: asymmetric pack/unpack sequences");
    connection.node().charge_memcpy(len);
    std::memcpy(out.data() + done, ring.data() + offset + kHeaderBytes, len);
    ++state.bulk_rcvd;
    done += len;
    if (defer_feedback_) {
      // The next iteration's flush-before-block (or the progress tick,
      // whichever comes first) returns the buffer — the 2-deep pipeline
      // stays full without a PIO write per buffer.
      engine_->ring(doorbell_);
      continue;
    }
    // Legacy path: prompt per-buffer feedback keeps the pipeline moving.
    std::byte counter[4];
    store_u32(counter, static_cast<std::uint32_t>(state.bulk_rcvd));
    port_->pio_write(state.rx_feedback, 4, counter);
    state.bulk_fb_written = state.bulk_rcvd;
  }
}

// ------------------------------------------------------------------- TMs ---

void SciShortTm::send_buffer(Connection& connection,
                             std::span<const std::byte> data) {
  if (data.empty()) return;
  pmm_->send_short_unit(connection, data);
}

void SciShortTm::receive_buffer(Connection& connection,
                                std::span<std::byte> out) {
  if (out.empty()) return;
  pmm_->recv_short_unit(connection, out);
}

void SciBulkTm::send_buffer(Connection& connection,
                            std::span<const std::byte> data) {
  pmm_->send_bulk(connection, data, dma_);
}

void SciBulkTm::receive_buffer(Connection& connection,
                               std::span<std::byte> out) {
  pmm_->recv_bulk(connection, out);
}


double SciPmm::bandwidth_hint_mbs() const {
  const auto& p = endpoint_.channel().network().as<net::SciNetwork>().params();
  if (options_.enable_dma) {
    // Bulk blocks ride the (D310: poor) DMA engine above dma_min_bytes.
    return std::min(p.fabric.wire_mbs, p.dma_engine_mbs);
  }
  // PIO drain: CPU stores through the mapped remote window.
  return std::min(p.fabric.wire_mbs,
                  endpoint_.node().params().pci_pio_mbs);
}

}  // namespace mad2::mad
