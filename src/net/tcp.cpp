#include "net/tcp.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace mad2::net {

TcpParams TcpParams::fast_ethernet() {
  TcpParams p;
  p.fabric.name = "ethernet";
  p.fabric.wire_mbs = 12.5;  // 100 Mb/s
  p.fabric.propagation = sim::from_us(25.0);  // switch + NIC interrupt path
  p.fabric.per_packet = sim::from_us(2.0);    // driver per-frame cost
  p.fabric.wire_chunk_bytes = 1518;
  p.fabric.rx_slots = 256;
  // A 32-frame window of full-MSS frames serializes in ~3.9 ms at
  // 12.5 MB/s, so the retransmit clock must sit above that or every
  // queued frame would "time out" while merely waiting for the wire.
  p.reliability.rto_initial = sim::from_us(3000.0);
  p.reliability.rto_max = sim::from_us(50000.0);
  p.reliability.header_bytes = p.frame_overhead + 21;  // + shim header
  return p;
}

TcpNetwork::TcpNetwork(sim::Simulator* simulator,
                       std::vector<hw::Node*> nodes, TcpParams params)
    : NicNetwork(simulator, std::move(params)) {
  if (params_.fabric.faults == nullptr) {
    add_ports(this, nodes);
    return;
  }
  // Lossy wire: frames travel via the reliable shim's own fabric; the raw
  // one stays empty (no ports) and injects no faults.
  reliable_ = std::make_unique<ReliableNetwork>(simulator, params_.fabric,
                                                params_.reliability);
  reliable_->set_link_error_handler(
      std::bind_front(&TcpNetwork::on_link_failed, this));
  add_ports(this, nodes, [this] { return reliable_->add_port(); });
}

void TcpNetwork::on_link_failed(std::uint32_t a, std::uint32_t b,
                                const Status& status) {
  // Endpoint `a` gave up, so nothing it sends reaches anyone and its rx
  // pump is winding down: poison all of a's streams, plus every stream
  // pointed at a from the other ports. Streams between unaffected pairs
  // keep working.
  dead_.emplace_back(a, status);
  for (auto& port : ports_) {
    for (auto& [key, stream] : port->streams_) {
      if (port->rank_ == a || stream->peer() == a) stream->fail(status);
    }
  }
  if (link_error_handler_) link_error_handler_(a, b, status);
}

// -------------------------------------------------------------- TcpPort ---

TcpPort::TcpPort(TcpNetwork* network, hw::Node* node, std::uint32_t rank)
    : NicPort(network, node, rank), any_frame_(network->simulator_) {
  spawn("rx", [this] { rx_loop(); });
}

void TcpPort::wait_any(const std::function<bool()>& pred) {
  while (!pred()) any_frame_.wait();
}

TcpStream& TcpPort::stream(std::uint32_t peer, std::uint32_t stream_id) {
  MAD2_CHECK(peer < network_->size(), "stream to unknown peer");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(peer) << 32) | stream_id;
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_
             .emplace(key, std::unique_ptr<TcpStream>(
                               new TcpStream(this, peer, stream_id)))
             .first;
    for (const auto& [rank, status] : network_->dead_) {
      if (rank == rank_ || rank == peer) it->second->fail(status);
    }
    // Pair with the peer's end if it exists; otherwise the peer pairs
    // both when it creates its end (at the latest, on the first frame).
    auto& peer_streams = network_->ports_[peer]->streams_;
    auto mirror = peer_streams.find(
        (static_cast<std::uint64_t>(rank_) << 32) | stream_id);
    if (mirror != peer_streams.end()) {
      it->second->mirror_ = mirror->second.get();
      mirror->second->mirror_ = it->second.get();
    }
  }
  return *it->second;
}

void TcpPort::rx_loop() {
  ReliableEndpoint* shim = network_->reliable_
                               ? &network_->reliable_->endpoint(rank_)
                               : nullptr;
  for (;;) {
    // One landing body for both carriers: the reliable shim's in-order
    // delivery over a lossy wire, or the raw fabric.
    TcpPacket frame;
    if (shim != nullptr) {
      ReliableEndpoint::Message message;
      if (!shim->recv(message).is_ok()) {
        // Link declared dead; the error handler has fired. Blocked stream
        // readers stay parked until the session tears the simulation down.
        return;
      }
      frame = {message.src, message.channel, std::move(message.payload)};
    } else {
      frame = network_->fabric_.receive(rank_);
    }
    // NIC DMA into kernel memory.
    node_->pci_bus().transfer(
        frame.data.size() + network_->params_.frame_overhead,
        node_->params().pci_dma_mbs, hw::TxClass::kDma, pci_initiator());
    stream(frame.src, frame.stream).on_frame(std::move(frame.data));
    any_frame_.notify_all();
  }
}

// ------------------------------------------------------------ TcpStream ---

TcpStream::TcpStream(TcpPort* port, std::uint32_t peer,
                     std::uint32_t stream_id)
    : port_(port),
      peer_(peer),
      stream_id_(stream_id),
      tx_room_(port_->network_->simulator_),
      tx_data_(port_->network_->simulator_),
      rx_data_(port_->network_->simulator_),
      tx_window_(port_->network_->simulator_),
      tx_handed_off_(port_->network_->simulator_) {}

// Blocks until no other fiber is inside enqueue_tx() on this stream, then
// claims the writer turn for the scope. tx_room_ doubles as the turn wait
// queue: both room and turn waiters re-check their condition in a loop, so
// sharing wakeups is safe.
struct TcpStream::TxWriter {
  explicit TxWriter(TcpStream& stream) : stream_(stream) {
    while (stream_.tx_writing_) stream_.tx_room_.wait();
    stream_.tx_writing_ = true;
  }
  ~TxWriter() {
    stream_.tx_writing_ = false;
    stream_.tx_room_.notify_all();
  }
  TxWriter(const TxWriter&) = delete;
  TxWriter& operator=(const TxWriter&) = delete;
  TcpStream& stream_;
};

void TcpStream::send(std::span<const std::byte> data) {
  (void)send_checked(data);  // a poisoned stream black-holes the rest
}

void TcpStream::send_deferred(std::span<const std::byte> data) {
  // One user-space staging copy; the kernel crossing waits for the batch.
  // No writer turn needed: pending_ is only drained under the turn, and
  // appending never touches tx_buffer_.
  port_->node_->charge_memcpy(data.size());
  pending_.insert(pending_.end(), data.begin(), data.end());
}

void TcpStream::flush_pending() {
  if (pending_.empty()) return;
  TxWriter writer(*this);
  flush_pending_locked();
}

void TcpStream::flush_pending_locked() {
  if (pending_.empty()) return;
  const TcpParams& params = port_->network_->params_;
  port_->node_->charge_cpu(params.send_syscall);
  // Swap out the batch before enqueueing: enqueue_tx can block on socket-
  // buffer room, and a fiber staging more bytes meanwhile must land them
  // in the *next* batch, not a vector being iterated. Swapping with the
  // (empty, capacitated) flush buffer keeps both capacities alive, so
  // steady-state batches allocate nothing.
  pending_.swap(pending_flushing_);
  (void)enqueue_tx(pending_flushing_);
  pending_flushing_.clear();
}

Status TcpStream::enqueue_tx(std::span<const std::byte> data) {
  const TcpParams& params = port_->network_->params_;
  // Kernel copies user data into the socket buffer (checksum + copy).
  std::size_t done = 0;
  while (done < data.size()) {
    while (failed_.is_ok() && tx_buffer_.size() >= params.socket_buffer) {
      tx_room_.wait();
    }
    // A poisoned stream black-holes the remaining bytes instead of
    // parking forever with the socket buffer full: resilient sessions
    // keep running after a link death, and a sender wedged inside send()
    // would hold its flow's send mutex across the failover (the replay
    // machinery redelivers whatever the dead link swallowed).
    if (!failed_.is_ok()) return failed_;
    const std::size_t room = params.socket_buffer - tx_buffer_.size();
    const std::size_t chunk = std::min(room, data.size() - done);
    port_->node_->charge_memcpy(chunk);
    tx_buffer_.insert(tx_buffer_.end(), data.begin() + done,
                      data.begin() + done + chunk);
    done += chunk;
    if (tx_started_) {
      tx_data_.notify_all();
    } else {
      // First bytes ever: start the transmit fiber. Its start event lands
      // where the wakeup of an already-parked fiber would (now, next
      // sequence number), so a stream that never sends costs no fiber
      // and the schedule of one that does is unchanged.
      tx_started_ = true;
      port_->network_->simulator_->spawn_daemon(
          "tcp.stream." + std::to_string(port_->rank_) + "->" +
              std::to_string(peer_) + "." + std::to_string(stream_id_),
          [this] { tx_loop(); });
    }
  }
  return Status::ok();
}

void TcpStream::tx_loop() {
  const TcpParams& params = port_->network_->params_;
  ReliableNetwork* reliable = port_->network_->reliable_.get();
  for (;;) {
    while (tx_buffer_.empty()) tx_data_.wait();
    std::size_t chunk = std::min<std::size_t>(tx_buffer_.size(), params.mss);
    // Receive window: park while the frame would overfill the peer's
    // socket buffer. tx_buffer_ only grows meanwhile, so re-size the
    // frame after each wakeup. A poisoned stream ignores the window (its
    // peer may never read again) and ships what it holds.
    while (failed_.is_ok() && peer_unread_ + chunk > params.socket_buffer) {
      tx_window_.wait();
      chunk = std::min<std::size_t>(tx_buffer_.size(), params.mss);
    }
    peer_unread_ += chunk;
    std::vector<std::byte> data(tx_buffer_.begin(),
                                tx_buffer_.begin() + chunk);
    tx_buffer_.erase(tx_buffer_.begin(), tx_buffer_.begin() + chunk);
    tx_room_.notify_all();
    tx_in_hand_ = true;
    // NIC pulls the frame from kernel memory, then it goes on the wire.
    port_->node_->pci_bus().transfer(
        chunk + params.frame_overhead, port_->node_->params().pci_dma_mbs,
        hw::TxClass::kDma, port_->pci_initiator());
    Status shipped = Status::ok();
    if (reliable != nullptr) {
      shipped = reliable->endpoint(port_->rank_)
                    .send(peer_, stream_id_, std::move(data));
    } else {
      port_->network_->fabric_.ship(port_->rank_, peer_,
                                    {port_->rank_, stream_id_, std::move(data)},
                                    chunk + params.frame_overhead);
    }
    tx_in_hand_ = false;
    tx_handed_off_.notify_all();
    // Link declared dead (error handler has fired); stop transmitting.
    if (!shipped.is_ok()) return;
  }
}

void TcpStream::on_frame(std::vector<std::byte> data) {
  rx_buffer_.insert(rx_buffer_.end(), data.begin(), data.end());
  rx_data_.notify_all();
}

std::size_t TcpStream::take_rx(std::span<std::byte> out) {
  // Fastpath: one syscall drains everything the kernel has buffered;
  // reads served out of that staged drain are user-space copies only.
  if (fast_ && rx_staged_ == 0) {
    port_->node_->charge_cpu(port_->network_->params_.recv_syscall);
    rx_staged_ = rx_buffer_.size();
  }
  std::size_t chunk = std::min(rx_buffer_.size(), out.size());
  if (fast_) {
    chunk = std::min(chunk, rx_staged_);
    rx_staged_ -= chunk;
  }
  port_->node_->charge_memcpy(chunk);
  std::copy(rx_buffer_.begin(), rx_buffer_.begin() + chunk, out.begin());
  rx_buffer_.erase(rx_buffer_.begin(), rx_buffer_.begin() + chunk);
  // The window update is a direct call, like fwd's delivery feedback: an
  // ACK delay would not throttle a window ~30x the bandwidth-delay
  // product. Buffered bytes came from the mirror, so it is linked.
  mirror_->peer_unread_ -= chunk;
  mirror_->tx_window_.notify_all();
  return chunk;
}

void TcpStream::recv(std::span<std::byte> out) {
  if (!fast_) port_->node_->charge_cpu(port_->network_->params_.recv_syscall);
  std::size_t done = 0;
  while (done < out.size()) {
    while (rx_buffer_.empty() && failed_.is_ok()) rx_data_.wait();
    // Poisoned and drained: the rest of this message is gone. Zero-fill
    // and return — the mirror of send()'s black-hole — so a reader parked
    // mid-message completes and releases whatever buffers it holds
    // instead of pinning them forever (resilient sessions keep running
    // after a link death and discard the truncated packet downstream).
    // recv_some()/wait_readable() keep ignoring the poison on purpose:
    // the rail drain relies on reading already-delivered bytes from a
    // failed stream (see RailSet::drain_segment).
    if (rx_buffer_.empty()) {
      std::fill(out.begin() + done, out.end(), std::byte{0});
      // The staged drain is void along with the stream: bytes arriving
      // after this point must charge their own recv syscall.
      rx_staged_ = 0;
      return;
    }
    done += take_rx(out.subspan(done));
  }
}

std::size_t TcpStream::recv_some(std::span<std::byte> out) {
  if (!fast_) port_->node_->charge_cpu(port_->network_->params_.recv_syscall);
  wait_readable();
  return take_rx(out);
}

void TcpStream::wait_readable() {
  while (rx_buffer_.empty()) rx_data_.wait();
}

void TcpStream::fail(const Status& status) {
  if (!failed_.is_ok()) return;  // first failure wins
  failed_ = status;
  // Any staged recv drain dies with the link: post-failure reads (the
  // rail drains deliberately keep reading a poisoned stream) must charge
  // their own recv syscall rather than ride a stale staging window.
  rx_staged_ = 0;
  // Unpark everyone; rx_buffer_ keeps its bytes (delivered data always
  // wins over the failure) and checked callers observe status().
  tx_room_.notify_all();
  tx_data_.notify_all();
  rx_data_.notify_all();
  tx_window_.notify_all();
  tx_handed_off_.notify_all();
}

Status TcpStream::send_checked(std::span<const std::byte> data) {
  TxWriter writer(*this);
  // Re-check pending under the writer turn: a tick's flush may have been
  // in flight when we arrived, and more bytes may have been staged while
  // we waited for it. Flushing here keeps byte order.
  flush_pending_locked();
  const TcpParams& params = port_->network_->params_;
  port_->node_->charge_cpu(params.send_syscall);
  return enqueue_tx(data);
}

Status TcpStream::recv_some_checked(std::span<std::byte> out,
                                    std::size_t* got) {
  if (!fast_) port_->node_->charge_cpu(port_->network_->params_.recv_syscall);
  while (rx_buffer_.empty() && failed_.is_ok()) rx_data_.wait();
  if (rx_buffer_.empty()) {
    *got = 0;
    return failed_;
  }
  *got = take_rx(out);
  return Status::ok();
}

Status TcpStream::flush() {
  if (!pending_.empty()) flush_pending();
  // tx_loop notifies tx_room_ after every chunk it takes, including the
  // one that empties the buffer, and ~TxWriter notifies when a writer
  // turn ends, so this wait set is complete. Waiting out tx_writing_
  // covers a concurrent writer parked mid-copy whose remaining bytes are
  // not yet in tx_buffer_.
  while (failed_.is_ok() && (tx_writing_ || !tx_buffer_.empty())) {
    tx_room_.wait();
  }
  // The last frame taken may still be crossing the PCI bus, not yet in
  // the shim's outstanding set. Its own queue keeps this wait from waking
  // room or writer-turn waiters.
  while (failed_.is_ok() && tx_in_hand_) tx_handed_off_.wait();
  if (!failed_.is_ok()) return failed_;
  ReliableNetwork* reliable = port_->network_->reliable_.get();
  if (reliable != nullptr) {
    const Status drained =
        reliable->endpoint(port_->rank_).wait_drained(peer_);
    if (!drained.is_ok()) return drained;
  }
  return failed_;
}

}  // namespace mad2::net
