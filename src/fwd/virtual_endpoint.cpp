// The per-node side of a virtual channel: VirtualConnection fragments a
// message into packets on the sending node, and VirtualEndpoint lands the
// packets and hands their bytes to the unpacks on the receiving node.
#include "fwd/virtual_channel.hpp"

#include <algorithm>
#include <cstring>

#include "util/bytes.hpp"

namespace mad2::fwd {

// --------------------------------------------------------- VirtualEndpoint ---

VirtualConnection& VirtualEndpoint::connection(std::uint32_t remote) {
  auto it = connections_.find(remote);
  if (it == connections_.end()) {
    MAD2_CHECK(remote != local_ && channel_->router_.has_node(remote),
               "unknown virtual destination");
    it = connections_
             .emplace(remote, std::unique_ptr<VirtualConnection>(
                                  new VirtualConnection(this, remote)))
             .first;
  }
  return *it->second;
}

VirtualConnection& VirtualEndpoint::begin_packing(std::uint32_t remote) {
  VirtualConnection& conn = connection(remote);
  MAD2_CHECK(!conn.packing_, "virtual message already open");
  // end_packing left the stream empty (it checks), so nothing to reset.
  conn.packing_ = true;
  return conn;
}

std::uint32_t VirtualEndpoint::fetch_packet(Demand* demand) {
  if (terminal_ep_ == nullptr) {
    const std::size_t hop = channel_->router_.terminal_hop(local_);
    terminal_ep_ = &channel_->hop_channels_[hop]->endpoint(local_);
  }
  const bool resilient = channel_->resilient();
  for (;;) {
    Packet packet =
        channel_->receive_packet(*terminal_ep_, demand, resilient);
    MAD2_CHECK(packet.header.dst == local_,
               "virtual packet delivered to the wrong node");
    const std::uint32_t src = packet.header.src;
    if (!resilient) {
      deliver_packet(std::move(packet));
      return src;
    }
    // In sequence: deliver it and every stashed successor behind it. A
    // later packet that overtook the cursor across the re-route is parked
    // whole (demand landing was disabled for it) until the gap fills, so
    // delivery order per flow never deviates from seq order. A replay
    // duplicate is dropped (the buffer recycles right here).
    VirtualChannel::FlowControl& flow = channel_->flow_control(src, local_);
    const std::uint64_t seq = packet.ext.seq;
    const SeqVerdict verdict = flow.received.accept(
        seq, std::move(packet),
        [this](Packet&& next) { deliver_packet(std::move(next)); });
    if (verdict == SeqVerdict::kDelivered) return src;
    if (verdict == SeqVerdict::kStashed) {
      ++channel_->counters_.stashed;
    } else {
      ++flow.dup_drops;
      ++channel_->counters_.dup_drops;
    }
  }
}

void VirtualEndpoint::deliver_packet(Packet packet) {
  // End-to-end feedback: free the sender's window slot and feed the
  // delivery delay into the flow's estimator. Empty packets (bare `last`
  // markers) never took a slot, so they must not release one.
  if ((channel_->congestion_enabled() || channel_->resilient()) &&
      packet.header.payload_len > 0) {
    channel_->on_packet_delivered(packet);
  }
  channel_->note_packet_trace(packet);
  if (channel_->resilient()) {
    // The receiver cursor moved past this packet, which doubles as
    // confirming it to the sender: its retain window trims against it.
    channel_->retention_freed_.notify_all();
  }
  const std::uint32_t src = packet.header.src;
  std::size_t staged = 0;
  for (const auto& piece : packet.storage->pieces) staged += piece.size();
  if (staged > 0) {
    Stream& stream = streams_[src];
    stream.packets.push_back(std::move(packet));
    stream.bytes += staged;
  }
  // else: fully direct-landed (or empty) — the buffer recycles right here.
}

VirtualConnection& VirtualEndpoint::begin_unpacking() {
  MAD2_CHECK(active_incoming_ == nullptr,
             "virtual incoming message already open");
  // Leftover packets of a *different* source fetched while draining the
  // previous message start the next one; otherwise fetch.
  const auto staged = std::find_if(
      streams_.begin(), streams_.end(),
      [](const auto& entry) { return entry.second.bytes > 0; });
  const std::uint32_t src =
      staged != streams_.end() ? staged->first : fetch_packet(nullptr);
  VirtualConnection& conn = connection(src);
  MAD2_CHECK(!conn.unpacking_, "virtual connection already unpacking");
  conn.unpacking_ = true;
  active_incoming_ = &conn;
  return conn;
}

void VirtualEndpoint::settle(Stream& stream, PooledBuffer* retain) {
  while (!stream.packets.empty()) {
    const auto& pieces = stream.packets.front().storage->pieces;
    while (stream.piece_index < pieces.size() &&
           stream.piece_offset == pieces[stream.piece_index].size()) {
      ++stream.piece_index;
      stream.piece_offset = 0;
    }
    if (stream.piece_index < pieces.size()) return;
    if (retain != nullptr) *retain = std::move(stream.packets.front().storage);
    stream.packets.pop_front();
    stream.piece_index = 0;
    stream.piece_offset = 0;
  }
}

void VirtualEndpoint::read_stream(std::uint32_t src,
                                  std::span<std::byte> out) {
  Stream& stream = streams_[src];
  std::size_t done = 0;
  while (done < out.size()) {
    if (stream.bytes == 0) {
      // Nothing staged: fetch with the remaining window as the landing
      // demand, so payload goes straight from the hop driver into the
      // user memory (no pool -> user copy for those bytes).
      Demand demand{src, out.subspan(done), 0};
      fetch_packet(&demand);
      done += demand.filled;
      continue;
    }
    settle(stream);
    const auto piece = stream.packets.front().storage->pieces[
        stream.piece_index];
    const std::size_t chunk =
        std::min(piece.size() - stream.piece_offset, out.size() - done);
    // Staged bytes pay the one pool -> user copy.
    channel_->session().node(local_).charge_memcpy(chunk);
    std::memcpy(out.data() + done, piece.data() + stream.piece_offset,
                chunk);
    stream.piece_offset += chunk;
    stream.bytes -= chunk;
    done += chunk;
  }
  settle(stream);  // recycle a front packet this read fully drained
}

// ------------------------------------------------------- VirtualConnection ---

void VirtualConnection::append_meta(std::span<const std::byte> bytes) {
  // Consolidate into the trailing meta buffer when it is still the last
  // piece; re-point the span afterwards (the vector may reallocate).
  endpoint_->channel().session().node(endpoint_->local()).charge_memcpy(
      bytes.size());
  // Extend the trailing meta buffer only while the piece still covers the
  // whole buffer — a piece split by a packet flush must not be re-pointed
  // (its front part is already on the wire).
  if (!pieces_.empty() && pieces_.back().is_meta &&
      pieces_.back().data.data() == metas_.back().data() &&
      pieces_.back().data.size() == metas_.back().size()) {
    std::vector<std::byte>& meta = metas_.back();
    meta.insert(meta.end(), bytes.begin(), bytes.end());
    pieces_.back().data = std::span<const std::byte>(meta);
  } else {
    metas_.emplace_back(bytes.begin(), bytes.end());
    pieces_.push_back(
        Piece{std::span<const std::byte>(metas_.back()), true});
  }
  pending_bytes_ += bytes.size();
}

void VirtualConnection::append_piece(std::span<const std::byte> data) {
  pieces_.push_back(Piece{data, false});
  pending_bytes_ += data.size();
}

void VirtualConnection::pack(std::span<const std::byte> data,
                             mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(packing_, "pack outside begin_packing/end_packing");
  // The Generic TM self-describes every block (size + constraints) so
  // gateways and the receiver can handle the stream without application
  // knowledge (Section 6.1). Headers and small blocks are consolidated
  // into owned buffers; large blocks travel zero-copy from user memory
  // (read at packet flush — so send_LATER data may be read before
  // end_packing once the MTU fills).
  constexpr std::size_t kInlineMax = 512;
  std::byte header[VirtualChannel::kBlockHeaderBytes];
  store_u64(header, data.size());
  header[8] = static_cast<std::byte>(smode);
  header[9] = static_cast<std::byte>(rmode);
  append_meta(header);
  if (data.size() < kInlineMax) {
    append_meta(data);
  } else {
    append_piece(data);
  }
  while (pending_bytes_ >= endpoint_->channel().def().mtu) {
    flush_packet(/*last=*/false);
  }
}

void VirtualConnection::flush_packet(bool last) {
  VirtualChannel& channel = endpoint_->channel();
  const std::size_t take = std::min(pending_bytes_, channel.def().mtu);

  // Gather pieces off the front of the queue, splitting the last one at
  // the packet boundary. The gather list reuses this connection's scratch
  // vector — after warm-up no allocation happens per packet.
  gather_scratch_.clear();
  std::size_t taken = 0;
  std::size_t metas_consumed = 0;  // freed only after the send reads them
  while (taken < take) {
    Piece& piece = pieces_.front();
    const std::size_t chunk = std::min(piece.data.size(), take - taken);
    gather_scratch_.push_back(piece.data.subspan(0, chunk));
    taken += chunk;
    if (chunk == piece.data.size()) {
      if (piece.is_meta) ++metas_consumed;
      pieces_.pop_front();
    } else {
      piece.data = piece.data.subspan(chunk);
      // A split meta piece keeps its backing buffer alive in metas_.
    }
  }
  pending_bytes_ -= taken;

  sim::Simulator& simulator = channel.session().simulator();
  const std::uint32_t local = endpoint_->local();
  const std::size_t hop = channel.router_.hop_of(local, remote_);
  mad::ChannelEndpoint& ep = channel.hop_channels_[hop]->endpoint(local);
  const VirtualChannel::PacketHeader header{local, remote_, 0,
                                            last ? 1u : 0u, 0};
  const bool tracing = channel.propagation_enabled();
  // Trace-context propagation: hop 0 opens at flush entry, so pacing,
  // window admission and (resilient) mutex waits below all show up as
  // sender-side queue residency instead of being misattributed to the
  // wire.
  const sim::Time flush_enter = simulator.now();
  PacketExt ext;

  // Bandwidth control (paper future work): pace packet departures so the
  // inbound flow at the gateway stays below the configured rate.
  if (channel.def().sender_rate_mbs > 0.0 && taken > 0) {
    if (simulator.now() < pace_next_send_) {
      simulator.advance(pace_next_send_ - simulator.now());
    }
    pace_next_send_ =
        simulator.now() +
        sim::transfer_time(taken, channel.def().sender_rate_mbs);
  }

  // End-to-end window: block until the flow has room in flight. The stamp
  // is taken after admission, so time spent waiting here is the sender's
  // own queueing, not network delay — the estimator only sees the path.
  // Admission happens BEFORE the send mutex below: a failover replay
  // needs that mutex to redeliver the lost packets that free the window,
  // so blocking on the window while holding it would deadlock.
  if (channel.congestion_enabled() && taken > 0) {
    channel.flow_control(local, remote_).window->before_send();
    ext.stamp = simulator.now();
  }

  // Resilient send: serialize with the repair fiber, then sequence and
  // retain the packet before it leaves, so a gateway death at any point
  // can replay it.
  const bool resilient = channel.resilient();
  sim::Mutex* mutex = resilient ? &channel.send_mutex(local) : nullptr;
  VirtualChannel::FlowControl* flow =
      resilient || tracing ? &channel.flow_control(local, remote_) : nullptr;
  if (resilient) {
    mutex->lock();
    for (;;) {
      flow->unacked.confirm(flow->received.expected());
      if (!flow->replay_pending &&
          flow->unacked.size() < channel.topology().replay_quota) {
        break;
      }
      // A failover is mid-replay for this flow, or the retain buffer is
      // full of unconfirmed packets: park until the repair fiber settles
      // / the receiver cursor advances, re-checking from scratch (the
      // kill may land exactly in this window).
      mutex->unlock();
      (flow->replay_pending ? channel.replay_settled_
                            : channel.retention_freed_)
          .wait();
      mutex->lock();
    }
  }
  // One seq per flushed packet, the resilient order key and the trace
  // identity at once. Empty `last` markers are sequenced too — losing one
  // would wedge the receiver cursor forever.
  if (flow != nullptr) ext.seq = flow->next_seq++;
  if (tracing) {
    const sim::Time now = simulator.now();
    ext.hops.push(local, flush_enter, now, now);
  }
  if (resilient) {
    VirtualChannel::RetainedPacket retained{header, ext, {}};
    retained.bytes.reserve(taken);
    for (const auto& piece : gather_scratch_) {
      retained.bytes.insert(retained.bytes.end(), piece.begin(),
                            piece.end());
    }
    channel.session().node(local).charge_memcpy(taken);
    flow->unacked.push(ext.seq, std::move(retained));
  }
  // Route picked under the mutex, against the current healthy sets: a
  // kill that already happened re-routes this packet, a kill that lands
  // later replays it from the retain buffer.
  const std::uint32_t to = channel.router_.next_node(hop, local, remote_);
  channel.send_packet(ep, to, header, gather_scratch_, sizes_scratch_, ext);
  if (resilient) mutex->unlock();
  // The packet is fully on the wire (end_packing committed every piece);
  // now the consumed meta buffers can go.
  for (std::size_t i = 0; i < metas_consumed; ++i) metas_.pop_front();
}

void VirtualConnection::end_packing() {
  MAD2_CHECK(packing_, "end_packing without begin_packing");
  flush_packet(/*last=*/true);
  MAD2_CHECK(pieces_.empty() && pending_bytes_ == 0,
             "unflushed virtual stream at end_packing");
  metas_.clear();
  packing_ = false;
}

void VirtualConnection::read_block_header(std::size_t expected_len,
                                          mad::SendMode smode,
                                          mad::ReceiveMode rmode) {
  std::byte header[VirtualChannel::kBlockHeaderBytes];
  endpoint_->read_stream(remote_, header);
  const std::uint64_t len = load_u64(header);
  MAD2_CHECK(len == expected_len,
             "virtual unpack size does not match the self-described block");
  MAD2_CHECK(header[8] == static_cast<std::byte>(smode) &&
                 header[9] == static_cast<std::byte>(rmode),
             "virtual unpack modes do not match the self-described block");
}

void VirtualConnection::unpack(std::span<std::byte> out,
                               mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  view_hold_.reset();
  read_block_header(out.size(), smode, rmode);
  // Staged bytes are copied out of the pooled buffers (charged inside
  // read_stream); the rest of the block lands directly from the hop
  // driver into `out` via the demand-directed fetch — no blanket
  // reassembly copy.
  endpoint_->read_stream(remote_, out);
}

std::span<const std::byte> VirtualConnection::unpack_view(
    std::size_t len, mad::SendMode smode, mad::ReceiveMode rmode) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  MAD2_CHECK(rmode == mad::receive_CHEAPER,
             "unpack_view is receive_CHEAPER-only (EXPRESS data must land "
             "in caller memory)");
  view_hold_.reset();
  read_block_header(len, smode, rmode);
  if (len == 0) return {};
  VirtualEndpoint::Stream& stream = endpoint_->streams_[remote_];
  while (stream.bytes == 0) endpoint_->fetch_packet(nullptr);
  endpoint_->settle(stream);
  const auto piece =
      stream.packets.front().storage->pieces[stream.piece_index];
  if (piece.size() - stream.piece_offset >= len) {
    // Contiguous inside the landed buffer: lend the memory out instead of
    // copying. Nothing is charged — this is the zero-copy receive_CHEAPER
    // path. If the view is the packet's tail, the storage moves to
    // view_hold_ so the memory survives until the next unpack.
    const auto view = piece.subspan(stream.piece_offset, len);
    stream.piece_offset += len;
    stream.bytes -= len;
    endpoint_->settle(stream, &view_hold_);
    return view;
  }
  // The block straddles packets (or borrowed-slot chunks): stage it
  // through the scratch copy — still only one copy, pool -> scratch.
  view_scratch_.resize(len);
  endpoint_->read_stream(remote_, std::span<std::byte>(view_scratch_));
  return std::span<const std::byte>(view_scratch_);
}

void VirtualConnection::end_unpacking() {
  MAD2_CHECK(unpacking_, "end_unpacking without begin_unpacking");
  view_hold_.reset();
  unpacking_ = false;
  endpoint_->active_incoming_ = nullptr;
}

}  // namespace mad2::fwd
