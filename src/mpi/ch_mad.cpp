#include "mpi/ch_mad.hpp"

#include <cstring>

namespace mad2::mpi {

ChMadWorld::ChMadWorld(mad::Session& session, std::string channel_name)
    : session_(&session), channel_name_(std::move(channel_name)) {
  const auto& nodes = session_->channel(channel_name_).nodes();
  // Ranks are positions in the channel's node list; the common case is a
  // channel over all nodes, making rank == node id.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    MAD2_CHECK(nodes[i] == i,
               "ChMadWorld expects a channel over nodes 0..n-1");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    comms_.emplace_back(
        new ChMadComm(this, static_cast<std::uint32_t>(i)));
  }
}

ChMadWorld::~ChMadWorld() = default;

ChMadComm::ChMadComm(ChMadWorld* world, std::uint32_t rank)
    : world_(world), rank_(rank) {
  progress_wq_ =
      std::make_unique<sim::WaitQueue>(&world_->session().simulator());
  world_->session().simulator().spawn_daemon(
      "mpi.pump." + std::to_string(rank), [this] { pump_loop(); });
}

int ChMadComm::size() const { return static_cast<int>(world_->size()); }

sim::Simulator& ChMadComm::simulator() {
  return world_->session().simulator();
}

void ChMadComm::send(std::span<const std::byte> data, int dst, int tag) {
  MAD2_CHECK(dst >= 0 && dst < size(), "send to invalid rank");
  auto& node = world_->session().node(rank_);
  node.charge_cpu(world_->per_op_cost);
  mad::ChannelEndpoint& ep =
      world_->session().endpoint(world_->channel_name(), rank_);
  mad::Connection& conn =
      ep.begin_packing(static_cast<std::uint32_t>(dst));
  const Envelope envelope{tag, static_cast<std::uint32_t>(data.size())};
  mad::mad_pack_value(conn, envelope, mad::send_CHEAPER,
                      mad::receive_EXPRESS);
  conn.pack(data, mad::send_CHEAPER, mad::receive_CHEAPER);
  conn.end_packing();
}

RecvStatus ChMadComm::recv(std::span<std::byte> out, int src, int tag) {
  auto& node = world_->session().node(rank_);
  node.charge_cpu(world_->per_op_cost);

  // The pump may be mid-message when we arrive (blocked inside an unpack),
  // in which case it has already decided "unexpected" for a message that
  // matches us. So: re-scan the unexpected queue on every wakeup, not just
  // on entry, and prefer it over a pump match — unexpected messages are
  // older than anything the pump matched into `out` afterwards.
  PostedRecv posted{src, tag, out, false, {}};
  bool registered = false;
  for (;;) {
    auto it = unexpected_.begin();
    for (; it != unexpected_.end(); ++it) {
      if (matches(src, tag, it->src, it->tag)) break;
    }
    if (it != unexpected_.end()) {
      MAD2_CHECK(it->data.size() <= out.size(),
                 "receive buffer too small for matched message");
      if (registered) {
        if (posted.done) {
          // Rare double-delivery window: the pump also matched a (newer)
          // message into `out`. Re-queue that one as unexpected, then
          // deliver the older message in its place.
          Unexpected requeued;
          requeued.src = posted.status.source;
          requeued.tag = posted.status.tag;
          requeued.data.assign(out.begin(),
                               out.begin() + posted.status.bytes);
          unexpected_.push_back(std::move(requeued));
          // Iterator may be invalidated by push_back: re-find the match.
          it = unexpected_.begin();
          while (!matches(src, tag, it->src, it->tag)) ++it;
        } else {
          posted_.remove(&posted);
        }
      }
      node.charge_memcpy(it->data.size());
      std::memcpy(out.data(), it->data.data(), it->data.size());
      RecvStatus status{it->src, it->tag, it->data.size()};
      unexpected_.erase(it);
      return status;
    }
    if (registered && posted.done) return posted.status;
    if (!registered) {
      // Nothing can run between the scan above and this registration
      // (fibers are cooperative), so no message is lost in between.
      posted_.push_back(&posted);
      registered = true;
    }
    progress_wq_->wait();
  }
}

RecvStatus ChMadComm::probe() {
  for (;;) {
    if (!unexpected_.empty()) {
      const Unexpected& head = unexpected_.front();
      return RecvStatus{head.src, head.tag, head.data.size()};
    }
    progress_wq_->wait();
  }
}

void ChMadComm::pump_loop() {
  mad::ChannelEndpoint& ep =
      world_->session().endpoint(world_->channel_name(), rank_);
  for (;;) {
    mad::Connection& conn = ep.begin_unpacking();
    Envelope envelope{};
    mad::mad_unpack_value(conn, envelope, mad::send_CHEAPER,
                          mad::receive_EXPRESS);
    const int src = static_cast<int>(conn.remote());

    PostedRecv* match = nullptr;
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (matches((*it)->src, (*it)->tag, src, envelope.tag)) {
        match = *it;
        posted_.erase(it);
        break;
      }
    }

    if (match != nullptr) {
      MAD2_CHECK(envelope.size <= match->out.size(),
                 "receive buffer too small for matched message");
      conn.unpack(match->out.subspan(0, envelope.size), mad::send_CHEAPER,
                  mad::receive_CHEAPER);
      conn.end_unpacking();
      match->status = RecvStatus{src, envelope.tag, envelope.size};
      match->done = true;
    } else {
      Unexpected unexpected;
      unexpected.src = src;
      unexpected.tag = envelope.tag;
      unexpected.data.resize(envelope.size);
      conn.unpack(unexpected.data, mad::send_CHEAPER, mad::receive_CHEAPER);
      conn.end_unpacking();
      unexpected_.push_back(std::move(unexpected));
    }
    progress_wq_->notify_all();
  }
}

}  // namespace mad2::mpi
