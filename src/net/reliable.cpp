#include "net/reliable.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/debug_hook.hpp"

namespace mad2::net {

std::uint32_t frame_checksum(const ReliableFrame& frame) {
  std::byte header[17];
  store_u32(header + 0, frame.src);
  store_u32(header + 4, frame.channel);
  header[8] = std::byte{frame.kind};
  store_u32(header + 9, frame.seq);
  store_u32(header + 13, frame.ack);
  return wire_checksum(header, sizeof header) ^
         wire_checksum(frame.payload.data(), frame.payload.size());
}

// -------------------------------------------------------- ReliableNetwork ---

ReliableNetwork::ReliableNetwork(sim::Simulator* simulator,
                                 FabricParams fabric_params,
                                 ReliableParams params)
    : simulator_(simulator),
      params_(params),
      fabric_(simulator, std::move(fabric_params)) {}

ReliableNetwork::~ReliableNetwork() = default;

std::uint32_t ReliableNetwork::add_port() {
  const std::uint32_t rank = fabric_.add_port();
  MAD2_CHECK(rank == endpoints_.size(), "fabric/endpoint rank drift");
  endpoints_.emplace_back(new ReliableEndpoint(this, rank));
  return rank;
}

ReliableEndpoint& ReliableNetwork::endpoint(std::uint32_t port) {
  MAD2_CHECK(port < endpoints_.size(), "unknown reliable endpoint");
  return *endpoints_[port];
}

// ------------------------------------------------------- ReliableEndpoint ---

ReliableEndpoint::ReliableEndpoint(ReliableNetwork* network,
                                   std::uint32_t rank)
    : network_(network),
      rank_(rank),
      rx_ready_(network->simulator_),
      window_room_(network->simulator_),
      ack_pending_(network->simulator_),
      timer_wakeup_(network->simulator_) {
  std::string tag = ".";
  tag += std::to_string(rank_);
  network_->simulator_->spawn_daemon("rel.rx" + tag, [this] { rx_loop(); });
  network_->simulator_->spawn_daemon("rel.ack" + tag, [this] { ack_loop(); });
  network_->simulator_->spawn_daemon("rel.rto" + tag,
                                     [this] { retransmit_loop(); });
}

std::uint64_t ReliableEndpoint::wire_bytes(const ReliableFrame& frame) const {
  return network_->params_.header_bytes + frame.payload.size();
}

Status ReliableEndpoint::send(std::uint32_t dst, std::uint32_t channel,
                              std::vector<std::byte> payload) {
  MAD2_CHECK(dst < network_->port_count(), "send() to unknown port");
  MAD2_CHECK(dst != rank_, "send() to self");
  PeerTx& tx = tx_[dst];
  while (health_.is_ok() &&
         tx.outstanding.size() >= network_->params_.window) {
    window_room_.wait();
  }
  if (!health_.is_ok()) return health_;

  ReliableFrame frame;
  frame.src = rank_;
  frame.channel = channel;
  frame.kind = ReliableFrame::kData;
  frame.seq = static_cast<std::uint32_t>(tx.outstanding.end_seq());
  frame.ack = static_cast<std::uint32_t>(peer_rx(dst).expected() - 1);
  frame.payload = std::move(payload);
  frame.checksum = frame_checksum(frame);
  const std::uint64_t bytes = wire_bytes(frame);

  // Register before shipping: ship() blocks on wire serialization, and the
  // ack can race back before it returns. The retransmit clock starts only
  // once the frame is actually on the wire.
  const std::uint32_t seq = frame.seq;
  tx.outstanding.push(seq, Outstanding{frame, sim::kNever,
                                       network_->params_.rto_initial, 0,
                                       network_->simulator_->now()});
  ++counters_.data_frames;
  network_->fabric_.ship(rank_, dst, std::move(frame), bytes);

  if (Outstanding* still = tx.outstanding.find(seq)) {
    still->deadline =
        network_->simulator_->now() + network_->params_.rto_initial;
    timer_wakeup_.notify_all();
  }
  return Status::ok();
}

Status ReliableEndpoint::wait_drained(std::uint32_t dst) {
  // handle_ack and fail_link both notify window_room_, so the wait set
  // below covers every way the outstanding map can shrink or the loop
  // can become hopeless.
  for (;;) {
    if (!health_.is_ok()) return health_;
    auto it = tx_.find(dst);
    if (it == tx_.end() || it->second.outstanding.empty()) {
      return Status::ok();
    }
    window_room_.wait();
  }
}

Status ReliableEndpoint::recv(Message& out) {
  while (delivery_.empty() && health_.is_ok()) rx_ready_.wait();
  if (!delivery_.empty()) {
    out = std::move(delivery_.front());
    delivery_.pop_front();
    return Status::ok();
  }
  return health_;
}

void ReliableEndpoint::rx_loop() {
  for (;;) {
    ReliableFrame frame = network_->fabric_.receive(rank_);
    if (frame_checksum(frame) != frame.checksum) {
      // Indistinguishable from loss for the sender: no ack, so the frame
      // retransmits.
      ++counters_.corrupt_frames;
      continue;
    }
    handle_ack(frame.src, frame.ack);  // data frames piggyback acks too
    if (frame.kind == ReliableFrame::kData) handle_data(std::move(frame));
  }
}

ReliableEndpoint::PeerRx& ReliableEndpoint::peer_rx(std::uint32_t peer) {
  return rx_.try_emplace(peer, 1).first->second;  // data seqs start at 1
}

void ReliableEndpoint::handle_data(ReliableFrame frame) {
  const std::uint32_t peer = frame.src;
  const SeqVerdict verdict = peer_rx(peer).accept(
      frame.seq, Message{peer, frame.channel, std::move(frame.payload)},
      [this](Message&& message) { delivery_.push_back(std::move(message)); });
  // A duplicate (retransmit of something we already have, or a fabric
  // dup) is re-acked too, so a sender whose acks got lost stops
  // retransmitting.
  if (verdict == SeqVerdict::kDuplicate) ++counters_.dup_frames;
  if (verdict == SeqVerdict::kDelivered) rx_ready_.notify_all();
  queue_ack(peer);
}

void ReliableEndpoint::handle_ack(std::uint32_t peer, std::uint32_t ack) {
  auto it = tx_.find(peer);
  if (it == tx_.end()) return;
  PeerTx& tx = it->second;
  const std::size_t confirmed = tx.outstanding.confirm(
      std::uint64_t{ack} + 1, [&](const Outstanding& out) {
        // Karn's rule: a retransmitted frame's ack is ambiguous (it may
        // answer any copy), so only never-retransmitted frames are
        // sampled.
        if (out.retransmits == 0) {
          sample_rtt(tx, network_->simulator_->now() - out.sent_at);
        }
      });
  if (confirmed > 0) {
    window_room_.notify_all();
    timer_wakeup_.notify_all();  // earliest deadline may have changed
  }
}

void ReliableEndpoint::sample_rtt(PeerTx& tx, sim::Duration rtt) {
  if (rtt < 0) rtt = 0;
  if (tx.rtt_samples == 0) {
    tx.srtt = rtt;
    tx.min_rtt = rtt;
  } else {
    tx.srtt += (rtt - tx.srtt) / 8;  // classic 1/8 EWMA
    if (rtt < tx.min_rtt) tx.min_rtt = rtt;
  }
  ++tx.rtt_samples;
  ++counters_.rtt_samples;
  counters_.srtt = tx.srtt;
  if (tx.min_rtt != 0 &&
      (counters_.min_rtt == 0 || tx.min_rtt < counters_.min_rtt)) {
    counters_.min_rtt = tx.min_rtt;
  }
}

sim::Duration ReliableEndpoint::srtt(std::uint32_t peer) const {
  auto it = tx_.find(peer);
  return it == tx_.end() ? 0 : it->second.srtt;
}

sim::Duration ReliableEndpoint::min_rtt(std::uint32_t peer) const {
  auto it = tx_.find(peer);
  return it == tx_.end() ? 0 : it->second.min_rtt;
}

void ReliableEndpoint::queue_ack(std::uint32_t peer) {
  if (ack_value_.count(peer) == 0) ack_order_.push_back(peer);
  // Coalesce: only the latest cumulative value matters.
  ack_value_[peer] = static_cast<std::uint32_t>(peer_rx(peer).expected() - 1);
  ack_pending_.notify_all();
}

void ReliableEndpoint::ack_loop() {
  for (;;) {
    while (ack_order_.empty()) ack_pending_.wait();
    const std::uint32_t peer = ack_order_.front();
    ack_order_.pop_front();
    ReliableFrame frame;
    frame.src = rank_;
    frame.kind = ReliableFrame::kAck;
    frame.ack = ack_value_.at(peer);
    ack_value_.erase(peer);
    frame.checksum = frame_checksum(frame);
    ++counters_.acks_sent;
    // Shipping from this dedicated fiber keeps rx_loop from ever blocking
    // on a full peer NIC (which could deadlock two endpoints ack-ing each
    // other); acks queued meanwhile coalesce into the next round.
    network_->fabric_.ship(rank_, peer, std::move(frame),
                           network_->params_.header_bytes);
  }
}

void ReliableEndpoint::retransmit_loop() {
  const ReliableParams& params = network_->params_;
  for (;;) {
    if (!health_.is_ok()) return;
    sim::Time earliest = sim::kNever;
    for (const auto& [peer, tx] : tx_) {
      for (const Outstanding& out : tx.outstanding) {
        earliest = std::min(earliest, out.deadline);
      }
    }
    if (earliest == sim::kNever) {
      timer_wakeup_.wait();
      continue;
    }
    if (earliest > network_->simulator_->now()) {
      // Either the deadline fires or an ack/new-frame notification arrives
      // first; both ways we recompute. A false (notified) return says
      // nothing about the deadline set — classic spurious-wakeup rule.
      (void)timer_wakeup_.wait(earliest);
      continue;
    }
    // Retransmit every frame that is due. Collect sequence numbers first:
    // ship() blocks, and acks arriving meanwhile trim the windows.
    for (auto& [peer, tx] : tx_) {
      const sim::Time now = network_->simulator_->now();
      std::vector<std::uint32_t> due;
      for (const Outstanding& out : tx.outstanding) {
        if (out.deadline <= now) due.push_back(out.frame.seq);
      }
      for (const std::uint32_t seq : due) {
        Outstanding* out = tx.outstanding.find(seq);
        if (out == nullptr) continue;  // acked while shipping
        if (out->retransmits >= params.max_retransmits) {
          fail_link(peer, *out);
          return;
        }
        ++out->retransmits;
        ++counters_.retransmits;
        MAD2_TRACE_EVENT(obs::Category::kNet, "rel.retransmit", nullptr,
                         out->frame.seq, out->retransmits);
        out->rto = std::min(
            static_cast<sim::Duration>(static_cast<double>(out->rto) *
                                       params.backoff),
            params.rto_max);
        if (out->rto > counters_.max_rto) counters_.max_rto = out->rto;
        ReliableFrame copy = out->frame;
        const std::uint64_t bytes = wire_bytes(copy);
        network_->fabric_.ship(rank_, peer, std::move(copy), bytes);
        // Restart the clock after the (blocking) ship, same as first
        // transmissions, and only if no ack raced in.
        if (Outstanding* again = tx.outstanding.find(seq)) {
          again->deadline = network_->simulator_->now() + again->rto;
        }
      }
    }
  }
}

void ReliableEndpoint::fail_link(std::uint32_t peer,
                                 const Outstanding& frame) {
  if (!health_.is_ok()) return;
  ++counters_.give_ups;
  MAD2_TRACE_EVENT(obs::Category::kNet, "rel.give_up", nullptr,
                   frame.frame.seq, frame.retransmits);
  health_ = unavailable(
      "reliable link " + std::to_string(rank_) + "->" +
      std::to_string(peer) + " gave up: seq " +
      std::to_string(frame.frame.seq) + " unacked after " +
      std::to_string(frame.retransmits) + " retransmits");
  // A give-up is terminal for the link: dump the trace tail now, while
  // the events leading up to it are still in the ring.
  invoke_failure_dump_hook(health_.to_string().c_str());
  // Unblock everyone; they observe health() and fail cleanly instead of
  // waiting on a dead link.
  rx_ready_.notify_all();
  window_room_.notify_all();
  if (network_->link_error_handler_) {
    network_->link_error_handler_(rank_, peer, health_);
  }
}

}  // namespace mad2::net
