#include "mad/rail_set.hpp"

#include <algorithm>
#include <optional>

#include "mad/connection.hpp"
#include "mad/pmm_ib.hpp"
#include "mad/pmm_tcp.hpp"
#include "mad/session.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

namespace {

std::uint64_t lane_key(std::size_t rail, std::uint32_t src,
                       std::uint32_t dst) {
  return (static_cast<std::uint64_t>(rail) << 42) |
         (static_cast<std::uint64_t>(src) << 21) | dst;
}

}  // namespace

RailSet::RailSet(Session* session, RailSetDef def)
    : session_(session), def_(std::move(def)) {}

RailSet::~RailSet() = default;

double RailSet::weight(std::size_t rail) const {
  MAD2_CHECK(rail < rails_.size(), "rail index out of range");
  return rails_[rail].weight_mbs;
}

bool RailSet::alive(std::size_t rail) const {
  MAD2_CHECK(rail < rails_.size(), "rail index out of range");
  return rails_[rail].alive;
}

void RailSet::validate_members() {
  MAD2_CHECK(def_.channels.size() >= 2,
             "a rail set needs at least two member channels");
  MAD2_CHECK(def_.channels.size() <= 32,
             "at most 32 rails per set (failed-rail mask width)");
  MAD2_CHECK(def_.stripe_threshold > 0,
             "stripe threshold must be positive");
  rails_.clear();
  for (const std::string& name : def_.channels) {
    Channel& channel = session_->channel(name);
    MAD2_CHECK(!channel.def().paranoid,
               "paranoid channels cannot join a rail set (their check "
               "blocks would interleave with striped segments)");
    for (const Rail& existing : rails_) {
      MAD2_CHECK(existing.channel != &channel,
                 "channel listed twice in a rail set");
      MAD2_CHECK(&existing.channel->network() != &channel.network(),
                 "rail channels must use distinct networks (striping over "
                 "one adapter adds no bandwidth)");
      std::vector<std::uint32_t> a = existing.channel->nodes();
      std::vector<std::uint32_t> b = channel.nodes();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      MAD2_CHECK(a == b,
                 "rail member networks must span the same node set");
    }
    Rail rail;
    rail.channel = &channel;
    rails_.push_back(rail);
  }
}

void RailSet::finish_setup() {
  validate_members();
  // Seed weights from the drivers' bandwidth self-reports; measured
  // per-segment throughput refines them from the first striped block on.
  for (Rail& rail : rails_) {
    const std::uint32_t first = rail.channel->nodes().front();
    rail.weight_mbs = rail.channel->endpoint(first).pmm().bandwidth_hint_mbs();
  }
  // Bind the primary channel's endpoints: their connections' Switch
  // consults us, whenever a connection is built.
  Channel* primary = rails_[0].channel;
  for (std::uint32_t node : primary->nodes()) {
    ChannelEndpoint& endpoint = primary->endpoint(node);
    MAD2_CHECK(endpoint.rails_ == nullptr,
               "channel heads more than one rail set");
    endpoint.rails_ = this;
  }
  // One persistent lane fiber per (secondary rail, directed node pair) and
  // direction — fiber-per-rail, not fiber-per-segment, because Fiber
  // objects are only reclaimed when the simulator dies.
  sim::Simulator& simulator = session_->simulator();
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    for (std::uint32_t src : primary->nodes()) {
      for (std::uint32_t dst : primary->nodes()) {
        if (src == dst) continue;
        const std::string tag = def_.name + "." + std::to_string(i) + "." +
                                std::to_string(src) + "-" +
                                std::to_string(dst);
        auto tx = std::make_unique<sim::BoundedChannel<SendJob>>(&simulator,
                                                                 2);
        auto rx = std::make_unique<sim::BoundedChannel<RecvJob>>(&simulator,
                                                                 2);
        simulator.spawn_daemon(
            "mad.rail.tx." + tag,
            [this, i, jobs = tx.get()] { send_lane(i, jobs); });
        simulator.spawn_daemon(
            "mad.rail.rx." + tag,
            [this, i, jobs = rx.get()] { recv_lane(i, jobs); });
        send_lanes_.emplace(lane_key(i, src, dst), std::move(tx));
        recv_lanes_.emplace(lane_key(i, src, dst), std::move(rx));
      }
    }
  }
}

bool RailSet::on_network_failed(const NetworkInstance* network,
                                const Status& status) {
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (&rails_[i].channel->network() == network) {
      mark_rail_dead(i, status);
      return true;
    }
  }
  return false;
}

void RailSet::mark_rail_dead(std::size_t rail, const Status& status) {
  Rail& r = rails_[rail];
  if (!r.alive) return;
  MAD2_TRACE_EVENT(obs::Category::kRail, "rail.dead", nullptr, rail);
  r.alive = false;
  r.weight_mbs = 0.0;
  if (degraded_.is_ok()) degraded_ = status;  // first failure wins
}

void RailSet::observe_throughput(std::size_t rail, std::size_t bytes,
                                 std::int64_t elapsed_ns) {
  if (elapsed_ns <= 0) return;
  Rail& r = rails_[rail];
  if (!r.alive) return;
  // bytes per virtual microsecond == decimal MB/s.
  const double mbs = static_cast<double>(bytes) / sim::to_us(elapsed_ns);
  r.weight_mbs = 0.7 * r.weight_mbs + 0.3 * mbs;
}

std::vector<std::uint64_t> RailSet::plan_split(std::uint64_t total) const {
  std::vector<std::uint64_t> lens(rails_.size(), 0);
  double weight_sum = rails_[0].weight_mbs;
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (rails_[i].alive) weight_sum += rails_[i].weight_mbs;
  }
  std::uint64_t assigned = 0;
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    const Rail& rail = rails_[i];
    if (!rail.alive || rail.weight_mbs <= 0.0 || weight_sum <= 0.0) continue;
    std::uint64_t share = static_cast<std::uint64_t>(
        static_cast<double>(total) * rail.weight_mbs / weight_sum);
    share = std::min(share, total - assigned);
    if (share < kMinStripeSegment) continue;
    lens[i] = share;
    assigned += share;
  }
  lens[0] = total - assigned;
  return lens;
}

// ------------------------------------------------------------ scheduling ---

void RailSet::stripe_send(Connection& primary,
                          std::span<const std::byte> data) {
  stripe_send_block(primary, data, primary.local(), primary.remote());
}

void RailSet::stripe_recv(Connection& primary, std::span<std::byte> out) {
  stripe_recv_block(primary, out, primary.remote(), primary.local());
}

void RailSet::stripe_send_block(Connection& primary,
                                std::span<const std::byte> data,
                                std::uint32_t src, std::uint32_t dst) {
  sim::Simulator& simulator = session_->simulator();
  const std::vector<std::uint64_t> lens = plan_split(data.size());
  const std::uint32_t seq = primary.stripe_seq_tx_++;

  std::vector<std::byte> descriptor(8 + 8 * rails_.size());
  store_u32(descriptor.data(), kDescMagic);
  store_u32(descriptor.data() + 4, seq);
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    store_u64(descriptor.data() + 8 + 8 * i, lens[i]);
  }

  sim::WaitQueue join(&simulator);
  BlockState block;
  block.join = &join;
  block.lanes.resize(rails_.size());

  // Hand the secondary segments to their lanes before any primary-rail
  // work, so they overlap the descriptor and the inline segment.
  std::size_t offset = lens[0];
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    ++block.pending;
    send_lane_queue(i, src, dst)
        .send(SendJob{data.data() + offset,
                      static_cast<std::size_t>(lens[i]), i, src, dst,
                      &block});
    offset += lens[i];
  }

  auto flush_send = [&primary] {
    if (primary.send_bmm_ != nullptr) {
      primary.send_bmm_->commit(primary, *primary.send_tm_);
      primary.send_tm_ = nullptr;
      primary.send_bmm_ = nullptr;
    }
  };
  primary.pack_impl(descriptor, SendMode::kSafer, ReceiveMode::kExpress);
  flush_send();
  if (lens[0] > 0) {
    const sim::Time start = simulator.now();
    primary.pack_impl(data.first(lens[0]), SendMode::kCheaper,
                      ReceiveMode::kCheaper);
    flush_send();
    observe_throughput(0, lens[0], simulator.now() - start);
  }
  while (block.pending > 0) join.wait();

  std::uint32_t failed_mask = 0;
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (block.lanes[i].failed) failed_mask |= 1u << i;
  }
  std::vector<std::byte> trailer(12);
  store_u32(trailer.data(), kTrailMagic);
  store_u32(trailer.data() + 4, seq);
  store_u32(trailer.data() + 8, failed_mask);
  primary.pack_impl(trailer, SendMode::kSafer, ReceiveMode::kExpress);
  flush_send();

  TrafficStats& stats = primary.stats_;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    RailCounters& counters = stats.rails[rails_[i].channel->name()];
    ++counters.segments;
    counters.bytes += lens[i];
    counters.weight = rails_[i].weight_mbs;
  }

  // Resubmit each failed rail's slice: the rail is dead by now, so the
  // recursive block re-stripes it across the survivors only (worst case
  // everything lands on the primary), which grounds the recursion.
  offset = lens[0];
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    if ((failed_mask & (1u << i)) != 0) {
      ++stats.rails[rails_[i].channel->name()].resubmits;
      MAD2_TRACE_EVENT(obs::Category::kRail, "rail.resubmit", "send",
                       lens[i], i);
      stripe_send_block(primary, data.subspan(offset, lens[i]), src, dst);
    }
    offset += lens[i];
  }
}

void RailSet::stripe_recv_block(Connection& primary, std::span<std::byte> out,
                                std::uint32_t src, std::uint32_t dst) {
  sim::Simulator& simulator = session_->simulator();
  auto flush_recv = [&primary] {
    if (primary.recv_bmm_ != nullptr) {
      primary.recv_bmm_->checkout(primary, *primary.recv_tm_);
      primary.recv_tm_ = nullptr;
      primary.recv_bmm_ = nullptr;
    }
  };

  std::vector<std::byte> descriptor(8 + 8 * rails_.size());
  primary.unpack_impl(descriptor, SendMode::kSafer, ReceiveMode::kExpress);
  flush_recv();
  MAD2_CHECK(load_u32(descriptor.data()) == kDescMagic,
             "striped descriptor out of sync — asymmetric pack/unpack "
             "around a striped block");
  const std::uint32_t seq = load_u32(descriptor.data() + 4);
  MAD2_CHECK(seq == primary.stripe_seq_rx_,
             "striped block sequence mismatch");
  ++primary.stripe_seq_rx_;
  std::vector<std::uint64_t> lens(rails_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    lens[i] = load_u64(descriptor.data() + 8 + 8 * i);
    total += lens[i];
  }
  MAD2_CHECK(total == out.size(),
             "striped descriptor announces a different block size than "
             "this unpack");

  sim::WaitQueue join(&simulator);
  BlockState block;
  block.join = &join;
  block.lanes.resize(rails_.size());

  std::size_t offset = lens[0];
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    ++block.pending;
    recv_lane_queue(i, src, dst)
        .send(RecvJob{out.data() + offset,
                      static_cast<std::size_t>(lens[i]), i, src, dst,
                      &block});
    offset += lens[i];
  }
  if (lens[0] > 0) {
    const sim::Time start = simulator.now();
    primary.unpack_impl(out.first(lens[0]), SendMode::kCheaper,
                        ReceiveMode::kCheaper);
    flush_recv();
    observe_throughput(0, lens[0], simulator.now() - start);
  }
  while (block.pending > 0) join.wait();

  std::vector<std::byte> trailer(12);
  primary.unpack_impl(trailer, SendMode::kSafer, ReceiveMode::kExpress);
  flush_recv();
  MAD2_CHECK(load_u32(trailer.data()) == kTrailMagic,
             "striped trailer out of sync");
  MAD2_CHECK(load_u32(trailer.data() + 4) == seq,
             "striped trailer sequence mismatch");
  const std::uint32_t failed_mask = load_u32(trailer.data() + 8);

  TrafficStats& stats = primary.stats_;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    RailCounters& counters = stats.rails[rails_[i].channel->name()];
    ++counters.segments;
    counters.bytes += lens[i];
    counters.weight = rails_[i].weight_mbs;
  }

  offset = lens[0];
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    if ((failed_mask & (1u << i)) == 0 && block.lanes[i].failed) {
      // The sender's flush was acknowledged, so every byte reached our
      // shim; the stream was merely poisoned while the tail sat in the
      // delivery queue. Land the remainder — it is guaranteed to arrive.
      drain_segment(i, src, dst,
                    out.subspan(offset + block.lanes[i].done_bytes,
                                lens[i] - block.lanes[i].done_bytes));
    }
    offset += lens[i];
  }
  offset = lens[0];
  for (std::size_t i = 1; i < rails_.size(); ++i) {
    if (lens[i] == 0) continue;
    if ((failed_mask & (1u << i)) != 0) {
      ++stats.rails[rails_[i].channel->name()].resubmits;
      MAD2_TRACE_EVENT(obs::Category::kRail, "rail.resubmit", "recv",
                       lens[i], i);
      stripe_recv_block(primary, out.subspan(offset, lens[i]), src, dst);
    }
    offset += lens[i];
  }
}

// ----------------------------------------------------------------- lanes ---

sim::BoundedChannel<RailSet::SendJob>& RailSet::send_lane_queue(
    std::size_t rail, std::uint32_t src, std::uint32_t dst) {
  auto it = send_lanes_.find(lane_key(rail, src, dst));
  MAD2_CHECK(it != send_lanes_.end(), "no send lane for this rail/pair");
  return *it->second;
}

sim::BoundedChannel<RailSet::RecvJob>& RailSet::recv_lane_queue(
    std::size_t rail, std::uint32_t src, std::uint32_t dst) {
  auto it = recv_lanes_.find(lane_key(rail, src, dst));
  MAD2_CHECK(it != recv_lanes_.end(), "no recv lane for this rail/pair");
  return *it->second;
}

void RailSet::send_lane(std::size_t rail,
                        sim::BoundedChannel<SendJob>* jobs) {
  for (;;) {
    std::optional<SendJob> job = jobs->receive();
    if (!job) return;
    const sim::Time start = session_->simulator().now();
    MAD2_TRACE_SPAN(span, obs::Category::kRail, "rail.send_segment");
    span.args(job->len, rail);
    // Segment-boundary instants for distributed madtrace: with
    // trace-context propagation on, every striped segment marks the
    // moment it was posted to its rail and the moment it landed, so a
    // weaved cross-node timeline can line packet hops up against the
    // rail schedule underneath them. Gated on the propagation flag like
    // the forwarding hop stamps — plain kRail tracing is unchanged.
    const bool boundaries =
        obs::trace_enabled(obs::Category::kRail) &&
        obs::recorder()->config().propagation;
    if (boundaries) {
      obs::trace_event(obs::Category::kRail, "rail.segment_post", "send",
                       job->len, rail);
    }
    const Status status =
        send_segment(rail, job->src, job->dst, {job->data, job->len});
    BlockState::LaneResult& lane = job->block->lanes[rail];
    lane.failed = !status.is_ok();
    if (status.is_ok()) {
      lane.done_bytes = job->len;
      if (boundaries) {
        obs::trace_event(obs::Category::kRail, "rail.segment_land", "send",
                         job->len, rail);
      }
      observe_throughput(rail, job->len,
                         session_->simulator().now() - start);
    } else {
      mark_rail_dead(rail, status);
    }
    if (--job->block->pending == 0) job->block->join->notify_all();
  }
}

void RailSet::recv_lane(std::size_t rail,
                        sim::BoundedChannel<RecvJob>* jobs) {
  for (;;) {
    std::optional<RecvJob> job = jobs->receive();
    if (!job) return;
    const sim::Time start = session_->simulator().now();
    MAD2_TRACE_SPAN(span, obs::Category::kRail, "rail.recv_segment");
    span.args(job->len, rail);
    const bool boundaries =
        obs::trace_enabled(obs::Category::kRail) &&
        obs::recorder()->config().propagation;
    if (boundaries) {
      obs::trace_event(obs::Category::kRail, "rail.segment_post", "recv",
                       job->len, rail);
    }
    std::size_t got = 0;
    const Status status =
        recv_segment(rail, job->src, job->dst, {job->out, job->len}, &got);
    BlockState::LaneResult& lane = job->block->lanes[rail];
    lane.done_bytes = got;
    lane.failed = !status.is_ok();
    if (status.is_ok()) {
      if (boundaries) {
        obs::trace_event(obs::Category::kRail, "rail.segment_land", "recv",
                         job->len, rail);
      }
      observe_throughput(rail, job->len,
                         session_->simulator().now() - start);
    } else {
      mark_rail_dead(rail, status);
    }
    if (--job->block->pending == 0) job->block->join->notify_all();
  }
}

// --------------------------------------------------------- segment moves ---

Status RailSet::send_segment(std::size_t rail, std::uint32_t src,
                             std::uint32_t dst,
                             std::span<const std::byte> data) {
  Channel& channel = *rails_[rail].channel;
  ChannelEndpoint& endpoint = channel.endpoint(src);
  Connection& conn = endpoint.connection(dst);
  net::TcpNetwork* tcp = channel.network().as_if<net::TcpNetwork>();
  if (tcp != nullptr && tcp->reliable() != nullptr) {
    // Fallible rail: drive the stream with the checked calls and flush,
    // so OK means *delivered* — the trailer's failed mask must be
    // truthful by the time the sender emits it.
    net::TcpStream* stream = &TcpPmm::stream_of(conn);
    Status status = stream->send_checked(data);
    if (status.is_ok()) status = stream->flush();
    return status;
  }
  if (const auto* ib = channel.network().as_if<net::IbNetwork>()) {
    // Fallible RDMA rail: the write TM's rendezvous with a give-up
    // deadline returns link death as a Status (all-or-nothing), so a dead
    // HCA link resubmits the whole segment on the survivors instead of
    // aborting the session.
    return static_cast<IbPmm&>(endpoint.pmm())
        .write_tm()
        .send(conn, {data},
              session_->simulator().now() + ib->params().op_timeout);
  }
  // A static-buffer-only rail (e.g. SBP) copies through its slots.
  endpoint.pmm()
      .select_tm(data.size(), SendMode::kCheaper, ReceiveMode::kCheaper)
      .send_buffer(conn, data);
  return Status::ok();
}

Status RailSet::recv_segment(std::size_t rail, std::uint32_t src,
                             std::uint32_t dst, std::span<std::byte> out,
                             std::size_t* got) {
  *got = 0;
  Channel& channel = *rails_[rail].channel;
  ChannelEndpoint& endpoint = channel.endpoint(dst);
  Connection& conn = endpoint.connection(src);
  net::TcpNetwork* tcp = channel.network().as_if<net::TcpNetwork>();
  if (tcp != nullptr && tcp->reliable() != nullptr) {
    net::TcpStream* stream = &TcpPmm::stream_of(conn);
    while (*got < out.size()) {
      std::size_t chunk = 0;
      const Status status =
          stream->recv_some_checked(out.subspan(*got), &chunk);
      if (!status.is_ok()) return status;
      *got += chunk;
    }
    return Status::ok();
  }
  if (const auto* ib = channel.network().as_if<net::IbNetwork>()) {
    const Status status = static_cast<IbPmm&>(endpoint.pmm())
                              .write_tm()
                              .receive(conn, {out},
                                       session_->simulator().now() +
                                           ib->params().op_timeout);
    if (status.is_ok()) *got = out.size();
    return status;
  }
  endpoint.pmm()
      .select_tm(out.size(), SendMode::kCheaper, ReceiveMode::kCheaper)
      .receive_buffer(conn, out);
  *got = out.size();
  return Status::ok();
}

void RailSet::drain_segment(std::size_t rail, std::uint32_t src,
                            std::uint32_t dst, std::span<std::byte> out) {
  // A partially-landed segment with a sender-side OK is always
  // stream-backed: IB rails are all-or-nothing (the sender's write ack
  // exists only after the receiver's completion was pushed, so sender-OK
  // implies the receiver sees the landing too and never reaches this
  // drain). recv_some ignores the poison and the delivery pump keeps
  // filling rx until the shim's queue is empty, so this terminates
  // exactly at the segment boundary.
  Channel& channel = *rails_[rail].channel;
  MAD2_CHECK(channel.network().as_if<net::TcpNetwork>() != nullptr,
             "drained a non-stream rail");
  Connection& conn = channel.endpoint(dst).connection(src);
  net::TcpStream* stream = &TcpPmm::stream_of(conn);
  std::size_t got = 0;
  while (got < out.size()) {
    stream->wait_readable();
    got += stream->recv_some(out.subspan(got));
  }
}

}  // namespace mad2::mad
