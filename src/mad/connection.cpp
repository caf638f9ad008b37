#include "mad/connection.hpp"

#include <algorithm>

#include "mad/rail_set.hpp"
#include "mad/session.hpp"

namespace mad2::mad {

Connection::Connection(ChannelEndpoint* endpoint, std::uint32_t remote,
                       Pmm::ConnState& state)
    : endpoint_(endpoint),
      remote_(remote),
      state_(&state) {}

Connection::~Connection() = default;

std::uint32_t Connection::local() const { return endpoint_->local(); }

hw::Node& Connection::node() { return endpoint_->node(); }

sim::Simulator& Connection::simulator() {
  return endpoint_->session().simulator();
}

const Status& Connection::link_status() const {
  return endpoint_->session().health();
}

void Connection::obs_bind() {
  obs::MetricsRegistry* registry = obs::metrics();
  const obs::TraceRecorder* recorder = obs::recorder();
  if (registry == obs_registry_ && recorder == obs_recorder_) return;
  obs_registry_ = registry;
  obs_recorder_ = recorder;

  const std::string& channel = endpoint_->channel().def().name;
  obs_channel_ok_ =
      recorder == nullptr || recorder->channel_enabled(channel);
  if (registry == nullptr || !obs_channel_ok_) {
    obs_hist_pack_ = nullptr;
    obs_hist_unpack_ = nullptr;
    obs_hist_e2e_ = nullptr;
    return;
  }
  obs_hist_pack_ = registry->histogram(channel + ".pack_to_wire");
  obs_hist_unpack_ = registry->histogram(channel + ".wire_to_unpack");
  obs_hist_e2e_ = registry->histogram(channel + ".e2e");
  obs_flow_tx_ = channel + "/" + std::to_string(local()) + "-" +
                 std::to_string(remote_);
  obs_flow_rx_ = channel + "/" + std::to_string(remote_) + "-" +
                 std::to_string(local());
}

void Connection::begin_packing_message() {
  MAD2_CHECK(!packing_, "begin_packing with a message already open");
  packing_ = true;
  ++stats_.messages_sent;
  pack_sequence_ = 0;
  send_tm_ = nullptr;
  send_bmm_ = nullptr;
  obs_bind();
  if (obs_hist_e2e_ != nullptr) {
    obs_pack_start_ = obs_now();
    // Stamp for the receiving endpoint's end_unpacking: channels deliver
    // messages in FIFO order per connection, so a deque matches exactly.
    obs_registry_->push_stamp(obs_flow_tx_, obs_pack_start_);
  } else if (obs_switch_on()) {
    obs_pack_start_ = obs_now();
  }
  node().charge_cpu(endpoint_->costs().begin_packing);
  stats_.switching.pack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().begin_packing);
}

void Connection::begin_unpacking_message() {
  MAD2_CHECK(!unpacking_, "begin_unpacking with a message already open");
  unpacking_ = true;
  ++stats_.messages_received;
  unpack_sequence_ = 0;
  recv_tm_ = nullptr;
  recv_bmm_ = nullptr;
  obs_bind();
  if (obs_hist_unpack_ != nullptr || obs_switch_on()) {
    obs_unpack_start_ = obs_now();
  }
  node().charge_cpu(endpoint_->costs().begin_unpacking);
  stats_.switching.unpack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().begin_unpacking);
}

void Connection::build_dispatch() {
  dispatch_built_ = true;
  dispatch_breaks_ = endpoint_->pmm().selection_breakpoints();
  std::sort(dispatch_breaks_.begin(), dispatch_breaks_.end());
  dispatch_breaks_.erase(
      std::unique(dispatch_breaks_.begin(), dispatch_breaks_.end()),
      dispatch_breaks_.end());
  const std::size_t classes = dispatch_breaks_.size() + 1;
  dispatch_.assign(kModePairs * classes, DispatchEntry{});
  for (std::uint8_t s = 0; s < 3; ++s) {
    for (std::uint8_t r = 0; r < 2; ++r) {
      const auto smode = static_cast<SendMode>(s);
      const auto rmode = static_cast<ReceiveMode>(r);
      for (std::size_t c = 0; c < classes; ++c) {
        // Any length inside the class answers for the whole class; use
        // the smallest one. BMMs and stats rows resolve lazily on first
        // use so building the table leaves no trace in the stats maps.
        const std::size_t rep = c == 0 ? 0 : dispatch_breaks_[c - 1] + 1;
        DispatchEntry& entry = dispatch_[mode_pair(smode, rmode) * classes + c];
        entry.tm = &endpoint_->pmm().select_tm(rep, smode, rmode);
        entry.kind = select_bmm_kind(*entry.tm, smode, rmode);
      }
    }
  }
}

Connection::DispatchEntry& Connection::dispatch_entry(std::size_t len,
                                                      SendMode smode,
                                                      ReceiveMode rmode) {
  if (!dispatch_built_) build_dispatch();
  const std::size_t classes = dispatch_breaks_.size() + 1;
  std::size_t c = 0;
  while (c < dispatch_breaks_.size() && len > dispatch_breaks_[c]) ++c;
  return dispatch_[mode_pair(smode, rmode) * classes + c];
}

void Connection::bind_recv(DispatchEntry& entry) {
  if (entry.recv_bmm != nullptr) return;
  entry.recv_bmm = recv_bmm_for(entry.tm, entry.kind);
  entry.received = &stats_.received_by_tm[std::string(entry.tm->name())];
}

Connection::SwitchDecision Connection::probe_switch(std::size_t len,
                                                    SendMode smode,
                                                    ReceiveMode rmode) {
  const DispatchEntry& entry = dispatch_entry(len, smode, rmode);
  return SwitchDecision{entry.tm, entry.kind};
}

SendBmm* Connection::send_bmm_for(Tm* tm, BmmKind kind) {
  auto key = std::make_pair(tm, kind);
  auto it = send_bmms_.find(key);
  if (it == send_bmms_.end()) {
    it = send_bmms_.emplace(key, make_send_bmm(kind)).first;
  }
  return it->second.get();
}

RecvBmm* Connection::recv_bmm_for(Tm* tm, BmmKind kind) {
  auto key = std::make_pair(tm, kind);
  auto it = recv_bmms_.find(key);
  if (it == recv_bmms_.end()) {
    it = recv_bmms_.emplace(key, make_recv_bmm(kind)).first;
  }
  return it->second.get();
}

void Connection::pack(std::span<const std::byte> data, SendMode smode,
                      ReceiveMode rmode) {
  MAD2_CHECK(packing_, "pack outside begin_packing/end_packing");
  if (endpoint_->channel().def().paranoid) {
    // Announce the block so the receiver can verify symmetry. The check
    // block itself rides the normal machinery with fixed modes, so both
    // sides stay symmetric about it too.
    CheckBlock check{kCheckMagic, static_cast<std::uint32_t>(data.size()),
                     static_cast<std::uint8_t>(smode),
                     static_cast<std::uint8_t>(rmode), pack_sequence_++};
    pack_impl(std::as_bytes(std::span<const CheckBlock, 1>(&check, 1)),
              SendMode::kSafer, ReceiveMode::kExpress);
  }
  pack_impl(data, smode, rmode);
}

void Connection::pack_impl(std::span<const std::byte> data, SendMode smode,
                           ReceiveMode rmode) {
  node().charge_cpu(endpoint_->costs().pack);
  stats_.switching.pack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().pack);
  // One tracing verdict per block: the recorder/category flags cannot
  // change mid-call, so the repeated obs_switch_on() queries collapse.
  const bool obs_on = obs_switch_on();

  // Striping decision: large CHEAPER/CHEAPER blocks on a rail-set head go
  // to the rail scheduler. Pure in (len, modes) plus rail state both sides
  // update symmetrically, so the receiver replays the same decision. The
  // open BMM is flushed first — a striped block is a TM change like any
  // other — and `striping_` keeps the scheduler's own framing and inline
  // segment on the normal path.
  RailSet* rails = endpoint_->rails_;
  if (rails != nullptr && !striping_ && smode == SendMode::kCheaper &&
      rmode == ReceiveMode::kCheaper && data.size() >= rails->threshold()) {
    if (send_bmm_ != nullptr) {
      if (obs_on) {
        obs::trace_event(obs::Category::kSwitch, "switch.flush", "stripe");
      }
      send_bmm_->commit(*this, *send_tm_);
      send_tm_ = nullptr;
      send_bmm_ = nullptr;
    }
    striping_ = true;
    rails->stripe_send(*this, data);
    striping_ = false;
    return;
  }

  // The Switch (paper Fig. 3): the dispatch table names the best TM and
  // the BMM the policy dictates. A TM or BMM change flushes the previous
  // BMM (*commit*) so delivery order is preserved.
  DispatchEntry& entry = dispatch_entry(data.size(), smode, rmode);
  ++stats_.switching.fast_selects;
  if (entry.send_bmm == nullptr) {
    entry.send_bmm = send_bmm_for(entry.tm, entry.kind);
    entry.sent = &stats_.sent_by_tm[std::string(entry.tm->name())];
  }
  if (obs_on) {
    // TM names are string literals, so the pointer is safe to retain.
    obs::trace_event(obs::Category::kSwitch, "switch.tm_select",
                     entry.tm->name().data(), data.size(),
                     static_cast<std::uint64_t>(entry.kind));
  }
  if (entry.send_bmm != send_bmm_ || entry.tm != send_tm_) {
    if (send_bmm_ != nullptr) {
      if (obs_on) {
        obs::trace_event(obs::Category::kSwitch, "switch.flush",
                         "tm_change");
      }
      send_bmm_->commit(*this, *send_tm_);
    }
    send_tm_ = entry.tm;
    send_bmm_ = entry.send_bmm;
  }
  ++entry.sent->blocks;
  entry.sent->bytes += data.size();
  send_bmm_->pack(*this, *send_tm_, data, smode, rmode);
}

void Connection::end_packing() {
  MAD2_CHECK(packing_, "end_packing without begin_packing");
  const bool obs_on = obs_switch_on();
  if (send_bmm_ != nullptr) {
    if (obs_on) {
      obs::trace_event(obs::Category::kSwitch, "switch.flush",
                       "end_packing");
    }
    send_bmm_->commit(*this, *send_tm_);
  }
  send_tm_ = nullptr;
  send_bmm_ = nullptr;
  packing_ = false;
  if (obs_hist_pack_ != nullptr) {
    obs_hist_pack_->record(obs_now() - obs_pack_start_);
  }
  if (obs_on) {
    obs::recorder()->record(obs::Category::kSwitch, "msg.pack", nullptr,
                            obs_pack_start_, obs_now() - obs_pack_start_,
                            stats_.messages_sent, remote_);
  }
  node().charge_cpu(endpoint_->costs().end_packing);
  stats_.switching.pack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().end_packing);
}

void Connection::unpack(std::span<std::byte> out, SendMode smode,
                        ReceiveMode rmode) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  if (endpoint_->channel().def().paranoid) {
    CheckBlock check{};
    unpack_impl(std::as_writable_bytes(std::span<CheckBlock, 1>(&check, 1)),
                SendMode::kSafer, ReceiveMode::kExpress);
    MAD2_CHECK(check.magic == kCheckMagic,
               "paranoid: stream out of sync (wrong magic) — earlier "
               "pack/unpack asymmetry corrupted the block framing");
    MAD2_CHECK(check.sequence == unpack_sequence_,
               "paranoid: block sequence mismatch (skipped or repeated "
               "unpack)");
    ++unpack_sequence_;
    MAD2_CHECK(check.length == out.size(),
               "paranoid: unpack size differs from the packed block");
    MAD2_CHECK(check.smode == static_cast<std::uint8_t>(smode),
               "paranoid: unpack send-mode differs from the packed block");
    MAD2_CHECK(check.rmode == static_cast<std::uint8_t>(rmode),
               "paranoid: unpack receive-mode differs from the packed "
               "block");
  }
  unpack_impl(out, smode, rmode);
}

void Connection::unpack_impl(std::span<std::byte> out, SendMode smode,
                             ReceiveMode rmode) {
  node().charge_cpu(endpoint_->costs().unpack);
  stats_.switching.unpack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().unpack);
  const bool obs_on = obs_switch_on();

  // Mirror of the send-side striping decision.
  RailSet* rails = endpoint_->rails_;
  if (rails != nullptr && !striping_ && smode == SendMode::kCheaper &&
      rmode == ReceiveMode::kCheaper && out.size() >= rails->threshold()) {
    if (recv_bmm_ != nullptr) {
      if (obs_on) {
        obs::trace_event(obs::Category::kSwitch, "switch.checkout",
                         "stripe");
      }
      recv_bmm_->checkout(*this, *recv_tm_);
      recv_tm_ = nullptr;
      recv_bmm_ = nullptr;
    }
    striping_ = true;
    rails->stripe_recv(*this, out);
    striping_ = false;
    return;
  }

  // Mirror of the send-side Switch: the table replays the same resolved
  // decisions on the same (mandatorily symmetric) arguments, so the TM
  // sequence matches the sender's without any mode information on the
  // wire.
  DispatchEntry& entry = dispatch_entry(out.size(), smode, rmode);
  ++stats_.switching.fast_selects;
  bind_recv(entry);
  if (obs_on) {
    obs::trace_event(obs::Category::kSwitch, "switch.tm_replay",
                     entry.tm->name().data(), out.size(),
                     static_cast<std::uint64_t>(entry.kind));
  }
  if (entry.recv_bmm != recv_bmm_ || entry.tm != recv_tm_) {
    if (recv_bmm_ != nullptr) {
      if (obs_on) {
        obs::trace_event(obs::Category::kSwitch, "switch.checkout",
                         "tm_change");
      }
      recv_bmm_->checkout(*this, *recv_tm_);
    }
    recv_tm_ = entry.tm;
    recv_bmm_ = entry.recv_bmm;
  }
  ++entry.received->blocks;
  entry.received->bytes += out.size();
  recv_bmm_->unpack(*this, *recv_tm_, out, smode, rmode);
}

bool Connection::unpack_borrow(std::size_t len, SendMode smode,
                               ReceiveMode rmode,
                               std::vector<BorrowedBlock>& out) {
  MAD2_CHECK(unpacking_, "unpack outside begin_unpacking/end_unpacking");
  // Paranoid channels frame every block with a check block; keep that
  // path on the plain copying unpack.
  if (endpoint_->channel().def().paranoid) return false;
  // A striping-eligible block is scattered across the rails straight into
  // user memory; it cannot be lent as protocol-buffer views. The copying
  // fallback the caller performs is the striped (zero-copy-landing) path.
  const RailSet* rails = endpoint_->rails_;
  if (rails != nullptr && smode == SendMode::kCheaper &&
      rmode == ReceiveMode::kCheaper && len >= rails->threshold()) {
    return false;
  }
  // Replay the Switch decision *before* touching any state, so a refusal
  // leaves the stream exactly where a copying unpack expects it.
  DispatchEntry& entry = dispatch_entry(len, smode, rmode);
  // A refused borrow falls back to a copying unpack, which re-runs the
  // selection and counts it there; counting the probe too would tally
  // the same block twice. Only an accepted borrow owns its count.
  if (entry.kind != BmmKind::kStaticCopy) return false;
  ++stats_.switching.fast_selects;

  node().charge_cpu(endpoint_->costs().unpack);
  stats_.switching.unpack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().unpack);
  bind_recv(entry);
  if (entry.recv_bmm != recv_bmm_ || entry.tm != recv_tm_) {
    if (recv_bmm_ != nullptr) recv_bmm_->checkout(*this, *recv_tm_);
    recv_tm_ = entry.tm;
    recv_bmm_ = entry.recv_bmm;
  }
  ++entry.received->blocks;
  entry.received->bytes += len;
  const bool borrowed =
      recv_bmm_->unpack_borrow(*this, *recv_tm_, len, rmode, out);
  MAD2_CHECK(borrowed, "static-copy BMM refused a borrow");
  return true;
}

void Connection::end_unpacking() {
  MAD2_CHECK(unpacking_, "end_unpacking without begin_unpacking");
  const bool obs_on = obs_switch_on();
  if (recv_bmm_ != nullptr) {
    if (obs_on) {
      obs::trace_event(obs::Category::kSwitch, "switch.checkout",
                       "end_unpacking");
    }
    recv_bmm_->checkout(*this, *recv_tm_);
  }
  recv_tm_ = nullptr;
  recv_bmm_ = nullptr;
  unpacking_ = false;
  if (endpoint_->active_incoming_ == this) {
    endpoint_->active_incoming_ = nullptr;
  }
  if (obs_hist_unpack_ != nullptr) {
    const sim::Time now = obs_now();
    obs_hist_unpack_->record(now - obs_unpack_start_);
    // Match this message to the sender's begin_packing stamp (FIFO per
    // flow); a miss just means sender-side metrics were off.
    sim::Time sent = 0;
    if (obs_registry_->pop_stamp(obs_flow_rx_, &sent)) {
      obs_hist_e2e_->record(now - sent);
    }
  }
  if (obs_on) {
    obs::recorder()->record(obs::Category::kSwitch, "msg.unpack", nullptr,
                            obs_unpack_start_,
                            obs_now() - obs_unpack_start_,
                            stats_.messages_received, remote_);
  }
  node().charge_cpu(endpoint_->costs().end_unpacking);
  stats_.switching.unpack_cpu_ticks +=
      static_cast<std::uint64_t>(endpoint_->costs().end_unpacking);
}

}  // namespace mad2::mad
