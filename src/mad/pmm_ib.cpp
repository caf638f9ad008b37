#include "mad/pmm_ib.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mad2::mad {

namespace {

// CTS payload: u32 block count, then (rkey u64, offset u64) per block.
// RTS_READ payload: u32 block count, then (rkey u64, offset u64, len u64).
constexpr std::size_t kCtsEntryBytes = 16;
constexpr std::size_t kReadEntryBytes = 24;

std::vector<IbPmm::RemoteBlock> decode_blocks(const std::byte* p,
                                              bool with_len) {
  std::vector<IbPmm::RemoteBlock> blocks(load_u32(p));
  p += 4;
  for (IbPmm::RemoteBlock& block : blocks) {
    block.rkey = load_u64(p);
    block.offset = load_u64(p + 8);
    if (with_len) block.len = load_u64(p + 16);
    p += with_len ? kReadEntryBytes : kCtsEntryBytes;
  }
  return blocks;
}

IbPmm::MsgKind imm_kind(std::uint64_t imm) {
  return static_cast<IbPmm::MsgKind>(imm & 0xff);
}
std::uint64_t imm_value(std::uint64_t imm) { return imm >> 8; }

}  // namespace

IbPmm::IbPmm(ChannelEndpoint& endpoint, IbPmmOptions options)
    : endpoint_(endpoint),
      options_(options),
      eager_tm_(this, "ib-eager", "ib.credit_wait"),
      write_tm_(this),
      read_tm_(this),
      incoming_wq_(&endpoint_.session().simulator()) {
  NetworkInstance& network = endpoint_.channel().network();
  port_ = &network.as<net::IbNetwork>().port(network.port(endpoint_.local()));
  MAD2_CHECK(options_.eager_cutoff >= 64, "IB eager cutoff too small");
  // Batch at most half the window so the sender is never starved waiting
  // for a batch that cannot fill. The receive pool is sized for any batch
  // (recv_pool_size), so a small qp_depth degrades batching to per-release
  // credit returns instead of aborting the session on a config choice.
  options_.credit_batch = std::max<std::size_t>(
      1, std::min(options_.credit_batch, window() / 2));
}

std::uint32_t IbPmm::qp() const { return endpoint_.channel().id(); }

std::size_t IbPmm::window() const { return port_->params().qp_depth; }

std::size_t IbPmm::recv_pool_size() const {
  // Worst-case simultaneous in-flight messages from one peer while our
  // dispatcher is starved (adverse fiber scheduling):
  //  - `window` credited eager data messages (the credit window bounds
  //    them, and each holds its pool buffer until the app releases it);
  //  - `window` credit-return messages: each carries >= 1 credit and at
  //    most `window` credits are ever out, but the flush-before-block
  //    path can make every one of them a 1-credit message, so the count
  //    is bounded by `window`, not window/credit_batch;
  //  - one RTS / RTS_READ (rendezvous announcements are serialized per
  //    direction) and one CTS / DONE (answers to our own announcements),
  //    plus slack for a rail segment's handshake racing a TM one.
  return 2 * window() + 4;
}

void IbPmm::make_conn_state(std::uint32_t remote) {
  auto state = std::make_unique<State>(
      &endpoint_.session().simulator(),
      endpoint_.channel().network().port(remote), window(),
      options_.credit_batch);
  // Eager receive pool: every incoming send consumes a posted receive, so
  // the pool must back the peer's full data window plus control headroom.
  state->pool.resize(recv_pool_size());
  for (auto& buffer : state->pool) {
    buffer.resize(options_.eager_cutoff);
    (void)port_->register_memory(buffer);
    port_->post_recv(state->remote_port, qp(), buffer);
  }
  scan_.add(remote, state.get());
  by_port_[state->remote_port] = std::move(state);
}

IbPmm::State& IbPmm::conn_state(std::uint32_t remote) {
  return *by_port_.at(endpoint_.channel().network().port(remote));
}

void IbPmm::finish_setup() {
  // Learn of link death even when we hold no failable WR of our own: a
  // give-up timer fires on whichever side owned the timed-out WR, but the
  // poison pass runs on both ports, and this hook turns it into a
  // mark_dead that wakes our blocked credit / rendezvous / receive
  // waiters. Without it, a fiber waiting for eager credits (or a CTS)
  // across a dead link would sleep forever.
  port_->add_link_down_callback(
      [this](std::uint32_t peer, const Status& status) {
        const auto it = by_port_.find(peer);
        if (it != by_port_.end()) mark_dead(*it->second, status);
      });
  Session& session = endpoint_.session();
  if (session.config().fastpath) {
    // CQ reaping as a progress-engine client: the CQ doorbell rings the
    // engine, one drain pass per scheduled batch reaps every completion.
    engine_ = session.progress_engine(endpoint_.local());
    doorbell_ = engine_->register_client(
        this, [](void* ctx) { static_cast<IbPmm*>(ctx)->drain_cq(); });
    port_->set_cq_callback(qp(), [this] { engine_->ring(doorbell_); });
    engine_mode_ = true;
    return;
  }
  session.simulator().spawn_daemon(
      "mad.ib.pump." + endpoint_.channel().name() + "." +
          std::to_string(endpoint_.local()),
      [this] { pump_loop(); });
}

Tm& IbPmm::select_tm(std::size_t len, SendMode, ReceiveMode rmode) {
  if (len <= options_.eager_cutoff) return eager_tm_;
  if (rmode == ReceiveMode::kCheaper) return read_tm_;
  return write_tm_;
}

std::uint32_t IbPmm::wait_incoming() {
  drain_cq();
  return scan_.wait(
      [](const State* state) {
        return state->has_incoming() || !state->rts_read.empty();
      },
      [this] {
        incoming_wq_.wait();
        drain_cq();
      });
}

double IbPmm::bandwidth_hint_mbs() const {
  const net::IbParams& p = port_->params();
  return std::min(p.fabric.wire_mbs, p.pci_dma_mbs);
}

IbPmm::State& IbPmm::state_of_port(std::uint32_t port) {
  return *by_port_.at(port);
}

std::size_t IbPmm::pool_index(State& state, const std::byte* data) {
  for (std::size_t i = 0; i < state.pool.size(); ++i) {
    if (state.pool[i].data() == data) return i;
  }
  MAD2_CHECK(false, "IB completion on unknown eager buffer");
  return 0;
}

void IbPmm::repost(State& state, std::size_t index) {
  port_->post_recv(state.remote_port, qp(), state.pool[index]);
}

void IbPmm::mark_dead(State& state, const Status& status) {
  if (state.dead) return;
  state.dead = true;
  state.dead_status = status.is_ok()
                          ? Status(ErrorCode::kUnavailable, "ib: link dead")
                          : status;
  state.window.close();
  state.rdv_wq.notify_all();
  state.recv_wq.notify_all();
  incoming_wq_.notify_all();
}

bool IbPmm::check_dead(State& state) {
  if (state.dead) return true;
  const Status& status = port_->link_status(state.remote_port);
  if (!status.is_ok()) {
    mark_dead(state, status);
    return true;
  }
  return false;
}

template <typename Ready>
bool IbPmm::await(State& state, sim::WaitQueue& wq, sim::Time deadline,
                  Ready ready) {
  while (!ready() && !state.dead) {
    if (wq.wait(deadline)) {
      // The handshake went quiet past the give-up deadline: declare the
      // link dead ourselves (no-op if a timer beat us to it).
      port_->fail_link(state.remote_port,
                       Status(ErrorCode::kUnavailable,
                              "ib: rendezvous handshake timed out"));
    }
    check_dead(state);
  }
  return !state.dead;
}

void IbPmm::pump_loop() {
  if (by_port_.empty()) return;
  for (;;) {
    net::IbCompletion completion = port_->wait_cq(qp());
    dispatch(completion);
  }
}

void IbPmm::drain_cq() {
  if (drain_active_) return;
  drain_active_ = true;
  while (auto completion = port_->poll_cq(qp())) dispatch(*completion);
  drain_active_ = false;
}

void IbPmm::dispatch(const net::IbCompletion& completion) {
  State& state = state_of_port(completion.peer);
  if (!completion.ok) {
    mark_dead(state, port_->link_status(completion.peer));
    // Error-flushed WRs still resolve their waiters' counters below.
  }
  switch (completion.kind) {
    case net::IbCompletion::Kind::kRecv: {
      const MsgKind kind = imm_kind(completion.imm);
      const std::uint64_t value = imm_value(completion.imm);
      const std::size_t index = pool_index(state, completion.buffer.data());
      switch (kind) {
        case MsgKind::kData:
          state.dispatch(StaticSlotTm::Packet::kData, 0,
                         std::span<const std::byte>(state.pool[index])
                             .first(completion.bytes),
                         index + 1);
          break;  // buffer handed to the app; reposted on release
        case MsgKind::kCredit:
          state.dispatch(StaticSlotTm::Packet::kCredit, value);
          repost(state, index);
          break;
        case MsgKind::kRts:
          state.dispatch(StaticSlotTm::Packet::kReq, value);
          repost(state, index);
          break;
        case MsgKind::kCts:
          state.cts_queue.push_back(
              Cts{value, decode_blocks(completion.buffer.data(), false)});
          state.rdv_wq.notify_all();
          repost(state, index);
          break;
        case MsgKind::kRtsRead:
          state.rts_read.push_back(
              decode_blocks(completion.buffer.data(), /*with_len=*/true));
          state.recv_wq.notify_all();
          repost(state, index);
          break;
        case MsgKind::kDone:
          ++state.read_done_acks;
          state.rdv_wq.notify_all();
          repost(state, index);
          break;
        case MsgKind::kFin:
          MAD2_CHECK(false, "kFin arrives as a write immediate, not a send");
          break;
      }
      incoming_wq_.notify_all();
      break;
    }
    case net::IbCompletion::Kind::kWriteImm:
      MAD2_CHECK(imm_kind(completion.imm) == MsgKind::kFin,
                 "unexpected write immediate");
      state.write_imms.push_back(imm_value(completion.imm));
      state.rdv_wq.notify_all();
      break;
    case net::IbCompletion::Kind::kRdmaWrite:
      ++state.write_acks;
      state.rdv_wq.notify_all();
      break;
    case net::IbCompletion::Kind::kRdmaRead:
      ++state.read_dones;
      state.rdv_wq.notify_all();
      break;
    case net::IbCompletion::Kind::kSend:
      break;  // eager sends are unsignaled; only error flushes land here
  }
}

void IbPmm::send_ctrl(State& state, MsgKind kind, std::uint64_t value,
                      std::span<const std::byte> payload) {
  MAD2_CHECK(payload.size() <= options_.eager_cutoff,
             "IB control payload exceeds the eager buffer size");
  (void)port_->post_send(state.remote_port, qp(), payload,
                         encode_imm(kind, value));
}

// ------------------------------------------------------ eager-TM hooks ---

StaticBuffer IbPmm::tx_slot() {
  std::size_t index;
  if (!staging_free_.empty()) {
    index = staging_free_.back();
    staging_free_.pop_back();
  } else {
    index = staging_.size();
    staging_.emplace_back(options_.eager_cutoff);
    (void)port_->register_memory(staging_.back());
  }
  return StaticBuffer{std::span<std::byte>(staging_[index]), 0, index + 1};
}

void IbPmm::post_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  auto& state = static_cast<State&>(slots);
  // post_send copies at post time: the staging buffer recycles at once.
  (void)port_->post_send(state.remote_port, qp(),
                         std::span<const std::byte>(slot.memory).first(
                             slot.used),
                         encode_imm(MsgKind::kData, 0));
  staging_free_.push_back(slot.handle - 1);
}

void IbPmm::drop_slot(StaticBuffer& slot) {
  staging_free_.push_back(slot.handle - 1);
}

void IbPmm::return_slot(StaticSlotTm::Slots& slots, StaticBuffer& slot) {
  repost(static_cast<State&>(slots), slot.handle - 1);
}

void IbPmm::send_credits(StaticSlotTm::Slots& slots, std::size_t count) {
  send_ctrl(static_cast<State&>(slots), MsgKind::kCredit, count);
}

// ------------------------------------------------ shared rendezvous steps ---

template <typename Byte>
std::vector<std::byte> IbPmm::pin_and_advertise(
    const std::vector<std::span<Byte>>& group, bool with_len,
    std::vector<net::IbMr>& mrs) {
  const std::size_t entry = with_len ? kReadEntryBytes : kCtsEntryBytes;
  MAD2_CHECK(4 + group.size() * entry <= options_.eager_cutoff,
             "rendezvous group too large for one control message");
  mrs.reserve(group.size());
  std::vector<std::byte> payload(4 + group.size() * entry);
  store_u32(payload.data(), static_cast<std::uint32_t>(group.size()));
  std::byte* p = payload.data() + 4;
  for (const auto& block : group) {
    const net::IbMr mr = port_->reg_cache().acquire(block.data(), block.size());
    store_u64(p, mr.key);
    store_u64(p + 8, reinterpret_cast<std::uintptr_t>(block.data()) - mr.base);
    if (with_len) store_u64(p + 16, block.size());
    p += entry;
    mrs.push_back(mr);
  }
  return payload;
}

void IbPmm::release(const std::vector<net::IbMr>& mrs) {
  for (const net::IbMr& mr : mrs) port_->reg_cache().release(mr);
}

// ---------------------------------------------------------- IbRdmaWriteTm ---

Status IbRdmaWriteTm::send(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group,
    sim::Time deadline) {
  auto& state = connection.state<IbPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();

  pmm_->send_ctrl(state, IbPmm::MsgKind::kRts, total);
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "ib.cts_wait");
    wait.args(total, group.size());
    pmm_->drain_cq();
    if (!pmm_->await(state, state.rdv_wq, deadline,
                     [&] { return !state.cts_queue.empty(); })) {
      return state.dead_status;  // nothing sane to send
    }
  }
  IbPmm::Cts cts = std::move(state.cts_queue.front());
  state.cts_queue.pop_front();
  MAD2_CHECK(cts.blocks.size() == group.size(),
             "rendezvous block-count mismatch: asymmetric pack/unpack "
             "sequences");

  // Pin the source blocks through the registration cache and write them
  // straight into the advertised landing regions; the immediate on the
  // last block raises the receiver's completion (no FIN round).
  std::vector<net::IbMr> mrs;
  mrs.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    mrs.push_back(
        pmm_->port().reg_cache().acquire(group[i].data(), group[i].size()));
    const bool last = i + 1 == group.size();
    (void)pmm_->port().post_rdma_write(
        state.remote_port, pmm_->qp(), group[i], cts.blocks[i].rkey,
        cts.blocks[i].offset,
        last ? IbPmm::encode_imm(IbPmm::MsgKind::kFin, cts.seq) : 0);
  }
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "ib.write_ack_wait");
    wait.args(total);
    (void)pmm_->await(state, state.rdv_wq, deadline,
                      [&] { return state.write_acks >= group.size(); });
  }
  // Error completions count too, so a dead link may leave acks behind.
  if (state.write_acks >= group.size()) state.write_acks -= group.size();
  pmm_->release(mrs);
  // All-or-nothing: a dead link claims nothing delivered, even if some
  // blocks landed (the receiver re-lands a resubmitted copy bit-identically).
  return state.dead ? state.dead_status : Status::ok();
}

Status IbRdmaWriteTm::receive(Connection& connection,
                              const std::vector<std::span<std::byte>>& group,
                              sim::Time deadline) {
  auto& state = connection.state<IbPmm::State>();
  pmm_->drain_cq();
  if (!pmm_->await(state, state.recv_wq, deadline,
                   [&] { return !state.reqs.empty(); })) {
    return state.dead_status;
  }
  const std::uint64_t announced = state.reqs.front();
  state.reqs.pop_front();

  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();
  MAD2_CHECK(announced == total,
             "rendezvous size mismatch: asymmetric pack/unpack sequences");

  // Pin the landing blocks and advertise their rkeys in the CTS.
  const std::uint64_t seq = state.next_seq++;
  std::vector<net::IbMr> mrs;
  pmm_->send_ctrl(state, IbPmm::MsgKind::kCts, seq,
                  pmm_->pin_and_advertise(group, /*with_len=*/false, mrs));
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "ib.write_imm_wait");
    wait.args(total, group.size());
    (void)pmm_->await(state, state.rdv_wq, deadline,
                      [&] { return !state.write_imms.empty(); });
  }
  const bool landed = !state.write_imms.empty();
  if (landed) {
    MAD2_CHECK(state.write_imms.front() == seq,
               "write-rendezvous completion out of order");
    state.write_imms.pop_front();
  }
  pmm_->release(mrs);
  return landed ? Status::ok() : state.dead_status;
}

// ----------------------------------------------------------- IbRdmaReadTm ---

void IbRdmaReadTm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  auto& state = connection.state<IbPmm::State>();
  std::uint64_t total = 0;
  for (const auto& block : group) total += block.size();

  // Pin the source blocks and advertise them; the receiver pulls with
  // RDMA reads whenever it lands the data (receiver-driven CHEAPER).
  std::vector<net::IbMr> mrs;
  pmm_->send_ctrl(state, IbPmm::MsgKind::kRtsRead, total,
                  pmm_->pin_and_advertise(group, /*with_len=*/true, mrs));
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "ib.read_done_wait");
    wait.args(total, group.size());
    pmm_->drain_cq();
    while (state.read_done_acks == 0 && !state.dead) state.rdv_wq.wait();
  }
  if (state.read_done_acks > 0) --state.read_done_acks;
  pmm_->release(mrs);
}

void IbRdmaReadTm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  auto& state = connection.state<IbPmm::State>();
  pmm_->drain_cq();
  while (state.rts_read.empty() && !state.dead) state.recv_wq.wait();
  if (state.dead) return;
  std::vector<IbPmm::RemoteBlock> blocks = std::move(state.rts_read.front());
  state.rts_read.pop_front();
  MAD2_CHECK(blocks.size() == group.size(),
             "rendezvous block-count mismatch: asymmetric pack/unpack "
             "sequences");

  std::vector<net::IbMr> mrs;
  mrs.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    MAD2_CHECK(blocks[i].len == group[i].size(),
               "rendezvous size mismatch: asymmetric pack/unpack sequences");
    mrs.push_back(
        pmm_->port().reg_cache().acquire(group[i].data(), group[i].size()));
    (void)pmm_->port().post_rdma_read(state.remote_port, pmm_->qp(),
                                      group[i], blocks[i].rkey,
                                      blocks[i].offset);
  }
  {
    MAD2_TRACE_SPAN(wait, obs::Category::kTm, "ib.read_wait");
    wait.args(group.size());
    while (state.read_dones < group.size() && !state.dead) {
      state.rdv_wq.wait();
    }
  }
  if (state.read_dones >= group.size()) state.read_dones -= group.size();
  pmm_->release(mrs);
  // Fire-and-forget: the source only needs to know its pins can drop.
  pmm_->send_ctrl(state, IbPmm::MsgKind::kDone, 0);
}

}  // namespace mad2::mad
