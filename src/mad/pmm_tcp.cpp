#include "mad/pmm_tcp.hpp"

#include <cstring>

#include "obs/trace.hpp"

namespace mad2::mad {

// ------------------------------------------------------------------ TcpTm ---

void TcpTm::send_buffer(Connection& connection,
                        std::span<const std::byte> data) {
  if (data.empty()) return;
  MAD2_TRACE_SPAN(span, obs::Category::kTm, "tcp.send");
  span.args(data.size());
  net::TcpStream* stream = &TcpPmm::stream_of(connection);
  // Fastpath: small blocks stage without a kernel crossing; the progress
  // tick (or the staging threshold) flushes the coalesced batch with one
  // syscall. Large blocks keep the direct path — send() pushes any staged
  // bytes first, so ordering holds across the mix.
  if (pmm_->fastpath() && data.size() < kCoalesceMax) {
    stream->send_deferred(data);
    if (stream->pending_bytes() >= TcpPmm::kFlushBytes) {
      stream->flush_pending();
    } else {
      pmm_->ring_doorbell();
    }
    return;
  }
  stream->send(data);
}

void TcpTm::receive_buffer(Connection& connection,
                           std::span<std::byte> out) {
  if (out.empty()) return;
  MAD2_TRACE_SPAN(span, obs::Category::kTm, "tcp.recv");
  span.args(out.size());
  TcpPmm::stream_of(connection).recv(out);
}

std::vector<TcpTm::Run> TcpTm::plan_runs(
    const std::vector<std::size_t>& sizes) {
  std::vector<Run> runs;
  std::size_t i = 0;
  while (i < sizes.size()) {
    if (sizes[i] >= kCoalesceMax) {
      runs.push_back(Run{i, 1, false});
      ++i;
      continue;
    }
    std::size_t j = i;
    std::size_t total = 0;
    while (j < sizes.size() && sizes[j] < kCoalesceMax &&
           total + sizes[j] <= kRunMax) {
      total += sizes[j];
      ++j;
    }
    runs.push_back(Run{i, j - i, j - i > 1});
    i = j;
  }
  return runs;
}

void TcpTm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  std::vector<std::size_t> sizes;
  sizes.reserve(group.size());
  for (const auto& block : group) sizes.push_back(block.size());

  std::vector<std::byte> scratch;
  for (const Run& run : plan_runs(sizes)) {
    if (!run.coalesced) {
      for (std::size_t k = 0; k < run.count; ++k) {
        send_buffer(connection, group[run.first + k]);
      }
      continue;
    }
    scratch.clear();
    for (std::size_t k = 0; k < run.count; ++k) {
      const auto& block = group[run.first + k];
      connection.node().charge_memcpy(block.size());
      scratch.insert(scratch.end(), block.begin(), block.end());
    }
    if (!scratch.empty()) TcpPmm::stream_of(connection).send(scratch);
  }
}

void TcpTm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  std::vector<std::size_t> sizes;
  sizes.reserve(group.size());
  for (const auto& block : group) sizes.push_back(block.size());

  std::vector<std::byte> scratch;
  for (const Run& run : plan_runs(sizes)) {
    if (!run.coalesced) {
      for (std::size_t k = 0; k < run.count; ++k) {
        receive_buffer(connection, group[run.first + k]);
      }
      continue;
    }
    std::size_t total = 0;
    for (std::size_t k = 0; k < run.count; ++k) total += sizes[run.first + k];
    scratch.resize(total);
    if (total > 0) TcpPmm::stream_of(connection).recv(scratch);
    std::size_t offset = 0;
    for (std::size_t k = 0; k < run.count; ++k) {
      auto out = group[run.first + k];
      connection.node().charge_memcpy(out.size());
      // An empty block may have no storage at all (null data pointer).
      if (!out.empty()) {
        std::memcpy(out.data(), scratch.data() + offset, out.size());
      }
      offset += out.size();
    }
  }
}

// ----------------------------------------------------------------- TcpPmm ---

TcpPmm::TcpPmm(ChannelEndpoint& endpoint)
    : endpoint_(endpoint), tm_(this) {
  NetworkInstance& network = endpoint_.channel().network();
  port_ = &network.as<net::TcpNetwork>().port(network.port(endpoint_.local()));
  states_.resize(network.def.nodes.size());
}

void TcpPmm::make_conn_state(std::uint32_t remote) {
  scan_.add(remote, &conn_state(remote));
}

TcpPmm::State& TcpPmm::conn_state(std::uint32_t remote) {
  return states_[endpoint_.channel().network().port(remote)];
}

net::TcpStream& TcpPmm::stream_of(Connection& connection) {
  auto& state = connection.state<State>();
  if (state.stream == nullptr) {
    ChannelEndpoint& local = connection.endpoint();
    static_cast<TcpPmm&>(local.pmm()).bind(connection.remote());
    static_cast<TcpPmm&>(local.channel().endpoint(connection.remote()).pmm())
        .bind(connection.local());
  }
  return *state.stream;
}

void TcpPmm::bind(std::uint32_t remote) {
  const std::uint32_t peer = endpoint_.channel().network().port(remote);
  states_[peer].stream = &port_->stream(peer, endpoint_.channel().id());
  states_[peer].stream->set_fastpath(fast_);
}

Tm& TcpPmm::select_tm(std::size_t, SendMode, ReceiveMode) { return tm_; }

void TcpPmm::finish_setup() {
  Session& session = endpoint_.session();
  if (!session.config().fastpath) return;
  engine_ = session.progress_engine(endpoint_.local());
  doorbell_ = engine_->register_client(this, [](void* ctx) {
    static_cast<TcpPmm*>(ctx)->flush_pending_streams();
  });
  fast_ = true;
}

void TcpPmm::flush_pending_streams() {
  for (const auto& [remote, state] : scan_.peers()) {
    if (state->stream != nullptr) state->stream->flush_pending();
  }
}

std::uint32_t TcpPmm::wait_incoming() {
  if (!incoming_pred_) {
    incoming_pred_ = [this] {
      const auto remote = scan_.next([](const State* state) {
        return state->stream != nullptr && state->stream->readable();
      });
      if (remote) incoming_found_ = *remote;
      return remote.has_value();
    };
  }
  port_->wait_any(incoming_pred_);
  return incoming_found_;
}


double TcpPmm::bandwidth_hint_mbs() const {
  const auto& p = endpoint_.channel().network().as<net::TcpNetwork>().params();
  // Wire rate minus Ethernet/IP/TCP framing; kernel costs are per-block,
  // not per-byte, so they do not cap the large-block rate.
  return p.fabric.wire_mbs * static_cast<double>(p.mss) /
         static_cast<double>(p.mss + p.frame_overhead);
}

}  // namespace mad2::mad
