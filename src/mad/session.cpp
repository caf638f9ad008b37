#include "mad/session.hpp"

#include <algorithm>
#include <cstdio>

#include "mad/pmm_factory.hpp"
#include "obs/span_weaver.hpp"

namespace mad2::mad {

std::string_view to_string(NetworkKind kind) {
  switch (kind) {
    case NetworkKind::kBip:
      return "bip";
    case NetworkKind::kSisci:
      return "sisci";
    case NetworkKind::kTcp:
      return "tcp";
    case NetworkKind::kVia:
      return "via";
    case NetworkKind::kSbp:
      return "sbp";
    case NetworkKind::kIb:
      return "ib";
    case NetworkKind::kCustom:
      return "custom";
  }
  return "?";
}

std::string_view to_string(FailureDomain domain) {
  switch (domain) {
    case FailureDomain::kUnknown:
      return "unknown";
    case FailureDomain::kRail:
      return "rail";
    case FailureDomain::kHop:
      return "hop";
    case FailureDomain::kNode:
      return "node";
  }
  return "?";
}

std::uint32_t NetworkInstance::port(std::uint32_t node) const {
  auto it = port_of_node.find(node);
  MAD2_CHECK(it != port_of_node.end(), "node not attached to this network");
  return it->second;
}

// ------------------------------------------------------- ChannelEndpoint ---

ChannelEndpoint::ChannelEndpoint(Session* session, Channel* channel,
                                 std::uint32_t local)
    : session_(session), channel_(channel), local_(local) {
  pmm_ = make_pmm(*this);
  for (std::uint32_t peer : channel_->nodes()) {
    if (peer == local_) continue;
    connections_.emplace(
        peer, std::make_unique<Connection>(this, peer,
                                           pmm_->make_conn_state(peer)));
  }
}

ChannelEndpoint::~ChannelEndpoint() = default;

hw::Node& ChannelEndpoint::node() { return session_->node(local_); }

const MadCosts& ChannelEndpoint::costs() const {
  return session_->config().costs;
}

TrafficStats ChannelEndpoint::stats() const {
  TrafficStats total;
  for (const auto& [remote, connection] : connections_) {
    total.merge(connection->stats());
  }
  return total;
}

Connection& ChannelEndpoint::connection(std::uint32_t remote) {
  auto it = connections_.find(remote);
  MAD2_CHECK(it != connections_.end(),
             "no connection to that node on this channel");
  return *it->second;
}

Connection& ChannelEndpoint::begin_packing(std::uint32_t remote) {
  Connection& conn = connection(remote);
  conn.begin_packing_message();
  return conn;
}

Connection& ChannelEndpoint::begin_unpacking() {
  MAD2_CHECK(active_incoming_ == nullptr,
             "begin_unpacking with an incoming message already open");
  const std::uint32_t src = pmm_->wait_incoming();
  Connection& conn = connection(src);
  conn.begin_unpacking_message();
  active_incoming_ = &conn;
  return conn;
}

// ---------------------------------------------------------------- Channel ---

Channel::Channel(Session* session, std::uint32_t id, ChannelDef def,
                 NetworkInstance* network)
    : session_(session), id_(id), def_(std::move(def)), network_(network) {
  for (std::uint32_t node : network_->def.nodes) {
    endpoints_.emplace(node,
                       std::make_unique<ChannelEndpoint>(session, this, node));
  }
}

Channel::~Channel() = default;

ChannelEndpoint& Channel::endpoint(std::uint32_t node) {
  auto it = endpoints_.find(node);
  MAD2_CHECK(it != endpoints_.end(), "node is not a member of this channel");
  return *it->second;
}

// ------------------------------------------------------------- NodeRuntime ---

ChannelEndpoint& NodeRuntime::channel(const std::string& name) {
  return session_->endpoint(name, rank_);
}

hw::Node& NodeRuntime::node() { return session_->node(rank_); }

sim::Simulator& NodeRuntime::simulator() { return session_->simulator(); }

// ----------------------------------------------------------------- Session ---

Session::Session(SessionConfig config) : config_(std::move(config)) {
  MAD2_CHECK(config_.node_count > 0, "session needs at least one node");
  // madtrace enablement: the MAD2_TRACE environment wins (process-wide
  // recorder, survives this session for failure dumps); otherwise a
  // `trace` config stanza installs a session-lifetime recorder.
  obs::ensure_env_recorder();
  if (config_.trace.has_value() && obs::recorder() == nullptr) {
    trace_recorder_ = std::make_unique<obs::TraceRecorder>(*config_.trace);
    obs::install_recorder(trace_recorder_.get());
    if (obs::metrics() == nullptr) {
      trace_metrics_ = std::make_unique<obs::MetricsRegistry>();
      obs::install_metrics(trace_metrics_.get());
    }
  }
  for (std::uint32_t i = 0; i < config_.node_count; ++i) {
    nodes_.push_back(std::make_unique<hw::Node>(
        &simulator_, i, "node" + std::to_string(i), config_.host));
  }
  hostdb_.reset(config_.node_count);

  for (const NetworkDef& def : config_.networks) {
    auto instance = std::make_unique<NetworkInstance>();
    instance->def = def;
    std::vector<hw::Node*> members;
    for (std::uint32_t node : def.nodes) {
      MAD2_CHECK(node < nodes_.size(), "network references unknown node");
      instance->port_of_node[node] =
          static_cast<std::uint32_t>(members.size());
      instance->node_of_port.push_back(node);
      hostdb_.add_adapter(node, def.name);
      members.push_back(nodes_[node].get());
    }
    switch (def.kind) {
      case NetworkKind::kBip:
        instance->bip = std::make_unique<net::BipNetwork>(
            &simulator_, members,
            def.bip_params.value_or(net::BipParams::myrinet_lanai43()));
        break;
      case NetworkKind::kSisci:
        instance->sci = std::make_unique<net::SciNetwork>(
            &simulator_, members,
            def.sci_params.value_or(net::SciParams::dolphin_d310()));
        break;
      case NetworkKind::kTcp:
        instance->tcp = std::make_unique<net::TcpNetwork>(
            &simulator_, members,
            def.tcp_params.value_or(net::TcpParams::fast_ethernet()));
        // A faulty fabric can give up on a link. Triage in
        // route_network_failure decides whether a rail set or a resilient
        // forwarding layer absorbs the failure (the session runs on
        // degraded) or the session fails cleanly instead of deadlocking
        // the stuck fibers. Ports map back to global node ids so the
        // failure carries its endpoints.
        instance->tcp->set_link_error_handler(
            [this, raw = instance.get()](std::uint32_t a, std::uint32_t b,
                                         const Status& status) {
              NetworkFailure failure;
              failure.network = raw;
              failure.status = status;
              if (a < raw->node_of_port.size()) {
                failure.src_node = raw->node_of_port[a];
              }
              if (b < raw->node_of_port.size()) {
                failure.dst_node = raw->node_of_port[b];
              }
              route_network_failure(failure);
            });
        break;
      case NetworkKind::kVia:
        instance->via = std::make_unique<net::ViaNetwork>(
            &simulator_, members,
            def.via_params.value_or(net::ViaParams::generic_nic()));
        break;
      case NetworkKind::kSbp:
        instance->sbp = std::make_unique<net::SbpNetwork>(
            &simulator_, members,
            def.sbp_params.value_or(net::SbpParams::fast_ethernet()));
        break;
      case NetworkKind::kIb:
        instance->ib = std::make_unique<net::IbNetwork>(
            &simulator_, members,
            def.ib_params.value_or(net::IbParams::mellanox_like()));
        // Same triage as TCP: an HCA gives up on a peer (work-request
        // timeout, scripted fault) and the session decides whether a
        // rail set absorbs it or the run fails cleanly.
        instance->ib->set_link_error_handler(
            [this, raw = instance.get()](std::uint32_t a, std::uint32_t b,
                                         const Status& status) {
              NetworkFailure failure;
              failure.network = raw;
              failure.status = status;
              if (a < raw->node_of_port.size()) {
                failure.src_node = raw->node_of_port[a];
              }
              if (b < raw->node_of_port.size()) {
                failure.dst_node = raw->node_of_port[b];
              }
              route_network_failure(failure);
            });
        break;
      case NetworkKind::kCustom:
        MAD2_CHECK(static_cast<bool>(def.custom_pmm),
                   "custom network without a custom_pmm factory");
        break;
    }
    networks_.push_back(std::move(instance));
  }

  std::uint32_t channel_id = 0;
  for (const ChannelDef& def : config_.channels) {
    NetworkInstance* net = &network(def.network);
    channels_.push_back(
        std::make_unique<Channel>(this, channel_id++, def, net));
  }

  for (const RailSetDef& def : config_.rail_sets) {
    for (const auto& existing : rail_sets_) {
      MAD2_CHECK(existing->name() != def.name, "duplicate rail set name");
      for (const std::string& channel : def.channels) {
        for (const std::string& taken : existing->def().channels) {
          MAD2_CHECK(channel != taken,
                     "channel is a member of two rail sets");
        }
      }
    }
    rail_sets_.push_back(std::make_unique<RailSet>(this, def));
  }

  // Second phase: cross-node handle resolution (see Pmm::finish_setup).
  for (auto& channel : channels_) {
    for (std::uint32_t node : channel->nodes()) {
      channel->endpoint(node).pmm().finish_setup();
    }
  }
  // Rail sets bind last: their lanes drive fully-resolved protocol state.
  for (auto& rail_set : rail_sets_) {
    rail_set->finish_setup();
  }
}

Session::~Session() {
  if (trace_recorder_ != nullptr) {
    obs::uninstall_recorder(trace_recorder_.get());
  }
  if (trace_metrics_ != nullptr) {
    obs::uninstall_metrics(trace_metrics_.get());
  }
}

hw::Node& Session::node(std::uint32_t id) {
  MAD2_CHECK(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}

Channel& Session::channel(const std::string& name) {
  for (auto& channel : channels_) {
    if (channel->name() == name) return *channel;
  }
  MAD2_CHECK(false, "unknown channel name");
}

ChannelEndpoint& Session::endpoint(const std::string& channel_name,
                                   std::uint32_t node) {
  return channel(channel_name).endpoint(node);
}

NetworkInstance& Session::network(const std::string& name) {
  for (auto& network : networks_) {
    if (network->def.name == name) return *network;
  }
  MAD2_CHECK(false, "unknown network name");
}

RailSet& Session::rail_set(const std::string& name) {
  for (auto& rail_set : rail_sets_) {
    if (rail_set->name() == name) return *rail_set;
  }
  MAD2_CHECK(false, "unknown rail set name");
}

ProgressEngine* Session::progress_engine(std::uint32_t node) {
  if (!config_.fastpath.has_value()) return nullptr;
  MAD2_CHECK(node < nodes_.size(), "unknown node id");
  if (progress_.empty()) progress_.resize(nodes_.size());
  if (progress_[node] == nullptr) {
    progress_[node] = std::make_unique<ProgressEngine>(
        &simulator_, "node" + std::to_string(node));
    progress_[node]->start();
  }
  return progress_[node].get();
}

std::uint64_t Session::add_failure_listener(FailureListener listener) {
  const std::uint64_t id = next_listener_id_++;
  failure_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Session::remove_failure_listener(std::uint64_t id) {
  for (auto it = failure_listeners_.begin(); it != failure_listeners_.end();
       ++it) {
    if (it->first == id) {
      failure_listeners_.erase(it);
      return;
    }
  }
}

FailureDomain Session::route_network_failure(const NetworkFailure& failure) {
  MAD2_CHECK(!failure.status.is_ok(),
             "route_network_failure with an OK status");
  // A failure is identified by its (network, src, dst) link; routing it is
  // idempotent — a double report (several streams noticing the same dead
  // link, or a misbehaving caller) replays the recorded verdict without
  // re-triggering rail or hop repairs.
  const auto key =
      std::make_tuple(failure.network, failure.src_node, failure.dst_node);
  if (const auto it = routed_failures_.find(key);
      it != routed_failures_.end()) {
    return it->second;
  }
  FailureDomain domain = FailureDomain::kUnknown;
  for (auto& rail_set : rail_sets_) {
    if (rail_set->on_network_failed(failure.network, failure.status)) {
      domain = FailureDomain::kRail;
      break;
    }
  }
  if (domain == FailureDomain::kUnknown) {
    for (auto& [id, listener] : failure_listeners_) {
      const FailureDomain claimed = listener(failure);
      if (claimed != FailureDomain::kUnknown) {
        domain = claimed;
        break;
      }
    }
  }
  if (domain == FailureDomain::kUnknown &&
      failure.dst_node != NetworkFailure::kNoNode) {
    // Nobody could route around it: record the death in the directory so
    // post-mortems see which node took the session down.
    hostdb_.mark_dead(failure.dst_node);
    domain = FailureDomain::kNode;
  }
  routed_failures_[key] = domain;
  if (domain == FailureDomain::kUnknown || domain == FailureDomain::kNode) {
    fail(failure.status);
  }
  return domain;
}

void Session::spawn(std::uint32_t node, std::string name,
                    std::function<void(NodeRuntime&)> body) {
  MAD2_CHECK(node < nodes_.size(), "spawn on unknown node");
  simulator_.spawn(std::move(name),
                   [this, node, body = std::move(body)]() mutable {
                     NodeRuntime runtime(this, node);
                     body(runtime);
                   });
}

void Session::fail(const Status& status) {
  MAD2_CHECK(!status.is_ok(), "Session::fail with an OK status");
  if (!health_.is_ok()) return;  // first failure wins
  health_ = status;
  simulator_.stop();
}

void Session::export_metrics(obs::MetricsRegistry& registry) {
  const auto u = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  // Flight-recorder truncation: how many trace events the ring already
  // overwrote. A nonzero value means dumps and weaved spans are partial.
  if (const obs::TraceRecorder* rec = obs::recorder(); rec != nullptr) {
    registry.set_value("trace.dropped_events", u(rec->dropped_events()));
  }
  // Channel-level traffic: TM usage and rail activity, summed over the
  // channel's endpoints.
  for (auto& channel : channels_) {
    TrafficStats total;
    for (std::uint32_t node : channel->nodes()) {
      total.merge(channel->endpoint(node).stats());
    }
    const std::string prefix = "stats." + channel->name() + ".";
    registry.set_value(prefix + "messages_sent", u(total.messages_sent));
    registry.set_value(prefix + "messages_received",
                       u(total.messages_received));
    registry.set_value(prefix + "switch.fast_selects",
                       u(total.switching.fast_selects));
    registry.set_value(prefix + "switch.pack_cpu_ticks",
                       u(total.switching.pack_cpu_ticks));
    registry.set_value(prefix + "switch.unpack_cpu_ticks",
                       u(total.switching.unpack_cpu_ticks));
    for (const auto& [tm, counters] : total.sent_by_tm) {
      registry.set_value(prefix + "tx." + tm + ".blocks",
                         u(counters.blocks));
      registry.set_value(prefix + "tx." + tm + ".bytes", u(counters.bytes));
    }
    for (const auto& [tm, counters] : total.received_by_tm) {
      registry.set_value(prefix + "rx." + tm + ".blocks",
                         u(counters.blocks));
      registry.set_value(prefix + "rx." + tm + ".bytes", u(counters.bytes));
    }
    for (const auto& [rail, counters] : total.rails) {
      registry.set_value(prefix + "rail." + rail + ".bytes",
                         u(counters.bytes));
      registry.set_value(prefix + "rail." + rail + ".segments",
                         u(counters.segments));
      registry.set_value(prefix + "rail." + rail + ".resubmits",
                         u(counters.resubmits));
    }
  }
  // Node-level memory traffic, once per node regardless of how many
  // channel endpoints live on it.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const hw::MemCounters mem = nodes_[i]->mem();
    const std::string prefix = "mem.node" + std::to_string(i) + ".";
    registry.set_value(prefix + "memcpy_bytes", u(mem.memcpy_bytes));
    registry.set_value(prefix + "allocs", u(mem.alloc_count));
    registry.set_value(prefix + "pool_recycles", u(mem.pool_recycle_count));
    registry.set_value(prefix + "pinned_bytes", u(mem.pinned_bytes));
    registry.set_value(prefix + "regs", u(mem.reg_count));
    registry.set_value(prefix + "deregs", u(mem.dereg_count));
  }
  // Progress-engine activity (fastpath sessions only).
  for (std::size_t i = 0; i < progress_.size(); ++i) {
    if (progress_[i] == nullptr) continue;
    const ProgressCounters& c = progress_[i]->counters();
    const std::string prefix = "progress.node" + std::to_string(i) + ".";
    registry.set_value(prefix + "ticks", u(c.ticks));
    registry.set_value(prefix + "doorbells", u(c.doorbells));
    registry.set_value(prefix + "flushes", u(c.flushes));
  }
  // IB verbs activity plus registration-cache effectiveness, once per
  // (network, port).
  for (auto& network : networks_) {
    if (network->ib == nullptr) continue;
    for (const auto& [node, port_index] : network->port_of_node) {
      net::IbPort& port = network->ib->port(port_index);
      const net::IbCounters& c = port.counters();
      const net::IbRegCacheStats& rc = port.reg_cache().stats();
      const std::string prefix =
          "ib." + network->def.name + ":" + std::to_string(port_index) + ".";
      registry.set_value(prefix + "send_wrs", u(c.send_wrs));
      registry.set_value(prefix + "recv_posts", u(c.recv_posts));
      registry.set_value(prefix + "write_wrs", u(c.write_wrs));
      registry.set_value(prefix + "read_wrs", u(c.read_wrs));
      registry.set_value(prefix + "cqes", u(c.cqes));
      registry.set_value(prefix + "cq_polls", u(c.cq_polls));
      registry.set_value(prefix + "regcache.hits", u(rc.hits));
      registry.set_value(prefix + "regcache.misses", u(rc.misses));
      registry.set_value(prefix + "regcache.evictions", u(rc.evictions));
      registry.set_value(prefix + "regcache.invalidations",
                         u(rc.invalidations));
      registry.set_value(prefix + "regcache.merges", u(rc.merges));
    }
  }
  // Link-level reliable-shim work, once per (network, port).
  for (auto& network : networks_) {
    if (network->tcp == nullptr || network->tcp->reliable() == nullptr) {
      continue;
    }
    for (const auto& [node, port] : network->port_of_node) {
      const net::ReliabilityCounters& c =
          network->tcp->reliable()->endpoint(port).counters();
      const std::string prefix =
          "rel." + network->def.name + ":" + std::to_string(port) + ".";
      registry.set_value(prefix + "data_frames", u(c.data_frames));
      registry.set_value(prefix + "retransmits", u(c.retransmits));
      registry.set_value(prefix + "acks_sent", u(c.acks_sent));
      registry.set_value(prefix + "dup_frames", u(c.dup_frames));
      registry.set_value(prefix + "corrupt_frames", u(c.corrupt_frames));
      registry.set_value(prefix + "give_ups", u(c.give_ups));
      registry.set_value(prefix + "rtt_samples", u(c.rtt_samples));
      registry.set_value(prefix + "srtt_us",
                         static_cast<std::int64_t>(sim::to_us(c.srtt)));
      registry.set_value(prefix + "min_rtt_us",
                         static_cast<std::int64_t>(sim::to_us(c.min_rtt)));
    }
  }
}

Status Session::run() {
  const Status status = simulator_.run();
  check_slo_rules();
  // A recorded failure explains why the run stopped (stuck fibers are a
  // symptom, not the cause); report it instead.
  if (!health_.is_ok()) return health_;
  return status;
}

void Session::check_slo_rules() {
  if (!config_.trace.has_value() || config_.trace->slo.empty()) return;
  obs::MetricsRegistry* registry = obs::metrics();
  if (registry == nullptr) return;
  for (const obs::SloRule& rule : config_.trace->slo) {
    // A rule covers the Switch's "<channel>.e2e" histogram and any
    // per-flow "<channel>.flow.<src>-<dst>.e2e" overlays; the worst p99
    // across them is what the operator promised to bound.
    const std::string exact = rule.channel + ".e2e";
    const std::string flow_prefix = rule.channel + ".flow.";
    sim::Duration worst = 0;
    for (const auto& [name, histogram] : registry->histograms()) {
      const bool flow_match =
          name.size() > flow_prefix.size() + 4 &&
          name.compare(0, flow_prefix.size(), flow_prefix) == 0 &&
          name.compare(name.size() - 4, 4, ".e2e") == 0;
      if (name != exact && !flow_match) continue;
      if (histogram.count() == 0) continue;
      worst = std::max(worst, histogram.p99());
    }
    if (worst <= rule.p99_us * 1000) continue;
    // Breach: count it, then reuse the invariant-failure dump path so the
    // flight recorder's tail plus trace/metrics JSON land on disk, and
    // pair the raw dump with the weaved cross-node span timeline.
    registry->add_value("slo.breaches", 1);
    char reason[160];
    std::snprintf(reason, sizeof(reason),
                  "slo breach: channel %s e2e p99 %.3fus > %lldus",
                  rule.channel.c_str(), static_cast<double>(worst) / 1000.0,
                  static_cast<long long>(rule.p99_us));
    const std::string before_dump = obs::last_dump_path();
    obs::dump_on_failure(reason);
    // Only weave when this breach actually produced a dump file (a dump
    // directory is configured) — never against a stale earlier path.
    if (const std::string& raw = obs::last_dump_path();
        !raw.empty() && raw != before_dump) {
      std::string weaved = raw;
      if (weaved.size() > 5 &&
          weaved.compare(weaved.size() - 5, 5, ".json") == 0) {
        weaved.resize(weaved.size() - 5);
      }
      obs::write_weaved_dump(weaved + "-weaved.json");
    }
  }
}

}  // namespace mad2::mad
