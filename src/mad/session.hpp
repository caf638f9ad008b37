// Session, channel and node-runtime objects: the paper's configuration
// layer. A Session describes a simulated cluster (nodes, networks,
// channels), builds every driver and protocol module up front, and runs
// application bodies as fibers on the nodes. Connection objects are built
// on first use (ChannelEndpoint::connection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "hw/node.hpp"
#include "mad/congestion.hpp"
#include "mad/connection.hpp"
#include "mad/hostdb.hpp"
#include "mad/progress.hpp"
#include "mad/rail_set.hpp"
#include "net/bip.hpp"
#include "net/ib.hpp"
#include "net/sbp.hpp"
#include "net/sisci.hpp"
#include "net/tcp.hpp"
#include "net/via.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/status.hpp"

namespace mad2::mad {

class Session;
class Channel;
class ChannelEndpoint;

enum class NetworkKind {
  kBip,
  kSisci,
  kTcp,
  kVia,
  /// SBP (paper reference [14]): a static-buffer-only kernel protocol over
  /// Ethernet — the Section 6.1 example of an interface that requires all
  /// data to be written into specific buffers before sending.
  kSbp,
  /// InfiniBand-style RDMA HCA (PAPERS.md: "Design and Implementation of
  /// MPICH2 over InfiniBand with RDMA Support"): queue pairs, explicit
  /// memory registration with pin-down cost, RDMA write/read, completion
  /// queues. The IbPmm splits eager send/recv from RDMA rendezvous at a
  /// configurable cutoff and shares a per-port registration cache.
  kIb,
  /// No built-in driver: the channel's protocol module comes from
  /// NetworkDef::custom_pmm. This is how Madeleine runs "on top of common
  /// MPI implementations" (paper Section 5.3/Conclusion) — see
  /// mpi/pmm_mpi.hpp — and how downstream users add new interfaces.
  kCustom,
};

std::string_view to_string(NetworkKind kind);

/// Driver parameters of one built-in network kind. std::monostate stands
/// for the kind's preset (the paper's models, see mad/network_driver.cpp).
using NetworkParams =
    std::variant<std::monostate, net::BipParams, net::SciParams,
                 net::TcpParams, net::ViaParams, net::SbpParams,
                 net::IbParams>;

/// One physical network in the session configuration.
struct NetworkDef {
  std::string name;
  NetworkKind kind = NetworkKind::kTcp;
  /// Global node ids attached to this network (its adapter set).
  std::vector<std::uint32_t> nodes;
  /// Driver parameter override; it must be of this kind's params type.
  NetworkParams params;
  /// For kCustom: builds the protocol module of each endpoint.
  std::function<std::unique_ptr<class Pmm>(ChannelEndpoint&)> custom_pmm;
};

/// Tunables of the SISCI protocol module (e.g. benchmarks that enable the
/// DMA TM the paper ships disabled).
struct SciPmmOptions {
  std::uint32_t short_slots = 8;
  std::uint32_t short_capacity = 256;  // short TM cutoff
  /// Ring depth for the bulk TM. The paper's implementation dual-buffers
  /// (2); the simulated wire is store-and-forward at packet granularity,
  /// which adds latency real PIO does not have, so a depth of 4 is needed
  /// to keep the sender streaming. The overlap behaviour (the Figure 4
  /// kink at bulk_capacity) is unchanged.
  std::uint32_t bulk_buffers = 4;
  std::uint32_t bulk_capacity = 8192;  // the Figure 4 kink
  bool enable_dma = false;             // paper: implemented but not active
  std::uint32_t dma_min_bytes = 32768;
  /// Receiver returns short-slot credits every this many consumptions.
  std::uint32_t short_feedback_batch = 4;
};

/// Tunables of the BIP protocol module (e.g. credit-window experiments).
struct BipPmmOptions {
  /// Shorts in flight allowed per connection before the sender must wait
  /// for credit returns. Must stay within what the driver's host buffer
  /// pool can back.
  std::size_t credits = 8;
  /// Receiver returns credits in batches of this size (<= credits / 2).
  std::size_t credit_batch = 4;
};

/// Tunables of the IB protocol module. The network-level knobs (qp_depth,
/// regcache_capacity) live in net::IbParams, since they size adapter
/// resources shared by every channel on the port.
struct IbPmmOptions {
  /// Messages up to this many bytes go eager (copied through pre-posted
  /// registered buffers); larger blocks rendezvous via RDMA. Also sizes
  /// the eager buffers, so raising it trades pinned memory for a later
  /// protocol switch — the abl_ib crossover sweep measures the trade.
  std::size_t eager_cutoff = 8192;
  /// Receiver returns eager credits in batches of this size. Clamped by
  /// the IbPmm to [1, qp_depth/2] so a shallow QP degrades batching
  /// instead of starving the sender.
  std::size_t credit_batch = 4;
};

/// One Madeleine channel: a closed world for communication, bound to one
/// network (paper Section 2.1). Several channels may share a network.
struct ChannelDef {
  ChannelDef() = default;
  ChannelDef(std::string name_, std::string network_)
      : name(std::move(name_)), network(std::move(network_)) {}

  std::string name;
  std::string network;
  /// Protocol-module overrides, each read only on its own kind of network.
  std::optional<SciPmmOptions> sci_options;
  std::optional<BipPmmOptions> bip_options;
  std::optional<IbPmmOptions> ib_options;
  /// Debug aid: prepend a check block to every packed block so asymmetric
  /// pack/unpack sequences fail loudly at the first divergence instead of
  /// corrupting data ("unspecified behavior" per paper Section 2.2). Both
  /// sides of the channel share this setting by construction. Costs one
  /// extra small block per pack; never enable for benchmarking.
  bool paranoid = false;
};

/// Library-level CPU costs (pack/unpack bookkeeping). These produce the
/// Madeleine-over-raw overhead the paper reports (e.g. BIP 5 us -> 7 us).
struct MadCosts {
  sim::Duration begin_packing = sim::from_us(0.3);
  sim::Duration pack = sim::from_us(0.2);
  sim::Duration end_packing = sim::from_us(0.3);
  sim::Duration begin_unpacking = sim::from_us(0.3);
  sim::Duration unpack = sim::from_us(0.2);
  sim::Duration end_unpacking = sim::from_us(0.3);
};

struct SessionConfig {
  std::size_t node_count = 0;
  std::vector<NetworkDef> networks;
  std::vector<ChannelDef> channels;
  /// Rail sets striping large blocks across several channels (see
  /// mad/rail_set.hpp). Each names existing channels; members must be
  /// dedicated to the set.
  std::vector<RailSetDef> rail_sets;
  hw::HostParams host = hw::HostParams::pentium_ii_450();
  MadCosts costs;
  /// madtrace stanza (`trace { ... }` in config files): when set, the
  /// Session installs its own TraceRecorder + MetricsRegistry for its
  /// lifetime — unless the MAD2_TRACE environment already installed a
  /// process-wide one, which takes precedence (see obs/trace.hpp).
  std::optional<obs::TraceConfig> trace;
  /// `congestion` stanza: end-to-end windows and weighted-fair flow
  /// scheduling (see mad/congestion.hpp). Consumed by virtual channels
  /// built over this session (gateway fair queues + per-flow windows).
  /// Absent = all off.
  std::optional<CongestionConfig> congestion;
  /// `topology` stanza: resilient multi-gateway routing for virtual
  /// channels built over this session (see mad/hostdb.hpp and
  /// docs/ROUTING.md). Absent = single-gateway routing, wire-identical
  /// to earlier releases.
  std::optional<TopologyConfig> topology;
  /// `fastpath` stanza: allocation-free short-message path and batched
  /// progress engine (see docs/PERFORMANCE.md). Each node gets a
  /// ProgressEngine daemon; drivers coalesce small sends and deferred
  /// credit returns through it. Off = wire bit-identical to earlier
  /// releases.
  bool fastpath = false;
};

/// One built driver; std::monostate for a kCustom network, which has none.
using AnyNetwork =
    std::variant<std::monostate, std::unique_ptr<net::BipNetwork>,
                 std::unique_ptr<net::SciNetwork>,
                 std::unique_ptr<net::TcpNetwork>,
                 std::unique_ptr<net::ViaNetwork>,
                 std::unique_ptr<net::SbpNetwork>,
                 std::unique_ptr<net::IbNetwork>>;

/// A session network instance: the driver plus the global-node -> local
/// port mapping.
struct NetworkInstance {
  NetworkDef def;
  AnyNetwork network;
  /// Ports are numbered in def.nodes order: port i is def.nodes[i].
  std::map<std::uint32_t, std::uint32_t> port_of_node;

  [[nodiscard]] bool has_node(std::uint32_t node) const {
    return port_of_node.count(node) != 0;
  }
  [[nodiscard]] std::uint32_t port(std::uint32_t node) const;

  /// The driver if it is a `Network`, else nullptr.
  template <class Network>
  [[nodiscard]] Network* as_if() {
    auto* held = std::get_if<std::unique_ptr<Network>>(&network);
    return held != nullptr ? held->get() : nullptr;
  }
  /// The driver, which must be a `Network`.
  template <class Network>
  [[nodiscard]] Network& as() {
    MAD2_CHECK(as_if<Network>() != nullptr, "driver of another kind");
    return *as_if<Network>();
  }
};

/// One row of the network driver table (mad/network_driver.cpp): all the
/// session knows of a kind. Adding a network adds a row plus its protocol
/// module and TMs; the Switch and the BMMs are shared (paper Section 3).
struct NetworkDriver {
  NetworkKind kind;
  /// to_string(kind), and the kind's name in config files.
  std::string_view name;
  /// What a NetworkDef that sets no params gets.
  NetworkParams preset;
  /// Builds the driver; port i is members[i]. `params` are this row's type.
  AnyNetwork (*make_network)(sim::Simulator* simulator,
                             std::vector<hw::Node*> members,
                             const NetworkParams& params);
  std::unique_ptr<class Pmm> (*make_pmm)(ChannelEndpoint& endpoint);
};

const NetworkDriver& driver(NetworkKind kind);

/// The built-in row named `name`, or nullptr: kCustom networks carry their
/// own factory, so no config file can name that row.
const NetworkDriver* driver_named(std::string_view name);

/// Where a network failure was absorbed (Session::route_network_failure).
enum class FailureDomain {
  /// Nobody claimed it: the session is failing.
  kUnknown,
  /// A rail set marked a secondary rail dead and rescheduled around it.
  kRail,
  /// A forwarding layer re-routed the affected virtual-channel hop
  /// (e.g. a dead gateway with surviving siblings on its boundary).
  kHop,
  /// A node was declared dead in the host directory with no routing
  /// layer able to absorb it; the session is failing.
  kNode,
};

std::string_view to_string(FailureDomain domain);

/// A link/network failure report. src_node is the (global id of the)
/// reporting end, dst_node the unresponsive end; either may be kNoNode
/// when the driver cannot attribute the failure to specific endpoints.
struct NetworkFailure {
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  const NetworkInstance* network = nullptr;
  Status status;
  std::uint32_t src_node = kNoNode;
  std::uint32_t dst_node = kNoNode;
};

/// Per-node local view of a channel: where begin_packing / begin_unpacking
/// live. Owns the PMM, which builds every peer's protocol state at setup,
/// and the Connection objects, each built the first time a send or an
/// arrival names its peer.
class ChannelEndpoint {
 public:
  ChannelEndpoint(Session* session, Channel* channel, std::uint32_t local);
  ~ChannelEndpoint();

  /// Start an outgoing message to `remote` (global node id). Returns the
  /// connection object to pack into (paper: mad_begin_packing).
  Connection& begin_packing(std::uint32_t remote);

  /// Start extracting the first incoming message on this channel. Returns
  /// the connection it arrived on (paper: mad_begin_unpacking).
  Connection& begin_unpacking();

  /// The connection to `remote`, built on the first call. Aborts if
  /// `remote` is this node or not a member of the channel.
  [[nodiscard]] Connection& connection(std::uint32_t remote);

  /// How many connections exist so far (built by connection()).
  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }

  /// Aggregate traffic statistics across the connections that exist.
  [[nodiscard]] TrafficStats stats() const;

  [[nodiscard]] std::uint32_t local() const { return local_; }
  [[nodiscard]] Channel& channel() { return *channel_; }
  [[nodiscard]] Session& session() { return *session_; }
  [[nodiscard]] Pmm& pmm() { return *pmm_; }
  [[nodiscard]] hw::Node& node();
  [[nodiscard]] const MadCosts& costs() const;

 private:
  friend class Connection;
  friend class RailSet;
  Session* session_;
  Channel* channel_;
  std::uint32_t local_;
  std::unique_ptr<Pmm> pmm_;
  std::map<std::uint32_t, std::unique_ptr<Connection>> connections_;
  Connection* active_incoming_ = nullptr;
  /// Set by RailSet::finish_setup when this channel heads a rail set;
  /// every Connection's Switch reads it.
  RailSet* rails_ = nullptr;
};

class Channel {
 public:
  Channel(Session* session, std::uint32_t id, ChannelDef def,
          NetworkInstance* network);
  ~Channel();

  [[nodiscard]] const std::string& name() const { return def_.name; }
  [[nodiscard]] const ChannelDef& def() const { return def_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] NetworkInstance& network() { return *network_; }
  [[nodiscard]] const std::vector<std::uint32_t>& nodes() const {
    return network_->def.nodes;
  }
  [[nodiscard]] ChannelEndpoint& endpoint(std::uint32_t node);
  [[nodiscard]] Session& session() { return *session_; }

 private:
  friend class Session;
  Session* session_;
  std::uint32_t id_;
  ChannelDef def_;
  NetworkInstance* network_;
  std::map<std::uint32_t, std::unique_ptr<ChannelEndpoint>> endpoints_;
};

/// The per-node application context handed to spawned bodies.
class NodeRuntime {
 public:
  NodeRuntime(Session* session, std::uint32_t rank)
      : session_(session), rank_(rank) {}

  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  [[nodiscard]] Session& session() { return *session_; }
  [[nodiscard]] ChannelEndpoint& channel(const std::string& name);
  [[nodiscard]] hw::Node& node();
  [[nodiscard]] sim::Simulator& simulator();

 private:
  Session* session_;
  std::uint32_t rank_;
};

class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] hw::Node& node(std::uint32_t id);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

  [[nodiscard]] Channel& channel(const std::string& name);
  [[nodiscard]] ChannelEndpoint& endpoint(const std::string& channel_name,
                                          std::uint32_t node);
  [[nodiscard]] NetworkInstance& network(const std::string& name);
  [[nodiscard]] RailSet& rail_set(const std::string& name);

  /// Run `body` as a fiber on `node` when run() starts.
  void spawn(std::uint32_t node, std::string name,
             std::function<void(NodeRuntime&)> body);

  /// Run the simulation to completion (all spawned bodies finished), or
  /// until a network declares a link dead — then the first failure is
  /// returned instead of a spurious stuck-fiber deadlock report.
  Status run();

  /// Record an unrecoverable failure (first one wins) and stop the
  /// simulation after the current event. Wired to every driver's error
  /// handler; applications may also call it to abort a run cleanly.
  void fail(const Status& status);

  /// OK until fail() was called; then the first recorded failure.
  [[nodiscard]] const Status& health() const { return health_; }

  /// Topology/membership directory (adapters filled from the network
  /// defs; gateway roles registered by virtual channels).
  [[nodiscard]] Hostdb& hostdb() { return hostdb_; }

  /// The node's batched progress engine, or nullptr when the session has
  /// no `fastpath` stanza. Drivers register flush clients during
  /// finish_setup and ring doorbells from their hot paths.
  [[nodiscard]] ProgressEngine* progress_engine(std::uint32_t node);

  /// A routing layer's claim on network failures. Return the domain that
  /// absorbed the failure, or kUnknown to pass it to the next listener.
  using FailureListener = std::function<FailureDomain(const NetworkFailure&)>;

  /// Register/unregister a failure listener (e.g. a resilient virtual
  /// channel). Listeners are consulted after rail sets, in registration
  /// order; remove before the listener's owner dies.
  std::uint64_t add_failure_listener(FailureListener listener);
  void remove_failure_listener(std::uint64_t id);

  /// Network-failure triage, in order: (1) a repeated report of an
  /// already-routed failure returns its recorded domain with no side
  /// effects; (2) rail sets absorb failures of their secondary rails
  /// (kRail); (3) registered failure listeners may re-route a forwarding
  /// hop (kHop); (4) otherwise the unresponsive node — when the driver
  /// named one — is marked dead in the host directory (kNode) and the
  /// session fails. kUnknown also fails the session.
  FailureDomain route_network_failure(const NetworkFailure& failure);

  /// Pour every counter family this session owns into `registry` as flat
  /// scalar values, each read from its one owner: TrafficStats summed per
  /// channel (TM block/byte counts, rail activity), MemCounters per node,
  /// ReliabilityCounters per reliable link. Latency histograms accumulate
  /// in the ambient registry as messages flow; this adds the counters next
  /// to them so one to_json() snapshot covers the whole stack.
  void export_metrics(obs::MetricsRegistry& registry);

 private:
  /// SLO watchdog: after the simulation finishes, compare every `slo=`
  /// rule from the trace stanza against the matching e2e latency
  /// histograms; on breach, bump `slo.breaches` and auto-dump the flight
  /// recorder plus the weaved cross-node span timeline.
  void check_slo_rules();
  SessionConfig config_;
  /// Config-driven madtrace state; owned here so a recorder installed by
  /// this session is uninstalled in ~Session (declared before the
  /// simulator/channels: destroyed last, after every span closed).
  std::unique_ptr<obs::TraceRecorder> trace_recorder_;
  std::unique_ptr<obs::MetricsRegistry> trace_metrics_;
  sim::Simulator simulator_;
  Status health_;
  Hostdb hostdb_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  /// Per-node progress engines; empty unless config_.fastpath is set.
  /// Populated lazily by progress_engine() so only nodes whose drivers
  /// actually batch pay for a daemon fiber.
  std::vector<std::unique_ptr<ProgressEngine>> progress_;
  std::vector<std::unique_ptr<NetworkInstance>> networks_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<RailSet>> rail_sets_;
  std::vector<std::pair<std::uint64_t, FailureListener>> failure_listeners_;
  std::uint64_t next_listener_id_ = 1;
  /// Failures already triaged, keyed by (network, src, dst): a repeated
  /// report returns the recorded domain instead of re-routing.
  std::map<std::tuple<const NetworkInstance*, std::uint32_t, std::uint32_t>,
           FailureDomain>
      routed_failures_;
};

}  // namespace mad2::mad
