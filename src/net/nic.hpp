// The NIC shell the packet drivers build on.
//
// A packet driver is one PacketFabric, one port per node, and a protocol
// on top: tags and credits (BIP, SBP), segments (SISCI), descriptors
// (VIA), queue pairs and completion queues (IB), byte streams (TCP). The
// shell holds the rest, once:
//  - NicNetwork: the fabric, the ports numbered in node order, size(),
//    port() and params();
//  - NicPort: the port's network, node and rank, its daemon fibers
//    ("<name>.<role>.<rank>"), its PCI bus-master id, the host-rate DMA
//    of a packet, the chained receive burst and the per-(peer, id)
//    queues (queue_of) that hold a driver's net/rx_queue.hpp receives;
//  - StagedNicPort: the staged transmit. The host side DMAs a packet and
//    hands it to a bounded channel; one "<name>.tx.<rank>" fiber ships
//    each with data.size() + header_bytes wire bytes, so the DMA of the
//    next packet overlaps the wire.
//
// A driver states its constants in one NicSpec. Each driver has a PCI
// slot of its own, so a node carrying several NICs charges bus turnaround
// when ownership passes between them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/node.hpp"
#include "net/wire.hpp"
#include "sim/sync.hpp"

namespace mad2::net {

struct NicSpec {
  const char* name;             ///< fiber-name prefix
  std::uint32_t pci_slot;       ///< hw::Node::nic_initiator_id slot
  std::size_t stage_depth = 0;  ///< StagedNicPort channel, in packets
};

template <typename Port, typename Packet, typename Params>
class NicNetwork {
 public:
  [[nodiscard]] std::size_t size() const { return ports_.size(); }
  [[nodiscard]] Port& port(std::uint32_t rank) { return *ports_[rank]; }
  [[nodiscard]] const Params& params() const { return params_; }

 protected:
  template <typename, typename>
  friend class NicPort;
  template <typename, typename>
  friend class StagedNicPort;

  NicNetwork(sim::Simulator* simulator, Params params)
      : simulator_(simulator),
        params_(std::move(params)),
        fabric_(simulator, params_.fabric) {}
  ~NicNetwork() = default;

  /// One port per node, in node order, numbered by `next_rank`: the
  /// fabric's add_port() unless the driver's frames ride another carrier.
  /// Port constructors stay private; a port befriends its network's shell
  /// (`friend class XNetwork::NicNetwork`) so that only this builds it.
  template <typename Network, typename NextRank>
  void add_ports(Network* network, const std::vector<hw::Node*>& nodes,
                 NextRank next_rank) {
    for (hw::Node* node : nodes) {
      const std::uint32_t rank = next_rank();
      ports_.emplace_back(new Port(network, node, rank));
    }
  }
  template <typename Network>
  void add_ports(Network* network, const std::vector<hw::Node*>& nodes) {
    add_ports(network, nodes, [this] { return fabric_.add_port(); });
  }

  sim::Simulator* simulator_;
  Params params_;
  PacketFabric<Packet> fabric_;
  std::vector<std::unique_ptr<Port>> ports_;
};

template <typename Network, typename Packet>
class NicPort {
 public:
  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  [[nodiscard]] hw::Node& node() { return *node_; }

 protected:
  NicPort(Network* network, hw::Node* node, std::uint32_t rank)
      : network_(network), node_(node), rank_(rank) {}

  /// Start this port's daemon fiber "<name>.<role>.<rank>".
  void spawn(const char* role, std::function<void()> body) {
    network_->simulator_->spawn_daemon(std::string(Network::kNic.name) +
                                           "." + role + "." +
                                           std::to_string(rank_),
                                       std::move(body));
  }

  /// This NIC's bus-master id on its node's PCI bus.
  [[nodiscard]] std::uint64_t pci_initiator() const {
    return node_->nic_initiator_id(Network::kNic.pci_slot);
  }

  /// Bus-master DMA, at the host's rate, of `bytes` of payload plus one
  /// header per packet.
  void host_dma(std::uint64_t bytes, std::uint64_t packets = 1) {
    node_->pci_bus().transfer(
        bytes + packets * network_->params_.header_bytes,
        node_->params().pci_dma_mbs, hw::TxClass::kDma, pci_initiator());
  }

  /// Entry (peer, id) of a per-queue map, built in place on first use:
  /// BIP's posted receives per (src, tag), VIA's per VI, IB's queue pairs.
  template <typename Queue>
  Queue& queue_of(std::map<std::uint64_t, Queue>& queues, std::uint32_t peer,
                  std::uint32_t id) {
    return queues.try_emplace(queue_key(peer, id), network_->simulator_)
        .first->second;
  }
  /// The same entry, or nullptr before its first use.
  template <typename Queue>
  static const Queue* find_queue(const std::map<std::uint64_t, Queue>& queues,
                                 std::uint32_t peer, std::uint32_t id) {
    const auto it = queues.find(queue_key(peer, id));
    return it == queues.end() ? nullptr : &it->second;
  }
  static std::uint64_t queue_key(std::uint32_t peer, std::uint32_t id) {
    return (std::uint64_t{peer} << 32) | id;
  }

  /// Block for the next packet to this port, take up to seven more that
  /// are already queued, and DMA them to host memory as one chained
  /// burst. The burst holds the PCI bus against programmed I/O (the
  /// Section 6.2.3 effect) and amortizes bus turnaround.
  std::vector<Packet> receive_burst() {
    std::vector<Packet> batch;
    batch.push_back(network_->fabric_.receive(rank_));
    while (batch.size() < 8) {
      auto more = network_->fabric_.try_receive(rank_);
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    std::uint64_t bytes = 0;
    for (const Packet& packet : batch) bytes += packet.data.size();
    host_dma(bytes, batch.size());
    return batch;
  }

  Network* network_;
  hw::Node* node_;
  std::uint32_t rank_;
};

template <typename Network, typename Packet>
class StagedNicPort : public NicPort<Network, Packet> {
 protected:
  StagedNicPort(Network* network, hw::Node* node, std::uint32_t rank)
      : NicPort<Network, Packet>(network, node, rank),
        tx_stage_(network->simulator_, Network::kNic.stage_depth) {}

  /// Start the "<name>.tx.<rank>" fiber that ships every staged packet.
  void spawn_tx() {
    this->spawn("tx", [this] {
      while (auto packet = tx_stage_.receive()) {
        const std::uint32_t dst = packet->dst;
        const std::uint64_t wire_bytes =
            packet->data.size() + this->network_->params_.header_bytes;
        this->network_->fabric_.ship(this->rank_, dst, std::move(*packet),
                                     wire_bytes);
      }
    });
  }

  sim::BoundedChannel<Packet> tx_stage_;
};

}  // namespace mad2::net
