#include "mpi/pmm_mpi.hpp"

#include <map>

namespace mad2::mpi {

namespace {

class MpiPmm;

/// The single dynamic TM: one MPI message per buffer.
class MpiTm final : public mad::Tm {
 public:
  explicit MpiTm(MpiPmm* pmm) : pmm_(pmm) {}
  [[nodiscard]] std::string_view name() const override { return "mpi"; }
  // Grouping brings nothing: the substrate sends per call anyway.
  [[nodiscard]] bool supports_groups() const override { return false; }

  void send_buffer(mad::Connection& connection,
                   std::span<const std::byte> data) override;
  void receive_buffer(mad::Connection& connection,
                      std::span<std::byte> out) override;

 private:
  MpiPmm* pmm_;
};

class MpiPmm final : public mad::Pmm {
 public:
  MpiPmm(mad::ChannelEndpoint& endpoint,
         std::function<Comm&(std::uint32_t)> comm_of)
      : endpoint_(endpoint), comm_of_(std::move(comm_of)), tm_(this) {
    std::size_t channels_on_network = 0;
    for (const auto& def : endpoint.session().config().channels) {
      if (def.network == endpoint.channel().network().def.name) {
        ++channels_on_network;
      }
    }
    MAD2_CHECK(channels_on_network == 1,
               "mad-over-MPI networks host exactly one channel "
               "(the substrate only guarantees in-order matching)");
    const auto& nodes = endpoint.channel().nodes();
    for (std::size_t rank = 0; rank < nodes.size(); ++rank) {
      rank_of_node_[nodes[rank]] = static_cast<int>(rank);
      node_of_rank_[static_cast<int>(rank)] = nodes[rank];
    }
  }

  [[nodiscard]] std::string_view name() const override { return "mpi"; }

  struct State : ConnState {
    int remote_rank = 0;
  };

  void make_conn_state(std::uint32_t remote) override {
    states_[remote].remote_rank = rank_of_node_.at(remote);
  }
  State& conn_state(std::uint32_t remote) override {
    return states_.at(remote);
  }

  mad::Tm& select_tm(std::size_t, mad::SendMode, mad::ReceiveMode) override {
    return tm_;
  }
  [[nodiscard]] std::vector<std::size_t> selection_breakpoints()
      const override {
    return {};
  }

  std::uint32_t wait_incoming() override {
    const RecvStatus status = comm().probe();
    return node_of_rank_.at(status.source);
  }

  /// Resolved lazily: the provider may need the fully built session (the
  /// substrate MPI world is typically created on first use).
  [[nodiscard]] Comm& comm() {
    if (comm_ == nullptr) comm_ = &comm_of_(endpoint_.local());
    return *comm_;
  }

 private:
  mad::ChannelEndpoint& endpoint_;
  std::function<Comm&(std::uint32_t)> comm_of_;
  Comm* comm_ = nullptr;
  MpiTm tm_;
  std::map<std::uint32_t, int> rank_of_node_;
  std::map<int, std::uint32_t> node_of_rank_;
  std::map<std::uint32_t, State> states_;  // by remote node
};

void MpiTm::send_buffer(mad::Connection& connection,
                        std::span<const std::byte> data) {
  auto& state = connection.state<MpiPmm::State>();
  pmm_->comm().send(data, state.remote_rank, /*tag=*/0);
}

void MpiTm::receive_buffer(mad::Connection& connection,
                           std::span<std::byte> out) {
  auto& state = connection.state<MpiPmm::State>();
  const RecvStatus status =
      pmm_->comm().recv(out, state.remote_rank, /*tag=*/0);
  MAD2_CHECK(status.bytes == out.size(),
             "mad-over-MPI: block size mismatch (asymmetric sequences)");
}

}  // namespace

mad::NetworkDef make_mad_over_mpi_network(
    std::string name, std::vector<std::uint32_t> nodes,
    std::function<Comm&(std::uint32_t node)> comm_of) {
  mad::NetworkDef def;
  def.name = std::move(name);
  def.kind = mad::NetworkKind::kCustom;
  def.nodes = std::move(nodes);
  def.custom_pmm = [comm_of = std::move(comm_of)](
                       mad::ChannelEndpoint& endpoint) {
    return std::unique_ptr<mad::Pmm>(new MpiPmm(endpoint, comm_of));
  };
  return def;
}

}  // namespace mad2::mpi
