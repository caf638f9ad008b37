// The network driver table: one NetworkDriver row per NetworkKind.
#include "mad/session.hpp"

#include <span>
#include <type_traits>

#include "mad/pmm_bip.hpp"
#include "mad/pmm_ib.hpp"
#include "mad/pmm_sbp.hpp"
#include "mad/pmm_sisci.hpp"
#include "mad/pmm_tcp.hpp"
#include "mad/pmm_via.hpp"

namespace mad2::mad {
namespace {

template <class Network>
AnyNetwork build(sim::Simulator* simulator, std::vector<hw::Node*> members,
                 const NetworkParams& params) {
  using Params =
      std::remove_cvref_t<decltype(std::declval<Network&>().params())>;
  return std::make_unique<Network>(simulator, std::move(members),
                                   std::get<Params>(params));
}

template <class T>
T or_default(const std::optional<T>& set) {
  return set.value_or(T{});
}

/// A protocol module tuned by the channel's `options` override, if any.
template <class P, auto... options>
std::unique_ptr<Pmm> pmm(ChannelEndpoint& endpoint) {
  return std::make_unique<P>(
      endpoint, or_default(endpoint.channel().def().*options)...);
}

std::unique_ptr<Pmm> custom_pmm(ChannelEndpoint& endpoint) {
  const NetworkDef& def = endpoint.channel().network().def;
  MAD2_CHECK(static_cast<bool>(def.custom_pmm),
             "custom network without a custom_pmm factory");
  return def.custom_pmm(endpoint);
}

// In NetworkKind order, so driver() can index.
std::span<const NetworkDriver> rows() {
  static const NetworkDriver kRows[] = {
      {NetworkKind::kBip, "bip", net::BipParams::myrinet_lanai43(),
       build<net::BipNetwork>, pmm<BipPmm, &ChannelDef::bip_options>},
      {NetworkKind::kSisci, "sisci", net::SciParams::dolphin_d310(),
       build<net::SciNetwork>, pmm<SciPmm, &ChannelDef::sci_options>},
      {NetworkKind::kTcp, "tcp", net::TcpParams::fast_ethernet(),
       build<net::TcpNetwork>, pmm<TcpPmm>},
      {NetworkKind::kVia, "via", net::ViaParams::generic_nic(),
       build<net::ViaNetwork>, pmm<ViaPmm>},
      {NetworkKind::kSbp, "sbp", net::SbpParams::fast_ethernet(),
       build<net::SbpNetwork>, pmm<SbpPmm>},
      {NetworkKind::kIb, "ib", net::IbParams::mellanox_like(),
       build<net::IbNetwork>, pmm<IbPmm, &ChannelDef::ib_options>},
      {NetworkKind::kCustom, "custom", {},
       [](sim::Simulator*, std::vector<hw::Node*>, const NetworkParams&) {
         return AnyNetwork{};  // no driver: custom_pmm brings the transport
       },
       custom_pmm},
  };
  return kRows;
}

}  // namespace

std::string_view to_string(NetworkKind kind) { return driver(kind).name; }

const NetworkDriver& driver(NetworkKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  MAD2_CHECK(index < rows().size(), "unknown network kind");
  return rows()[index];
}

const NetworkDriver* driver_named(std::string_view name) {
  for (const NetworkDriver& row : rows()) {
    if (row.name == name && row.kind != NetworkKind::kCustom) return &row;
  }
  return nullptr;
}

}  // namespace mad2::mad
