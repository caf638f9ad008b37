// Ablation: BIP short-path credit window sizing (Section 5.2.2: the short
// TM "uses a credit-based flow control algorithm to make sure that each
// message can be stored into a buffer"). A small window stalls the sender
// waiting for batched credit returns; beyond the bandwidth-delay product
// extra credits only cost receiver buffer memory.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "util/table.hpp"

namespace {

double messages_per_ms(std::size_t credits) {
  using namespace mad2;
  mad::SessionConfig config = bench::two_node_config(mad::NetworkKind::kBip);
  // Large windows need a larger driver-side buffer pool to back them.
  net::BipParams driver = net::BipParams::myrinet_lanai43();
  driver.short_host_slots = 256;
  config.networks[0].params = driver;
  mad::BipPmmOptions options;
  options.credits = credits;
  options.credit_batch = credits / 2;
  config.channels[0].bip_options = options;
  mad::Session session(std::move(config));
  const int messages = 2000;
  sim::Time end = 0;
  session.spawn(0, "tx", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      std::uint32_t value = i;
      auto& conn = rt.channel("ch").begin_packing(1);
      mad::mad_pack_value(conn, value);
      conn.end_packing();
    }
  });
  session.spawn(1, "rx", [&](mad::NodeRuntime& rt) {
    for (int i = 0; i < messages; ++i) {
      std::uint32_t value = 0;
      auto& conn = rt.channel("ch").begin_unpacking();
      mad::mad_unpack_value(conn, value);
      conn.end_unpacking();
    }
    end = rt.simulator().now();
  });
  MAD2_CHECK(session.run().is_ok(), "credit bench failed");
  return messages / (mad2::sim::to_us(end) / 1000.0);
}

}  // namespace

int main() {
  using namespace mad2;
  std::printf(
      "== Ablation — BIP short-path credit window (flow control) ==\n");
  Table table({"credit window", "messages/ms"});
  for (std::size_t credits : {2u, 4u, 8u, 16u, 32u, 64u}) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.1f", messages_per_ms(credits));
    table.add_row({std::to_string(credits), rate});
  }
  table.print();
  std::printf("\nthe window saturates once it covers the round trip of a\n"
              "batched credit return; the paper ships 8\n");
  return 0;
}
