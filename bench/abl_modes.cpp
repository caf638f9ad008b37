// Ablation (Section 2.2): cost of the pack/unpack flag combinations. The
// flags exist precisely because their costs differ per network — e.g.
// send_SAFER forces eager handling, receive_EXPRESS forces immediate
// extraction. This bench times a 4 kB block under every combination on
// every network.
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "util/table.hpp"

namespace {

double mode_one_way_us(mad2::mad::NetworkKind kind, mad2::mad::SendMode s,
                       mad2::mad::ReceiveMode r, std::size_t size) {
  using namespace mad2;
  mad::Session session(bench::two_node_config(kind));
  const int iterations = 10;
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "ping", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    std::byte ack;
    start = rt.simulator().now();
    for (int i = 0; i < iterations; ++i) {
      auto& out = rt.channel("ch").begin_packing(1);
      out.pack(payload, s, r);
      out.end_packing();
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(std::span(&ack, 1));
      in.end_unpacking();
    }
    end = rt.simulator().now();
  });
  session.spawn(1, "pong", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> sink(size);
    std::byte ack{1};
    for (int i = 0; i < iterations; ++i) {
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(sink, s, r);
      in.end_unpacking();
      auto& out = rt.channel("ch").begin_packing(0);
      out.pack(std::span(&ack, 1));
      out.end_packing();
    }
  });
  MAD2_CHECK(session.run().is_ok(), "modes bench failed");
  return mad2::sim::to_us(end - start) / (2.0 * iterations);
}

}  // namespace

int main() {
  using namespace mad2;
  using mad::ReceiveMode;
  using mad::SendMode;
  const std::size_t size = 4096;
  Table table({"combination", "bip (us)", "sisci (us)", "tcp (us)",
               "via (us)"});
  const std::pair<SendMode, const char*> sends[] = {
      {mad::send_SAFER, "send_SAFER"},
      {mad::send_LATER, "send_LATER"},
      {mad::send_CHEAPER, "send_CHEAPER"}};
  const std::pair<ReceiveMode, const char*> receives[] = {
      {mad::receive_EXPRESS, "receive_EXPRESS"},
      {mad::receive_CHEAPER, "receive_CHEAPER"}};
  for (const auto& [s, s_name] : sends) {
    for (const auto& [r, r_name] : receives) {
      std::vector<std::string> row{std::string(s_name) + " + " + r_name};
      for (auto kind : {mad::NetworkKind::kBip, mad::NetworkKind::kSisci,
                        mad::NetworkKind::kTcp, mad::NetworkKind::kVia}) {
        row.push_back(format_us(mode_one_way_us(kind, s, r, size)));
      }
      table.add_row(std::move(row));
    }
  }
  std::printf("== Ablation — flag combination matrix (4 kB block) ==\n");
  table.print();
  return 0;
}
