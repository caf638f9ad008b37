#include "mad/congestion.hpp"

#include <algorithm>
#include <cmath>

#include "util/debug_hook.hpp"

namespace mad2::mad {

double seed_window(const CongestionConfig& config, double bandwidth_mbs,
                   std::size_t mtu) {
  // Bandwidth-delay product with an assumed 1 ms round trip: bytes in
  // flight to keep the pipe full, expressed in MTU-sized packets. The
  // assumption only sets the starting point; the delay feedback takes
  // over from the first delivered packet.
  const double bdp_bytes = bandwidth_mbs * 1e6 * 1e-3;
  double packets = bdp_bytes / static_cast<double>(mtu);
  packets = std::max(packets, static_cast<double>(config.min_window));
  packets = std::min(packets, static_cast<double>(config.max_window));
  return packets;
}

// -------------------------------------------------------- CongestionWindow ---

CongestionWindow::CongestionWindow(sim::Simulator* simulator,
                                   const CongestionConfig& config,
                                   double initial)
    : simulator_(simulator),
      config_(config),
      cwnd_(initial),
      room_(simulator) {
  MAD2_CHECK(config_.min_window >= 1, "min_window must be at least 1");
  MAD2_CHECK(config_.max_window >= config_.min_window,
             "max_window below min_window");
  // Direct construction bypasses the config parser's range checks; keep
  // the starting window inside the configured bounds regardless.
  cwnd_ = std::clamp(cwnd_, static_cast<double>(config_.min_window),
                     static_cast<double>(config_.max_window));
}

std::size_t CongestionWindow::window_floor() const {
  const auto floor = static_cast<std::size_t>(cwnd_);
  return floor < 1 ? 1 : floor;
}

void CongestionWindow::before_send() {
  while (in_flight_ >= window_floor()) room_.wait();
  ++in_flight_;
}

void CongestionWindow::on_delivered(sim::Duration delay) {
  MAD2_CHECK(in_flight_ > 0, "delivery without a packet in flight");
  --in_flight_;
  ++delivered_;

  if (delay < 0) delay = 0;
  if (base_rtt_ == 0 || delay < base_rtt_) base_rtt_ = delay;
  if (srtt_ == 0) {
    srtt_ = delay;
  } else {
    srtt_ += static_cast<sim::Duration>(
        config_.rtt_alpha * static_cast<double>(delay - srtt_));
  }

  const double floor = static_cast<double>(base_rtt_);
  const bool congested =
      static_cast<double>(srtt_) > config_.backlog_factor * floor &&
      base_rtt_ > 0;
  if (congested) {
    // Multiplicative decrease, at most once per round trip of the path
    // (the observed delay floor) so one burst of delayed packets does
    // not collapse the window to the minimum in a single round. The
    // floor — not the smoothed delay — sets the pace on purpose: under
    // a standing queue srtt inflates with the very backlog the decrease
    // must drain, and pacing by it would slow the backoff exactly when
    // congestion is worst.
    const sim::Time now = simulator_->now();
    if (now >= next_decrease_) {
      cwnd_ = std::max(cwnd_ * config_.decrease,
                       static_cast<double>(config_.min_window));
      next_decrease_ = now + std::max<sim::Duration>(base_rtt_, 1);
      ++decreases_;
    }
  } else {
    // Additive increase: +gain packets per delivered window.
    cwnd_ = std::min(cwnd_ + config_.gain / std::max(cwnd_, 1.0),
                     static_cast<double>(config_.max_window));
  }
  room_.notify_all();
}

}  // namespace mad2::mad
