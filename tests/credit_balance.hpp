// Credit-window balance at quiescence (docs/PROTOCOLS.md, "Credit
// window"): once a session has run dry there is no credit or data in
// flight, so every credit a sender lacks must be owed by its receiver —
// sender credits + receiver owed == window — and no received slot may
// still be lent out.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "mad/credit_window.hpp"
#include "mad/session.hpp"

namespace mad2::mad {

/// The credit window of `node`'s connection to `peer` on `channel`, or
/// nullptr when the channel's short-message TM has no flow control.
inline CreditWindow* credit_window_of(Session& session,
                                      const std::string& channel,
                                      std::uint32_t node, std::uint32_t peer) {
  ChannelEndpoint& endpoint = session.endpoint(channel, node);
  Tm& tm = endpoint.pmm().select_tm(1, send_CHEAPER, receive_CHEAPER);
  return tm.credit_window(endpoint.connection(peer));
}

/// Empty when both directions between `a` and `b` on `channel` balance;
/// otherwise a description of the first direction that does not.
inline std::string credit_imbalance(Session& session,
                                    const std::string& channel,
                                    std::uint32_t a, std::uint32_t b) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const CreditWindow* tx = credit_window_of(session, channel, from, to);
    if (tx == nullptr) return {};
    const CreditWindow& rx = *credit_window_of(session, channel, to, from);
    if (tx->credits() + rx.owed() != tx->window() || rx.retained() != 0) {
      return channel + " " + std::to_string(from) + "->" +
             std::to_string(to) + ": sender credits " +
             std::to_string(tx->credits()) + " + receiver owed " +
             std::to_string(rx.owed()) + " != window " +
             std::to_string(tx->window()) + " (receiver retains " +
             std::to_string(rx.retained()) + ")";
    }
  }
  return {};
}

}  // namespace mad2::mad
