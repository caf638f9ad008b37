// Text configuration for sessions. The original PM2/Madeleine deployments
// described clusters in configuration files; this parser accepts a small
// line-based format:
//
//   # comment
//   nodes 4
//   network myri0 bip   0 1 2 3
//   network sci0  sisci 0 1
//   channel ch_bulk myri0
//   channel ch_ctl  sci0 paranoid
//   rails   bulk ch_bulk ch_eth threshold=65536
//
// Directives:
//   nodes N                       total node count (required, first)
//   network NAME KIND NODE...     KIND in {bip, sisci, tcp, via, sbp, ib}
//       ib networks take trailing adapter knobs after the node list:
//       qp_depth=N (send-queue depth, doubles as the eager credit
//       window) and regcache_capacity=N (registration-cache entries per
//       port; 0 registers/deregisters on every access — the ablation
//       switch of bench/abl_ib). See net/ib.hpp and docs/RDMA.md.
//   channel NAME NETWORK [paranoid] [eager_cutoff=N]
//       eager_cutoff= (ib channels only, >= 64) splits eager copies from
//       RDMA rendezvous at N bytes (see mad/ib_options.hpp)
//   rails NAME CHANNEL CHANNEL... [threshold=N]
//       stripe large blocks of the first (primary) channel across all
//       members (see mad/rail_set.hpp); members must be non-paranoid,
//       pairwise on distinct networks, spanning the same node set
//   trace [categories=C,C...] [ring_kb=N] [channels=NAME,NAME...]
//         [propagation] [slo=CHANNEL:P99_US,...]
//       enable madtrace for sessions built from this config: categories
//       from {switch, bmm, tm, net, fwd, rail, all} (default all),
//       ring_kb sizes the event ring, channels= restricts Switch-level
//       events to the named channels, propagation makes virtual-channel
//       packets carry a hop trail, and slo= sets per-channel p99
//       thresholds checked after the run (see obs/trace.hpp). The
//       MAD2_TRACE environment variable overrides this stanza.
//   congestion [window=N] [min_window=N] [max_window=N] [gain=F]
//              [decrease=F] [backlog=F] [quantum=N] [gateway_queue=N]
//       enable end-to-end congestion windows and weighted-fair flow
//       scheduling at virtual-channel gateways (see mad/congestion.hpp
//       and docs/CONGESTION.md):
//       window= seeds the per-flow window in packets (0/omitted derives
//       a bandwidth-delay product from the driver's bandwidth hint),
//       clamped to [min_window, max_window]; gain/decrease/backlog tune
//       the AIMD loop (additive increase per delivered window, cut
//       factor in (0,1), congestion threshold > 1 relative to the delay
//       floor); quantum= is the gateway queues' DRR byte credit per
//       scheduling round and gateway_queue= their depth in packets.
//       Absent stanza = everything off (the default fast path).
//   topology [salt=N] [replay_quota=N]
//       enable resilient multi-gateway routing for the session's virtual
//       channels (see mad/hostdb.hpp and docs/ROUTING.md): consecutive
//       hops may share a *set* of gateways, flows spread across the
//       healthy ones by deterministic hash (salt= perturbs the spread),
//       and a gateway death re-routes and replays unconfirmed packets.
//       replay_quota= bounds the per-flow retain buffer in packets
//       (default 1024; must be positive — a zero quota could never
//       admit a packet). Absent stanza = single-gateway routing with no
//       per-packet sequencing overhead (the default fast path).
//
// Errors come back as INVALID_ARGUMENT with the line number.
#pragma once

#include <string_view>

#include "mad/session.hpp"
#include "util/status.hpp"

namespace mad2::mad {

Result<SessionConfig> parse_session_config(std::string_view text);

}  // namespace mad2::mad
