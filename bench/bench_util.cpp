#include "bench_util.hpp"

#include <cstdio>
#include <string_view>

#include "mpi/ch_mad.hpp"
#include "mpi/sci_baselines.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "net/bip.hpp"
#include "net/sisci.hpp"
#include "nexus/nexus.hpp"
#include "util/bytes.hpp"

namespace mad2::bench {

mad::SessionConfig two_node_config(mad::NetworkKind kind) {
  mad::SessionConfig config;
  config.node_count = 2;
  mad::NetworkDef net;
  net.name = "net0";
  net.kind = kind;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  config.channels.push_back(mad::ChannelDef{"ch", "net0"});
  return config;
}

double mad_one_way_us(mad::NetworkKind kind, std::size_t size,
                      int iterations, SampleSet* samples) {
  mad::Session session(two_node_config(kind));
  sim::Time start = 0;
  sim::Time end = 0;
  session.spawn(0, "ping", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(size, std::byte{1});
    std::vector<std::byte> back(size);
    start = rt.simulator().now();
    sim::Time previous = start;
    for (int i = 0; i < iterations; ++i) {
      auto& out = rt.channel("ch").begin_packing(1);
      out.pack(payload);
      out.end_packing();
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(back);
      in.end_unpacking();
      if (samples != nullptr) {
        const sim::Time t = rt.simulator().now();
        samples->add(sim::to_us(t - previous) / 2.0);
        previous = t;
      }
    }
    end = rt.simulator().now();
  });
  session.spawn(1, "pong", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> data(size);
    for (int i = 0; i < iterations; ++i) {
      auto& in = rt.channel("ch").begin_unpacking();
      in.unpack(data);
      in.end_unpacking();
      auto& out = rt.channel("ch").begin_packing(0);
      out.pack(data);
      out.end_packing();
    }
  });
  MAD2_CHECK(session.run().is_ok(), "bench session failed");
  return sim::to_us(end - start) / (2.0 * iterations);
}

namespace {

PerfSeries sweep_with(
    const std::string& label, const std::vector<std::uint64_t>& sizes,
    const std::function<double(std::size_t, SampleSet*)>& one_way_us) {
  PerfSeries series;
  series.label = label;
  for (std::uint64_t size : sizes) {
    SampleSet samples;
    const double latency = one_way_us(size, &samples);
    PerfPoint point{size, latency, static_cast<double>(size) / latency};
    if (samples.count() > 0) {
      point.p50_us = samples.quantile(0.5);
      point.p95_us = samples.quantile(0.95);
      point.p99_us = samples.quantile(0.99);
    }
    series.points.push_back(point);
  }
  return series;
}

}  // namespace

PerfSeries mad_sweep(const std::string& label, mad::NetworkKind kind,
                     const std::vector<std::uint64_t>& sizes) {
  return sweep_with(label, sizes, [kind](std::size_t size,
                                         SampleSet* samples) {
    return mad_one_way_us(kind, size, 20, samples);
  });
}

PerfSeries raw_bip_sweep(const std::vector<std::uint64_t>& sizes) {
  return sweep_with("raw BIP", sizes, [](std::size_t size,
                                         SampleSet* samples) {
    sim::Simulator simulator;
    std::vector<std::unique_ptr<hw::Node>> nodes;
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(
          &simulator, i, "n" + std::to_string(i),
          hw::HostParams::pentium_ii_450()));
    }
    net::BipNetwork network(&simulator, {nodes[0].get(), nodes[1].get()},
                            net::BipParams::myrinet_lanai43());
    const std::uint32_t short_max =
        network.params().short_max_bytes;
    const int iterations = 20;
    sim::Time start = 0;
    sim::Time end = 0;
    for (int me = 0; me < 2; ++me) {
      simulator.spawn("p" + std::to_string(me), [&, me] {
        const std::uint32_t other = 1 - me;
        std::vector<std::byte> payload(size, std::byte{1});
        std::vector<std::byte> incoming(size);
        if (me == 0) start = simulator.now();
        sim::Time previous = simulator.now();
        for (int i = 0; i < iterations; ++i) {
          auto do_send = [&] {
            if (size <= short_max) {
              network.port(me).send_short(other, 0, payload);
            } else {
              std::vector<std::byte> ready(1);
              network.port(me).recv_short_copy(1, ready);
              network.port(me).send_long(other, 0, payload);
            }
          };
          auto do_recv = [&] {
            if (size <= short_max) {
              network.port(me).recv_short_copy(0, incoming);
            } else {
              network.port(me).post_recv_long(other, 0, incoming);
              std::vector<std::byte> ready{std::byte{1}};
              network.port(me).send_short(other, 1, ready);
              network.port(me).wait_recv_long(other, 0);
            }
          };
          if (me == 0) {
            do_send();
            do_recv();
            if (samples != nullptr) {
              const sim::Time t = simulator.now();
              samples->add(sim::to_us(t - previous) / 2.0);
              previous = t;
            }
          } else {
            do_recv();
            do_send();
          }
        }
        if (me == 0) end = simulator.now();
      });
    }
    MAD2_CHECK(simulator.run().is_ok(), "raw BIP bench failed");
    return sim::to_us(end - start) / (2.0 * iterations);
  });
}

PerfSeries raw_sisci_sweep(const std::vector<std::uint64_t>& sizes) {
  return sweep_with("raw SISCI", sizes, [](std::size_t size,
                                           SampleSet* samples) {
    sim::Simulator simulator;
    std::vector<std::unique_ptr<hw::Node>> nodes;
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(
          &simulator, i, "n" + std::to_string(i),
          hw::HostParams::pentium_ii_450()));
    }
    net::SciNetwork network(&simulator, {nodes[0].get(), nodes[1].get()},
                            net::SciParams::dolphin_d310());
    // Raw SISCI ping-pong through one exported segment per direction,
    // with a sequence flag after the payload.
    const int iterations = 20;
    net::SegmentId seg[2];
    seg[0] = network.port(0).create_segment(size + 8);
    seg[1] = network.port(1).create_segment(size + 8);
    sim::Time start = 0;
    sim::Time end = 0;
    for (int me = 0; me < 2; ++me) {
      simulator.spawn("p" + std::to_string(me), [&, me] {
        const std::uint32_t other = 1 - me;
        auto remote = network.port(me).connect(other, seg[other]);
        auto local = network.port(me).segment_memory(seg[me]);
        std::vector<std::byte> payload(size, std::byte{1});
        if (me == 0) start = simulator.now();
        sim::Time previous = simulator.now();
        for (int i = 0; i < iterations; ++i) {
          auto do_send = [&, i] {
            if (size > 0) network.port(me).pio_write(remote, 0, payload);
            std::byte flag[4];
            store_u32(flag, static_cast<std::uint32_t>(i + 1));
            network.port(me).pio_write(remote, size, flag);
          };
          auto do_recv = [&, i] {
            network.port(me).wait_segment(seg[me], [&] {
              return load_u32(local.data() + size) ==
                     static_cast<std::uint32_t>(i + 1);
            });
            // Drain the payload to host memory like a real consumer.
            nodes[me]->charge_memcpy(size);
          };
          if (me == 0) {
            do_send();
            do_recv();
            if (samples != nullptr) {
              const sim::Time t = simulator.now();
              samples->add(sim::to_us(t - previous) / 2.0);
              previous = t;
            }
          } else {
            do_recv();
            do_send();
          }
        }
        if (me == 0) end = simulator.now();
      });
    }
    MAD2_CHECK(simulator.run().is_ok(), "raw SISCI bench failed");
    return sim::to_us(end - start) / (2.0 * iterations);
  });
}

PerfSeries mpi_sweep(const std::string& label, MpiImpl impl,
                     const std::vector<std::uint64_t>& sizes) {
  return sweep_with(label, sizes, [impl](std::size_t size,
                                         SampleSet* samples) {
    mad::Session session(two_node_config(mad::NetworkKind::kSisci));
    std::unique_ptr<mpi::ChMadWorld> chmad;
    std::unique_ptr<mpi::SciBaselineWorld> baseline;
    mpi::Comm* a = nullptr;
    mpi::Comm* b = nullptr;
    switch (impl) {
      case MpiImpl::kChMad:
        chmad = std::make_unique<mpi::ChMadWorld>(session, "ch");
        a = &chmad->comm(0);
        b = &chmad->comm(1);
        break;
      case MpiImpl::kScampiLike:
        baseline = std::make_unique<mpi::SciBaselineWorld>(
            session.network("net0").as<net::SciNetwork>(),
            mpi::SciBaselineParams::scampi_like());
        a = &baseline->comm(0);
        b = &baseline->comm(1);
        break;
      case MpiImpl::kScimpichLike:
        baseline = std::make_unique<mpi::SciBaselineWorld>(
            session.network("net0").as<net::SciNetwork>(),
            mpi::SciBaselineParams::scimpich_like());
        a = &baseline->comm(0);
        b = &baseline->comm(1);
        break;
    }
    const int iterations = 10;
    sim::Time start = 0;
    sim::Time end = 0;
    session.spawn(0, "ping", [&](mad::NodeRuntime& rt) {
      std::vector<std::byte> payload(size, std::byte{1});
      std::vector<std::byte> back(size);
      start = rt.simulator().now();
      sim::Time previous = start;
      for (int i = 0; i < iterations; ++i) {
        a->send(payload, 1, 0);
        a->recv(back, 1, 0);
        if (samples != nullptr) {
          const sim::Time t = rt.simulator().now();
          samples->add(sim::to_us(t - previous) / 2.0);
          previous = t;
        }
      }
      end = rt.simulator().now();
    });
    session.spawn(1, "pong", [&](mad::NodeRuntime&) {
      std::vector<std::byte> data(size);
      for (int i = 0; i < iterations; ++i) {
        b->recv(data, 0, 0);
        b->send(data, 0, 0);
      }
    });
    MAD2_CHECK(session.run().is_ok(), "mpi bench failed");
    return sim::to_us(end - start) / (2.0 * iterations);
  });
}

PerfSeries nexus_sweep(const std::string& label, mad::NetworkKind kind,
                       const std::vector<std::uint64_t>& sizes) {
  return sweep_with(label, sizes, [kind](std::size_t size,
                                         SampleSet* samples) {
    mad::Session session(two_node_config(kind));
    nexus::NexusWorld world(session, "ch");
    const int iterations = 10;
    sim::Time start = 0;
    sim::Time end = 0;
    sim::Time previous = 0;
    int remaining = iterations;
    auto payload = make_pattern_buffer(size, 1);
    world.context(1).register_handler(
        1, [&](std::uint32_t src, nexus::ReadBuffer& buffer) {
          world.context(1).rsr(src, 2,
                               buffer.get_bytes(buffer.remaining()));
        });
    world.context(0).register_handler(
        2, [&](std::uint32_t, nexus::ReadBuffer&) {
          if (samples != nullptr) {
            const sim::Time t = session.simulator().now();
            samples->add(sim::to_us(t - previous) / 2.0);
            previous = t;
          }
          if (--remaining == 0) {
            end = session.simulator().now();
            session.simulator().stop();
            return;
          }
          world.context(0).rsr(1, 1, payload);
        });
    session.spawn(0, "client", [&](mad::NodeRuntime& rt) {
      start = rt.simulator().now();
      previous = start;
      world.context(0).rsr(1, 1, payload);
    });
    MAD2_CHECK(session.run().is_ok(), "nexus bench failed");
    return sim::to_us(end - start) / (2.0 * iterations);
  });
}

std::vector<FwdResult> forwarding_sweep(
    mad::NetworkKind from, mad::NetworkKind to, std::size_t mtu,
    const std::vector<std::uint64_t>& message_sizes,
    std::size_t pipeline_depth, double sender_rate_mbs, bool propagation) {
  std::vector<FwdResult> results;
  for (std::uint64_t message : message_sizes) {
    mad::SessionConfig config;
    config.node_count = 3;
    mad::NetworkDef left;
    left.name = "left";
    left.kind = from;
    left.nodes = {0, 1};
    mad::NetworkDef right;
    right.name = "right";
    right.kind = to;
    right.nodes = {1, 2};
    config.networks = {left, right};
    config.channels = {mad::ChannelDef{"vleft", "left"},
                       mad::ChannelDef{"vright", "right"}};
    mad::Session session(std::move(config));
    fwd::VirtualChannelDef def;
    def.name = "vc";
    def.hops = {"vleft", "vright"};
    def.mtu = mtu;
    def.pipeline_depth = pipeline_depth;
    def.sender_rate_mbs = sender_rate_mbs;
    def.propagation = propagation;
    fwd::VirtualChannel vc(session, def);

    const int iterations = 4;
    sim::Time start = 0;
    sim::Time end = 0;
    session.spawn(0, "sender", [&](mad::NodeRuntime& rt) {
      std::vector<std::byte> payload(message, std::byte{1});
      start = rt.simulator().now();
      for (int i = 0; i < iterations; ++i) {
        auto& conn = vc.endpoint(0).begin_packing(2);
        conn.pack(payload);
        conn.end_packing();
      }
      auto& in = vc.endpoint(0).begin_unpacking();
      std::byte ack;
      in.unpack(std::span(&ack, 1));
      in.end_unpacking();
      end = rt.simulator().now();
    });
    SampleSet landings;
    session.spawn(2, "receiver", [&](mad::NodeRuntime& rt) {
      std::vector<std::byte> out(message);
      sim::Time previous = rt.simulator().now();
      for (int i = 0; i < iterations; ++i) {
        auto& conn = vc.endpoint(2).begin_unpacking();
        conn.unpack(out);
        conn.end_unpacking();
        const sim::Time t = rt.simulator().now();
        landings.add(sim::to_us(t - previous));
        previous = t;
      }
      auto& reply = vc.endpoint(2).begin_packing(0);
      std::byte ack{1};
      reply.pack(std::span(&ack, 1));
      reply.end_packing();
    });
    MAD2_CHECK(session.run().is_ok(), "forwarding bench failed");
    FwdResult result;
    result.message_bytes = message;
    result.bandwidth_mbs = static_cast<double>(message) * iterations /
                           (sim::to_seconds(end - start) * 1e6);
    result.latency_us = sim::to_us(end - start) / iterations;
    result.p50_us = landings.quantile(0.5);
    result.p95_us = landings.quantile(0.95);
    result.p99_us = landings.quantile(0.99);
    const hw::MemCounters& gw = session.node(1).mem();
    result.gw_memcpy_bytes = gw.memcpy_bytes;
    result.gw_alloc_count = gw.alloc_count;
    result.gw_pool_recycle_count = gw.pool_recycle_count;
    result.forwarded_bytes =
        static_cast<std::uint64_t>(message) * iterations;
    results.push_back(result);
  }
  return results;
}

// --- Bench JSON trajectory --------------------------------------------------

bool json_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      // Honor MAD2_TRACE for bench runs: the trace/metrics sidecar files
      // the JSON writers emit need an ambient recorder and registry.
      obs::ensure_env_recorder();
      if (obs::recorder() != nullptr && obs::metrics() == nullptr) {
        static obs::MetricsRegistry registry;
        obs::install_metrics(&registry);
      }
      return true;
    }
  }
  return false;
}

namespace {

FILE* open_bench_json(const std::string& figure) {
  const std::string path = "BENCH_" + figure + ".json";
  FILE* out = std::fopen(path.c_str(), "w");
  MAD2_CHECK(out != nullptr, "cannot write bench JSON output");
  return out;
}

}  // namespace

// When tracing is on, dump the recorder / registry next to the bench
// JSON and return the "trace_file"/"metrics_file" lines referencing
// them; null values otherwise (so the schema is stable either way).
std::string trace_sidecar_fields(const std::string& figure) {
  std::string fields = "  \"trace_file\": ";
  if (obs::recorder() != nullptr) {
    const std::string path = "BENCH_" + figure + "_trace.json";
    MAD2_CHECK(obs::write_chrome_trace(*obs::recorder(), path),
               "cannot write bench trace sidecar");
    fields += "\"" + path + "\"";
  } else {
    fields += "null";
  }
  fields += ",\n  \"metrics_file\": ";
  if (obs::metrics() != nullptr) {
    const std::string path = "BENCH_" + figure + "_metrics.json";
    MAD2_CHECK(obs::metrics()->write_json(path),
               "cannot write bench metrics sidecar");
    fields += "\"" + path + "\"";
  } else {
    fields += "null";
  }
  fields += ",\n";
  return fields;
}

void write_fwd_json(const std::string& figure,
                    const std::vector<FwdJsonSeries>& series) {
  FILE* out = open_bench_json(figure);
  std::fprintf(out, "{\n  \"figure\": \"%s\",\n%s  \"series\": [\n",
               figure.c_str(), trace_sidecar_fields(figure).c_str());
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::fprintf(out, "    {\"label\": \"%s\", \"points\": [\n",
                 series[s].label.c_str());
    const auto& results = *series[s].results;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const FwdResult& r = results[i];
      std::fprintf(
          out,
          "      {\"size\": %llu, \"latency_us\": %.3f, "
          "\"bandwidth_mbs\": %.3f, \"p50_us\": %.3f, \"p95_us\": %.3f, "
          "\"p99_us\": %.3f, \"gw_memcpy_bytes\": %llu, "
          "\"gw_alloc_count\": %llu, \"gw_pool_recycle_count\": %llu, "
          "\"forwarded_bytes\": %llu}%s\n",
          static_cast<unsigned long long>(r.message_bytes), r.latency_us,
          r.bandwidth_mbs, r.p50_us, r.p95_us, r.p99_us,
          static_cast<unsigned long long>(r.gw_memcpy_bytes),
          static_cast<unsigned long long>(r.gw_alloc_count),
          static_cast<unsigned long long>(r.gw_pool_recycle_count),
          static_cast<unsigned long long>(r.forwarded_bytes),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", s + 1 < series.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_%s.json\n", figure.c_str());
}

void write_series_json(const std::string& figure,
                       const std::vector<PerfSeries>& series) {
  FILE* out = open_bench_json(figure);
  std::fprintf(out, "{\n  \"figure\": \"%s\",\n%s  \"series\": [\n",
               figure.c_str(), trace_sidecar_fields(figure).c_str());
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::fprintf(out, "    {\"label\": \"%s\", \"points\": [\n",
                 series[s].label.c_str());
    const auto& points = series[s].points;
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::fprintf(out,
                   "      {\"size\": %llu, \"latency_us\": %.3f, "
                   "\"bandwidth_mbs\": %.3f, \"p50_us\": %.3f, "
                   "\"p95_us\": %.3f, \"p99_us\": %.3f}%s\n",
                   static_cast<unsigned long long>(points[i].size_bytes),
                   points[i].latency_us, points[i].bandwidth_mbs,
                   points[i].p50_us, points[i].p95_us, points[i].p99_us,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", s + 1 < series.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_%s.json\n", figure.c_str());
}

}  // namespace mad2::bench
