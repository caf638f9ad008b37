#include "mad/config_parser.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace mad2::mad {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

bool parse_number(const std::string& token, std::uint32_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_number(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// `text` split at its commas, empty pieces kept ("" is one empty piece).
std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  for (std::size_t comma; (comma = text.find(',', start)) != std::string::npos;
       start = comma + 1) {
    pieces.push_back(text.substr(start, comma - start));
  }
  pieces.push_back(text.substr(start));
  return pieces;
}

/// The definition in `defs` called `name`, or nullptr.
template <typename Def>
const Def* named(const std::vector<Def>& defs, const std::string& name) {
  const auto it = std::find_if(
      defs.begin(), defs.end(),
      [&name](const Def& def) { return def.name == name; });
  return it == defs.end() ? nullptr : &*it;
}

Status error_at(int line, const std::string& message) {
  return invalid_argument("config line " + std::to_string(line) + ": " +
                          message);
}

/// One row of a directive's option table. `key` ends in '=' for an option
/// that takes a value and is a bare word for a flag. `set` parses the
/// value (empty for a flag), checks it and stores it in its field; false
/// is a bad value, reported as "invalid <label> '<token>'<hint>" unless
/// `set` wrote its own message to `why`.
struct Option {
  std::string_view key;
  std::function<bool(const std::string& value, std::string* why)> set;
  std::string_view label = {};
  std::string_view hint = {};
};

/// Validity predicates. Each states the accepted range, so a NaN double
/// (which compares false to everything) fails them.
constexpr auto kAny = [](auto) { return true; };
constexpr auto kPositive = [](auto x) { return x > 0; };

/// A numeric option's `set`: the value parses as a Number, `valid` holds,
/// and it lands in `*field`.
template <typename Number = std::uint32_t, typename Field,
          typename Valid = decltype(kPositive)>
auto number(Field* field, Valid valid = kPositive) {
  return [field, valid](const std::string& value, std::string*) {
    Number parsed{};
    if (!parse_number(value, &parsed) || !valid(parsed)) return false;
    *field = parsed;
    return true;
  };
}

/// A flag's `set`: its presence sets `*field`.
auto flag(bool* field) {
  return [field](const std::string&, std::string*) {
    *field = true;
    return true;
  };
}

const Option* find_option(std::span<const Option> options,
                          const std::string& token) {
  const auto row = std::find_if(
      options.begin(), options.end(), [&token](const Option& option) {
        return option.key.ends_with('=') ? token.starts_with(option.key)
                                         : token == option.key;
      });
  return row == options.end() ? nullptr : &*row;
}

Status apply_option(int line, const Option& option, const std::string& token) {
  std::string why;
  if (option.set(token.substr(option.key.size()), &why)) return Status::ok();
  return error_at(line, !why.empty() ? why
                                     : "invalid " + std::string(option.label) +
                                           " '" + token + "'" +
                                           std::string(option.hint));
}

/// Applies tokens[first..] through `options`, in order. A token no row
/// names fails with the message `unknown(token)`.
template <typename Unknown>
Status apply_options(int line, std::span<const Option> options,
                     const std::vector<std::string>& tokens,
                     std::size_t first, Unknown unknown) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const Option* option = find_option(options, tokens[i]);
    if (option == nullptr) return error_at(line, unknown(tokens[i]));
    MAD2_RETURN_IF_ERROR(apply_option(line, *option, tokens[i]));
  }
  return Status::ok();
}

/// `unknown` for apply_options: "unknown <directive> option '<token>'
/// (expected <every key>)".
auto listing_keys(std::string_view directive,
                  std::span<const Option> options) {
  return [directive, options](const std::string& token) {
    std::string message = "unknown " + std::string(directive) + " option '" +
                          token + "' (expected ";
    for (const Option& option : options) {
      if (&option != options.data()) message += ", ";
      message += option.key;
    }
    return message + ")";
  };
}

}  // namespace

Result<SessionConfig> parse_session_config(std::string_view text) {
  SessionConfig config;
  bool have_nodes = false;

  std::istringstream input{std::string(text)};
  std::string line;
  int line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "nodes") {
      if (have_nodes) return error_at(line_number, "duplicate 'nodes'");
      if (tokens.size() != 2) {
        return error_at(line_number, "usage: nodes N");
      }
      std::uint32_t n = 0;
      if (!parse_number(tokens[1], &n) || n == 0) {
        return error_at(line_number, "invalid node count '" + tokens[1] +
                                         "'");
      }
      config.node_count = n;
      have_nodes = true;
      continue;
    }

    if (directive == "network") {
      if (!have_nodes) {
        return error_at(line_number, "'nodes' must come before 'network'");
      }
      if (tokens.size() < 4) {
        return error_at(line_number,
                        "usage: network NAME KIND NODE [NODE...]");
      }
      NetworkDef net;
      net.name = tokens[1];
      if (named(config.networks, net.name) != nullptr) {
        return error_at(line_number,
                        "duplicate network name '" + net.name + "'");
      }
      const NetworkDriver* row = driver_named(tokens[2]);
      if (row == nullptr) {
        return error_at(line_number,
                        "unknown network kind '" + tokens[2] + "'");
      }
      net.kind = row->kind;
      // Node ids, then trailing key=value tokens that tune the adapter
      // (IB only: they size HCA resources shared by every channel on the
      // port).
      auto is_option = [](const std::string& token) {
        return token.find('=') != std::string::npos;
      };
      std::size_t i = 3;
      for (; i < tokens.size() && !is_option(tokens[i]); ++i) {
        std::uint32_t node = 0;
        if (!parse_number(tokens[i], &node)) {
          return error_at(line_number, "invalid node id '" + tokens[i] +
                                           "'");
        }
        if (node >= config.node_count) {
          return error_at(line_number,
                          "node " + tokens[i] + " is out of range");
        }
        for (std::uint32_t existing : net.nodes) {
          if (existing == node) {
            return error_at(line_number, "node " + tokens[i] +
                                             " listed twice");
          }
        }
        net.nodes.push_back(node);
      }
      if (i < tokens.size()) {
        if (net.kind != NetworkKind::kIb) {
          return error_at(line_number,
                          "network option '" + tokens[i] +
                              "' is only valid for kind 'ib'");
        }
        net.params = row->preset;
        net::IbParams& ib = std::get<net::IbParams>(net.params);
        const Option options[] = {
            {"qp_depth=", number(&ib.qp_depth), "qp_depth",
             " (send queue depth and eager credit window; must be positive)"},
            {"regcache_capacity=", number(&ib.regcache_capacity, kAny),
             "regcache_capacity", " (0 disables the registration cache)"},
        };
        // Rule: once the options start, no node id may follow.
        MAD2_RETURN_IF_ERROR(apply_options(
            line_number, options, tokens, i, [&](const std::string& token) {
              return is_option(token)
                         ? listing_keys("ib", options)(token)
                         : std::string("node ids must precede ib options");
            }));
      }
      if (net.nodes.empty()) {
        return error_at(line_number, "network lists no nodes");
      }
      config.networks.push_back(std::move(net));
      continue;
    }

    if (directive == "channel") {
      if (tokens.size() < 3) {
        return error_at(
            line_number,
            "usage: channel NAME NETWORK [paranoid] [eager_cutoff=N]");
      }
      ChannelDef channel;
      channel.name = tokens[1];
      channel.network = tokens[2];
      if (named(config.channels, channel.name) != nullptr) {
        return error_at(line_number,
                        "duplicate channel name '" + channel.name + "'");
      }
      const NetworkDef* channel_net = named(config.networks, channel.network);
      if (channel_net == nullptr) {
        return error_at(line_number,
                        "unknown network '" + channel.network + "'");
      }
      const Option options[] = {
          {"paranoid", flag(&channel.paranoid)},
          {"eager_cutoff=",
           [&](const std::string& value, std::string* why) {
             if (channel_net->kind != NetworkKind::kIb) {
               *why = "eager_cutoff= is only valid on ib channels";
               return false;
             }
             return number(&channel.ib_options.emplace().eager_cutoff,
                           [](std::uint32_t cutoff) { return cutoff >= 64; })(
                 value, why);
           },
           "eager_cutoff", " (must be at least 64 bytes)"},
      };
      MAD2_RETURN_IF_ERROR(apply_options(
          line_number, options, tokens, 3, [](const std::string& token) {
            return "unknown channel option '" + token + "'";
          }));
      config.channels.push_back(std::move(channel));
      continue;
    }

    if (directive == "rails") {
      if (tokens.size() < 4) {
        return error_at(
            line_number,
            "usage: rails NAME CHANNEL CHANNEL [CHANNEL...] [threshold=N]");
      }
      RailSetDef rails;
      rails.name = tokens[1];
      if (named(config.rail_sets, rails.name) != nullptr) {
        return error_at(line_number,
                        "duplicate rail set name '" + rails.name + "'");
      }
      const Option options[] = {
          {"threshold=", number(&rails.stripe_threshold), "stripe threshold"},
      };
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string& token = tokens[i];
        if (const Option* option = find_option(options, token)) {
          // Rule: the threshold ends the line.
          if (i + 1 != tokens.size()) {
            return error_at(line_number, "threshold= must come last");
          }
          MAD2_RETURN_IF_ERROR(apply_option(line_number, *option, token));
          break;
        }
        const ChannelDef* member = named(config.channels, token);
        if (member == nullptr) {
          return error_at(line_number, "unknown channel '" + token + "'");
        }
        if (member->paranoid) {
          return error_at(line_number,
                          "channel '" + token +
                              "' is paranoid: its check blocks would "
                              "interleave with striped segments");
        }
        if (std::find(rails.channels.begin(), rails.channels.end(), token) !=
            rails.channels.end()) {
          return error_at(line_number, "channel '" + token + "' listed twice");
        }
        for (const RailSetDef& other : config.rail_sets) {
          for (const std::string& taken : other.channels) {
            if (taken == token) {
              return error_at(line_number,
                              "channel '" + token +
                                  "' already belongs to rail set '" +
                                  other.name + "'");
            }
          }
        }
        // Rails must add adapters, and every adapter must reach the same
        // nodes — contradictory member sets are config errors, not
        // something the scheduler can paper over.
        auto network_of = [&config](const std::string& channel_name) {
          return named(config.networks,
                       named(config.channels, channel_name)->network);
        };
        const NetworkDef* net = network_of(token);
        for (const std::string& listed : rails.channels) {
          const NetworkDef* other = network_of(listed);
          if (other == net) {
            return error_at(line_number,
                            "channels '" + listed + "' and '" + token +
                                "' share network '" + net->name +
                                "': striping over one adapter adds no "
                                "bandwidth");
          }
          std::vector<std::uint32_t> a = net->nodes;
          std::vector<std::uint32_t> b = other->nodes;
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          if (a != b) {
            return error_at(line_number,
                            "channels '" + listed + "' and '" + token +
                                "' span different node sets");
          }
        }
        rails.channels.push_back(token);
      }
      if (rails.channels.size() < 2) {
        return error_at(line_number,
                        "a rail set needs at least two member channels");
      }
      if (rails.channels.size() > 32) {
        return error_at(line_number, "at most 32 rails per set");
      }
      config.rail_sets.push_back(std::move(rails));
      continue;
    }

    if (directive == "congestion") {
      if (config.congestion.has_value()) {
        return error_at(line_number, "duplicate 'congestion'");
      }
      CongestionConfig cc;
      cc.enabled = true;
      const Option options[] = {
          {"window=", number(&cc.init_window), "congestion window"},
          {"min_window=", number(&cc.min_window), "congestion min_window",
           " (a zero minimum would starve the flow forever)"},
          {"max_window=", number(&cc.max_window), "congestion max_window"},
          {"gain=", number<double>(&cc.gain), "congestion gain",
           " (must be positive)"},
          {"decrease=",
           number<double>(&cc.decrease,
                          [](double d) { return 0.0 < d && d < 1.0; }),
           "congestion decrease", " (must be in (0, 1))"},
          {"backlog=",
           number<double>(&cc.backlog_factor,
                          [](double b) { return b > 1.0; }),
           "congestion backlog",
           " (must be > 1: smoothed delay at the observed floor is not "
           "congestion)"},
          {"quantum=", number(&cc.quantum), "congestion quantum"},
          {"gateway_queue=", number(&cc.gateway_queue),
           "congestion gateway_queue"},
      };
      MAD2_RETURN_IF_ERROR(apply_options(line_number, options, tokens, 1,
                                         listing_keys("congestion", options)));
      // Cross-field rules. Contradictory knob combinations are config
      // errors, not something the window arithmetic can paper over.
      if (cc.max_window < cc.min_window) {
        return error_at(line_number,
                        "congestion max_window is below min_window");
      }
      if (cc.init_window != 0 && (cc.init_window < cc.min_window ||
                                  cc.init_window > cc.max_window)) {
        return error_at(line_number,
                        "congestion window is outside "
                        "[min_window, max_window]");
      }
      config.congestion = cc;
      continue;
    }

    if (directive == "topology") {
      if (config.topology.has_value()) {
        return error_at(line_number, "duplicate 'topology'");
      }
      TopologyConfig tc;
      tc.enabled = true;
      const Option options[] = {
          {"salt=", number(&tc.spread_salt, kAny), "topology salt"},
          {"replay_quota=", number(&tc.replay_quota), "topology replay_quota",
           " (a zero quota could never admit a packet)"},
      };
      MAD2_RETURN_IF_ERROR(apply_options(line_number, options, tokens, 1,
                                         listing_keys("topology", options)));
      config.topology = tc;
      continue;
    }

    if (directive == "trace") {
      if (config.trace.has_value()) {
        return error_at(line_number, "duplicate 'trace'");
      }
      obs::TraceConfig trace;
      const Option options[] = {
          {"categories=",
           [&](const std::string& value, std::string*) {
             return obs::parse_categories(value, &trace.categories);
           },
           "trace categories"},
          {"ring_kb=", number(&trace.ring_kb), "trace ring size"},
          // A channel filter for the Switch category.
          {"channels=",
           [&](const std::string& value, std::string* why) {
             for (const std::string& name : split_commas(value)) {
               if (name.empty()) return false;
               if (named(config.channels, name) == nullptr) {
                 *why = "unknown channel '" + name + "' in trace";
                 return false;
               }
               trace.channels.push_back(name);
             }
             return true;
           },
           "trace channel list"},
          {"propagation", flag(&trace.propagation)},
          // Watchdog rules: slo=<channel>:<p99_us>,...
          {"slo=",
           [&](const std::string& value, std::string* why) {
             for (const std::string& rule : split_commas(value)) {
               const std::size_t colon = rule.find(':');
               if (colon == std::string::npos || colon == 0) {
                 *why = "invalid trace slo rule '" + rule +
                        "' (expected <channel>:<p99_us>)";
                 return false;
               }
               obs::SloRule slo;
               slo.channel = rule.substr(0, colon);
               std::uint32_t threshold = 0;
               if (!parse_number(rule.substr(colon + 1), &threshold) ||
                   threshold == 0) {
                 *why = "invalid trace slo threshold in '" + rule +
                        "' (want a positive microsecond count)";
                 return false;
               }
               slo.p99_us = threshold;
               if (named(config.channels, slo.channel) == nullptr) {
                 *why = "unknown channel '" + slo.channel + "' in trace slo";
                 return false;
               }
               trace.slo.push_back(std::move(slo));
             }
             return true;
           }},
      };
      MAD2_RETURN_IF_ERROR(apply_options(line_number, options, tokens, 1,
                                         listing_keys("trace", options)));
      config.trace = std::move(trace);
      continue;
    }

    return error_at(line_number, "unknown directive '" + directive + "'");
  }

  if (!have_nodes) return invalid_argument("config: missing 'nodes'");
  return config;
}

}  // namespace mad2::mad
