#include "obs/report.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace mad2::obs {

namespace {

// ----------------------------------------------------------- JSON parsing ---
// Minimal cursor parser for the MetricsRegistry::to_json contract, in the
// same style as parse_chrome_trace: no allocation-heavy DOM, just walk
// the two known maps.

struct Cursor {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')) {
      ++p;
    }
  }
  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
};

bool parse_string(Cursor* cursor, std::string* out) {
  if (!cursor->eat('"')) return false;
  out->clear();
  while (cursor->p < cursor->end && *cursor->p != '"') {
    char c = *cursor->p++;
    if (c == '\\' && cursor->p < cursor->end) {
      const char escaped = *cursor->p++;
      switch (escaped) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'u':
          // Registry names are ASCII; decode the low byte only.
          if (cursor->end - cursor->p < 4) return false;
          c = static_cast<char>(
              std::strtol(std::string(cursor->p, 4).c_str(), nullptr, 16));
          cursor->p += 4;
          break;
        default:
          c = escaped;
      }
    }
    out->push_back(c);
  }
  return cursor->eat('"');
}

bool parse_number(Cursor* cursor, double* out) {
  cursor->skip_ws();
  char* after = nullptr;
  errno = 0;
  *out = std::strtod(cursor->p, &after);
  if (after == cursor->p || errno == ERANGE) return false;
  cursor->p = after;
  return true;
}

bool parse_histogram_summary(Cursor* cursor, HistogramSummary* out) {
  if (!cursor->eat('{')) return false;
  if (cursor->eat('}')) return true;
  do {
    std::string key;
    double value = 0.0;
    if (!parse_string(cursor, &key) || !cursor->eat(':') ||
        !parse_number(cursor, &value)) {
      return false;
    }
    if (key == "count") {
      out->count = static_cast<std::int64_t>(value);
    } else if (key == "mean_us") {
      out->mean_us = value;
    } else if (key == "p50_us") {
      out->p50_us = value;
    } else if (key == "p95_us") {
      out->p95_us = value;
    } else if (key == "p99_us") {
      out->p99_us = value;
    } else if (key == "max_us") {
      out->max_us = value;
    }  // unknown summary keys from newer writers are ignored
  } while (cursor->eat(','));
  return cursor->eat('}');
}

// --------------------------------------------------------- name dissection --

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Split "<channel>.<kind>.<flow>.<rest>" around ".<kind>." (kind is
/// "flow" or "hop"). Channel names contain no dots, so the first match
/// is the separator.
bool split_flow_name(std::string_view name, std::string_view kind,
                     std::string* channel, std::string* flow,
                     std::string* rest) {
  std::string sep = ".";
  sep.append(kind).append(".");
  const std::size_t at = name.find(sep);
  if (at == std::string_view::npos) return false;
  *channel = std::string(name.substr(0, at));
  std::string_view tail = name.substr(at + sep.size());
  const std::size_t dot = tail.find('.');
  if (dot == std::string_view::npos) return false;
  *flow = std::string(tail.substr(0, dot));
  *rest = std::string(tail.substr(dot + 1));
  return true;
}

struct FlowAccumulator {
  FlowRollup rollup;
  // Count-weighted mean accumulators (sum of count * mean).
  double e2e_p50_weight = 0.0;
  std::map<std::uint32_t, HopRollup> hops;
  std::map<std::uint32_t, double> queue_weight;
  std::map<std::uint32_t, double> wire_weight;
  std::map<std::uint32_t, std::int64_t> wire_samples;
};

void append_f(std::string* out, double v) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  out->append(buffer);
}

}  // namespace

bool parse_metrics_json(std::string_view text, ParsedMetrics* out) {
  Cursor cursor{text.data(), text.data() + text.size()};
  out->values.clear();
  out->histograms.clear();
  if (!cursor.eat('{')) return false;

  std::string section;
  if (!parse_string(&cursor, &section) || section != "values" ||
      !cursor.eat(':') || !cursor.eat('{')) {
    return false;
  }
  if (!cursor.eat('}')) {
    do {
      std::string name;
      double value = 0.0;
      if (!parse_string(&cursor, &name) || !cursor.eat(':') ||
          !parse_number(&cursor, &value)) {
        return false;
      }
      out->values[name] = static_cast<std::int64_t>(value);
    } while (cursor.eat(','));
    if (!cursor.eat('}')) return false;
  }

  if (!cursor.eat(',') || !parse_string(&cursor, &section) ||
      section != "histograms" || !cursor.eat(':') || !cursor.eat('{')) {
    return false;
  }
  if (!cursor.eat('}')) {
    do {
      std::string name;
      HistogramSummary summary;
      if (!parse_string(&cursor, &name) || !cursor.eat(':') ||
          !parse_histogram_summary(&cursor, &summary)) {
        return false;
      }
      out->histograms[name] = summary;
    } while (cursor.eat(','));
    if (!cursor.eat('}')) return false;
  }
  return cursor.eat('}');
}

ClusterReport cluster_report(const std::vector<ParsedMetrics>& inputs) {
  ClusterReport report;
  report.inputs = inputs.size();
  std::map<std::pair<std::string, std::string>, FlowAccumulator> flows;

  const auto flow_of = [&flows](const std::string& channel,
                                const std::string& flow) -> FlowAccumulator& {
    FlowAccumulator& acc = flows[{channel, flow}];
    acc.rollup.channel = channel;
    acc.rollup.flow = flow;
    return acc;
  };

  for (const ParsedMetrics& input : inputs) {
    for (const auto& [name, value] : input.values) {
      std::string channel, flow, field;
      if (split_flow_name(name, "flow", &channel, &flow, &field)) {
        FlowAccumulator& acc = flow_of(channel, flow);
        if (field == "packets") {
          acc.rollup.packets += value;
        } else if (field == "cwnd_x1000") {
          // Worst (smallest) surviving congestion window in the cluster.
          acc.rollup.cwnd_x1000 = acc.rollup.cwnd_x1000 < 0
                                      ? value
                                      : std::min(acc.rollup.cwnd_x1000, value);
        } else if (field == "srtt_us") {
          acc.rollup.srtt_us = std::max(acc.rollup.srtt_us, value);
        }
        continue;
      }
      if (ends_with(name, ".routing.replayed_packets")) {
        report.replayed_packets += value;
      } else if (ends_with(name, ".routing.dup_drops")) {
        report.dup_drops += value;
      } else if (ends_with(name, ".routing.discarded")) {
        report.discarded += value;
      } else if (ends_with(name, ".routing.gateway_kills")) {
        report.gateway_kills += value;
      } else if (starts_with(name, "rel.")) {
        if (ends_with(name, ".retransmits")) report.retransmits += value;
        else if (ends_with(name, ".dup_frames")) report.dup_frames += value;
        else if (ends_with(name, ".corrupt_frames")) {
          report.corrupt_frames += value;
        } else if (ends_with(name, ".give_ups")) {
          report.give_ups += value;
        }
      } else if (name == "trace.dropped_events") {
        report.dropped_trace_events += value;
      } else if (name == "slo.breaches") {
        report.slo_breaches += value;
      }
    }

    for (const auto& [name, summary] : input.histograms) {
      std::string channel, flow, rest;
      if (split_flow_name(name, "flow", &channel, &flow, &rest) &&
          rest == "e2e") {
        FlowAccumulator& acc = flow_of(channel, flow);
        acc.rollup.e2e_count += summary.count;
        acc.e2e_p50_weight +=
            static_cast<double>(summary.count) * summary.p50_us;
        acc.rollup.e2e_p99_us =
            std::max(acc.rollup.e2e_p99_us, summary.p99_us);
        continue;
      }
      if (!split_flow_name(name, "hop", &channel, &flow, &rest)) continue;
      const std::size_t dot = rest.find('.');
      if (dot == std::string::npos) continue;
      const std::uint32_t hop =
          static_cast<std::uint32_t>(std::strtoul(rest.c_str(), nullptr, 10));
      const std::string_view side = std::string_view(rest).substr(dot + 1);
      FlowAccumulator& acc = flow_of(channel, flow);
      HopRollup& hr = acc.hops[hop];
      hr.hop = hop;
      if (side == "queue") {
        hr.samples += summary.count;
        acc.queue_weight[hop] +=
            static_cast<double>(summary.count) * summary.mean_us;
        hr.queue_p99_us = std::max(hr.queue_p99_us, summary.p99_us);
      } else if (side == "wire") {
        acc.wire_samples[hop] += summary.count;
        acc.wire_weight[hop] +=
            static_cast<double>(summary.count) * summary.mean_us;
        hr.wire_p99_us = std::max(hr.wire_p99_us, summary.p99_us);
      }
    }
  }

  for (auto& [key, acc] : flows) {
    if (acc.rollup.e2e_count > 0) {
      acc.rollup.e2e_p50_us =
          acc.e2e_p50_weight / static_cast<double>(acc.rollup.e2e_count);
    }
    for (auto& [hop, hr] : acc.hops) {
      if (hr.samples > 0) {
        hr.queue_mean_us =
            acc.queue_weight[hop] / static_cast<double>(hr.samples);
      }
      if (const std::int64_t n = acc.wire_samples[hop]; n > 0) {
        hr.wire_mean_us = acc.wire_weight[hop] / static_cast<double>(n);
      }
      acc.rollup.hops.push_back(hr);
    }
    report.flows.push_back(std::move(acc.rollup));
  }
  return report;
}

ClusterReport cluster_report_from_files(const std::vector<std::string>& paths,
                                        std::vector<std::string>* errors) {
  std::vector<ParsedMetrics> parsed;
  for (const std::string& path : paths) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      if (errors != nullptr) errors->push_back(path + ": cannot open");
      continue;
    }
    std::string text;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(file);
    ParsedMetrics metrics;
    if (!parse_metrics_json(text, &metrics)) {
      if (errors != nullptr) errors->push_back(path + ": malformed metrics");
      continue;
    }
    parsed.push_back(std::move(metrics));
  }
  return cluster_report(parsed);
}

std::string ClusterReport::to_json() const {
  std::string out = "{\n  \"inputs\": " + std::to_string(inputs) +
                    ",\n  \"totals\": {";
  out.append("\n    \"retransmits\": " + std::to_string(retransmits));
  out.append(",\n    \"dup_frames\": " + std::to_string(dup_frames));
  out.append(",\n    \"corrupt_frames\": " + std::to_string(corrupt_frames));
  out.append(",\n    \"give_ups\": " + std::to_string(give_ups));
  out.append(",\n    \"replayed_packets\": " +
             std::to_string(replayed_packets));
  out.append(",\n    \"dup_drops\": " + std::to_string(dup_drops));
  out.append(",\n    \"discarded\": " + std::to_string(discarded));
  out.append(",\n    \"gateway_kills\": " + std::to_string(gateway_kills));
  out.append(",\n    \"dropped_trace_events\": " +
             std::to_string(dropped_trace_events));
  out.append(",\n    \"slo_breaches\": " + std::to_string(slo_breaches));
  out.append("\n  },\n  \"flows\": [");
  bool first = true;
  for (const FlowRollup& flow : flows) {
    out.append(first ? "\n    {" : ",\n    {");
    first = false;
    out.append("\"channel\": \"" + flow.channel + "\", \"flow\": \"" +
               flow.flow + "\", \"packets\": " +
               std::to_string(flow.packets));
    out.append(", \"cwnd_x1000\": " + std::to_string(flow.cwnd_x1000));
    out.append(", \"srtt_us\": " + std::to_string(flow.srtt_us));
    out.append(", \"e2e\": {\"count\": " + std::to_string(flow.e2e_count) +
               ", \"p50_us\": ");
    append_f(&out, flow.e2e_p50_us);
    out.append(", \"p99_us\": ");
    append_f(&out, flow.e2e_p99_us);
    out.append("}, \"hops\": [");
    bool first_hop = true;
    for (const HopRollup& hop : flow.hops) {
      out.append(first_hop ? "" : ", ");
      first_hop = false;
      out.append("{\"hop\": " + std::to_string(hop.hop) + ", \"samples\": " +
                 std::to_string(hop.samples) + ", \"queue_mean_us\": ");
      append_f(&out, hop.queue_mean_us);
      out.append(", \"queue_p99_us\": ");
      append_f(&out, hop.queue_p99_us);
      out.append(", \"wire_mean_us\": ");
      append_f(&out, hop.wire_mean_us);
      out.append(", \"wire_p99_us\": ");
      append_f(&out, hop.wire_p99_us);
      out.append("}");
    }
    out.append("]}");
  }
  out.append(first ? "]\n}\n" : "\n  ]\n}\n");
  return out;
}

std::string ClusterReport::to_text() const {
  std::string out = "madreport: " + std::to_string(inputs) +
                    " metric snapshot(s), " + std::to_string(flows.size()) +
                    " flow(s)\n";
  out.append("  totals: retransmits=" + std::to_string(retransmits) +
             " dup_frames=" + std::to_string(dup_frames) +
             " corrupt_frames=" + std::to_string(corrupt_frames) +
             " give_ups=" + std::to_string(give_ups) + "\n");
  out.append("          replayed=" + std::to_string(replayed_packets) +
             " dup_drops=" + std::to_string(dup_drops) + " discarded=" +
             std::to_string(discarded) + " gateway_kills=" +
             std::to_string(gateway_kills) + "\n");
  out.append("          dropped_trace_events=" +
             std::to_string(dropped_trace_events) + " slo_breaches=" +
             std::to_string(slo_breaches) + "\n");
  for (const FlowRollup& flow : flows) {
    out.append("  " + flow.channel + " " + flow.flow + ": packets=" +
               std::to_string(flow.packets));
    if (flow.cwnd_x1000 >= 0) {
      out.append(" cwnd=");
      append_f(&out, static_cast<double>(flow.cwnd_x1000) / 1000.0);
      out.append(" srtt_us=" + std::to_string(flow.srtt_us));
    }
    if (flow.e2e_count > 0) {
      out.append(" e2e_p50_us=");
      append_f(&out, flow.e2e_p50_us);
      out.append(" e2e_p99_us=");
      append_f(&out, flow.e2e_p99_us);
    }
    out.append("\n");
    for (const HopRollup& hop : flow.hops) {
      out.append("    hop " + std::to_string(hop.hop) + ": samples=" +
                 std::to_string(hop.samples) + " queue_mean_us=");
      append_f(&out, hop.queue_mean_us);
      out.append(" queue_p99_us=");
      append_f(&out, hop.queue_p99_us);
      out.append(" wire_mean_us=");
      append_f(&out, hop.wire_mean_us);
      out.append(" wire_p99_us=");
      append_f(&out, hop.wire_p99_us);
      out.append("\n");
    }
  }
  return out;
}

}  // namespace mad2::obs
