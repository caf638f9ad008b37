#include "obs/metrics.hpp"

#include <cstdio>

namespace mad2::obs {

namespace {

MetricsRegistry* g_metrics = nullptr;

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void append_us(std::string* out, std::int64_t ns) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                static_cast<double>(ns) / 1000.0);
  out->append(buffer);
}

}  // namespace

Histogram* MetricsRegistry::histogram(const std::string& name) {
  return &histograms_[name];
}

void MetricsRegistry::set_value(const std::string& name, std::int64_t value) {
  values_[name] = value;
}

void MetricsRegistry::add_value(const std::string& name, std::int64_t delta) {
  values_[name] += delta;
}

std::int64_t MetricsRegistry::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void MetricsRegistry::push_stamp(const std::string& flow, sim::Time t) {
  std::deque<sim::Time>& fifo = stamps_[flow];
  if (fifo.size() >= kMaxStampsPerFlow) fifo.pop_front();
  fifo.push_back(t);
}

bool MetricsRegistry::pop_stamp(const std::string& flow, sim::Time* t) {
  const auto it = stamps_.find(flow);
  if (it == stamps_.end() || it->second.empty()) return false;
  *t = it->second.front();
  it->second.pop_front();
  return true;
}

void MetricsRegistry::clear() {
  histograms_.clear();
  values_.clear();
  stamps_.clear();
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"values\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(&out, name);
    out.append(": ");
    out.append(std::to_string(value));
  }
  out.append(first ? "},\n" : "\n  },\n");
  out.append("  \"histograms\": {");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(&out, name);
    out.append(": {\"count\": ");
    out.append(std::to_string(histogram.count()));
    out.append(", \"mean_us\": ");
    append_us(&out, static_cast<std::int64_t>(histogram.mean()));
    out.append(", \"p50_us\": ");
    append_us(&out, histogram.p50());
    out.append(", \"p95_us\": ");
    append_us(&out, histogram.p95());
    out.append(", \"p99_us\": ");
    append_us(&out, histogram.p99());
    out.append(", \"max_us\": ");
    append_us(&out, histogram.max());
    out.append("}");
  }
  out.append(first ? "}\n}\n" : "\n  }\n}\n");
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = to_json();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  std::fclose(file);
  return ok;
}

void install_metrics(MetricsRegistry* registry) { g_metrics = registry; }

void uninstall_metrics(MetricsRegistry* registry) {
  if (g_metrics == registry) g_metrics = nullptr;
}

MetricsRegistry* metrics() { return g_metrics; }

}  // namespace mad2::obs
