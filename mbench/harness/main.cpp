// One workload process of the two-clock benchmark (driven by run.py).
//
//   mbench --workload <pingpong|gateway|fabric> --seed <n> --seconds <s>
//          --trace <0|1> [--spans <path>]
//
// --trace 0: repeats the workload until --seconds of host time have
// passed and reports both clocks per repetition. --trace 1: the host and
// raw-driver calibrations, then one execution with spans and the queue
// sampler, reported as per-layer metrics. The last line of standard
// output is one JSON object; the exit code is 0 whenever it was printed
// (failures are reported inside it).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

/// Doubles print with 17 significant digits so a reader can compare two
/// processes' virtual-clock results bit for bit.
std::string num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + num(values[i]);
  }
  return out + "]";
}

template <typename Map>
std::string object(const Map& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    out += (first ? "\"" : ", \"") + key + "\": " +
           num(static_cast<double>(value));
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  const mbench::WorkloadFn workload = mbench::find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "mbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  // Calibrate first so every workload's calibration sees a fresh process.
  std::map<std::string, double> layer;
  if (traced) layer = mbench::calibrate();

  std::vector<mbench::RepResult> reps;
  const double begin = mbench::host_now_s();
  do {
    reps.push_back(workload(args.seed, traced));
  } while (!traced && mbench::host_now_s() - begin < args.seconds);

  // Every repetition of one seed must land on the same virtual results.
  const mbench::RepResult& first = reps.front();
  const mbench::Tail tail = mbench::tail_percentile(first.lat_us, 0.99);
  const double p50 = mbench::quantile(first.lat_us, 0.5);
  std::map<std::string, std::uint64_t> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> msgs_per_s;
  for (const mbench::RepResult& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const auto& [name, count] : rep.violations) violations[name] += count;
    if (rep.lat_us != first.lat_us || rep.bw_mbs != first.bw_mbs) {
      ++violations["determinism.repetitions_differ"];
      ++failed;
    }
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
    msgs_per_s.push_back(static_cast<double>(rep.delivered) / rep.run_s);
  }

  if (traced) {
    for (const auto& [name, value] : first.layer) layer[name] = value;
    if (!args.spans.empty() && !first.spans.write_jsonl(args.spans)) {
      std::fprintf(stderr, "mbench: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"reps\": %zu, \"attempted\": %llu, \"failed\": %llu, "
      "\"violations\": %s, \"setup_s\": %s, \"run_s\": %s, "
      "\"msgs_per_s\": %s, \"lat_p50_us\": %s, \"lat_p99_us\": %s, "
      "\"lat_tail_q\": %s, \"lat_samples\": %zu, \"bw_mbs\": %s, "
      "\"peak_rss_mb\": %s, \"layer\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, reps.size(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), object(violations).c_str(),
      array(setup_s).c_str(), array(run_s).c_str(),
      array(msgs_per_s).c_str(), num(p50).c_str(), num(tail.value).c_str(),
      num(tail.q).c_str(), tail.count, num(first.bw_mbs).c_str(),
      num(mbench::peak_rss_mb()).c_str(), object(layer).c_str());
  return 0;
}
