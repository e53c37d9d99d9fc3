// End-to-end benchmark driver: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--inject] [--threads <n>] [--out-dir <dir>]
//             [--git-sha <sha>]
//
// Set-up (plans, service/replay configuration, one discarded warm-up call)
// is repeated and its median is `setup_s`; then the workload's fixed,
// seeded pass is repeated until `--seconds` is spent and host figures are
// medians over passes. Simulated figures come from the passes too and must
// be bit-identical between them (the digest is checked). `--trace 0` prints
// the end-to-end metrics; `--trace 1` spends half the budget untraced and
// half with spans around every public call, and prints the per-layer
// metrics. The last stdout line is the JSON result; the process exits 1
// if any correctness check failed and 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace pfar::perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py checks both lists).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_mflits_per_s", "Mflit/s"},
    {"peak_rss_mb", "MB"},
    {"sim_bw", "elem/cycle"},
    {"bw_vs_alg1", "ratio"},
    {"jobs_per_kcycle", "1/kcycle"},
    {"job_p50_cycles", "cycles"},
    {"job_p99_cycles", "cycles"},
    {"time_to_epoch_cycles", "cycles"},
    {"ok_frac", "frac"},
};

constexpr Metric kPerLayer[] = {
    {"core.plan_s", "s"},
    {"polarfly.topology_s", "s"},
    {"trees.build_s", "s"},
    {"model.alg1_s", "s"},
    {"simnet.run_s", "s"},
    {"simnet.calls", "count"},
    {"simnet.cycles", "cycles"},
    {"simnet.flits", "flits"},
    {"simnet.ns_per_flit", "ns"},
    {"simnet.flow_s", "s"},
    {"simnet.flow_ns_per_flit", "ns"},
    {"service.submit_s", "s"},
    {"service.drain_s", "s"},
    {"service.batches", "count"},
    {"service.distinct_runs", "count"},
    {"service.memo_hit_ratio", "ratio"},
    {"service.ms_per_distinct_run", "ms"},
    {"service.coalesced_frac", "frac"},
    {"service.queue_wait_p50_cycles", "cycles"},
    {"service.queue_wait_p99_cycles", "cycles"},
    {"service.utilization", "frac"},
    {"service.rejected", "count"},
    {"workload.replay_s", "s"},
    {"workload.buckets", "count"},
    {"workload.distinct_bucket_sizes", "count"},
    {"workload.comm_busy_cycles", "cycles"},
    {"workload.comm_wall_cycles", "cycles"},
    {"workload.exposed_comm_cycles", "cycles"},
    {"workload.overlap_efficiency", "frac"},
    {"adapt.probe_s", "s"},
    {"adapt.plan_s", "s"},
    {"adapt.probe_cycles", "cycles"},
    {"adapt.hot_links", "count"},
    {"adapt.replanned_trees", "count"},
    {"obsv.trace_overhead_frac", "frac"},
    {"obsv.span_coverage", "frac"},
};

// Layers whose time comes from spans (metric name = layer + "_s").
constexpr const char* kSpanLayers[] = {
    "core.plan",      "polarfly.topology", "trees.build",   "model.alg1",
    "simnet.run",     "simnet.flow",       "service.submit", "service.drain",
    "workload.replay", "adapt.probe",      "adapt.plan",
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <bulk_quiet|"
               "tenant_burst|train_congested|plan_flow_scale> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--inject] "
               "[--threads <n>] [--out-dir <dir>] [--git-sha <sha>]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  usage("bad value '" + text + "' for " + flag);
}

struct Run {
  Options opt;
  std::string out_dir = ".bench_build/perfbench/results";
  std::string git_sha = "unknown";
};

Run parse(int argc, char** argv) {
  Run run;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      run.opt.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      run.opt.seed = static_cast<std::uint64_t>(parse_int(flag, value()));
    } else if (flag == "--seconds") {
      run.opt.seconds = static_cast<double>(parse_int(flag, value()));
    } else if (flag == "--trace") {
      run.opt.trace = parse_int(flag, value()) != 0;
    } else if (flag == "--threads") {
      run.opt.threads = static_cast<int>(parse_int(flag, value()));
    } else if (flag == "--tiny") {
      run.opt.tiny = true;
    } else if (flag == "--inject") {
      run.opt.inject = true;
    } else if (flag == "--out-dir") {
      run.out_dir = value();
    } else if (flag == "--git-sha") {
      run.git_sha = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (run.opt.seconds <= 0 || run.opt.threads < 1) {
    usage("--seconds and --threads must be positive");
  }
  if (run.opt.tiny) run.opt.setup_reps = 1;
  return run;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Runs passes until the next one would overrun `budget` seconds (at least
/// one), checking each pass's digest against the first pass ever run.
std::vector<double> run_passes(Workload& w, SpanLog& spans, Gate& gate,
                               double budget, std::vector<PassOutput>& outs) {
  std::vector<double> walls;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    spans.set_phase(i);
    const auto t = Clock::now();
    PassOutput out = w.pass(spans, gate);
    walls.push_back(seconds_since(t));
    if (!outs.empty() && !gate.check(out.digest.value() ==
                                         outs.front().digest.value(),
                                     "pass digest " + out.digest.hex() +
                                         " != first pass " +
                                         outs.front().digest.hex())) {
      ++out.failed;
    }
    outs.push_back(std::move(out));
    if (seconds_since(start) + median(walls) > budget) break;
  }
  return walls;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::pair<std::string, double>> end_to_end(
    const PassOutput& out, double setup_s, double wall_s, long long attempted,
    long long failed) {
  double log_sum = 0.0;
  for (double r : out.bw_ratio) log_sum += std::log(r);
  const double geo =
      out.bw_ratio.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(out.bw_ratio.size()));
  const auto d = [](long long v) { return static_cast<double>(v); };
  return {
      {"setup_s", setup_s},
      {"wall_s", wall_s},
      {"sim_mflits_per_s", ratio(d(out.fabric_flits), wall_s) / 1e6},
      {"peak_rss_mb", peak_rss_mb()},
      {"sim_bw", ratio(d(out.elements), d(out.cycles))},
      {"bw_vs_alg1", geo},
      {"jobs_per_kcycle", ratio(1e3 * d(out.ops), d(out.span_cycles))},
      {"job_p50_cycles", d(percentile(out.op_latency, 50))},
      {"job_p99_cycles", d(percentile(out.op_latency, 99))},
      {"time_to_epoch_cycles", d(out.span_cycles)},
      {"ok_frac", 1.0 - ratio(d(failed), d(attempted))},
  };
}

/// Median over `phases` of one layer's self seconds; false when the layer
/// ran in none of them.
bool median_self(const std::vector<std::map<std::string, double>>& phases,
                 const std::string& layer, double* out) {
  std::vector<double> v;
  bool seen = false;
  for (const auto& self : phases) {
    const auto it = self.find(layer);
    seen = seen || it != self.end();
    v.push_back(it == self.end() ? 0.0 : it->second);
  }
  if (seen) *out = median(v);
  return seen;
}

std::vector<std::pair<std::string, double>> per_layer(
    const SpanLog& spans, const std::vector<double>& traced_walls,
    double untraced_wall, const PassOutput& out, int setup_reps) {
  std::map<std::string, double> v = out.layer_counts;
  std::vector<std::map<std::string, double>> passes;
  std::vector<double> coverage;
  for (int p = 0; p < static_cast<int>(traced_walls.size()); ++p) {
    passes.push_back(spans.self_seconds(p));
    coverage.push_back(ratio(spans.root_seconds(p),
                             traced_walls[static_cast<std::size_t>(p)]));
  }
  std::vector<std::map<std::string, double>> setups;
  for (int r = 0; r < setup_reps; ++r) {
    setups.push_back(spans.self_seconds(setup_phase(r)));
  }
  // A layer's time is the median over the traced passes it ran in, else
  // over the set-up repetitions (plans built in set-up), else the
  // standalone probe's.
  const std::vector<std::map<std::string, double>> probe{
      spans.self_seconds(kProbePhase)};
  for (const char* layer : kSpanLayers) {
    double& seconds = v[std::string(layer) + "_s"];
    median_self(passes, layer, &seconds) ||
        median_self(setups, layer, &seconds) ||
        median_self(probe, layer, &seconds);
  }
  v["simnet.ns_per_flit"] =
      ratio(1e9 * v["simnet.run_s"], v["simnet.run.flits"]);
  v["simnet.flow_ns_per_flit"] =
      ratio(1e9 * v["simnet.flow_s"], v["simnet.flow.flits"]);
  v["service.ms_per_distinct_run"] =
      ratio(1e3 * v["service.drain_s"], v["service.distinct_runs"]);
  v["obsv.trace_overhead_frac"] =
      ratio(median(traced_walls), untraced_wall) - 1.0;
  v["obsv.span_coverage"] = median(coverage);

  std::vector<std::pair<std::string, double>> metrics;
  for (const Metric& metric : kPerLayer) {
    metrics.push_back({metric.name, v[metric.name]});
  }
  return metrics;
}

const char* unit_of(const std::string& name) {
  for (const Metric& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const Metric& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "?";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return s + "]";
}

std::string metrics_json(
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].first + "\": {\"value\": " +
         json_number(metrics[i].second) + ", \"unit\": \"" +
         unit_of(metrics[i].first) + "\"}";
  }
  return s + "}";
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

int main_impl(int argc, char** argv) {
  const Run run = parse(argc, argv);
  const Options& opt = run.opt;
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  Gate gate;
  SpanLog spans(opt.trace);
  std::vector<double> setup_times;
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    spans.set_phase(setup_phase(rep));
    const auto t = Clock::now();
    w->setup(spans);
    setup_times.push_back(seconds_since(t));
  }

  std::vector<PassOutput> outs;
  SpanLog untraced(false);
  const std::vector<double> walls = run_passes(
      *w, untraced, gate, opt.trace ? opt.seconds / 2 : opt.seconds, outs);
  std::vector<double> traced_walls;
  if (opt.trace) {
    traced_walls = run_passes(*w, spans, gate, opt.seconds / 2, outs);
    spans.set_phase(kProbePhase);
    w->traced_extras(spans, gate, outs.back());
  }

  long long attempted = 0;
  long long failed = 0;
  for (const auto& out : outs) {
    attempted += out.attempted;
    failed += out.failed;
  }
  attempted = std::max(attempted, 1LL);
  failed = std::min(failed, attempted);
  const PassOutput& first = outs.front();
  const auto metrics =
      opt.trace ? per_layer(spans, traced_walls, median(walls), outs.back(),
                            opt.setup_reps)
                : end_to_end(first, median(setup_times), median(walls),
                             attempted, failed);
  const bool correct = gate.violations() == 0;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string meta =
      "{\"schema_version\": 1, \"git_sha\": \"" + run.git_sha +
      "\", \"timestamp\": \"" + utc_now() + "\", \"workload\": \"" +
      opt.workload + "\", \"seed\": " + std::to_string(opt.seed) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"planner_threads\": " + std::to_string(opt.threads) +
      ", \"shard_threads\": " + std::to_string(opt.threads) +
      ", \"setup_reps\": " + std::to_string(opt.setup_reps) +
      ", \"setup_walls_s\": " + json_list(setup_times) +
      ", \"pass_walls_s\": " + json_list(walls) +
      ", \"traced_pass_walls_s\": " + json_list(traced_walls) +
      ", \"tiny\": " + (opt.tiny ? "true" : "false") + "}";
  std::printf("meta %s\n", meta.c_str());
  std::printf("digest %s %s\n", opt.workload.c_str(),
              first.digest.hex().c_str());
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-34s %-14s %s\n", name.c_str(), unit_of(name),
                json_number(value).c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(run.out_dir, ec);
  const std::string stem = run.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  if (std::ofstream os(stem + ".json"); os) {
    os << "{\"_meta\": " << meta << ", \"digest\": \"" << first.digest.hex()
       << "\", \"correct\": " << (correct ? "true" : "false")
       << ", \"metrics\": " << metrics_json(metrics) << "}\n";
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (opt.trace && !spans.write_jsonl(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n",
                 stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pfar::perfbench

int main(int argc, char** argv) {
  try {
    return pfar::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
