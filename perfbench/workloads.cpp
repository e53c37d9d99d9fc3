// The four benchmark workloads. Each one calls only the library's public
// entry points, wraps every call in a benchmark-side span, and pushes every
// simulated output through the correctness gate and the digest. Sizes are
// drawn from the workload seed; README.md records why each workload exists.
#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "adapt/controller.hpp"
#include "collectives/bucket_schedule.hpp"
#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "harness.hpp"
#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace pfar::perfbench {
namespace {

long long draw(util::Rng& rng, long long lo, long long hi) {
  return lo + static_cast<long long>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Sum of a histogram metric (the planner observer's phase timers), read
/// back through the registry's JSONL snapshot — the public surface.
double histogram_sum_ms(const obsv::Metrics& metrics, const std::string& name) {
  std::ostringstream os;
  metrics.write_jsonl(os);
  std::istringstream lines(os.str());
  const std::string key = "{\"name\":\"" + name + "\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(key, 0) != 0) continue;
    const auto at = line.find("\"sum\":");
    if (at == std::string::npos) return 0.0;
    return std::stod(line.substr(at + 6));
  }
  return 0.0;
}

/// Builds a plan under a `core.plan` span; in a traced run the planner's
/// observer timers become the span's `polarfly` / `trees` / `model`
/// children.
core::AllreducePlan build_plan(SpanLog& spans, int q, core::Solution solution,
                               int threads, int starter = 0) {
  core::AllreducePlanner planner(q);
  planner.solution(solution).threads(threads).starter_quadric(starter);
  obsv::Recorder recorder(1);
  if (spans.enabled()) planner.observer(&recorder);
  SpanLog::Scope span(spans, "core.plan");
  core::AllreducePlan plan = planner.build();
  if (spans.enabled()) {
    spans.add_child("polarfly.topology",
                    histogram_sum_ms(recorder.metrics, "planner.topology_ms") /
                        1e3);
    spans.add_child(
        "trees.build",
        histogram_sum_ms(recorder.metrics, "planner.trees_ms") / 1e3);
    spans.add_child(
        "model.alg1",
        histogram_sum_ms(recorder.metrics, "planner.bandwidths_ms") / 1e3);
  }
  return plan;
}

simnet::SimConfig quiet_config(int threads) {
  simnet::SimConfig config;
  config.shard_threads = threads;
  return config;
}

long long sum(const std::vector<long long>& v) {
  return std::accumulate(v.begin(), v.end(), 0LL);
}

/// Runs one allreduce of `m` elements on `plan` under a `layer` span and
/// gates it: values_correct, flit conservation
/// (sum link_flits == 2 m (N - 1) at payload 1 / header 0) and
/// sim_bw <= Algorithm 1 <= the Zhou & Sun rate bound.
void gated_allreduce(SpanLog& spans, Gate& gate, const char* layer,
                     const core::AllreducePlan& plan, long long m,
                     const simnet::SimConfig& config, bool inject,
                     PassOutput& out) {
  ++out.attempted;
  const std::string tag = "q=" + std::to_string(plan.q()) + " " +
                          core::to_string(plan.solution()) +
                          " m=" + std::to_string(m);
  collectives::InNetworkResult r;
  try {
    SpanLog::Scope span(spans, layer);
    r = collectives::run_innetwork_allreduce(plan.topology(), plan.trees(), m,
                                             config);
  } catch (const std::exception& e) {
    gate.check(false, tag + ": simulation threw: " + e.what());
    ++out.failed;
    return;
  }
  const long long n = plan.num_nodes();
  const long long flits = sum(r.sim.link_flits) + (inject ? 1 : 0);
  const double sim_bw =
      static_cast<double>(m) / static_cast<double>(r.sim.cycles);
  const double alg1 = plan.aggregate_bandwidth();
  const double rate_bound =
      model::allreduce_rate_upper_bound(plan.topology(), 1.0);
  bool ok = gate.check(r.sim.values_correct, tag + ": values_correct false");
  ok &= gate.check(flits == 2 * m * (n - 1),
                   tag + ": flit conservation " + std::to_string(flits) +
                       " != 2*m*(N-1)");
  ok &= gate.check(sim_bw <= alg1 * (1 + 1e-12),
                   tag + ": sim_bw above Algorithm 1");
  ok &= gate.check(alg1 <= rate_bound * (1 + 1e-12),
                   tag + ": Algorithm 1 above the rate upper bound");
  if (!ok) ++out.failed;

  out.elements += m;
  out.cycles += r.sim.cycles;
  out.span_cycles += r.sim.cycles;
  out.fabric_flits += flits;
  ++out.ops;
  out.op_latency.push_back(r.sim.cycles);
  out.bw_ratio.push_back(sim_bw / alg1);
  out.layer_counts["simnet.calls"] += 1;
  out.layer_counts["simnet.cycles"] += static_cast<double>(r.sim.cycles);
  out.layer_counts["simnet.flits"] += static_cast<double>(flits);
  out.layer_counts[std::string(layer) + ".flits"] +=
      static_cast<double>(flits);
  out.digest.add(r.sim.cycles);
  out.digest.add(r.sim.link_flits);
  out.digest.add(r.sim.tree_finish_cycle);
  out.digest.add(r.sim.total_elements);
}

// --- bulk_quiet --------------------------------------------------------------

/// q=11, both solutions, one quiet horizon-engine allreduce per plan: the
/// cycle engine's streaming throughput.
class BulkQuiet : public Workload {
 public:
  explicit BulkQuiet(const Options& o)
      : opt_(o), q_(o.tiny ? 5 : 11), config_(quiet_config(o.threads)) {
    // The seed splits a fixed 2 x 100k elements between the two plans, so
    // the pass's work does not drift with it.
    util::Rng rng(o.seed);
    const long long mean = o.tiny ? 1'000 : 100'000;
    const long long m = draw(rng, mean * 95 / 100, mean * 105 / 100);
    sizes_ = {m, 2 * mean - m};
  }

  void setup(SpanLog& spans) override {
    plans_.clear();
    for (auto s : {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      plans_.push_back(build_plan(spans, q_, s, opt_.threads));
    }
    for (const auto& plan : plans_) {  // discarded warm-up
      collectives::run_innetwork_allreduce(plan.topology(), plan.trees(),
                                           opt_.tiny ? 100 : 5'000, config_);
    }
  }

  PassOutput pass(SpanLog& spans, Gate& gate) override {
    PassOutput out;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      gated_allreduce(spans, gate, "simnet.run", plans_[i], sizes_[i],
                      config_, opt_.inject && i == 0, out);
    }
    return out;
  }

 private:
  Options opt_;
  int q_;
  simnet::SimConfig config_;
  std::vector<long long> sizes_;
  std::vector<core::AllreducePlan> plans_;
};

// --- plan_flow_scale ---------------------------------------------------------

/// q in {127, 169}, both solutions: plan builds timed as work, then one
/// flow-tier allreduce per plan.
class PlanFlowScale : public Workload {
 public:
  explicit PlanFlowScale(const Options& o) : opt_(o) {
    qs_ = o.tiny ? std::vector<int>{7, 9} : std::vector<int>{127, 169};
    util::Rng rng(o.seed);
    for (int q : qs_) {
      starters_.push_back(static_cast<int>(draw(rng, 0, q)));
      m_.push_back(o.tiny ? draw(rng, 9'000, 11'000)
                          : draw(rng, 990'000, 1'010'000));
    }
    config_ = quiet_config(o.threads);
    config_.engine = simnet::SimEngine::kFlow;
  }

  void setup(SpanLog& spans) override {
    // Warm the planner and flow-tier code paths on a smaller q whose
    // fields the timed q values do not share.
    for (auto s : {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      const auto plan = build_plan(spans, opt_.tiny ? 5 : 49, s, opt_.threads);
      collectives::run_innetwork_allreduce(plan.topology(), plan.trees(),
                                           m_.front(), config_);
    }
  }

  PassOutput pass(SpanLog& spans, Gate& gate) override {
    PassOutput out;
    for (std::size_t i = 0; i < qs_.size(); ++i) {
      for (auto s :
           {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
        ++out.attempted;
        core::AllreducePlan plan;
        try {
          plan = build_plan(spans, qs_[i], s, opt_.threads, starters_[i]);
        } catch (const std::exception& e) {
          gate.check(false, std::string("plan build threw: ") + e.what());
          ++out.failed;
          continue;
        }
        out.digest.add(static_cast<long long>(plan.num_trees()));
        out.digest.add(plan.aggregate_bandwidth());
        gated_allreduce(spans, gate, "simnet.flow", plan, m_[i], config_,
                        opt_.inject && out.ops == 0, out);
      }
    }
    return out;
  }

 private:
  Options opt_;
  std::vector<int> qs_;
  std::vector<int> starters_;
  std::vector<long long> m_;
  simnet::SimConfig config_;
};

// --- tenant_burst ------------------------------------------------------------

/// The service_throughput bench's 4-tenant, small-message-heavy open-loop
/// mix: 85% of jobs 64-512 elements, 13% 1-4k, 2% ~8k; an eighth kMax;
/// uniform inter-arrival gaps with the requested mean. Unlike the bench,
/// the class shares and the arrival span are exact (classes are dealt,
/// then shuffled by the seed): with a 2% class of 8k jobs, a free draw
/// moves the offered elements by ~6% between seeds, which would swamp the
/// bounds. The large jobs span 8k +/- 256 rather than exactly 8192: they
/// are the top 2% of latencies, so p99 is one of them, and it would
/// otherwise read the same for every seed.
std::vector<service::JobSpec> job_mix(int jobs, int tenants, long long mean_gap,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> cls(static_cast<std::size_t>(jobs), 0);
  const int large = (jobs * 2 + 50) / 100;
  const int medium = (jobs * 13 + 50) / 100;
  for (int i = 0; i < large + medium; ++i) {
    cls[static_cast<std::size_t>(i)] = i < large ? 2 : 1;
  }
  for (std::size_t i = cls.size(); i > 1; --i) {
    const auto j = draw(rng, 0, static_cast<long long>(i) - 1);
    std::swap(cls[i - 1], cls[static_cast<std::size_t>(j)]);
  }
  std::vector<service::JobSpec> out;
  long long t = 0;
  for (int i = 0; i < jobs; ++i) {
    t += 1 + draw(rng, 0, 2 * mean_gap - 1);
    service::JobSpec spec;
    spec.tenant = static_cast<int>(draw(rng, 0, tenants - 1));
    switch (cls[static_cast<std::size_t>(i)]) {
      case 0:
        spec.elements = draw(rng, 64, 512);
        break;
      case 1:
        spec.elements = draw(rng, 1024, 4096);
        break;
      default:
        spec.elements = draw(rng, 8192 - 256, 8192 + 256);
    }
    spec.op = draw(rng, 0, 7) == 0 ? service::ReduceOp::kMax
                                   : service::ReduceOp::kSum;
    spec.priority = static_cast<int>(draw(rng, 0, 2));
    spec.arrival_cycle = t;
    out.push_back(spec);
  }
  // Stretch the seeded gaps so the last arrival lands at jobs * mean_gap:
  // the offered load is then exactly the requested one for every seed.
  const long long span = static_cast<long long>(jobs) * mean_gap;
  for (auto& spec : out) spec.arrival_cycle = spec.arrival_cycle * span / t;
  return out;
}

/// q=11 edge-disjoint plan, batched service over its 6 lanes, open loop at
/// twice the serial mean-job rate.
class TenantBurst : public Workload {
 public:
  explicit TenantBurst(const Options& o) : opt_(o) {}

  void setup(SpanLog& spans) override {
    plan_ = std::make_unique<core::AllreducePlan>(
        build_plan(spans, opt_.tiny ? 5 : 11, core::Solution::kEdgeDisjoint,
                   opt_.threads));
    config_ = service::ServiceConfig{};
    config_.policy = service::SchedulerPolicy::kPartitionedBatched;
    config_.sim = quiet_config(opt_.threads);
    config_.max_queue_jobs = 64;
    // Load 1.0 = one arrival per serial service time of the mix's mean
    // job (~768 elements) on the full tree set, as in service_throughput.
    const auto calib = collectives::run_bucketed_allreduce(
        plan_->topology(), plan_->trees(), {768}, config_.sim,
        collectives::BucketStrategy::kFused);
    const long long mean_gap = std::max(1LL, calib.total_cycles / 2);
    jobs_ = job_mix(opt_.tiny ? 60 : 1000, 4, mean_gap, opt_.seed);
    // Discarded warm-up, the same for every seed: a short burst of 16
    // jobs through a throwaway service.
    service::AllreduceService warm(*plan_, config_);
    for (int i = 0; i < 16; ++i) {
      service::JobSpec spec;
      spec.tenant = i % 4;
      spec.elements = 64 + 32 * i;
      spec.arrival_cycle = i * mean_gap;
      warm.submit(spec);
    }
    warm.drain();
  }

  PassOutput pass(SpanLog& spans, Gate& gate) override {
    PassOutput out;
    std::unique_ptr<service::AllreduceService> svc;
    {
      // The service is stateful (clock, run memo), so every pass starts a
      // fresh one; its construction is charged to submission.
      SpanLog::Scope span(spans, "service.submit");
      svc = std::make_unique<service::AllreduceService>(*plan_, config_);
      for (const auto& spec : jobs_) svc->submit(spec);
    }
    try {
      SpanLog::Scope span(spans, "service.drain");
      svc->drain();
    } catch (const std::exception& e) {
      gate.check(false, std::string("service drain threw: ") + e.what());
      ++out.failed;
    }
    const service::ServiceStats stats = svc->stats();
    const auto& records = svc->records();
    out.attempted = static_cast<long long>(records.size());

    // Job conservation and per-job ordering.
    if (!gate.check(stats.completed + stats.rejected + (opt_.inject ? 1 : 0) ==
                        stats.submitted,
                    "job conservation: completed + rejected != submitted")) {
      ++out.failed;
    }
    if (!gate.check(stats.values_correct, "service run reduced incorrectly")) {
      ++out.failed;
    }
    std::map<std::tuple<int, long long, long long>, long long> batches;
    std::vector<long long> wait;
    for (std::size_t id = 0; id < records.size(); ++id) {
      const service::JobRecord& r = records[id];
      if (r.rejected) {
        ++out.failed;
        continue;
      }
      const bool ordered = r.completed && r.admit_cycle >= 0 &&
                           r.admit_cycle <= r.start_cycle &&
                           r.start_cycle <= r.finish_cycle;
      if (!gate.check(ordered, "job " + std::to_string(id) +
                                   ": admit <= start <= finish violated")) {
        ++out.failed;
        continue;
      }
      out.op_latency.push_back(r.finish_cycle - r.spec.arrival_cycle);
      wait.push_back(r.start_cycle - r.admit_cycle);
      out.elements += r.spec.elements;
      if (r.lane >= 0) {
        batches[{r.lane, r.start_cycle, r.finish_cycle}] += r.spec.elements;
      }
    }
    // Jobs sharing (lane, start, finish) ran as one fused batch; the
    // service memoizes runs by (lane, fused elements).
    std::set<std::pair<int, long long>> distinct;
    for (const auto& [key, elements] : batches) {
      distinct.insert({std::get<0>(key), elements});
    }
    if (!gate.check(static_cast<long long>(batches.size()) == stats.batches,
                    "reconstructed batches " + std::to_string(batches.size()) +
                        " != ServiceStats::batches " +
                        std::to_string(stats.batches))) {
      ++out.failed;
    }

    out.ops = stats.completed;
    out.cycles = stats.makespan_cycles;
    out.span_cycles = stats.makespan_cycles;
    out.fabric_flits = stats.total_flits;
    out.bw_ratio.push_back(static_cast<double>(out.elements) /
                           static_cast<double>(stats.makespan_cycles) /
                           plan_->aggregate_bandwidth());
    auto& c = out.layer_counts;
    c["service.batches"] = stats.batches;
    c["service.distinct_runs"] = static_cast<double>(distinct.size());
    c["service.memo_hit_ratio"] =
        1.0 - static_cast<double>(distinct.size()) /
                  std::max(1.0, static_cast<double>(stats.batches));
    c["service.coalesced_frac"] =
        static_cast<double>(stats.coalesced_jobs) /
        std::max(1.0, static_cast<double>(stats.completed));
    c["service.queue_wait_p50_cycles"] =
        static_cast<double>(percentile(wait, 50));
    c["service.queue_wait_p99_cycles"] =
        static_cast<double>(percentile(wait, 99));
    c["service.utilization"] = stats.utilization;
    c["service.rejected"] = stats.rejected;

    for (const auto& r : records) {
      out.digest.add(static_cast<long long>(r.rejected));
      out.digest.add(static_cast<long long>(r.completed));
      out.digest.add(r.admit_cycle);
      out.digest.add(r.start_cycle);
      out.digest.add(r.finish_cycle);
      out.digest.add(static_cast<long long>(r.lane));
      out.digest.add(static_cast<long long>(r.batch_jobs));
    }
    out.digest.add(stats.total_flits);
    out.digest.add(stats.makespan_cycles);
    return out;
  }

 private:
  Options opt_;
  std::unique_ptr<core::AllreducePlan> plan_;
  service::ServiceConfig config_;
  std::vector<service::JobSpec> jobs_;
};

// --- train_congested ---------------------------------------------------------

/// Scales `values` (>= 0) by integer largest-remainder so they sum to
/// `total`, keeping their seeded shape.
void rescale(std::vector<long long*> values, long long total) {
  long long have = 0;
  for (long long* v : values) have += *v;
  std::vector<std::pair<long long, std::size_t>> rem;
  long long given = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const __int128 scaled = static_cast<__int128>(*values[i]) * total;
    *values[i] = static_cast<long long>(scaled / have);
    rem.push_back({static_cast<long long>(scaled % have), i});
    given += *values[i];
  }
  std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t k = 0; given < total; ++k, ++given) {
    ++*values[rem[k % rem.size()].second];
  }
}

/// q=11 low-depth plan, kSingle adaptive replay with overlap under 50%
/// permutation background traffic and one 2x straggler.
class TrainCongested : public Workload {
 public:
  explicit TrainCongested(const Options& o) : opt_(o) {
    workload::ModelParams params;
    params.layers = o.tiny ? 6 : 24;
    params.iterations = o.tiny ? 2 : 3;
    params.layer_elements = o.tiny ? 300 : 3'000;
    params.forward_cycles = o.tiny ? 300 : 2'500;
    params.seed = o.seed;
    trace_ = workload::synthesize_trace(params);
    // The seed shapes the layers; the totals stay fixed so every seed
    // replays the same gradient volume and compute.
    std::vector<long long*> grads;
    std::vector<long long*> compute;
    for (auto& layer : trace_.layers) {
      grads.push_back(&layer.gradient_elements);
      compute.push_back(&layer.forward_cycles);
    }
    rescale(grads, params.layers * params.layer_elements);
    rescale(compute, params.layers * params.forward_cycles);
    for (auto& layer : trace_.layers) {
      layer.backward_cycles =
          layer.forward_cycles * params.backward_permille / 1000;
    }
  }

  void setup(SpanLog& spans) override {
    plan_ = std::make_unique<core::AllreducePlan>(
        build_plan(spans, opt_.tiny ? 5 : 11, core::Solution::kLowDepth,
                   opt_.threads));
    config_ = workload::ReplayConfig{};
    config_.trace = trace_;
    config_.overlap = true;
    config_.mode = workload::CommMode::kSingle;
    config_.adaptive = true;
    config_.sim = quiet_config(opt_.threads);
    config_.sim.background.pattern = simnet::TrafficPattern::kPermutation;
    config_.sim.background.load = 0.5;
    // The background permutation is part of the workload, not of its
    // inputs: every seed contends with the same hot links. Permutation 3
    // is the first under which the controller re-plans trees (9 of 11),
    // so the replan path runs too.
    config_.sim.background.seed = 3;
    config_.skew.straggler_nodes = 1;
    config_.skew.straggler_permille = 2000;
    config_.skew.seed = opt_.seed;
    // Discarded warm-up, the same for every seed: one iteration of a
    // two-layer model.
    workload::ReplayConfig warm = config_;
    const long long elements = opt_.tiny ? 300 : 3'000;
    warm.trace.layers.assign(2, {1'000, 2'000, elements});
    warm.trace.iterations = 1;
    workload::replay_training(*plan_, warm);
  }

  PassOutput pass(SpanLog& spans, Gate& gate) override {
    PassOutput out;
    out.attempted = 1;
    workload::ReplayResult r;
    try {
      SpanLog::Scope span(spans, "workload.replay");
      r = workload::replay_training(*plan_, config_);
    } catch (const std::exception& e) {
      gate.check(false, std::string("replay threw: ") + e.what());
      out.failed = 1;
      return out;
    }
    bool ok = gate.check(r.values_correct, "replay reduced incorrectly");
    const long long epoch =
        opt_.inject ? r.compute_cycles - 1 : r.time_to_epoch;
    ok &= gate.check(epoch >= r.compute_cycles,
                     "time_to_epoch below compute_cycles");
    ok &= gate.check(r.probe_cycles > 0, "adaptive replay ran no probe");
    long long prev_finish = 0;
    for (const auto& it : r.iterations) {
      ok &= gate.check(
          it.start == prev_finish && it.start <= it.compute_done &&
              it.finish == std::max(it.compute_done, it.comm_done) &&
              it.exposed_comm_cycles == it.finish - it.compute_done,
          "iteration record inconsistent");
      prev_finish = it.finish;
      out.op_latency.push_back(it.finish - it.start);
      out.digest.add(it.start);
      out.digest.add(it.compute_done);
      out.digest.add(it.comm_done);
      out.digest.add(it.finish);
      out.digest.add(it.comm_wall_cycles);
      out.digest.add(it.comm_busy_cycles);
    }
    ok &= gate.check(r.time_to_epoch == prev_finish,
                     "time_to_epoch != last iteration finish");
    if (!ok) out.failed = 1;
    probe_cycles_ = r.probe_cycles;

    std::set<long long> sizes;
    long long per_iter = 0;
    for (const auto& b : r.buckets) {
      sizes.insert(b.elements);
      per_iter += b.elements;
      out.digest.add(b.elements);
    }
    const auto iters = static_cast<long long>(r.iterations.size());
    out.elements = per_iter * iters;
    out.cycles = r.comm_busy_cycles;
    out.span_cycles = r.time_to_epoch;
    out.fabric_flits = r.total_flits;
    out.ops = iters;
    out.bw_ratio.push_back(static_cast<double>(out.elements) /
                           static_cast<double>(r.comm_busy_cycles) /
                           plan_->aggregate_bandwidth());
    out.digest.add(r.time_to_epoch);
    out.digest.add(r.total_flits);
    out.digest.add(r.probe_cycles);
    auto& c = out.layer_counts;
    c["workload.buckets"] =
        static_cast<double>(r.buckets.size()) * static_cast<double>(iters);
    c["workload.distinct_bucket_sizes"] = static_cast<double>(sizes.size());
    c["workload.comm_busy_cycles"] = static_cast<double>(r.comm_busy_cycles);
    c["workload.comm_wall_cycles"] = static_cast<double>(r.comm_wall_cycles);
    c["workload.exposed_comm_cycles"] =
        static_cast<double>(r.exposed_comm_cycles);
    c["workload.overlap_efficiency"] = r.overlap_efficiency;
    return out;
  }

  /// The replay's adaptive probe, re-run standalone on the same fabric and
  /// config so the adapt layer gets its own spans; its cycles must match
  /// ReplayResult::probe_cycles exactly.
  void traced_extras(SpanLog& spans, Gate& gate, PassOutput& out) override {
    simnet::SimConfig probe_config = config_.sim;
    probe_config.shard_threads = 1;
    collectives::InNetworkResult probe;
    {
      SpanLog::Scope span(spans, "adapt.probe");
      probe = collectives::run_innetwork_allreduce(
          plan_->topology(), plan_->trees(), config_.adapt_ctrl.probe_elements,
          probe_config);
    }
    adapt::AdaptedPlan adapted;
    {
      SpanLog::Scope span(spans, "adapt.plan");
      const auto congestion = adapt::CongestionMap::from_sim_result(
          plan_->topology(), probe.sim, config_.sim.link_bandwidth);
      adapted = adapt::adapt_plan(plan_->topology(), plan_->trees(),
                                  congestion, config_.adapt_ctrl);
    }
    gate.check(probe.sim.values_correct, "adapt probe reduced incorrectly");
    gate.check(probe.sim.cycles == probe_cycles_,
               "standalone probe cycles " + std::to_string(probe.sim.cycles) +
                   " != ReplayResult::probe_cycles " +
                   std::to_string(probe_cycles_));
    auto& c = out.layer_counts;
    c["adapt.probe_cycles"] = static_cast<double>(probe.sim.cycles);
    c["adapt.hot_links"] = static_cast<double>(adapted.hot_links.size());
    c["adapt.replanned_trees"] = static_cast<double>(adapted.replanned.size());
  }

 private:
  Options opt_;
  workload::TrainingTrace trace_;
  std::unique_ptr<core::AllreducePlan> plan_;
  workload::ReplayConfig config_;
  long long probe_cycles_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "bulk_quiet") {
    return std::make_unique<BulkQuiet>(options);
  }
  if (options.workload == "tenant_burst") {
    return std::make_unique<TenantBurst>(options);
  }
  if (options.workload == "train_congested") {
    return std::make_unique<TrainCongested>(options);
  }
  if (options.workload == "plan_flow_scale") {
    return std::make_unique<PlanFlowScale>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace pfar::perfbench
