#include "collectives/bucket_schedule.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace pfar::collectives {

namespace {

long long sum_flits(const simnet::SimResult& sim) {
  return std::accumulate(sim.link_flits.begin(), sim.link_flits.end(), 0LL);
}

}  // namespace

BucketScheduleResult run_bucketed_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const std::vector<long long>& bucket_sizes,
    const simnet::SimConfig& config, BucketStrategy strategy) {
  if (bucket_sizes.empty()) {
    throw std::invalid_argument("run_bucketed_allreduce: no buckets");
  }
  for (long long m : bucket_sizes) {
    if (m < 0) {
      throw std::invalid_argument("run_bucketed_allreduce: negative bucket");
    }
  }
  // kFused is one run of the concatenated stream.
  const std::vector<long long> runs =
      strategy == BucketStrategy::kFused
          ? std::vector<long long>{std::accumulate(bucket_sizes.begin(),
                                                   bucket_sizes.end(), 0LL)}
          : bucket_sizes;
  BucketScheduleResult out;
  for (long long m : runs) {
    // A zero-length run moves nothing: no run, no cycles, no flits.
    if (m > 0) {
      const auto res = run_innetwork_allreduce(topology, trees, m, config);
      out.total_cycles += res.sim.cycles;
      out.correct = out.correct && res.sim.values_correct;
      out.total_flits += sum_flits(res.sim);
    }
    out.bucket_finish.push_back(out.total_cycles);
  }
  PFAR_ENSURE(out.total_cycles >= 0 && out.total_flits >= 0,
              out.total_cycles, out.total_flits);
  return out;
}

CostCache::CostCache(const graph::Graph& topology,
                     std::vector<trees::SpanningTree> trees,
                     simnet::SimConfig config, ResilienceConfig resilience,
                     std::optional<model::TreeBandwidths> bandwidths)
    : topology_(&topology),
      trees_(std::move(trees)),
      bandwidths_(bandwidths ? std::move(*bandwidths)
                             : model::compute_tree_bandwidths(
                                   topology, trees_,
                                   static_cast<double>(config.link_bandwidth))),
      config_(std::move(config)),
      resilience_(resilience) {
  PFAR_REQUIRE(!trees_.empty());
  PFAR_REQUIRE(bandwidths_.per_tree.size() == trees_.size(),
               bandwidths_.per_tree.size(), trees_.size());
  config_.recorder = nullptr;
}

RunCost CostCache::cost(long long m) {
  PFAR_REQUIRE(m >= 0, m);
  const auto hit = memo_.find(m);
  if (hit != memo_.end()) return hit->second;
  RunCost cost;
  if (m > 0 && !config_.faults.empty()) {
    const RecoveryStats recovery = run_resilient_allreduce(
        *topology_, trees_, m, config_, resilience_);
    cost.cycles = recovery.total_cycles;
    cost.flits = sum_flits(recovery.final_sim);
    cost.replayed = recovery.chunks_replayed;
    cost.correct = recovery.recovered && recovery.values_correct;
  } else if (m > 0) {
    simnet::AllreduceSimulator sim(*topology_, to_embeddings(trees_), config_);
    const simnet::SimResult run =
        sim.run(model::optimal_split(m, bandwidths_));
    cost.cycles = run.cycles;
    cost.flits = sum_flits(run);
    cost.correct = run.values_correct;
  }
  PFAR_ENSURE((cost.cycles > 0) == (m > 0) && cost.flits >= 0, m,
              cost.cycles, cost.flits);
  return memo_.emplace(m, cost).first->second;
}

}  // namespace pfar::collectives
