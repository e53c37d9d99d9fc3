#pragma once

#include <map>
#include <optional>
#include <vector>

#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"

namespace pfar::collectives {

/// Bucketed-gradient execution strategies. Deep-learning frameworks issue
/// gradients as a sequence of fused buckets; how the buckets map onto the
/// in-network trees changes the pipeline behaviour:
///  * kSerialized: one full Allreduce per bucket, back to back. Each
///    bucket pays the full pipeline fill/drain of the tree set.
///  * kFused: concatenate all buckets into one stream per tree — the
///    hardware pipeline never drains between buckets, so fills are paid
///    once. (Results become available only at the end; frameworks trade
///    this against reaction latency.)
enum class BucketStrategy {
  kSerialized,
  kFused,
};

struct BucketScheduleResult {
  long long total_cycles = 0;
  bool correct = true;
  /// Per-bucket completion cycle (cumulative). For kFused there is a
  /// single entry: everything lands together.
  std::vector<long long> bucket_finish;
  /// Flits moved across all directed links over all runs (payload +
  /// headers) — the fabric work the schedule cost.
  long long total_flits = 0;
};

/// Executes a sequence of gradient-bucket Allreduces over one tree set and
/// reports the end-to-end cycle count under the chosen strategy.
///
/// Zero-length buckets are legal and free: they consume no fabric time or
/// flits (their finish cycle is wherever the schedule already stands), and
/// a bucket list that is entirely zero completes at cycle 0. The bucket
/// count is independent of the tree count — buckets are a time-axis
/// partition of the stream, not a tree-axis one, so more buckets than
/// trees is the common case for DL gradient schedules.
BucketScheduleResult run_bucketed_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const std::vector<long long>& bucket_sizes, const simnet::SimConfig& config,
    BucketStrategy strategy);

/// What one m-element in-network Allreduce costs on a tree set.
struct RunCost {
  long long cycles = 0;
  /// Flits moved across all directed links (payload + headers); under a
  /// fault script, those of the resilient driver's final attempt.
  long long flits = 0;
  /// Elements the resilient driver replayed (fault scripts only).
  long long replayed = 0;
  bool correct = true;
};

/// The run-cost oracle of the service lanes and the training replay: the
/// cost of an m-element Allreduce on one tree set, memoized by m (runs are
/// pure functions of topology, trees, split and config). m = 0 costs
/// nothing; under a fault script the run goes through
/// run_resilient_allreduce, which re-splits every attempt by its own
/// quiet Algorithm 1; otherwise m is split by Theorem 5.1 over
/// `bandwidths` and simulated. Inner runs never carry the caller's
/// recorder. `topology` must outlive the cache.
class CostCache {
 public:
  /// `bandwidths` defaults to the quiet-network Algorithm 1 of `trees`,
  /// the split run_innetwork_allreduce uses.
  CostCache(const graph::Graph& topology,
            std::vector<trees::SpanningTree> trees, simnet::SimConfig config,
            ResilienceConfig resilience = {},
            std::optional<model::TreeBandwidths> bandwidths = std::nullopt);

  RunCost cost(long long m);

 private:
  const graph::Graph* topology_;
  std::vector<trees::SpanningTree> trees_;
  model::TreeBandwidths bandwidths_;
  simnet::SimConfig config_;
  ResilienceConfig resilience_;
  std::map<long long, RunCost> memo_;
};

}  // namespace pfar::collectives
