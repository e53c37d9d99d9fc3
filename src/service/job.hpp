#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/config.hpp"

namespace pfar::service {

/// How the service maps concurrently admitted jobs onto the plan's trees
/// (docs/service_layer.md, "Scheduler policies").
enum class SchedulerPolicy {
  /// One job at a time on the full tree set — the one-shot baseline the
  /// throughput bench compares against.
  kSerial,
  /// The plan's link-disjoint tree groups become independent lanes; each
  /// admitted job runs on one lane, so as many jobs proceed concurrently
  /// as there are lanes (exact: lanes share no physical link).
  kPartitioned,
  /// kPartitioned plus coalescing: when a lane frees, queued jobs of the
  /// same (group, op) fuse into one sub-vector run, paying the tree
  /// pipeline fill once for the whole batch
  /// (collectives::run_bucketed_allreduce, BucketStrategy::kFused).
  kPartitionedBatched,
};

/// Canonical CLI/JSON names: "serial", "partitioned", "batched".
const char* to_string(SchedulerPolicy policy);
/// Parses to_string names; throws std::invalid_argument on anything else.
SchedulerPolicy policy_from_string(const std::string& name);

/// Reduction operator tag. The cycle simulator checks integer sums
/// exactly; the other operators time identically (one streaming ALU op per
/// element) but are tracked because only jobs with the SAME operator may
/// coalesce into one fused run.
enum class ReduceOp {
  kSum,
  kMax,
  kMin,
  kProd,
};

/// One allreduce job submitted to the service.
struct JobSpec {
  /// Owning tenant, the unit of fairness accounting (>= 0).
  int tenant = 0;
  /// Reduction group the job runs over (see AllreduceService::create_group;
  /// group 0 is the implicit all-nodes group).
  int group = 0;
  /// Vector elements to reduce (m). Zero-element jobs complete at
  /// admission without touching the fabric.
  long long elements = 0;
  ReduceOp op = ReduceOp::kSum;
  /// Larger = more urgent. Breaks ties within a tenant's queue only —
  /// fairness across tenants dominates priority, so one tenant cannot
  /// starve another with high-priority floods.
  int priority = 0;
  /// Virtual cycle the job arrives at. Submissions dated before the
  /// service's current clock are admitted at the clock instead.
  long long arrival_cycle = 0;
};

/// Lifecycle record of one submitted job (indexed by the id submit()
/// returned).
struct JobRecord {
  JobSpec spec;
  /// Admission control turned the job away (queue full at arrival).
  bool rejected = false;
  /// Every element delivered (possibly across membership-replay attempts).
  bool completed = false;
  /// Cycle the job was admitted to the queue (== clamped arrival).
  long long admit_cycle = -1;
  /// Cycle its first batch started streaming, -1 if never dispatched.
  long long start_cycle = -1;
  /// Cycle its last element was delivered everywhere, -1 if not completed.
  long long finish_cycle = -1;
  /// Lane of the final (successful) dispatch, -1 if never dispatched.
  int lane = -1;
  /// Jobs fused into the same final run, 1 if it ran alone.
  int batch_jobs = 1;
  /// Elements re-run because a membership change invalidated an in-flight
  /// batch (the resilient-replay semantics of docs/service_layer.md).
  long long replayed_elements = 0;
};

/// Service-wide configuration.
struct ServiceConfig {
  SchedulerPolicy policy = SchedulerPolicy::kPartitionedBatched;
  /// Knobs of the underlying per-run simulations (engine choice, link
  /// model, shard_threads...). SimConfig::recorder here is the SERVICE's
  /// observability sink: the service emits job/batch/queue telemetry on
  /// the service virtual timeline; inner simulator runs always execute
  /// un-instrumented (their private timelines all start at cycle 0 and
  /// would interleave meaninglessly in one trace). Fault scripts are
  /// rejected by contract: lane runs have no recovery.
  simnet::SimConfig sim;
  /// Admission control: jobs arriving while this many are queued are
  /// rejected (records keep the evidence; the bench plots the drop rate
  /// under overload). Dispatched batches no longer count against it.
  int max_queue_jobs = 1024;
  /// Coalescer limits: a fused batch holds at most this many jobs /
  /// total elements.
  int batch_max_jobs = 16;
  long long batch_max_elements = 1'000'000;
  /// Cycles a group's next dispatch is charged after a membership change
  /// (HPX-5-style add/register-leaves replan of the group's logical
  /// schedule).
  long long replan_cycles = 256;
  /// Cycles charged before re-streaming the surviving remainder of a
  /// batch that a leave() invalidated mid-flight — the backoff of the
  /// run_resilient_allreduce replay path.
  long long replay_backoff_cycles = 256;
};

/// Cumulative service statistics, derived from the records at call time.
struct ServiceStats {
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  int completed = 0;
  /// Fused runs issued (a solo job counts as a batch of one).
  int batches = 0;
  /// Jobs that shared a fused run with at least one other job.
  int coalesced_jobs = 0;
  /// Membership-change replans and the elements they forced to re-run.
  int replans = 0;
  long long replayed_elements = 0;
  /// Virtual cycle of the last delivery (0 when nothing completed).
  long long makespan_cycles = 0;
  /// Completed jobs per 1000 virtual cycles.
  double jobs_per_kcycle = 0.0;
  /// Nearest-rank percentiles of completion latency (finish - admit) over
  /// completed jobs; -1 when nothing completed.
  long long p50_cycles = -1;
  long long p99_cycles = -1;
  /// Fabric work: flits moved across all runs, and the fraction of the
  /// fabric's directed-link-cycle capacity they filled up to the makespan.
  long long total_flits = 0;
  double utilization = 0.0;
  /// AND of values_correct over every simulated run.
  bool values_correct = true;
};

}  // namespace pfar::service
