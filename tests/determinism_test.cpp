// Determinism guarantees of the performance machinery added for the sweep
// engine:
//
//  * core::SweepRunner produces identical result vectors no matter how
//    many worker threads execute the sweep (per-task seeding, order-stable
//    collection);
//  * the fast-forward simulator engine reproduces the reference engine's
//    SimResult exactly — cycles, per-link flit counts, tree finish/first-
//    delivery cycles, occupancy maxima, correctness — across all three
//    collective modes and the stressful corners of the config space;
//  * both engines still match golden values captured from the original
//    cycle-by-cycle implementation, pinning the whole lineage.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "graph/graph.hpp"
#include "sim_result_eq.hpp"
#include "simnet/allreduce_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfar;

// --- SweepRunner ----------------------------------------------------------

std::vector<std::uint64_t> run_sweep(int threads) {
  core::SweepRunner runner(threads, /*base_seed=*/42);
  return runner.map<std::uint64_t>(24, [](const core::SweepTask& task) {
    // Mix the task seed through a private RNG: any dependence on thread
    // identity or completion order would desynchronize the streams.
    util::Rng rng(task.seed);
    std::uint64_t acc = static_cast<std::uint64_t>(task.index);
    for (int i = 0; i < 1000; ++i) acc = acc * 31 + rng.next();
    return acc;
  });
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults) {
  const auto serial = run_sweep(1);
  ASSERT_EQ(serial.size(), 24u);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run_sweep(threads), serial) << "threads=" << threads;
  }
}

TEST(SweepRunner, TaskSeedsAreDistinctAndIndexDerived) {
  const std::uint64_t a0 = core::SweepRunner::task_seed(7, 0);
  const std::uint64_t a1 = core::SweepRunner::task_seed(7, 1);
  const std::uint64_t b0 = core::SweepRunner::task_seed(8, 0);
  EXPECT_NE(a0, a1);
  EXPECT_NE(a0, b0);
  // Pure function of (base_seed, index).
  EXPECT_EQ(a0, core::SweepRunner::task_seed(7, 0));
}

TEST(SweepRunner, PropagatesFirstTaskException) {
  core::SweepRunner runner(4);
  EXPECT_THROW(
      runner.for_each(16,
                      [](const core::SweepTask& task) {
                        if (task.index == 11) {
                          throw std::runtime_error("task 11 failed");
                        }
                      }),
      std::runtime_error);
}

// --- Fast-forward engine vs reference engine ------------------------------

simnet::SimResult run_engine(int q, core::Solution sol,
                             simnet::SimConfig cfg, long long m,
                             simnet::SimEngine engine) {
  cfg.engine = engine;
  const auto plan = core::AllreducePlanner(q).solution(sol).build();
  auto embeddings = collectives::to_embeddings(plan.trees());
  simnet::AllreduceSimulator sim(plan.topology(), embeddings, cfg);
  return sim.run(plan.split(m));
}

// The engines differ only in data layout and scheduling, so the fast
// engine must reproduce the reference engine on every SimResult field.
void expect_identical(int q, core::Solution sol, const simnet::SimConfig& cfg,
                      long long m) {
  test_support::expect_same_sim_result(
      run_engine(q, sol, cfg, m, simnet::SimEngine::kFastForward),
      run_engine(q, sol, cfg, m, simnet::SimEngine::kReference),
      "q=" + std::to_string(q));
}

TEST(FastForwardEngine, MatchesReferenceAcrossCollectiveModes) {
  for (const auto mode :
       {simnet::Collective::kAllreduce, simnet::Collective::kReduce,
        simnet::Collective::kBroadcast}) {
    for (const int payload : {1, 4}) {
      simnet::SimConfig cfg;
      cfg.collective = mode;
      cfg.packet_payload = payload;
      cfg.packet_header_flits = payload == 1 ? 0 : 1;
      expect_identical(3, core::Solution::kLowDepth, cfg, 600);
      expect_identical(3, core::Solution::kEdgeDisjoint, cfg, 600);
      expect_identical(5, core::Solution::kSingleTree, cfg, 600);
    }
  }
}

TEST(FastForwardEngine, MatchesReferenceInStressCorners) {
  {
    simnet::SimConfig cfg;  // tight credits, long latency: stall-heavy
    cfg.vc_credits = 2;
    cfg.link_latency = 8;
    expect_identical(5, core::Solution::kLowDepth, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // wide links, zero latency
    cfg.link_bandwidth = 2;
    cfg.vc_credits = 32;
    cfg.link_latency = 0;
    expect_identical(5, core::Solution::kEdgeDisjoint, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // fork-buffer pressure + framing
    cfg.fork_buffer = 1;
    cfg.packet_payload = 8;
    cfg.packet_header_flits = 2;
    expect_identical(7, core::Solution::kLowDepth, cfg, 800);
  }
}

// Credit and fork-buffer budgets far beyond what a run can buffer: the
// horizon engine caps each ring at the tree's packet count, so it neither
// allocates by the budget nor differs from the reference.
TEST(FastForwardEngine, HugeCreditAndForkBudgetsMatchReference) {
  for (const bool huge_credits : {true, false}) {
    simnet::SimConfig cfg;
    if (huge_credits) cfg.vc_credits = 1 << 30;
    cfg.fork_buffer = 1 << 30;
    expect_identical(3, core::Solution::kLowDepth, cfg, 100);
  }
}

// Pending events form a FIFO of per-cycle buckets, so neither memory nor
// the idle jump's search grows with the link latency: at 10^8 cycles per
// hop the run is a few hundred steps and idle jumps.
TEST(FastForwardEngine, HugeLinkLatencyMatchesReference) {
  for (const int latency : {1000, 20000}) {
    simnet::SimConfig cfg;
    cfg.link_latency = latency;
    cfg.stall_limit = 100LL * latency + 100000;
    expect_identical(3, core::Solution::kLowDepth, cfg, 64);
  }
  simnet::SimConfig cfg;
  cfg.link_latency = 100'000'000;
  cfg.stall_limit = 100LL * cfg.link_latency + 100000;
  cfg.max_cycles = 1'000'000'000;
  const auto r = run_engine(3, core::Solution::kLowDepth, cfg, 64,
                            simnet::SimEngine::kFastForward);
  EXPECT_EQ(r.cycles, 800000012);
  EXPECT_TRUE(r.values_correct);
  EXPECT_LT(r.stepped_cycles, 1000);
}

// --- Seeded engine-differential fuzzer -------------------------------------

// A run's result, or the message of the exception it threw.
struct Outcome {
  simnet::SimResult result;
  std::string error;
};

Outcome run_outcome(const core::AllreducePlan& plan, simnet::SimConfig cfg,
                    long long m, simnet::SimEngine engine, int shards) {
  cfg.engine = engine;
  cfg.shard_threads = shards;
  Outcome out;
  try {
    simnet::AllreduceSimulator sim(
        plan.topology(), collectives::to_embeddings(plan.trees()), cfg);
    out.result = sim.run(plan.split(m));
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// A random link of a random tree of the plan, so a fault on it always
// cuts some tree's datapath.
graph::Edge random_tree_link(const core::AllreducePlan& plan, util::Rng& rng) {
  const auto& trees = plan.trees();
  const auto& parents =
      trees[static_cast<std::size_t>(rng.next_below(trees.size()))].parents();
  for (;;) {
    const std::size_t v = static_cast<std::size_t>(rng.next_below(parents.size()));
    if (parents[v] >= 0) return graph::Edge(static_cast<int>(v), parents[v]);
  }
}

// Random configs over every knob the cycle engines read, with link blips
// whose up event lands while the down instant's packets and credits would
// still be on the wire (1..latency+1 cycles later), and optionally a flaky
// link under a progress timeout. The horizon engine must reproduce the
// reference on every SimResult field (or throw the same message), and a
// sharded horizon run must reproduce the serial one. The exception text of
// a sharded run may name its group's own clock, so there only the fact of
// the throw is compared.
TEST(EngineDifferentialFuzz, RandomConfigsAndLinkBlips) {
  std::vector<core::AllreducePlan> plans;
  for (const int q : {3, 4, 5}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      plans.push_back(core::AllreducePlanner(q).solution(sol).build());
    }
  }
  const simnet::Collective modes[] = {simnet::Collective::kAllreduce,
                                      simnet::Collective::kReduce,
                                      simnet::Collective::kBroadcast};
  util::Rng rng(20261017);
  for (int iter = 0; iter < 480; ++iter) {
    const auto& plan = plans[static_cast<std::size_t>(rng.next_below(plans.size()))];
    simnet::SimConfig cfg;
    cfg.link_latency = static_cast<int>(rng.next_below(9));
    cfg.link_bandwidth = 1 + static_cast<int>(rng.next_below(3));
    cfg.vc_credits = 1 + static_cast<int>(rng.next_below(24));
    cfg.fork_buffer = 1 + static_cast<int>(rng.next_below(4));
    cfg.packet_payload = 1 + static_cast<int>(rng.next_below(4));
    cfg.packet_header_flits = static_cast<int>(rng.next_below(2));
    cfg.collective = modes[rng.next_below(3)];
    cfg.stall_limit = 1500;
    const long long m = 20 + static_cast<long long>(rng.next_below(300));
    const int blips = static_cast<int>(rng.next_below(3));
    for (int b = 0; b < blips; ++b) {
      const graph::Edge e = random_tree_link(plan, rng);
      const long long down = static_cast<long long>(rng.next_below(300));
      const long long up =
          down + 1 +
          static_cast<long long>(rng.next_below(
              static_cast<std::uint64_t>(cfg.link_latency) + 1));
      cfg.faults.events.push_back(
          {down, e.u, e.v, simnet::FaultType::kLinkDown});
      cfg.faults.events.push_back({up, e.u, e.v, simnet::FaultType::kLinkUp});
    }
    if (rng.next_below(4) == 0) {
      const graph::Edge e = random_tree_link(plan, rng);
      cfg.faults.flaky_links.emplace_back(e.u, e.v);
      cfg.faults.flaky_seed = rng.next();
      cfg.faults.flaky_drop_permille = 20 + static_cast<int>(rng.next_below(200));
    }
    if (!cfg.faults.flaky_links.empty() || rng.next_below(2) == 0) {
      cfg.progress_timeout = 100 + static_cast<long long>(rng.next_below(400));
    }
    const std::string label = "iter " + std::to_string(iter);

    const Outcome fast =
        run_outcome(plan, cfg, m, simnet::SimEngine::kFastForward, 1);
    const Outcome ref =
        run_outcome(plan, cfg, m, simnet::SimEngine::kReference, 1);
    EXPECT_EQ(fast.error, ref.error) << label;
    if (fast.error.empty() && ref.error.empty()) {
      test_support::expect_same_sim_result(fast.result, ref.result, label);
    }
    const Outcome sharded =
        run_outcome(plan, cfg, m, simnet::SimEngine::kFastForward, 4);
    EXPECT_EQ(sharded.error.empty(), fast.error.empty()) << label;
    if (fast.error.empty() && sharded.error.empty()) {
      test_support::expect_same_sim_result(sharded.result, fast.result,
                                           label + " sharded");
    }
  }
}

// --- Background traffic (docs/congestion_adaptation.md) -------------------

// A BackgroundTraffic block with load == 0 must be a true no-op: the run is
// bit-identical to one whose config never mentioned background traffic at
// all, on both cycle engines and at every shard count. This is the
// differential that lets the quiet goldens above keep pinning the lineage.
TEST(BackgroundTraffic, ZeroLoadIsBitIdenticalToQuiet) {
  for (const auto engine :
       {simnet::SimEngine::kFastForward, simnet::SimEngine::kReference}) {
    for (const int shards : {1, 2, 4}) {
      simnet::SimConfig quiet;
      quiet.shard_threads = shards;
      simnet::SimConfig zero = quiet;
      zero.background.pattern = simnet::TrafficPattern::kPermutation;
      zero.background.load = 0.0;  // configured but inactive
      zero.background.seed = 99;
      const auto a =
          run_engine(5, core::Solution::kLowDepth, quiet, 800, engine);
      const auto b =
          run_engine(5, core::Solution::kLowDepth, zero, 800, engine);
      test_support::expect_same_sim_result(a, b, "zero load");
      EXPECT_EQ(b.background_flits, 0);
      EXPECT_EQ(b.background_packets, 0);
      for (long long f : b.link_bg_flits) EXPECT_EQ(f, 0);
    }
  }
}

// Under live background traffic the fast-forward engine must still replay
// the reference engine exactly — the background drains are integer-rational
// (ppm accumulators) and the idle-jump wake points account for them.
TEST(BackgroundTraffic, FastMatchesReferenceAcrossPatternsAndLoads) {
  for (const auto pattern :
       {simnet::TrafficPattern::kUniform, simnet::TrafficPattern::kPermutation,
        simnet::TrafficPattern::kHotspot}) {
    for (const double load : {0.1, 0.25, 0.5}) {
      simnet::SimConfig cfg;
      cfg.background.pattern = pattern;
      cfg.background.load = load;
      cfg.background.seed = 7;
      cfg.background.hotspot_fraction = 0.25;
      expect_identical(5, core::Solution::kLowDepth, cfg, 600);
      expect_identical(5, core::Solution::kEdgeDisjoint, cfg, 600);
    }
  }
}

// Background traffic composes with the stressful config corners the quiet
// differential matrix covers.
TEST(BackgroundTraffic, FastMatchesReferenceInStressCorners) {
  {
    simnet::SimConfig cfg;  // tight credits + long latency + hotspot bg
    cfg.vc_credits = 2;
    cfg.link_latency = 8;
    cfg.background.pattern = simnet::TrafficPattern::kHotspot;
    cfg.background.load = 0.4;
    expect_identical(5, core::Solution::kLowDepth, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // wide links + permutation bg + framing
    cfg.link_bandwidth = 2;
    cfg.packet_payload = 4;
    cfg.packet_header_flits = 1;
    cfg.background.pattern = simnet::TrafficPattern::kPermutation;
    cfg.background.load = 0.5;
    cfg.background.seed = 3;
    expect_identical(7, core::Solution::kEdgeDisjoint, cfg, 800);
  }
}

// The sharded fast path under background load must reproduce the serial
// run bit-for-bit: the telescoping closed form makes per-shard background
// accounting independent of where the cycle range is cut.
TEST(BackgroundTraffic, ShardedMatchesSerial) {
  simnet::SimConfig serial;
  serial.background.pattern = simnet::TrafficPattern::kPermutation;
  serial.background.load = 0.3;
  serial.background.seed = 7;
  const auto base = run_engine(7, core::Solution::kLowDepth, serial, 2000,
                               simnet::SimEngine::kFastForward);
  EXPECT_GT(base.background_flits, 0);
  for (const int shards : {2, 3, 8}) {
    simnet::SimConfig cfg = serial;
    cfg.shard_threads = shards;
    const auto sharded = run_engine(7, core::Solution::kLowDepth, cfg, 2000,
                                    simnet::SimEngine::kFastForward);
    test_support::expect_same_sim_result(
        base, sharded, "shards=" + std::to_string(shards));
  }
}

// --- Golden values from the original implementation -----------------------

std::uint64_t fnv(const std::vector<long long>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (long long x : v) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Golden {
  const char* name;
  int q;
  core::Solution sol;
  simnet::Collective mode;
  int payload;
  int header;
  long long m;
  // Expected values captured from the pre-fast-forward implementation.
  long long cycles;
  int occupancy;
  std::uint64_t link_flits_hash;
  std::uint64_t finish_hash;
  std::uint64_t first_hash;
};

TEST(FastForwardEngine, MatchesGoldenValuesFromSeedImplementation) {
  const Golden goldens[] = {
      {"q3_ld_allreduce", 3, core::Solution::kLowDepth,
       simnet::Collective::kAllreduce, 1, 0, 600, 416, 9,
       16968771372679624195ULL, 9110279880017709470ULL,
       1228718878961412657ULL},
      {"q3_ed_allreduce", 3, core::Solution::kEdgeDisjoint,
       simnet::Collective::kAllreduce, 1, 0, 600, 348, 1,
       2242625126560894851ULL, 10962671891925027081ULL,
       11149429439497907611ULL},
      {"q5_st_allreduce_p4", 5, core::Solution::kSingleTree,
       simnet::Collective::kAllreduce, 4, 1, 600, 762, 1,
       13528660941121534451ULL, 4952590511094989390ULL,
       4953172152746313009ULL},
      {"q3_ld_reduce", 3, core::Solution::kLowDepth,
       simnet::Collective::kReduce, 1, 0, 600, 212, 9,
       12359465448692625459ULL, 17061978783806592578ULL,
       1228718878961412657ULL},
      {"q3_ld_broadcast", 3, core::Solution::kLowDepth,
       simnet::Collective::kBroadcast, 1, 0, 600, 212, 1,
       6138104403299626419ULL, 17061978783806592578ULL,
       12196949897413546625ULL},
  };
  for (const auto& g : goldens) {
    simnet::SimConfig cfg;
    cfg.collective = g.mode;
    cfg.packet_payload = g.payload;
    cfg.packet_header_flits = g.header;
    for (const auto engine :
         {simnet::SimEngine::kFastForward, simnet::SimEngine::kReference}) {
      const auto r = run_engine(g.q, g.sol, cfg, g.m, engine);
      EXPECT_EQ(r.cycles, g.cycles) << g.name;
      EXPECT_TRUE(r.values_correct) << g.name;
      EXPECT_EQ(r.max_vc_occupancy, g.occupancy) << g.name;
      EXPECT_EQ(fnv(r.link_flits), g.link_flits_hash) << g.name;
      EXPECT_EQ(fnv(r.tree_finish_cycle), g.finish_hash) << g.name;
      EXPECT_EQ(fnv(r.tree_first_delivery), g.first_hash) << g.name;
    }
  }
}

// --- Simulator sweeps under the runner (thread-safety of simulate()) ------

TEST(SweepRunner, ParallelSimulationsMatchSerial) {
  const auto plan = core::AllreducePlanner(3).build();
  const auto run_with = [&](int threads) {
    core::SweepRunner runner(threads);
    return runner.map<long long>(6, [&](const core::SweepTask& task) {
      simnet::SimConfig cfg;
      cfg.packet_payload = 1 + task.index % 3;
      cfg.vc_credits = 4 + 4 * (task.index / 3);
      const auto res = plan.simulate(400, cfg);
      EXPECT_TRUE(res.sim.values_correct);
      return res.sim.cycles;
    });
  };
  EXPECT_EQ(run_with(4), run_with(1));
}

}  // namespace
