// The horizon engine's periodic steady-state jump
// (docs/simulation_engine.md, "Periodic steady-state jump"). The other
// differential suites use a few hundred elements, so their runs barely
// leave pipeline fill. Every run here is long enough for the jump to fire,
// and every case asserts that it did (or, on a flaky link, that it did
// not), so no case can pass vacuously. Each run is compared against the
// reference engine, which never jumps, and against a four-shard run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "obsv/recorder.hpp"
#include "sim_result_eq.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

simnet::SimResult run_engine(const core::AllreducePlan& plan,
                             simnet::SimConfig cfg, long long m,
                             simnet::SimEngine engine, int shards = 1) {
  cfg.engine = engine;
  cfg.shard_threads = shards;
  simnet::AllreduceSimulator sim(
      plan.topology(), collectives::to_embeddings(plan.trees()), cfg);
  return sim.run(plan.split(m));
}

// Horizon against reference, and four shards against one. Returns the
// serial horizon run.
simnet::SimResult expect_engines_agree(const core::AllreducePlan& plan,
                                       const simnet::SimConfig& cfg,
                                       long long m, const std::string& label) {
  const auto fast =
      run_engine(plan, cfg, m, simnet::SimEngine::kFastForward);
  test_support::expect_same_sim_result(
      fast, run_engine(plan, cfg, m, simnet::SimEngine::kReference), label);
  test_support::expect_same_sim_result(
      run_engine(plan, cfg, m, simnet::SimEngine::kFastForward, 4), fast,
      label + " sharded");
  EXPECT_TRUE(fast.values_correct) << label;
  EXPECT_EQ(fast.stepped_cycles + fast.idle_skipped_cycles +
                fast.periodic_cycles,
            fast.cycles)
      << label;
  return fast;
}

std::vector<core::AllreducePlan> plans() {
  std::vector<core::AllreducePlan> out;
  for (const int q : {5, 7}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      out.push_back(core::AllreducePlanner(q).solution(sol).build());
    }
  }
  return out;
}

std::string name_of(const core::AllreducePlan& plan) {
  return "q=" + std::to_string(plan.q()) + " " +
         core::to_string(plan.solution());
}

// A link of tree 0, so a fault on it cuts a live datapath.
graph::Edge tree_link(const core::AllreducePlan& plan) {
  const auto& parents = plan.trees()[0].parents();
  for (std::size_t v = 0; v < parents.size(); ++v) {
    if (parents[v] >= 0) return graph::Edge(static_cast<int>(v), parents[v]);
  }
  return graph::Edge(0, 0);
}

TEST(PeriodicJump, LongRunsMatchReferenceAcrossModesAndFraming) {
  const simnet::Collective modes[] = {simnet::Collective::kAllreduce,
                                      simnet::Collective::kReduce,
                                      simnet::Collective::kBroadcast};
  for (const auto& plan : plans()) {
    for (const auto mode : modes) {
      for (const int payload : {1, 4}) {
        simnet::SimConfig cfg;
        cfg.collective = mode;
        cfg.packet_payload = payload;
        cfg.packet_header_flits = payload == 1 ? 0 : 1;
        const long long m = 4001;
        if (payload > 1) {
          // Some tree ends on a partial packet, so the jump's stream bound
          // is tested where the last packet is short.
          bool partial = false;
          for (const long long e : plan.split(m)) partial |= e % payload != 0;
          ASSERT_TRUE(partial) << name_of(plan);
        }
        const std::string label = name_of(plan) + " mode " +
                                  std::to_string(static_cast<int>(mode)) +
                                  " payload " + std::to_string(payload);
        const auto r = expect_engines_agree(plan, cfg, m, label);
        EXPECT_GT(r.periodic_cycles, 0) << label;
      }
    }
  }
}

// Under 50% permutation load every link's drains repeat within 8 cycles.
// The low-depth plans and q=5's Hamiltonian trees then settle into a short
// joint period; q=7's Hamiltonian trees never repeat within kMaxPeriod
// steps (like q=11's in the benchmark), so that plan checks agreement only.
TEST(PeriodicJump, HalfLoadPermutationBackground) {
  for (const auto& plan : plans()) {
    simnet::SimConfig cfg;
    cfg.background.pattern = simnet::TrafficPattern::kPermutation;
    cfg.background.load = 0.5;
    cfg.background.seed = 7;
    const std::string label = name_of(plan) + " background";
    const auto r = expect_engines_agree(plan, cfg, 4001, label);
    EXPECT_GT(r.background_flits, 0) << label;
    if (plan.q() == 5 || plan.solution() == core::Solution::kLowDepth) {
      EXPECT_GT(r.periodic_cycles, 0) << label;
    }
  }
}

// A tree link goes down in the steady state and comes back: the jump must
// stop at the down event, the hit tree is canceled by the progress timeout,
// and the survivors settle into a new period that is jumped again.
TEST(PeriodicJump, LinkDownAndUpInsideTheSteadyState) {
  for (const auto& plan : plans()) {
    simnet::SimConfig cfg;
    cfg.progress_timeout = 300;
    const graph::Edge e = tree_link(plan);
    cfg.faults.events.push_back({600, e.u, e.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back({900, e.u, e.v, simnet::FaultType::kLinkUp});
    const std::string label = name_of(plan) + " down/up";
    const auto r = expect_engines_agree(plan, cfg, 6001, label);
    EXPECT_GT(r.dropped_packets, 0) << label;
    EXPECT_EQ(r.tree_failed[0], 1) << label;
    EXPECT_GE(r.periodic_jumps, 2) << label;
  }
}

TEST(PeriodicJump, ProgressTimeoutArmedOnAHealthyRun) {
  for (const auto& plan : plans()) {
    simnet::SimConfig cfg;
    cfg.progress_timeout = 1000;
    const std::string label = name_of(plan) + " timeout";
    const auto r = expect_engines_agree(plan, cfg, 4001, label);
    for (const char failed : r.tree_failed) EXPECT_EQ(failed, 0) << label;
    EXPECT_GT(r.periodic_cycles, 0) << label;
  }
}

// A flaky link's drop decision hashes a per-link grant ordinal, which is
// not periodic: the engine must not jump at all.
TEST(PeriodicJump, FlakyLinkNeverJumps) {
  for (const auto& plan : plans()) {
    simnet::SimConfig cfg;
    cfg.progress_timeout = 300;
    const graph::Edge e = tree_link(plan);
    cfg.faults.flaky_links = {{e.u, e.v}};
    cfg.faults.flaky_seed = 11;
    cfg.faults.flaky_drop_permille = 5;
    const std::string label = name_of(plan) + " flaky";
    const auto r = expect_engines_agree(plan, cfg, 4001, label);
    EXPECT_EQ(r.periodic_jumps, 0) << label;
  }
}

// The jump's work counters, pinned exactly: a change that stops the jump
// from firing (or makes it cover less) fails here on any machine.
TEST(PeriodicJump, WorkCountersGolden) {
  struct Golden {
    core::Solution sol;
    long long cycles, stepped, idle, jumps, periodic;
  };
  const Golden goldens[] = {
      {core::Solution::kLowDepth, 5728, 68, 0, 1, 5660},
      {core::Solution::kEdgeDisjoint, 5224, 456, 0, 1, 4768},
  };
  for (const auto& g : goldens) {
    const auto plan = core::AllreducePlanner(7).solution(g.sol).build();
    const std::string label = core::to_string(g.sol);
    simnet::SimConfig cfg;
    const auto r =
        run_engine(plan, cfg, 20000, simnet::SimEngine::kFastForward);
    EXPECT_TRUE(r.values_correct) << label;
    EXPECT_EQ(r.cycles, g.cycles) << label;
    EXPECT_EQ(r.stepped_cycles, g.stepped) << label;
    EXPECT_EQ(r.idle_skipped_cycles, g.idle) << label;
    EXPECT_EQ(r.periodic_jumps, g.jumps) << label;
    EXPECT_EQ(r.periodic_cycles, g.periodic) << label;
    // The reference engine steps every cycle.
    const auto ref = run_engine(plan, cfg, 20000, simnet::SimEngine::kReference);
    EXPECT_EQ(ref.stepped_cycles, ref.cycles) << label;
    EXPECT_EQ(ref.idle_skipped_cycles + ref.periodic_cycles, 0) << label;
  }
}

// Attaching a recorder must not change what a jumped run writes: the
// horizon engine replays the confirming period's busy-span updates, so its
// trace and metrics equal the reference engine's. Credit stalls are
// counted per engine (the horizon engine never probes a token-starved
// link), so that one metric is left out.
TEST(PeriodicJump, TraceAndMetricsMatchReference) {
  if (!obsv::kTraceCompiled) {
    GTEST_SKIP() << "instrumentation compiled out (PFAR_TRACE=off)";
  }
  const auto without_stalls = [](const std::string& jsonl) {
    std::istringstream in(jsonl);
    std::string out;
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"sim.credit_stalls\"") == std::string::npos) {
        out += line + "\n";
      }
    }
    return out;
  };
  for (const auto& plan : plans()) {
    std::string trace[2], metrics[2];
    long long jumped = 0;
    for (const int i : {0, 1}) {
      obsv::Recorder rec(1u << 20);
      simnet::SimConfig cfg;
      cfg.recorder = &rec;
      cfg.packet_payload = 4;
      cfg.packet_header_flits = 1;
      const auto r = run_engine(plan, cfg, 4001,
                                i == 0 ? simnet::SimEngine::kFastForward
                                       : simnet::SimEngine::kReference);
      if (i == 0) jumped = r.periodic_cycles;
      std::ostringstream t, m;
      rec.trace.write_chrome_json(t);
      rec.metrics.write_jsonl(m);
      trace[i] = t.str();
      metrics[i] = without_stalls(m.str());
    }
    EXPECT_GT(jumped, 0) << name_of(plan);
    EXPECT_EQ(trace[0], trace[1]) << name_of(plan);
    EXPECT_EQ(metrics[0], metrics[1]) << name_of(plan);
  }
}

}  // namespace
