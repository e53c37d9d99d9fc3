#pragma once

// One every-field SimResult comparison for the engine-differential,
// sharded and fault suites: two runs that must be bit-identical are
// compared on every field AllreduceSimulator::run fills, so a field added
// to one engine's accounting cannot drift unnoticed in another. The one
// exception is the work counters (stepped_cycles, idle_skipped_cycles,
// periodic_jumps, periodic_cycles): they record how an engine covered the
// cycles, not what the run simulated, and legitimately differ between the
// reference and horizon engines and between shard counts.

#include <gtest/gtest.h>

#include <string>

#include "simnet/allreduce_sim.hpp"

namespace pfar::test_support {

inline void expect_same_sim_result(const simnet::SimResult& a,
                                   const simnet::SimResult& b,
                                   const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.tree_finish_cycle, b.tree_finish_cycle) << label;
  EXPECT_EQ(a.tree_first_delivery, b.tree_first_delivery) << label;
  EXPECT_EQ(a.total_elements, b.total_elements) << label;
  EXPECT_EQ(a.aggregate_bandwidth, b.aggregate_bandwidth) << label;
  EXPECT_EQ(a.values_correct, b.values_correct) << label;
  EXPECT_EQ(a.max_vc_occupancy, b.max_vc_occupancy) << label;
  EXPECT_EQ(a.num_vcs, b.num_vcs) << label;
  EXPECT_EQ(a.max_vcs_per_link, b.max_vcs_per_link) << label;
  EXPECT_EQ(a.max_reductions_per_input_port,
            b.max_reductions_per_input_port)
      << label;
  EXPECT_EQ(a.link_flits, b.link_flits) << label;
  EXPECT_EQ(a.link_queue_hwm, b.link_queue_hwm) << label;
  EXPECT_EQ(a.link_bg_flits, b.link_bg_flits) << label;
  EXPECT_EQ(a.background_packets, b.background_packets) << label;
  EXPECT_EQ(a.background_flits, b.background_flits) << label;
  EXPECT_EQ(a.tree_failed, b.tree_failed) << label;
  EXPECT_EQ(a.tree_fail_cycle, b.tree_fail_cycle) << label;
  EXPECT_EQ(a.tree_completed, b.tree_completed) << label;
  EXPECT_EQ(a.dropped_packets, b.dropped_packets) << label;
  EXPECT_EQ(a.dropped_flits, b.dropped_flits) << label;
  EXPECT_EQ(a.link_dropped_flits, b.link_dropped_flits) << label;
  EXPECT_EQ(a.canceled_packets, b.canceled_packets) << label;
  EXPECT_EQ(a.canceled_flits, b.canceled_flits) << label;
  EXPECT_EQ(a.links_down, b.links_down) << label;
}

}  // namespace pfar::test_support
