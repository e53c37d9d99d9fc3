#include "collectives/innetwork.hpp"

#include <queue>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace pfar::collectives {

// pfar-lint: allow(contract-coverage) pure shape-preserving transform; SpanningTree enforces its own invariants
std::vector<simnet::TreeEmbedding> to_embeddings(
    const std::vector<trees::SpanningTree>& trees) {
  std::vector<simnet::TreeEmbedding> out;
  out.reserve(trees.size());
  for (const auto& t : trees) {
    out.push_back(simnet::TreeEmbedding{t.root(), t.parents()});
  }
  return out;
}

trees::SpanningTree bfs_tree(const graph::Graph& g, int root) {
  PFAR_REQUIRE(root >= 0 && root < g.num_vertices(), root, g.num_vertices());
  std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::queue<int> frontier;
  seen[static_cast<std::size_t>(root)] = 1;
  frontier.push(root);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    for (int w : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        parent[static_cast<std::size_t>(w)] = u;
        frontier.push(w);
      }
    }
  }
  return trees::SpanningTree(root, std::move(parent));
}

namespace {

/// The one body behind both entry points: runs Algorithm 1 once, splits by
/// `policy` unless the caller supplied `split`, and simulates.
InNetworkResult run_split(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees, long long m,
    const std::vector<long long>* split, const simnet::SimConfig& config,
    SplitPolicy policy) {
  if (spanning_trees.empty()) {
    throw std::invalid_argument("run_innetwork_allreduce: no trees");
  }
  PFAR_REQUIRE(m >= 0, m);
  InNetworkResult out;
  out.predicted = model::compute_tree_bandwidths(
      topology, spanning_trees, static_cast<double>(config.link_bandwidth));
  if (split != nullptr) {
    out.split = *split;
  } else if (policy == SplitPolicy::kOptimal) {
    out.split = model::optimal_split(m, out.predicted);
  } else {
    out.split = util::apportion(
        m, std::vector<double>(spanning_trees.size(), 1.0));
  }
  for (long long s : out.split) {
    PFAR_REQUIRE(s >= 0, s);
    out.m += s;
  }
  for (const auto& t : spanning_trees) {
    out.max_depth = std::max(out.max_depth, t.depth());
  }

  simnet::AllreduceSimulator sim(topology, to_embeddings(spanning_trees),
                                 config);
  out.sim = sim.run(out.split);
  out.efficiency_vs_model =
      out.sim.aggregate_bandwidth / out.predicted.aggregate;
  return out;
}

}  // namespace

InNetworkResult run_innetwork_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees, long long m,
    const simnet::SimConfig& config, SplitPolicy policy) {
  return run_split(topology, spanning_trees, m, nullptr, config, policy);
}

InNetworkResult run_innetwork_allreduce_split(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees,
    const std::vector<long long>& split, const simnet::SimConfig& config) {
  PFAR_REQUIRE(split.size() == spanning_trees.size(), split.size(),
               spanning_trees.size());
  return run_split(topology, spanning_trees, 0, &split, config,
                   SplitPolicy::kOptimal);
}

}  // namespace pfar::collectives
