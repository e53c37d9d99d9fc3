#include "simnet/allreduce_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "obsv/recorder.hpp"
#include "simnet/background.hpp"
#include "simnet/flow_sim.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace pfar::simnet {
namespace {

// Deterministic per-operand values so every result is checkable exactly:
// node v's operand for element k of tree t.
constexpr std::int64_t kNodeStride = 1000003;
constexpr std::int64_t kTreeStride = 7919;
constexpr std::int64_t kElemStride = 31;

std::int64_t local_value(int node, int tree, long long k) {
  return static_cast<std::int64_t>(node + 1) * kNodeStride +
         static_cast<std::int64_t>(tree) * kTreeStride +
         static_cast<std::int64_t>(k) * kElemStride;
}

std::int64_t sum_over_nodes(int num_nodes, int tree, long long k) {
  const std::int64_t n = num_nodes;
  return n * (n + 1) / 2 * kNodeStride +
         n * (static_cast<std::int64_t>(tree) * kTreeStride +
              static_cast<std::int64_t>(k) * kElemStride);
}

enum class Phase { kReduce, kBcast };

// A packet: a contiguous chunk of one tree's element stream.
using Packet = std::vector<std::int64_t>;

// ---------------------------------------------------------------------------
// Fault injection. One FaultState instance drives a single run; both
// engines consume it through the same entry points in the same per-cycle
// order, so a given script is honored bit-identically (the differential
// fault tests pin this). See docs/resilience.md for the model.
// ---------------------------------------------------------------------------

// SplitMix64 finalizer: the deterministic hash behind flaky-link drops.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A FaultEvent resolved against the topology: undirected edge id + kind.
struct PreparedFault {
  long long cycle = 0;
  int edge = 0;
  bool down = true;
};

struct FaultState {
  std::vector<PreparedFault> events;  // stable-sorted by cycle
  std::size_t next = 0;
  std::vector<char> edge_down;        // per undirected edge id
  std::vector<char> dlink_flaky;      // per directed link (empty if none)
  std::vector<long long> dlink_sent;  // flaky drop ordinal per directed link
  std::uint64_t seed = 0;
  int drop_permille = 0;
  bool flaky = false;
  bool active = false;  // any events or flaky links configured

  bool edge_ok(int dlink) const {
    return edge_down[static_cast<std::size_t>(dlink >> 1)] == 0;
  }

  /// Deterministic drop decision for a flaky directed link. Must be called
  /// exactly once per packet granted on the link: the per-link ordinal is
  /// part of the hash input, so both engines (which grant identical packet
  /// sequences) reach identical decisions.
  bool drop_now(int dlink) {
    if (!flaky || !dlink_flaky[static_cast<std::size_t>(dlink)]) return false;
    const std::uint64_t ordinal = static_cast<std::uint64_t>(
        dlink_sent[static_cast<std::size_t>(dlink)]++);
    const std::uint64_t h =
        mix64(seed ^ mix64(static_cast<std::uint64_t>(dlink) *
                               0x9e3779b97f4a7c15ULL +
                           ordinal));
    return static_cast<int>(h % 1000) < drop_permille;
  }
};

FaultState prepare_faults(const graph::Graph& topology,
                          const FaultScript& script) {
  const int n = topology.num_vertices();
  const auto resolve = [&](int u, int v) {
    if (u < 0 || u >= n || v < 0 || v >= n || !topology.has_edge(u, v)) {
      throw std::invalid_argument(
          "FaultScript: (" + std::to_string(u) + "," + std::to_string(v) +
          ") is not a link of the topology");
    }
    return topology.edge_id(u, v);
  };
  FaultState fs;
  fs.edge_down.assign(static_cast<std::size_t>(topology.num_edges()), 0);
  fs.seed = script.flaky_seed;
  fs.drop_permille = script.flaky_drop_permille;
  if (script.flaky_drop_permille < 0 || script.flaky_drop_permille > 1000) {
    throw std::invalid_argument(
        "FaultScript: flaky_drop_permille outside [0, 1000]");
  }
  fs.events.reserve(script.events.size());
  for (const auto& ev : script.events) {
    if (ev.cycle < 0) {
      throw std::invalid_argument("FaultScript: negative event cycle");
    }
    fs.events.push_back(PreparedFault{ev.cycle, resolve(ev.u, ev.v),
                                      ev.type == FaultType::kLinkDown});
  }
  std::stable_sort(fs.events.begin(), fs.events.end(),
                   [](const PreparedFault& a, const PreparedFault& b) {
                     return a.cycle < b.cycle;
                   });
  if (!script.flaky_links.empty() && script.flaky_drop_permille > 0) {
    fs.dlink_flaky.assign(static_cast<std::size_t>(2 * topology.num_edges()),
                          0);
    fs.dlink_sent.assign(static_cast<std::size_t>(2 * topology.num_edges()),
                         0);
    for (const auto& [u, v] : script.flaky_links) {
      const int eid = resolve(u, v);
      fs.dlink_flaky[static_cast<std::size_t>(2 * eid)] = 1;
      fs.dlink_flaky[static_cast<std::size_t>(2 * eid + 1)] = 1;
    }
    fs.flaky = true;
  } else {
    for (const auto& [u, v] : script.flaky_links) {
      static_cast<void>(resolve(u, v));  // validate even when permille == 0
    }
  }
  fs.active = !fs.events.empty() || fs.flaky;
  return fs;
}

// One virtual channel: the unidirectional, per-tree, per-phase logical
// datapath on a physical link (Section 5.1's "VCs have disjoint
// resources"). Only its identity lives here; each engine keeps its own
// receiver buffer, credits and wire pipeline per VC.
struct VcState {
  int tree = -1;
  Phase phase = Phase::kReduce;
  int src = -1;
  int dst = -1;
  int dlink = -1;
  int fork_index = -1;  // bcast only: child slot at src feeding this VC
};

// Per-(router, tree) wiring: the tree neighbours and the VCs that connect
// the node's reduction engine and broadcast fork to them.
struct NodeTreeState {
  int parent = -1;
  std::vector<int> children;
  std::vector<int> child_reduce_vc;
  int parent_reduce_vc = -1;
  int parent_bcast_vc = -1;
  std::vector<int> child_bcast_vc;
};

// The VC fabric and per-(node, tree) wiring both cycle-loop engines run
// on, plus the tree roots. Per-run buffers belong to the engines, so a
// horizon run never builds the reference engine's deques.
struct Fabric {
  int n = 0;
  int num_trees = 0;
  int num_dlinks = 0;
  std::vector<int> roots;
  // Global tree index per local tree. Identity in a whole-run fabric; a
  // sharded sub-run (see link_disjoint_groups) carries the parent run's
  // indices so operand/expected values — functions of the tree index —
  // match the serial run bit-exactly.
  std::vector<int> tree_gid;
  std::vector<VcState> vcs;
  std::vector<std::vector<int>> link_vcs;
  std::vector<NodeTreeState> state;

  // Index of (node, tree) in `state`, and in every per-state array.
  std::size_t at(int node, int tree) const {
    return static_cast<std::size_t>(tree) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(node);
  }
  NodeTreeState& st(int node, int tree) { return state[at(node, tree)]; }
  const NodeTreeState& st(int node, int tree) const {
    return state[at(node, tree)];
  }
};

Fabric build_fabric(const graph::Graph& topology,
                    const std::vector<TreeEmbedding>& trees,
                    const SimConfig& config, SimResult& result,
                    const std::vector<int>* tree_gids = nullptr) {
  Fabric f;
  f.n = topology.num_vertices();
  f.num_trees = static_cast<int>(trees.size());
  f.num_dlinks = 2 * topology.num_edges();
  f.roots.resize(static_cast<std::size_t>(f.num_trees));
  f.tree_gid.resize(static_cast<std::size_t>(f.num_trees));
  for (int t = 0; t < f.num_trees; ++t) {
    f.tree_gid[static_cast<std::size_t>(t)] =
        tree_gids != nullptr ? (*tree_gids)[static_cast<std::size_t>(t)] : t;
  }
  f.link_vcs.resize(static_cast<std::size_t>(f.num_dlinks));
  f.state.resize(static_cast<std::size_t>(f.n) * static_cast<std::size_t>(f.num_trees));

  const Collective mode = config.collective;
  const bool want_reduce = mode != Collective::kBroadcast;
  const bool want_bcast = mode != Collective::kReduce;

  const auto dlink_of = [&](int src, int dst) {
    const int eid = topology.edge_id(src, dst);
    return 2 * eid + (src > dst ? 1 : 0);
  };
  const auto new_vc = [&](int tree, Phase phase, int src, int dst) {
    VcState vc;
    vc.tree = tree;
    vc.phase = phase;
    vc.src = src;
    vc.dst = dst;
    vc.dlink = dlink_of(src, dst);
    f.vcs.push_back(std::move(vc));
    const int id = static_cast<int>(f.vcs.size()) - 1;
    f.link_vcs[static_cast<std::size_t>(f.vcs[static_cast<std::size_t>(id)].dlink)].push_back(id);
    return id;
  };

  for (int t = 0; t < f.num_trees; ++t) {
    const auto& tree = trees[static_cast<std::size_t>(t)];
    f.roots[static_cast<std::size_t>(t)] = tree.root;
    for (int v = 0; v < f.n; ++v) {
      f.st(v, t).parent = tree.parent[static_cast<std::size_t>(v)];
      if (tree.parent[static_cast<std::size_t>(v)] >= 0) f.st(tree.parent[static_cast<std::size_t>(v)], t).children.push_back(v);
    }
    for (int v = 0; v < f.n; ++v) {
      NodeTreeState& s = f.st(v, t);
      if (s.parent >= 0) {
        if (want_reduce) {
          s.parent_reduce_vc = new_vc(t, Phase::kReduce, v, s.parent);
        }
        if (want_bcast) {
          s.parent_bcast_vc = new_vc(t, Phase::kBcast, s.parent, v);
        }
      }
      s.child_bcast_vc.assign(s.children.size(), -1);
      s.child_reduce_vc.assign(s.children.size(), -1);
    }
    for (int v = 0; v < f.n; ++v) {
      NodeTreeState& s = f.st(v, t);
      for (std::size_t c = 0; c < s.children.size(); ++c) {
        const int child = s.children[c];
        s.child_reduce_vc[c] = f.st(child, t).parent_reduce_vc;
        s.child_bcast_vc[c] = f.st(child, t).parent_bcast_vc;
        if (s.child_bcast_vc[c] >= 0) {
          f.vcs[static_cast<std::size_t>(s.child_bcast_vc[c])].fork_index =
              static_cast<int>(c);
        }
      }
    }
  }

  result.num_vcs = static_cast<int>(f.vcs.size());
  for (const auto& lv : f.link_vcs) {
    result.max_vcs_per_link =
        std::max(result.max_vcs_per_link, static_cast<int>(lv.size()));
  }
  // Lemma 7.8 accounting: distinct trees consuming each input port as a
  // reduction input.
  if (want_reduce) {
    std::vector<int> reductions_per_port(static_cast<std::size_t>(f.num_dlinks), 0);
    for (const auto& vc : f.vcs) {
      if (vc.phase == Phase::kReduce) ++reductions_per_port[static_cast<std::size_t>(vc.dlink)];
    }
    for (int c : reductions_per_port) {
      result.max_reductions_per_input_port =
          std::max(result.max_reductions_per_input_port, c);
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Observability (PFAR_TRACE, see src/obsv and docs/observability.md). One
// SimObserver drives a single run when SimConfig::recorder is attached;
// both engines call the same hooks at the same per-cycle points, so the
// virtual-time trace a run emits is a pure function of the (deterministic)
// simulation. The observer only reads simulation state — attaching it can
// never perturb results, which the determinism goldens pin under
// PFAR_TRACE=on. With PFAR_TRACE=off every hook call site below is
// compiled out (obs is a constant nullptr).
//
// Trace vocabulary: per-directed-link "busy" complete-events (maximal runs
// of consecutive cycles with at least one grant), per-tree "reduce" /
// "broadcast" phase spans, and instant events on the sim track for fault
// down/up and tree cancellation. Metrics vocabulary: see the catalog in
// docs/observability.md; drop/cancel accounting is accumulated at the hook
// sites so the obsv tests can cross-check conservation against SimResult.
// ---------------------------------------------------------------------------
struct SimObserver {
  obsv::Recorder* rec = nullptr;
  const graph::Graph* topo = nullptr;
  Collective mode = Collective::kAllreduce;
  int n = 0;
  int num_trees = 0;
  int num_dlinks = 0;

  std::vector<long long> busy_start;   // open busy span start, -1 if none
  std::vector<long long> busy_last;    // last cycle with a grant, -1 if none
  std::vector<long long> busy_total;   // accumulated busy cycles per dlink
  std::vector<long long> queue_hwm;    // receiver-buffer high water per dlink
  std::vector<long long> link_dropped; // dropped flits per dlink
  std::vector<long long> reduce_first; // first reduce packet per tree
  std::vector<long long> reduce_done;  // root consumed its last element
  long long credit_stalls = 0;
  long long dropped_packets = 0;
  long long dropped_flits = 0;
  long long canceled_packets = 0;
  long long canceled_flits = 0;
  long long fault_events = 0;

  // The horizon engine's periodic jump: while taping, on_grant records
  // the confirming period's busy-span updates; replay_tape then applies
  // them once per skipped period, shifted, which is exactly what stepping
  // those periods would have done. The other hooks need no replay: a
  // repeated period cannot raise a high-water mark, sets no first or last
  // reduce cycle (the jump stops short of every target), and its credit
  // stalls are a counter the jump advances like any other.
  bool taping = false;
  std::vector<std::pair<int, long long>> tape;

  std::uint32_t n_busy = 0, n_reduce = 0, n_bcast = 0;
  std::uint32_t n_fault_down = 0, n_fault_up = 0, n_canceled = 0;

  void init(obsv::Recorder* recorder, const graph::Graph& topology,
            const Fabric& f, Collective m) {
    rec = recorder;
    topo = &topology;
    mode = m;
    n = f.n;
    num_trees = f.num_trees;
    num_dlinks = f.num_dlinks;
    busy_start.assign(static_cast<std::size_t>(num_dlinks), -1);
    busy_last.assign(static_cast<std::size_t>(num_dlinks), -1);
    busy_total.assign(static_cast<std::size_t>(num_dlinks), 0);
    queue_hwm.assign(static_cast<std::size_t>(num_dlinks), 0);
    link_dropped.assign(static_cast<std::size_t>(num_dlinks), 0);
    reduce_first.assign(static_cast<std::size_t>(num_trees), -1);
    reduce_done.assign(static_cast<std::size_t>(num_trees), -1);
    n_busy = rec->trace.intern("busy");
    n_reduce = rec->trace.intern("reduce");
    n_bcast = rec->trace.intern("broadcast");
    n_fault_down = rec->trace.intern("link_down");
    n_fault_up = rec->trace.intern("link_up");
    n_canceled = rec->trace.intern("tree_canceled");
  }

  // "u->v" of a directed link (dlink 2e runs low->high endpoint).
  std::string dlink_name(int dlink) const {
    const graph::Edge e = topo->edges()[static_cast<std::size_t>(dlink / 2)];
    const int src = (dlink & 1) != 0 ? e.v : e.u;
    const int dst = (dlink & 1) != 0 ? e.u : e.v;
    return std::to_string(src) + "->" + std::to_string(dst);
  }

  void close_busy_span(int dlink) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    if (busy_start[d] < 0) return;
    busy_total[d] += busy_last[d] - busy_start[d] + 1;
    rec->trace.complete(busy_start[d], busy_last[d] - busy_start[d] + 1,
                        n_busy,
                        obsv::kTrackLinkBase + static_cast<std::uint32_t>(dlink));
    busy_start[d] = -1;
  }

  void on_grant(int dlink, long long now) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    if (busy_last[d] == now) return;  // several grants in one cycle
    if (taping) tape.emplace_back(dlink, now);
    if (busy_start[d] >= 0 && now != busy_last[d] + 1) close_busy_span(dlink);
    if (busy_start[d] < 0) busy_start[d] = now;
    busy_last[d] = now;
  }

  void start_tape() {
    tape.clear();
    taping = true;
  }
  void stop_tape() { taping = false; }

  void replay_tape(long long periods, long long period) {
    taping = false;
    for (long long j = 1; j <= periods; ++j) {
      for (const auto& [dlink, at] : tape) on_grant(dlink, at + j * period);
    }
  }

  void on_queue_depth(int dlink, int depth) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    if (depth > queue_hwm[d]) queue_hwm[d] = depth;
  }

  // The `ready` argument lets call sites evaluate readiness lazily inside
  // the hook expansion (only when an observer is attached).
  void on_credit_stall_if(bool ready) {
    if (ready) ++credit_stalls;
  }

  void on_reduce_packet(int tree, bool root_done, long long now) {
    const std::size_t t = static_cast<std::size_t>(tree);
    if (reduce_first[t] < 0) reduce_first[t] = now;
    if (root_done) reduce_done[t] = now;
  }

  void on_fault(long long now, int edge, bool down) {
    ++fault_events;
    const graph::Edge e = topo->edges()[static_cast<std::size_t>(edge)];
    rec->trace.instant(now, down ? n_fault_down : n_fault_up,
                       obsv::kTrackSim, {"u", e.u}, {"v", e.v});
  }

  void on_drop(int dlink, long long flits) {
    ++dropped_packets;
    dropped_flits += flits;
    link_dropped[static_cast<std::size_t>(dlink)] += flits;
  }

  void on_cancel(int tree, long long now, long long completed) {
    rec->trace.instant(now, n_canceled, obsv::kTrackSim, {"tree", tree},
                       {"completed", completed});
  }

  void on_retract(long long flits) {
    ++canceled_packets;
    canceled_flits += flits;
  }

  // Emits the deferred spans, track names and the metrics snapshot. Called
  // once per run; when one Recorder spans several runs (the resilient
  // driver's attempts), counters accumulate and gauges keep their maxima.
  void finalize(long long cycles, const SimResult& result) {
    for (int d = 0; d < num_dlinks; ++d) close_busy_span(d);
    rec->trace.name_track(obsv::kTrackSim, "sim");
    obsv::Metrics& m = rec->metrics;
    m.hwm("sim.cycles", cycles);
    m.add("sim.total_elements", result.total_elements);
    m.hwm("sim.max_vc_occupancy", result.max_vc_occupancy);
    m.add("sim.credit_stalls", credit_stalls);
    m.add("sim.fault_events", fault_events);
    if (dropped_packets > 0) {
      m.add("sim.dropped_packets", dropped_packets);
      m.add("sim.dropped_flits", dropped_flits);
    }
    if (canceled_packets > 0) {
      m.add("sim.canceled_packets", canceled_packets);
      m.add("sim.canceled_flits", canceled_flits);
    }
    if (result.background_flits > 0) {
      m.add("sim.background_packets", result.background_packets);
      m.add("sim.background_flits", result.background_flits);
    }
    for (int t = 0; t < num_trees; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      const std::uint32_t track =
          obsv::kTrackTreeBase + static_cast<std::uint32_t>(t);
      rec->trace.name_track(track, "tree " + std::to_string(t));
      if (reduce_first[ti] >= 0 && reduce_done[ti] >= reduce_first[ti]) {
        rec->trace.complete(reduce_first[ti],
                            reduce_done[ti] - reduce_first[ti] + 1, n_reduce,
                            track);
      }
      const long long first = result.tree_first_delivery[ti];
      const long long last = result.tree_failed[ti] != 0
                                 ? result.tree_fail_cycle[ti]
                                 : result.tree_finish_cycle[ti];
      if (mode != Collective::kReduce && first >= 0 && last >= first) {
        rec->trace.complete(first, last - first + 1, n_bcast, track);
      }
      const std::string prefix = "tree." + std::to_string(t);
      if (result.tree_finish_cycle[ti] >= 0) {
        m.hwm(prefix + ".finish_cycle", result.tree_finish_cycle[ti]);
      }
      if (first >= 0) m.hwm(prefix + ".first_delivery", first);
      m.add(prefix + ".completed", result.tree_completed[ti]);
      if (result.tree_failed[ti] != 0) m.add(prefix + ".failed");
    }
    for (int d = 0; d < num_dlinks; ++d) {
      const std::size_t di = static_cast<std::size_t>(d);
      if (result.link_flits[di] == 0 && link_dropped[di] == 0 &&
          result.link_bg_flits[di] == 0) {
        continue;
      }
      const std::string name = dlink_name(d);
      rec->trace.name_track(
          obsv::kTrackLinkBase + static_cast<std::uint32_t>(d),
          "link " + name);
      const std::string prefix = "link." + name;
      m.add(prefix + ".flits", result.link_flits[di]);
      m.hwm(prefix + ".queue_hwm", queue_hwm[di]);
      // Busy spans cover collective and background grants alike; the
      // congestion controller reads utilization from these two counters
      // (docs/congestion_adaptation.md).
      m.add(prefix + ".busy_cycles", busy_total[di]);
      if (result.link_bg_flits[di] > 0) {
        m.add(prefix + ".bg_flits", result.link_bg_flits[di]);
      }
      if (link_dropped[di] > 0) {
        m.add(prefix + ".dropped_flits", link_dropped[di]);
      }
    }
  }
};

// Hook call site: one null test when PFAR_TRACE=on, nothing at all when
// off (the expansion still names `obs` so the parameter stays used).
#if PFAR_TRACE_LEVEL
#define PFAR_OBS(call)             \
  do {                             \
    if (obs != nullptr) obs->call; \
  } while (0)
#else
#define PFAR_OBS(call) static_cast<void>(obs)
#endif

// ---------------------------------------------------------------------------
// Run: the per-run bookkeeping both cycle engines share. It owns the clock
// and abort deadlines, per-tree progress and cancellation, delivery totals,
// the fault script, each directed link's token bucket and background
// drain, the SimResult and the observer. An engine owns only its data path
// (buffers, reduction and broadcast engines, arbitration order) and calls
// these helpers at the same points of the cycle, so a feature that does
// not move packets is written once, here (docs/simulation_engine.md,
// "Adding a simulator feature").
// ---------------------------------------------------------------------------
struct Run {
  Run(const graph::Graph& topology, const std::vector<TreeEmbedding>& trees,
      const SimConfig& cfg, const std::vector<long long>& elements_per_tree,
      const std::vector<int>* tree_gids = nullptr)
      : config(cfg),
        elements(elements_per_tree),
        result(sized_sim_result(elements_per_tree, 2 * topology.num_edges())),
        f(build_fabric(topology, trees, cfg, result, tree_gids)),
        fault(prepare_faults(topology, cfg.faults)),
        header(cfg.packet_header_flits),
        bw(cfg.link_bandwidth),
        token_cap(static_cast<long long>(bw) *
                  (cfg.packet_payload + cfg.packet_header_flits)),
        bg_pkt_flits(cfg.background.packet_flits),
        bg_pkt_ppm(bg_pkt_flits * 1'000'000),
        tree_progress(elements_per_tree.size(), 0),
        tree_canceled(elements_per_tree.size(), 0),
        delivered(f.state.size(), 0),
        tokens(static_cast<std::size_t>(f.num_dlinks), 0) {
    // Deliveries expected per tree: at every node for Allreduce/Broadcast,
    // at the root only for Reduce.
    const long long receivers =
        cfg.collective == Collective::kReduce ? 1 : f.n;
    for (long long m : elements) {
      tree_remaining.push_back(m * receivers);
      total_target += m * receivers;
    }
  }

  const SimConfig& config;
  const std::vector<long long>& elements;  // per tree
  SimResult result;
  Fabric f;
  FaultState fault;
  SimObserver* obs = nullptr;
  const int header;
  const int bw;
  const long long token_cap;
  const long long bg_pkt_flits;
  const long long bg_pkt_ppm;

  long long now = 0;
  long long last_progress = 0;
  long long delivered_total = 0;
  long long total_target = 0;
  // True whenever this cycle changed any state besides token accumulation
  // (which the horizon engine's idle jump replays in closed form).
  bool progressed = false;
  std::vector<long long> tree_remaining;  // deliveries still due per tree
  std::vector<long long> tree_progress;   // last delivery cycle per tree
  std::vector<char> tree_canceled;
  std::vector<long long> delivered;  // elements per (node, tree), Fabric::at
  // Token-bucket link occupancy: flit slots accumulate at link_bandwidth
  // per cycle (bounded burst); a packet consumes payload + header flits
  // and may borrow, modeling multi-cycle packets.
  std::vector<long long> tokens;
  // Background traffic (SimConfig::background): per directed link, a ppm
  // accumulator gains bg_rates[dl] per serviced (up) cycle; each time it
  // crosses a packet boundary the link drains one whole background
  // packet's flits from its token bucket. Empty rates = quiet network =
  // none of the background code runs (the quiet goldens pin bit-identity).
  std::vector<long long> bg_rates;
  std::vector<long long> bg_acc;

  void set_background(std::vector<long long> rates) {
    bg_acc.assign(rates.size(), 0);
    bg_rates = std::move(rates);
  }

  bool link_up(int dlink) const { return !fault.active || fault.edge_ok(dlink); }

  void progress() {
    last_progress = now;
    progressed = true;
  }

  // Cycle top, before anything moves: the abort deadlines; scripted fault
  // events due now (a packet landing this very cycle is still in flight at
  // the down instant and is lost); then per-tree loss detection — a tree
  // with work remaining that delivered nothing for more than
  // progress_timeout cycles is failed and canceled so the surviving trees
  // can quiesce. Fault events and cancellations count as progress, so the
  // idle jump never skips their effects.
  template <class Engine>
  void begin_cycle(Engine& eng) {
    if (now > config.max_cycles) {
      throw std::runtime_error("AllreduceSimulator: cycle limit exceeded");
    }
    if (now - last_progress > config.stall_limit) {
      throw std::runtime_error(
          "AllreduceSimulator: deadlock detected at cycle " +
          std::to_string(now));
    }
    progressed = false;
    while (fault.next < fault.events.size() &&
           fault.events[fault.next].cycle <= now) {
      const PreparedFault& ev = fault.events[fault.next++];
      char& down = fault.edge_down[static_cast<std::size_t>(ev.edge)];
      if (!ev.down) {
        down = 0;
      } else if (!down) {
        down = 1;
        eng.drop_edge(ev.edge);
      }
      PFAR_OBS(on_fault(now, ev.edge, ev.down));
      progressed = true;
    }
    if (config.progress_timeout > 0) {
      for (std::size_t t = 0; t < tree_remaining.size(); ++t) {
        if (!tree_canceled[t] && tree_remaining[t] > 0 &&
            now - tree_progress[t] > config.progress_timeout) {
          cancel_tree(eng, static_cast<int>(t));
        }
      }
    }
  }

  // Declares tree t failed: the detection cycle and complete element
  // prefix go to the result, the engine retracts every queued or in-flight
  // packet of the tree (each through retract()) and resets its VCs to
  // empty-with-full-credits so the quiesce contracts still hold, and the
  // tree's outstanding deliveries leave the run's target.
  template <class Engine>
  void cancel_tree(Engine& eng, int t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    tree_canceled[ti] = 1;
    result.tree_failed[ti] = 1;
    result.tree_fail_cycle[ti] = now;
    result.tree_finish_cycle[ti] = -1;
    long long prefix = LLONG_MAX;
    if (config.collective == Collective::kReduce) {
      prefix = delivered[f.at(f.roots[ti], t)];
    } else {
      for (int v = 0; v < f.n; ++v) {
        prefix = std::min(prefix, delivered[f.at(v, t)]);
      }
    }
    result.tree_completed[ti] = prefix;
    PFAR_OBS(on_cancel(t, now, prefix));
    eng.retract_tree(t);
    total_target -= tree_remaining[ti];
    tree_remaining[ti] = 0;
    progress();
  }

  // One packet of `payload` elements retracted by a tree cancellation.
  void retract(long long payload) {
    ++result.canceled_packets;
    result.canceled_flits += payload + header;
    PFAR_OBS(on_retract(payload + header));
  }

  // One packet of `payload` elements lost on directed link `dlink`: in
  // flight at a link_down, or eaten by a flaky link.
  void count_drop(int dlink, long long payload) {
    const long long flits = payload + header;
    ++result.dropped_packets;
    result.dropped_flits += flits;
    result.link_dropped_flits[static_cast<std::size_t>(dlink)] += flits;
    PFAR_OBS(on_drop(dlink, flits));
  }

  // A packet landed in a receive buffer on `dlink`, now `depth` deep.
  void record_arrival(int dlink, int depth) {
    result.max_vc_occupancy = std::max(result.max_vc_occupancy, depth);
    long long& hwm = result.link_queue_hwm[static_cast<std::size_t>(dlink)];
    hwm = std::max(hwm, static_cast<long long>(depth));
    PFAR_OBS(on_queue_depth(dlink, depth));
    progress();
  }

  // `size` elements of tree t delivered at (node, tree) state `si`; the
  // engine has checked their values.
  void record_delivery(int t, std::size_t si, long long size) {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (result.tree_first_delivery[ti] < 0) {
      result.tree_first_delivery[ti] = now;
    }
    delivered[si] += size;
    delivered_total += size;
    tree_remaining[ti] -= size;
    if (tree_remaining[ti] == 0) result.tree_finish_cycle[ti] = now;
    tree_progress[ti] = now;
    progress();
  }

  // Start of `dlink`'s arbitration: recharge its token bucket and drain
  // due background packets. Returns false while the link is down: the
  // bucket still recharges (it models the physical pipe) but nothing is
  // granted, and the background accumulator freezes so service resumes at
  // the same phase.
  bool open_link(int dlink) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    tokens[d] = std::min(tokens[d] + bw, token_cap);
    if (!link_up(dlink)) return false;
    if (!bg_rates.empty()) {
      bg_acc[d] += bg_rates[d];
      if (bg_acc[d] >= bg_pkt_ppm) {
        const long long pkts = bg_acc[d] / bg_pkt_ppm;
        bg_acc[d] -= pkts * bg_pkt_ppm;
        tokens[d] -= pkts * bg_pkt_flits;
        result.link_bg_flits[d] += pkts * bg_pkt_flits;
        PFAR_OBS(on_grant(dlink, now));
      }
    }
    return true;
  }

  // A packet of `payload` elements granted on `dlink`: its flits leave the
  // token bucket and count in link_flits. Returns false if a flaky link
  // ate it — the flits crossed but nothing lands; the engine then poisons
  // the receiver and returns the credit normally. Called exactly once per
  // grant: the drop decision hashes the link's grant ordinal, so both
  // engines (which grant identical sequences) drop identical packets.
  bool grant(int dlink, long long payload) {
    const long long flits = payload + header;
    tokens[static_cast<std::size_t>(dlink)] -= flits;
    result.link_flits[static_cast<std::size_t>(dlink)] += flits;
    PFAR_OBS(on_grant(dlink, now));
    progress();
    if (!fault.active || !fault.drop_now(dlink)) return true;
    count_drop(dlink, payload);
    return false;
  }

  // The earliest cycle after an idle one that the horizon engine's jump
  // may not skip, given its own next landing or recharge `target`: the
  // next scripted fault event; each live tree's timeout expiry (checked at
  // cycle tops, so progress + timeout + 1 must be visited); the next
  // background drain of every up, loaded link in `links` (drains mutate
  // token buckets, so only drain-free ranges are skipped and the
  // closed-form advance in jump_to stays exact; a down link resumes via
  // its link_up event, itself a wake point); and the abort deadlines, so
  // even the throwing paths report the reference engine's cycle numbers.
  long long wake_point(long long target,
                       const std::vector<std::int32_t>& links) const {
    if (fault.next < fault.events.size()) {
      target = std::min(target, fault.events[fault.next].cycle);
    }
    if (config.progress_timeout > 0) {
      for (std::size_t t = 0; t < tree_remaining.size(); ++t) {
        if (!tree_canceled[t] && tree_remaining[t] > 0) {
          target = std::min(target,
                            tree_progress[t] + config.progress_timeout + 1);
        }
      }
    }
    if (!bg_rates.empty()) {
      for (const std::int32_t dl : links) {
        const long long rate = bg_rates[static_cast<std::size_t>(dl)];
        if (rate <= 0 || !link_up(dl)) continue;
        // Smallest k >= 1 with acc + k * rate >= bg_pkt_ppm (acc stays
        // below bg_pkt_ppm between drains, so need >= 1).
        const long long need = bg_pkt_ppm - bg_acc[static_cast<std::size_t>(dl)];
        target = std::min(target, now + (need + rate - 1) / rate);
      }
    }
    target = std::min(target, last_progress + config.stall_limit + 1);
    return std::min(target, config.max_cycles + 1);
  }

  // Moves the clock to `target` over provably idle cycles: token buckets
  // of `links` advance in closed form (min(t + k*B, cap) is the k-fold
  // composition of the per-cycle recharge) and the background
  // accumulators of up links linearly (the range is drain-free).
  void jump_to(long long target, const std::vector<std::int32_t>& links) {
    const long long skip = target - now - 1;
    if (skip > 0) {
      result.idle_skipped_cycles += skip;
      for (const std::int32_t dl : links) {
        const std::size_t d = static_cast<std::size_t>(dl);
        tokens[d] = std::min(tokens[d] + skip * bw, token_cap);
        if (!bg_rates.empty() && link_up(dl)) bg_acc[d] += skip * bg_rates[d];
      }
    }
    now = target;
  }
};

// ---------------------------------------------------------------------------
// Reference engine: the original cycle-by-cycle data path, kept as the
// oracle the horizon engine is tested against (determinism_test). Packets
// are deques of vectors; every VC is scanned for arrivals, every (node,
// tree) broadcast engine visited and every link arbitrated on every
// cycle. It shares the run bookkeeping (Run) with the horizon engine but
// none of its buffers or scheduling.
// ---------------------------------------------------------------------------
struct ReferenceEngine {
  // One VC's receiver buffer, credits and wire pipelines (its identity is
  // the Fabric's VcState of the same index).
  struct Vc {
    std::deque<Packet> recv;  // receiver buffer, <= credits cap packets
    int credits = 0;
    std::deque<std::pair<long long, Packet>> data_inflight;
    std::deque<long long> credit_inflight;
    // A packet destined for this VC was lost, so its stream has a sequence
    // gap: the VC stops presenting data (consuming past the gap would feed
    // wrong operands into a reduction). Cleared only by tree cancellation.
    bool poisoned = false;
  };

  // One (node, tree) engine's local progress and broadcast buffers.
  struct Node {
    long long injected = 0;  // local elements consumed by the engine
    std::vector<std::deque<Packet>> fork_stage;  // one per child
    std::deque<Packet> root_queue;  // root only: reduce -> bcast turnaround
  };

  explicit ReferenceEngine(Run& r)
      : run(r),
        obs(r.obs),
        f(r.f),
        config(r.config),
        rr(static_cast<std::size_t>(r.f.num_dlinks), 0),
        vcs(r.f.vcs.size()),
        nodes(r.f.state.size()) {
    for (Vc& vc : vcs) vc.credits = config.vc_credits;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].fork_stage.resize(f.state[i].children.size());
    }
  }

  Run& run;
  SimObserver* const obs;
  Fabric& f;
  const SimConfig& config;
  std::vector<int> rr;  // round-robin pointer per directed link
  std::vector<Vc> vcs;      // per Fabric::vcs index
  std::vector<Node> nodes;  // per Fabric::at index

  long long target(int tree) const {
    return run.elements[static_cast<std::size_t>(tree)];
  }

  std::int64_t expected_value(int tree, long long k) const {
    return config.collective == Collective::kBroadcast
               ? local_value(f.roots[static_cast<std::size_t>(tree)], tree, k)
               : sum_over_nodes(f.n, tree, k);
  }

  // Every child has a packet ready for the reduction engine of state `si`.
  bool inputs_ready(std::size_t si) const {
    for (int cvc : f.state[si].child_reduce_vc) {
      const Vc& child = vcs[static_cast<std::size_t>(cvc)];
      if (child.poisoned || child.recv.empty()) return false;
    }
    return true;
  }

  // Side-effect-free, so the credit-stall probe may call it freely.
  bool vc_ready(const VcState& vc) const {
    const std::size_t si = f.at(vc.src, vc.tree);
    if (vc.phase == Phase::kReduce) {
      return nodes[si].injected < target(vc.tree) && inputs_ready(si);
    }
    return !nodes[si].fork_stage[static_cast<std::size_t>(vc.fork_index)].empty();
  }

  // Returns a consumed packet's credit to the sender of VC `id`. Normally
  // the credit travels back over the link (landing after link_latency);
  // while the link is down it cannot, so it is restored immediately —
  // conservation must hold through an outage, and a later drop_edge on
  // this link must not double-restore it.
  void return_credit(int id) {
    Vc& vc = vcs[static_cast<std::size_t>(id)];
    if (run.link_up(f.vcs[static_cast<std::size_t>(id)].dlink)) {
      vc.credit_inflight.push_back(run.now + config.link_latency);
    } else {
      ++vc.credits;
    }
  }

  // The next chunk of node `src`'s local operands for tree `tree`.
  Packet local_chunk(int src, int tree) {
    Node& s = nodes[f.at(src, tree)];
    const long long size =
        std::min<long long>(config.packet_payload, target(tree) - s.injected);
    Packet packet(static_cast<std::size_t>(size));
    for (long long i = 0; i < size; ++i) {
      packet[static_cast<std::size_t>(i)] = local_value(src, tree, s.injected + i);
    }
    s.injected += size;
    return packet;
  }

  // The next reduction packet at node `src`: the local chunk combined with
  // one packet from each child. Chunk sizes are aligned across children
  // because every stream chunks the same way.
  Packet make_reduce_packet(int src, int tree) {
    Packet packet = local_chunk(src, tree);
    const std::size_t si = f.at(src, tree);
    for (int cvc : f.state[si].child_reduce_vc) {
      Vc& child = vcs[static_cast<std::size_t>(cvc)];
      const Packet& head = child.recv.front();
      if (head.size() != packet.size()) {
        throw std::logic_error("reduce packet misalignment");
      }
      for (std::size_t i = 0; i < packet.size(); ++i) packet[i] += head[i];
      child.recv.pop_front();
      return_credit(cvc);
    }
    PFAR_OBS(on_reduce_packet(
        tree,
        src == f.roots[static_cast<std::size_t>(tree)] &&
            nodes[si].injected >= target(tree),
        run.now));
    return packet;
  }

  void deliver(int node, int tree, const Packet& packet) {
    const std::size_t si = f.at(node, tree);
    long long k = run.delivered[si];
    for (std::int64_t value : packet) {
      if (value != expected_value(tree, k++)) run.result.values_correct = false;
    }
    run.record_delivery(tree, si, static_cast<long long>(packet.size()));
  }

  // Kills an edge: every packet in flight on either directed half is lost
  // (the sender's credit reclaimed immediately, the receiving VC poisoned)
  // and every credit in flight is restored. Credit conservation is checked
  // across the event.
  void drop_edge(int eid) {
    for (int d : {2 * eid, 2 * eid + 1}) {
      for (int id : f.link_vcs[static_cast<std::size_t>(d)]) {
        Vc& vc = vcs[static_cast<std::size_t>(id)];
        PFAR_ENSURE(vc.credits +
                            static_cast<int>(vc.credit_inflight.size() +
                                             vc.data_inflight.size() +
                                             vc.recv.size()) ==
                        config.vc_credits,
                    id, vc.credits);
        for (const auto& [when, packet] : vc.data_inflight) {
          static_cast<void>(when);
          run.count_drop(d, static_cast<long long>(packet.size()));
          ++vc.credits;
          vc.poisoned = true;
        }
        vc.data_inflight.clear();
        vc.credits += static_cast<int>(vc.credit_inflight.size());
        vc.credit_inflight.clear();
        PFAR_ENSURE(vc.credits + static_cast<int>(vc.recv.size()) ==
                        config.vc_credits,
                    id, vc.credits, vc.recv.size());
      }
    }
  }

  // Retracts every queued or in-flight packet of canceled tree t and
  // resets its VCs to empty-with-full-credits.
  void retract_tree(int t) {
    const auto retract = [&](const Packet& p) {
      run.retract(static_cast<long long>(p.size()));
    };
    for (std::size_t id = 0; id < vcs.size(); ++id) {
      if (f.vcs[id].tree != t) continue;
      Vc& vc = vcs[id];
      for (const auto& p : vc.recv) retract(p);
      for (const auto& [when, p] : vc.data_inflight) {
        static_cast<void>(when);
        retract(p);
      }
      vc.recv.clear();
      vc.data_inflight.clear();
      vc.credit_inflight.clear();
      vc.credits = config.vc_credits;
      vc.poisoned = false;
    }
    for (int v = 0; v < f.n; ++v) {
      Node& s = nodes[f.at(v, t)];
      for (const auto& p : s.root_queue) retract(p);
      s.root_queue.clear();
      for (auto& stage : s.fork_stage) {
        for (const auto& p : stage) retract(p);
        stage.clear();
      }
    }
  }

  // 1. Arrivals: land in-flight packets and returned credits.
  void arrivals() {
    for (std::size_t id = 0; id < vcs.size(); ++id) {
      Vc& vc = vcs[id];
      while (!vc.data_inflight.empty() &&
             vc.data_inflight.front().first <= run.now) {
        vc.recv.push_back(std::move(vc.data_inflight.front().second));
        vc.data_inflight.pop_front();
        run.record_arrival(f.vcs[id].dlink, static_cast<int>(vc.recv.size()));
      }
      while (!vc.credit_inflight.empty() &&
             vc.credit_inflight.front() <= run.now) {
        vc.credit_inflight.pop_front();
        ++vc.credits;
      }
    }
  }

  // 2. Root engines. Allreduce/Reduce: final sums materialize at the root
  // (into the turnaround queue or straight to local delivery). Broadcast:
  // the root sources its own stream into the queue.
  void root_engines() {
    const Collective mode = config.collective;
    for (int t = 0; t < f.num_trees; ++t) {
      if (run.tree_canceled[static_cast<std::size_t>(t)]) continue;
      const int root = f.roots[static_cast<std::size_t>(t)];
      const std::size_t si = f.at(root, t);
      Node& s = nodes[si];
      for (int fire = 0; fire < config.link_bandwidth; ++fire) {
        if (s.injected >= target(t)) break;
        if (mode != Collective::kReduce &&
            static_cast<int>(s.root_queue.size()) >= config.vc_credits) {
          break;
        }
        if (mode != Collective::kBroadcast && !inputs_ready(si)) break;
        Packet packet = mode == Collective::kBroadcast
                            ? local_chunk(root, t)
                            : make_reduce_packet(root, t);
        if (mode == Collective::kReduce) {
          deliver(root, t, packet);
        } else {
          s.root_queue.push_back(std::move(packet));
        }
        run.progress();
      }
    }
  }

  // 3. Broadcast replication: parent VC (or root queue) -> all fork
  // stages + local delivery. Fork-stage room is required for all children,
  // which bounds buffering and stays deadlock-free.
  void broadcast_fork() {
    for (int t = 0; t < f.num_trees; ++t) {
      if (run.tree_canceled[static_cast<std::size_t>(t)]) continue;
      for (int v = 0; v < f.n; ++v) {
        const int parent_vc = f.st(v, t).parent_bcast_vc;
        Node& s = nodes[f.at(v, t)];
        const bool is_root = (v == f.roots[static_cast<std::size_t>(t)]);
        if (!is_root && parent_vc < 0) continue;
        for (int moves = 0; moves < config.link_bandwidth; ++moves) {
          const bool full = std::any_of(
              s.fork_stage.begin(), s.fork_stage.end(), [&](const auto& stage) {
                return static_cast<int>(stage.size()) >= config.fork_buffer;
              });
          if (full) break;
          Packet packet;
          if (is_root) {
            if (s.root_queue.empty()) break;
            packet = std::move(s.root_queue.front());
            s.root_queue.pop_front();
          } else {
            Vc& pvc = vcs[static_cast<std::size_t>(parent_vc)];
            if (pvc.poisoned || pvc.recv.empty()) break;
            packet = std::move(pvc.recv.front());
            pvc.recv.pop_front();
            return_credit(parent_vc);
          }
          deliver(v, t, packet);
          const std::size_t forks = s.fork_stage.size();
          for (std::size_t c = 0; c + 1 < forks; ++c) {
            s.fork_stage[c].push_back(packet);
          }
          if (forks > 0) {
            s.fork_stage[forks - 1].push_back(std::move(packet));
          }
        }
      }
    }
  }

  // 4. Link arbitration: round-robin over each directed link's VCs,
  // consuming token-bucket flit slots (payload + header per packet).
  void arbitrate() {
    for (int dl = 0; dl < f.num_dlinks; ++dl) {
      const auto& ids = f.link_vcs[static_cast<std::size_t>(dl)];
      if (ids.empty() || !run.open_link(dl)) continue;
      const int count = static_cast<int>(ids.size());
      const int probes = count * config.link_bandwidth;
      const int base = rr[static_cast<std::size_t>(dl)];
      for (int probe = 0;
           probe < probes && run.tokens[static_cast<std::size_t>(dl)] > 0;
           ++probe) {
        const int slot = (base + probe) % count;
        const int id = ids[static_cast<std::size_t>(slot)];
        const VcState& info = f.vcs[static_cast<std::size_t>(id)];
        Vc& vc = vcs[static_cast<std::size_t>(id)];
        if (run.tree_canceled[static_cast<std::size_t>(info.tree)]) continue;
        if (vc.credits <= 0) {
          // Credit stall: data is ready but flow control blocks the grant.
          PFAR_OBS(on_credit_stall_if(vc_ready(info)));
          continue;
        }
        if (!vc_ready(info)) continue;
        // True round-robin: rotate past the granted VC so competing trees
        // alternate even when packets occupy the link for several cycles.
        rr[static_cast<std::size_t>(dl)] = (slot + 1) % count;
        Packet packet;
        if (info.phase == Phase::kReduce) {
          packet = make_reduce_packet(info.src, info.tree);
        } else {
          auto& stage = nodes[f.at(info.src, info.tree)]
                            .fork_stage[static_cast<std::size_t>(info.fork_index)];
          packet = std::move(stage.front());
          stage.pop_front();
        }
        --vc.credits;
        if (run.grant(dl, static_cast<long long>(packet.size()))) {
          vc.data_inflight.emplace_back(run.now + config.link_latency,
                                        std::move(packet));
        } else {
          vc.poisoned = true;  // the stream now has a gap
          return_credit(id);
        }
      }
    }
  }

  void advance() { ++run.now; }

  // Quiesce: once every element is delivered, no packet may remain queued
  // or on the wire, and each VC's credits (held + still returning) must
  // conserve the configured budget.
  void quiesce() const {
    for (std::size_t id = 0; id < vcs.size(); ++id) {
      const Vc& vc = vcs[id];
      PFAR_ENSURE(vc.recv.empty() && vc.data_inflight.empty(), id,
                  vc.recv.size(), vc.data_inflight.size());
      PFAR_ENSURE(vc.credits + static_cast<int>(vc.credit_inflight.size()) ==
                      config.vc_credits,
                  id, vc.credits, vc.credit_inflight.size());
    }
    for (std::size_t si = 0; si < nodes.size(); ++si) {
      const Node& s = nodes[si];
      PFAR_ENSURE(s.root_queue.empty(), si, s.root_queue.size());
      for (const auto& stage : s.fork_stage) {
        PFAR_ENSURE(stage.empty(), si, stage.size());
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Horizon engine (SimEngine::kFastForward). Bit-identical to the reference
// engine, with five structural changes to its data path and scheduling:
//
//  * landings and credit returns are count-carrying events in a FIFO of
//    per-cycle buckets (each matures exactly link_latency cycles after it
//    is scheduled, so buckets are created in maturity order and an event
//    needs no per-packet timestamp), with at most one event per (VC, cycle);
//  * the hot state is one 64-byte record per VC and per (node, tree)
//    engine; broadcast replication visits only engines an event re-armed,
//    and reduce readiness is a maintained ready-children counter;
//  * payloads live in a slab arena and every queue is a power-of-two ring
//    over flat arrays, sized by its credit/fork-buffer limit or the tree's
//    packet count, whichever is smaller: nothing allocates after setup;
//  * a cycle in which nothing moved and no event landed is provably
//    followed by identical no-op cycles until the next in-flight landing,
//    token-bucket recharge or run wake point (Run::wake_point), so `now`
//    jumps there in one step (Run::jump_to);
//  * a steady state that repeats with a period P <= kMaxPeriod is confirmed
//    over two full-state periods and then advanced J periods at once in
//    closed form (watch_period / probe_period / jump_periods).
// ---------------------------------------------------------------------------
struct HorizonEngine {
  // A packet: its slab in the arena and its element count.
  struct Ref { std::int32_t slab, size; };

  // One VC. Its receive buffer and in-flight pipeline share one FIFO ring
  // (pcap slots from id * pcap): entries [0, ready) have landed (the
  // reference engine's `recv`), entries [ready, total) are on the wire.
  struct alignas(64) Vc {
    long long last_wake = -1;      // cycle that scheduled its newest event
    std::uint32_t wake_index = 0;  // that event's index in its bucket
    std::uint32_t head = 0, total = 0, ready = 0;
    std::uint32_t credits_inflight = 0;  // returning to the sender
    std::int32_t credits = 0;
    std::int32_t src_state = 0, dst_state = 0;  // sender, receiver Node
    std::int32_t dlink = 0;
    std::int32_t stage = -1;  // bcast only: the sender's fork stage
    bool is_reduce = false, poisoned = false;
    bool canceled = false;  // its tree was retracted
  };

  // One (node, tree) engine: elements injected, incremental operand and
  // expected-value generators, the ready-children counter, its children's
  // reduce VCs and fork stages (child_vcs / fork stage ids from
  // stage_base) and the parent-side broadcast VC.
  struct alignas(64) Node {
    long long target = 0, injected = 0;
    std::int64_t inj_next = 0, exp_next = 0;
    std::int32_t ready = 0, nchild = 0, stage_base = 0;
    std::int32_t parent_vc = -1;
    std::int32_t tree = 0;
  };

  // A pending event: `landings` packets land on VC `vc` and `credits`
  // credits return to its sender, all in its bucket's cycle.
  struct Event { std::int32_t vc; std::uint32_t landings, credits; };
  struct Bucket {
    long long cycle = 0;
    std::vector<Event> events;
  };

  // The periodic jump's longest period and the signature repeats that
  // start a confirmation (both in steps), and the back-off unit: after k
  // consecutive failed confirmations the next waits kBackoff * 2^k steps.
  static constexpr int kMaxPeriod = 64;
  static constexpr int kRepeats = 4;
  static constexpr long long kBackoff = 64;

  // The run state at one cycle boundary, as visit_state splits it: the
  // control values, then every linear field (counter, generator, payload
  // element, cycle stamp) in visit order.
  struct Snapshot {
    std::vector<long long> ctrl, lin;
  };

  explicit HorizonEngine(Run& r);

  Run& run;
  SimObserver* const obs;
  const SimConfig& config;
  const int n;
  const int num_trees;
  const int bw;
  const int latency;
  const int stride;  // slab stride = packet_payload
  const Collective mode;

  // Slab arena; a consumed packet's slab goes on the free list for reuse.
  std::vector<std::int64_t> arena;
  std::vector<std::int32_t> free_slabs;

  std::vector<Vc> vcs;
  const std::uint32_t pcap, pmask;
  std::vector<Ref> ring;

  std::vector<Node> nodes;
  std::vector<std::int32_t> child_vcs;
  std::vector<std::int32_t> root_state;  // per tree
  std::int64_t exp_slope = 0;  // expected-value step per element

  // Directed-link CSR plus the links carrying at least one VC: arbitration
  // and the idle jump walk only populated links.
  std::vector<std::int32_t> lv_base, lv_ids, active_dlinks;
  std::vector<int> rr;  // round-robin pointer per directed link

  // Fork-stage rings (global stage id = stage_base + child slot) and the
  // root turnaround ring per tree.
  const std::uint32_t fcap, fmask;
  std::vector<Ref> fork_ring;
  std::vector<std::uint32_t> fhead, fcount;
  std::vector<Ref> root_ring;
  std::vector<std::uint32_t> rq_head, rq_count;

  // Pending events: a power-of-two ring of buckets, oldest first, each
  // reused with its capacity. Every event matures exactly `latency` cycles
  // after the cycle that scheduled it and `now` only grows, so buckets are
  // created in maturity order: arrivals pop from the front, the idle jump
  // reads the next landing off the front, and the periodic jump shifts
  // every pending cycle alike.
  std::vector<Bucket> buckets;
  std::size_t bhead = 0, bcount = 0;
  // The newest bucket's events and cycle (-1 before the first), where
  // this cycle's events go while newest_cycle == now + latency.
  std::vector<Event>* newest = nullptr;
  long long newest_cycle = -1;

  // Broadcast engines an event may have unblocked since they last ran.
  std::vector<char> bcast_active;
  std::vector<std::int32_t> bcast_list, bcast_current;

  // Cycles until the earliest token-starved link can grant again.
  long long recharge_offset = LLONG_MAX;

  // Periodic steady-state detection. Each step folds its grants, landings
  // and clock advance into one signature; sig_run[P] counts the
  // consecutive steps whose signature equals the one P steps earlier. A
  // candidate period then goes through probe_period's full-state
  // confirmation.
  const bool periodic;  // off while a flaky link is configured
  std::uint64_t cycle_sig = 0;
  long long steps = 0;  // signatures recorded (drive-loop steps)
  std::array<std::uint64_t, 2 * kMaxPeriod> sig_hist{};
  std::array<std::int32_t, kMaxPeriod + 1> sig_run{};
  int probe_p = 0;         // period under confirmation (steps), 0 = none
  int probe_stage = 0;     // snapshots taken: 1 = A, 2 = A and B
  long long probe_due = 0;   // step of the next snapshot
  long long probe_hold = 0;  // no new confirmation before this step
  int probe_failures = 0;
  Snapshot snap_a, snap_b;  // snap_a.lin holds B - A once B is taken

  Ref& vslot(std::size_t id, std::uint32_t k) {
    return ring[id * pcap + ((vcs[id].head + k) & pmask)];
  }
  std::size_t fslot(std::size_t sid, std::uint32_t k) const {
    return sid * fcap + ((fhead[sid] + k) & fmask);
  }
  std::size_t qslot(std::size_t t, std::uint32_t k) const {
    return t * pcap + ((rq_head[t] + k) & pmask);
  }
  std::int64_t* payload(std::int32_t slab) {
    return &arena[static_cast<std::size_t>(slab) * static_cast<std::size_t>(stride)];
  }

  std::int32_t alloc_slab() {
    if (!free_slabs.empty()) {
      const std::int32_t s = free_slabs.back();
      free_slabs.pop_back();
      return s;
    }
    arena.resize(arena.size() + static_cast<std::size_t>(stride));
    return static_cast<std::int32_t>(arena.size() / static_cast<std::size_t>(stride)) - 1;
  }

  Bucket& bucket_at(std::size_t k) {
    return buckets[(bhead + k) & (buckets.size() - 1)];
  }

  // VC `id`'s event maturing latency cycles from now, created on first use
  // in the newest bucket, which every event scheduled this cycle shares.
  Event& event(std::size_t id) {
    Vc& vc = vcs[id];
    if (vc.last_wake != run.now) {
      if (newest_cycle != run.now + latency) open_bucket();
      vc.last_wake = run.now;
      vc.wake_index = static_cast<std::uint32_t>(newest->size());
      newest->push_back(Event{static_cast<std::int32_t>(id), 0, 0});
    }
    return (*newest)[vc.wake_index];
  }

  // Appends the bucket maturing latency cycles from now, doubling the ring
  // when it is full. Once per cycle at most, so kept out of line: inlined,
  // it grows event() past what the compiler inlines into every grant.
  [[gnu::noinline]] void open_bucket() {
    if (bcount == buckets.size()) {
      std::vector<Bucket> grown(2 * buckets.size());
      for (std::size_t k = 0; k < bcount; ++k) grown[k] = std::move(bucket_at(k));
      buckets.swap(grown);
      bhead = 0;
    }
    Bucket& b = bucket_at(bcount++);
    b.cycle = newest_cycle = run.now + latency;
    b.events.clear();
    newest = &b.events;
  }

  // Voids the pending events of every VC matching `pred` whose packets and
  // credits the caller has just reclaimed. The emptied events stay in
  // their buckets, so the idle jump still wakes where it would have.
  template <class Pred>
  void void_events(Pred pred) {
    for (std::size_t k = 0; k < bcount; ++k) {
      for (Event& ev : bucket_at(k).events) {
        if (pred(vcs[static_cast<std::size_t>(ev.vc)])) {
          ev.landings = 0;
          ev.credits = 0;
        }
      }
    }
  }

  void activate_bcast(std::int32_t state_idx) {
    if (!bcast_active[static_cast<std::size_t>(state_idx)]) {
      bcast_active[static_cast<std::size_t>(state_idx)] = 1;
      bcast_list.push_back(state_idx);
    }
  }

  // Returns a consumed packet's credit to VC `id`'s sender — immediately if
  // the link is down (as the reference engine does), else latency cycles
  // later.
  void return_credit(std::size_t id) {
    Vc& vc = vcs[id];
    if (!run.link_up(vc.dlink)) {
      ++vc.credits;
      return;
    }
    ++vc.credits_inflight;
    ++event(id).credits;
  }

  // Readiness of `vc` to send; side-effect-free, so the credit-stall probe
  // may call it freely.
  bool vc_ready(const Vc& vc) const {
    if (vc.is_reduce) {
      const Node& s = nodes[static_cast<std::size_t>(vc.src_state)];
      return s.injected < s.target && s.ready == s.nchild;
    }
    return fcount[static_cast<std::size_t>(vc.stage)] > 0;
  }

  // Marks `vc` poisoned, withdrawing it from its consumer's ready count
  // (the reference engine treats a poisoned VC as never ready).
  void poison_vc(Vc& vc) {
    if (vc.poisoned) return;
    vc.poisoned = true;
    if (vc.is_reduce && vc.ready > 0) {
      --nodes[static_cast<std::size_t>(vc.dst_state)].ready;
    }
  }

  Ref pop_landed(std::size_t id) {
    const Ref head = vslot(id, 0);
    Vc& vc = vcs[id];
    vc.head = (vc.head + 1) & pmask;
    --vc.total;
    --vc.ready;
    return_credit(id);
    return head;
  }

  void push_fork(std::size_t sid, Ref packet) {
    fork_ring[fslot(sid, fcount[sid])] = packet;
    ++fcount[sid];
  }

  // A fresh packet holding the next local operands of `s`. local_value is
  // linear in the element index, so each engine keeps the next value and
  // bumps it by the constant stride per element.
  Ref fill_local(Node& s) {
    const long long size =
        std::min<long long>(config.packet_payload, s.target - s.injected);
    const std::int32_t slab = alloc_slab();
    std::int64_t* out = payload(slab);
    std::int64_t value = s.inj_next;
    for (long long i = 0; i < size; ++i) {
      out[i] = value;
      value += kElemStride;
    }
    s.inj_next = value;
    s.injected += size;
    return Ref{slab, static_cast<std::int32_t>(size)};
  }

  Ref make_reduce_packet(std::int32_t state_idx) {
    Node& s = nodes[static_cast<std::size_t>(state_idx)];
    const Ref packet = fill_local(s);
    std::int64_t* out = payload(packet.slab);
    for (std::int32_t c = 0; c < s.nchild; ++c) {
      const std::size_t cvc = static_cast<std::size_t>(
          child_vcs[static_cast<std::size_t>(s.stage_base + c)]);
      const Ref head = pop_landed(cvc);
      if (vcs[cvc].ready == 0) --s.ready;
      if (head.size != packet.size) {
        throw std::logic_error("reduce packet misalignment");
      }
      const std::int64_t* in = payload(head.slab);
      for (std::int32_t i = 0; i < packet.size; ++i) out[i] += in[i];
      free_slabs.push_back(head.slab);
    }
    PFAR_OBS(on_reduce_packet(
        s.tree,
        state_idx == root_state[static_cast<std::size_t>(s.tree)] &&
            s.injected >= s.target,
        run.now));
    return packet;
  }

  // Checks a delivered packet against the incrementally generated
  // expected values (the same integers as recomputing from scratch).
  void deliver(std::size_t si, Ref packet) {
    Node& s = nodes[si];
    const std::int64_t* p = payload(packet.slab);
    std::int64_t expected = s.exp_next;
    for (std::int32_t i = 0; i < packet.size; ++i) {
      if (p[i] != expected) run.result.values_correct = false;
      expected += exp_slope;
    }
    s.exp_next = expected;
    run.record_delivery(s.tree, si, packet.size);
  }

  // The reference engine's drop_edge on the flat rings; the reclaimed
  // packets' and credits' events are voided.
  void drop_edge(int eid) {
    for (int d : {2 * eid, 2 * eid + 1}) {
      for (std::int32_t lk = lv_base[static_cast<std::size_t>(d)];
           lk < lv_base[static_cast<std::size_t>(d) + 1]; ++lk) {
        const std::size_t i = static_cast<std::size_t>(lv_ids[static_cast<std::size_t>(lk)]);
        Vc& vc = vcs[i];
        PFAR_ENSURE(vc.credits + static_cast<std::int32_t>(vc.credits_inflight) +
                            static_cast<std::int32_t>(vc.total) ==
                        config.vc_credits,
                    i, vc.credits, vc.credits_inflight, vc.total);
        const std::uint32_t inflight = vc.total - vc.ready;
        if (inflight > 0) {
          for (std::uint32_t k = vc.ready; k < vc.total; ++k) {
            const Ref r = vslot(i, k);
            run.count_drop(d, r.size);
            free_slabs.push_back(r.slab);
          }
          vc.total = vc.ready;
          vc.credits += static_cast<std::int32_t>(inflight);
          poison_vc(vc);
        }
        vc.credits += static_cast<std::int32_t>(vc.credits_inflight);
        vc.credits_inflight = 0;
        PFAR_ENSURE(vc.credits + static_cast<std::int32_t>(vc.ready) ==
                        config.vc_credits,
                    i, vc.credits, vc.ready);
      }
    }
    void_events([eid](const Vc& vc) { return vc.dlink >> 1 == eid; });
  }

  // The reference engine's retract_tree on the flat rings. Retraction
  // counts are order-independent, so both engines account identical totals.
  void retract_tree(int t) {
    const auto retract = [&](Ref r) {
      run.retract(r.size);
      free_slabs.push_back(r.slab);
    };
    for (std::size_t i = 0; i < vcs.size(); ++i) {
      Vc& vc = vcs[i];
      if (vc.src_state / n != t) continue;
      for (std::uint32_t k = 0; k < vc.total; ++k) retract(vslot(i, k));
      // Withdraw from the consumer's ready count before clearing, exactly
      // once, matching the poisoned/ready bookkeeping.
      if (vc.is_reduce && vc.ready > 0 && !vc.poisoned) {
        --nodes[static_cast<std::size_t>(vc.dst_state)].ready;
      }
      vc.total = 0;
      vc.ready = 0;
      vc.credits_inflight = 0;
      vc.credits = config.vc_credits;
      vc.poisoned = false;
      vc.canceled = true;
    }
    void_events([](const Vc& vc) { return vc.canceled; });
    for (int v = 0; v < n; ++v) {
      const Node& s = nodes[static_cast<std::size_t>(t * n + v)];
      for (std::int32_t c = 0; c < s.nchild; ++c) {
        const std::size_t sid = static_cast<std::size_t>(s.stage_base + c);
        for (std::uint32_t k = 0; k < fcount[sid]; ++k) retract(fork_ring[fslot(sid, k)]);
        fcount[sid] = 0;
      }
    }
    const std::size_t ti = static_cast<std::size_t>(t);
    for (std::uint32_t k = 0; k < rq_count[ti]; ++k) retract(root_ring[qslot(ti, k)]);
    rq_count[ti] = 0;
  }

  // 1. Arrivals: the buckets due by now (at most one, the front, except
  // with zero latency). Landings advance the ready boundary of the VC's
  // combined ring; credits go back to the sender.
  void arrivals() {
    std::uint64_t sig = 0;
    while (bcount > 0 && bucket_at(0).cycle <= run.now) {
      for (const Event& ev : bucket_at(0).events) {
        Vc& vc = vcs[static_cast<std::size_t>(ev.vc)];
        if (ev.landings > 0) {
          sig += sig_term(static_cast<std::uint64_t>(ev.vc) << 20 ^ ev.landings);
          const bool was_empty = vc.ready == 0;
          vc.ready += ev.landings;
          run.record_arrival(vc.dlink, static_cast<int>(vc.ready));
          // A poisoned VC's landings still occupy the buffer (occupancy
          // above) but never make it ready (its consumer must not fire).
          if (!vc.poisoned) {
            if (!vc.is_reduce) {
              activate_bcast(vc.dst_state);
            } else if (was_empty) {
              ++nodes[static_cast<std::size_t>(vc.dst_state)].ready;
            }
          }
        }
        if (ev.credits > 0) {
          vc.credits += static_cast<std::int32_t>(ev.credits);
          vc.credits_inflight -= ev.credits;
          run.progressed = true;
        }
      }
      bhead = (bhead + 1) & (buckets.size() - 1);
      --bcount;
    }
    cycle_sig += sig;
  }

  // 2. Root engines (O(num_trees), cheap enough to visit every cycle).
  void root_engines() {
    for (int t = 0; t < num_trees; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      if (run.tree_canceled[ti]) continue;
      const std::int32_t si = root_state[ti];
      Node& s = nodes[static_cast<std::size_t>(si)];
      for (int fire = 0; fire < bw; ++fire) {
        if (s.injected >= s.target) break;
        if (mode != Collective::kReduce &&
            static_cast<int>(rq_count[ti]) >= config.vc_credits) {
          break;
        }
        if (mode != Collective::kBroadcast && s.ready != s.nchild) break;
        const Ref packet = mode == Collective::kBroadcast
                               ? fill_local(s)
                               : make_reduce_packet(si);
        if (mode == Collective::kReduce) {
          deliver(static_cast<std::size_t>(si), packet);
          free_slabs.push_back(packet.slab);
        } else {
          root_ring[qslot(ti, rq_count[ti])] = packet;
          ++rq_count[ti];
          activate_bcast(si);
        }
        run.progress();
      }
    }
  }

  // 3. Broadcast replication, active engines only. Processing order
  // within a cycle does not affect any state the engines share, so the
  // activation order is as good as the reference engine's (t, v) order.
  void broadcast_fork() {
    if (bcast_list.empty()) return;
    bcast_current.clear();
    bcast_current.swap(bcast_list);
    for (std::int32_t idx : bcast_current) bcast_active[static_cast<std::size_t>(idx)] = 0;
    for (const std::int32_t idx : bcast_current) {
      const std::size_t si = static_cast<std::size_t>(idx);
      const Node& s = nodes[si];
      const std::size_t t = static_cast<std::size_t>(s.tree);
      if (run.tree_canceled[t]) continue;
      const bool is_root = (idx == root_state[t]);
      if (!is_root && s.parent_vc < 0) continue;
      const std::int32_t sb = s.stage_base;
      const std::int32_t forks = s.nchild;
      bool blocked = false;
      int moves = 0;
      for (; moves < bw; ++moves) {
        // Every fork stage needs room; a full one is re-armed by a
        // fork-slot drain in arbitration.
        for (std::int32_t c = 0; c < forks && !blocked; ++c) {
          blocked = static_cast<int>(fcount[static_cast<std::size_t>(sb + c)]) >=
                    config.fork_buffer;
        }
        if (blocked) break;
        Ref packet;
        if (is_root) {
          blocked = rq_count[t] == 0;  // re-armed by the next root push
          if (blocked) break;
          packet = root_ring[qslot(t, 0)];
          rq_head[t] = (rq_head[t] + 1) & pmask;
          --rq_count[t];
        } else {
          const std::size_t pvc = static_cast<std::size_t>(s.parent_vc);
          blocked = vcs[pvc].poisoned || vcs[pvc].ready == 0;  // next arrival
          if (blocked) break;
          packet = pop_landed(pvc);
        }
        deliver(si, packet);
        if (forks == 0) {
          free_slabs.push_back(packet.slab);
          continue;
        }
        for (std::int32_t c = 0; c + 1 < forks; ++c) {
          const std::int32_t slab = alloc_slab();
          std::copy_n(payload(packet.slab), packet.size, payload(slab));
          push_fork(static_cast<std::size_t>(sb + c), Ref{slab, packet.size});
        }
        push_fork(static_cast<std::size_t>(sb + forks - 1), packet);
      }
      // Used its full per-cycle budget without blocking: it may have more
      // work next cycle with no new event to re-arm it, so stay active.
      if (!blocked && moves == bw) activate_bcast(idx);
    }
  }

  // 4. Link arbitration, as in the reference engine, except that a
  // token-starved link contributes its recharge time to the event horizon
  // instead of being probed. A down link contributes nothing: it resumes
  // via its link_up fault event, itself a wake point.
  void arbitrate() {
    recharge_offset = LLONG_MAX;
    std::uint64_t sig = 0;
    for (const std::int32_t dl : active_dlinks) {
      const std::size_t d = static_cast<std::size_t>(dl);
      if (!run.open_link(dl)) continue;
      if (run.tokens[d] <= 0) {
        // Cycles until the bucket is positive again: smallest k >= 1 with
        // tokens + k * bw >= 1.
        recharge_offset =
            std::min(recharge_offset, (1 - run.tokens[d] + bw - 1) / bw);
        continue;
      }
      const std::int32_t lb = lv_base[d];
      const int count = static_cast<int>(lv_base[d + 1] - lb);
      const int probes = count * bw;
      int slot = rr[d];
      for (int probe = 0; probe < probes && run.tokens[d] > 0;
           ++probe, slot = slot + 1 == count ? 0 : slot + 1) {
        const std::size_t id =
            static_cast<std::size_t>(lv_ids[static_cast<std::size_t>(lb + slot)]);
        Vc& vc = vcs[id];
        if (vc.canceled) continue;
        if (vc.credits <= 0) {
          // Credit stall, counted at the same probe point as the reference
          // engine. Stall totals are engine-relative: this engine never
          // probes the cycles it fast-forwards over.
          PFAR_OBS(on_credit_stall_if(vc_ready(vc)));
          continue;
        }
        if (!vc_ready(vc)) continue;
        rr[d] = slot + 1 == count ? 0 : slot + 1;
        Ref packet;
        if (vc.is_reduce) {
          packet = make_reduce_packet(vc.src_state);
        } else {
          const std::size_t sid = static_cast<std::size_t>(vc.stage);
          packet = fork_ring[fslot(sid, 0)];
          fhead[sid] = (fhead[sid] + 1) & fmask;
          --fcount[sid];
          activate_bcast(vc.src_state);  // fork slot drained
        }
        --vc.credits;
        sig += sig_term(id);
        if (run.grant(dl, packet.size)) {
          vslot(id, vc.total) = packet;
          ++vc.total;
          ++event(id).landings;
        } else {
          free_slabs.push_back(packet.slab);
          poison_vc(vc);
          return_credit(id);
        }
      }
    }
    cycle_sig += sig;
  }

  // Next cycle: the following one after progress, else the idle jump to
  // the earliest in-flight landing, token recharge or run wake point.
  // Either way the step is watched for a periodic steady state.
  void advance() {
    const long long from = run.now;
    if (run.progressed) {
      ++run.now;
    } else {
      long long target = LLONG_MAX;
      if (bcount > 0) target = std::max(bucket_at(0).cycle, run.now + 1);
      if (recharge_offset != LLONG_MAX) {
        target = std::min(target, run.now + recharge_offset);
      }
      run.jump_to(run.wake_point(target, active_dlinks), active_dlinks);
    }
    if (periodic) watch_period(run.now - from);
  }

  // --- Periodic steady-state jump ------------------------------------------
  //
  // After pipeline fill the fabric typically repeats a short pattern of
  // steps (drive-loop iterations, each one stepped cycle or one idle jump)
  // until the first stream nears its target. Three stages skip it exactly:
  //
  //  * detect (watch_period): each step's grants, landings and clock
  //    advance fold into a signature; a period of P <= kMaxPeriod steps
  //    whose signature has repeated kRepeats times is a candidate;
  //  * confirm (probe_period): snapshots A, B, C taken P steps apart must
  //    agree on every control value, and every linear field (counters,
  //    generators, payload elements, cycle stamps, `now` itself) must move
  //    by the same delta over A->B as over B->C. Control flow reads no
  //    payload and compares counters only against targets the jump stays
  //    below, so B->C ran A->B's control flow; the data path is linear, so
  //    equal deltas in two consecutive periods hold in every later period;
  //  * jump (jump_periods): J periods at once, J the largest count keeping
  //    every stream below its target and every frozen deadline, scripted
  //    fault event and the cycle limit beyond the skipped span. Each linear
  //    field moves by J times its delta and the observer replays the
  //    confirming period's busy-span updates J times.

  // One grant's or landing's share of the step signature: a sum of mixed
  // terms, accumulated in a register by the phase and added once.
  static std::uint64_t sig_term(std::uint64_t x) {
    return (x + 1) * 0x9e3779b97f4a7c15ULL;
  }

  void watch_period(long long step) {
    const std::uint64_t sig =
        (cycle_sig ^ static_cast<std::uint64_t>(step)) * 0x100000001b3ULL;
    cycle_sig = 0;
    const std::uint64_t mask = sig_hist.size() - 1;
    const std::uint64_t at = static_cast<std::uint64_t>(steps++);
    int found = 0;  // the smallest period repeated kRepeats times
    for (int p = kMaxPeriod; p >= 1; --p) {
      const std::size_t i = static_cast<std::size_t>(p);
      sig_run[i] = sig_hist[(at - i) & mask] == sig ? sig_run[i] + 1 : 0;
      if (sig_run[i] >= kRepeats * p) found = p;
    }
    sig_hist[at & mask] = sig;
    if (probe_p > 0) {
      if (steps == probe_due) probe_period();
    } else if (found > 0 && steps >= probe_hold) {
      probe_p = found;
      probe_stage = 1;
      probe_due = steps + found;
      snapshot(snap_a);
    }
  }

  void end_probe() {
    probe_p = 0;
    PFAR_OBS(stop_tape());
  }

  void fail_probe() {
    end_probe();
    probe_failures = std::min(probe_failures + 1, 16);
    probe_hold = steps + (kBackoff << probe_failures);
  }

  // Snapshot B (compared with A) or C (confirmed, then the jump).
  void probe_period() {
    if (probe_stage == 1) {
      snapshot(snap_b);
      if (snap_b.ctrl != snap_a.ctrl) return fail_probe();
      for (std::size_t i = 0; i < snap_b.lin.size(); ++i) {
        snap_a.lin[i] = snap_b.lin[i] - snap_a.lin[i];
      }
      probe_stage = 2;
      probe_due = steps + probe_p;
      PFAR_OBS(start_tape());
      return;
    }
    const long long periods = confirmed_periods();
    if (periods <= 0) return fail_probe();
    jump_periods(periods);
  }

  // Sized by a counting pass first: two vectors grown by doubling in
  // lockstep leave heap holes that later runs' allocations cannot reuse,
  // so a process running many jumps would keep growing its heap.
  void snapshot(Snapshot& s) {
    std::size_t nc = 0, nl = 0;
    const auto count = [&](const auto&, long long) { ++nl; };
    visit_state([&](long long) { ++nc; }, count, count);
    s.ctrl.clear();
    s.lin.clear();
    s.ctrl.reserve(nc);
    s.lin.reserve(nl);
    const auto lin = [&](const auto& x, long long) { s.lin.push_back(x); };
    visit_state([&](long long v) { s.ctrl.push_back(v); }, lin, lin);
  }

  // At snapshot C: the number of periods the jump may skip, or 0 when C
  // does not repeat B the way B repeated A.
  long long confirmed_periods() {
    const long long now = run.now;
    const long long p = now - snap_b.lin[0];  // the period in cycles
    long long periods = (config.max_cycles - now) / p;
    if (run.fault.next < run.fault.events.size()) {
      periods = std::min(periods,
                         (run.fault.events[run.fault.next].cycle - now) / p);
    }
    bool same = true;
    std::size_t ci = 0, li = 0;
    // The delta of the next linear field over B->C, checked against A->B.
    const auto delta = [&](long long x) {
      if (!same || li == snap_b.lin.size()) {
        same = false;
        return 0LL;
      }
      const long long d = x - snap_b.lin[li];
      same = d == snap_a.lin[li++];
      return d;
    };
    visit_state(
        [&](long long v) {
          same = same && ci < snap_b.ctrl.size() && snap_b.ctrl[ci] == v;
          ++ci;
        },
        [&](const auto& x, long long cap) {
          const long long d = delta(x);
          if (same && d > 0 && cap != LLONG_MAX) {
            periods = std::min(periods, (cap - 1 - x) / d);
          }
        },
        [&](const auto& x, long long slack) {
          const long long d = delta(x);
          same = same && (d == 0 || d == p);
          // A stamp that stayed put expires slack + 1 cycles after it.
          if (same && d == 0 && slack < LLONG_MAX - 1 - x) {
            periods = std::min(periods, (x + slack + 1 - now) / p);
          }
        });
    const bool aligned = ci == snap_b.ctrl.size() && li == snap_b.lin.size();
    return same && aligned ? periods : 0;
  }

  // Skips `periods` confirmed periods: every linear field moves by that
  // many B->C deltas (`now` and every other stamp by 0 or the period), and
  // the observer replays the confirming period's busy-span updates once per
  // skipped period.
  void jump_periods(long long periods) {
    const long long p = run.now - snap_b.lin[0];
    std::size_t li = 0;
    const auto shift = [&](auto& x, long long) {
      x += periods * (x - snap_b.lin[li++]);
    };
    visit_state([](long long) {}, shift, shift);
    PFAR_OBS(replay_tape(periods, p));
    ++run.result.periodic_jumps;
    run.result.periodic_cycles += periods * p;
    end_probe();
    probe_failures = 0;
    sig_run.fill(0);
  }

  // Every field of the state at a step boundary that a period must repeat,
  // in a fixed order whose shape depends on control values only (`now`
  // first, as the period's length in cycles):
  //  ctrl(v)          control: must repeat exactly;
  //  lin(x, cap)      counters, generators and payload elements: must move
  //                   by the same delta each period, and a growing one
  //                   must stay below `cap` (a stream below its target);
  //  stamp(x, slack)  cycle stamps: must stay put or move with `now`; one
  //                   that stays put is read as a deadline `slack` + 1
  //                   cycles later.
  // Not visited: ring heads and slab ids (only the logical queue contents
  // matter), the newest-event keys (valid within one cycle), and the
  // occupancy maxima (a repeated period cannot raise them).
  template <class Ctrl, class Lin, class Stamp>
  void visit_state(Ctrl&& ctrl, Lin&& lin, Stamp&& stamp) {
    constexpr long long kNone = LLONG_MAX;
    Run& r = run;
    SimResult& res = r.result;
    lin(r.now, kNone);
    stamp(r.last_progress, config.stall_limit);
    for (std::size_t t = 0; t < r.tree_remaining.size(); ++t) {
      const bool timed = config.progress_timeout > 0 && !r.tree_canceled[t] &&
                         r.tree_remaining[t] > 0;
      stamp(r.tree_progress[t], timed ? config.progress_timeout : kNone);
      lin(r.tree_remaining[t], kNone);
      ctrl(r.tree_canceled[t]);
      ctrl(res.tree_first_delivery[t]);
      ctrl(res.tree_finish_cycle[t]);
    }
    lin(r.delivered_total, r.total_target);
    ctrl(r.total_target);
    for (long long& d : r.delivered) lin(d, kNone);
    ctrl(res.values_correct);
    ctrl(res.dropped_packets);
    ctrl(res.canceled_packets);
    ctrl(static_cast<long long>(r.fault.next));
    for (const std::int32_t dl : active_dlinks) {
      const std::size_t d = static_cast<std::size_t>(dl);
      ctrl(r.tokens[d]);
      ctrl(rr[d]);
      lin(res.link_flits[d], kNone);
      if (!r.bg_rates.empty()) {
        ctrl(r.bg_acc[d]);
        lin(res.link_bg_flits[d], kNone);
      }
    }
    if (obs != nullptr) lin(obs->credit_stalls, kNone);
    const auto packet = [&](const Ref& ref) {
      ctrl(ref.size);
      std::int64_t* v = payload(ref.slab);
      for (std::int32_t i = 0; i < ref.size; ++i) lin(v[i], kNone);
    };
    for (std::size_t id = 0; id < vcs.size(); ++id) {
      const Vc& vc = vcs[id];
      ctrl(vc.total);
      ctrl(vc.ready);
      ctrl(vc.credits_inflight);
      ctrl(vc.credits);
      ctrl(vc.poisoned);
      ctrl(vc.canceled);
      for (std::uint32_t k = 0; k < vc.total; ++k) packet(vslot(id, k));
    }
    for (Node& s : nodes) {
      ctrl(s.ready);
      lin(s.injected, s.target);
      lin(s.inj_next, kNone);
      lin(s.exp_next, kNone);
    }
    for (std::size_t sid = 0; sid < fcount.size(); ++sid) {
      ctrl(fcount[sid]);
      for (std::uint32_t k = 0; k < fcount[sid]; ++k) {
        packet(fork_ring[fslot(sid, k)]);
      }
    }
    for (std::size_t t = 0; t < rq_count.size(); ++t) {
      ctrl(rq_count[t]);
      for (std::uint32_t k = 0; k < rq_count[t]; ++k) {
        packet(root_ring[qslot(t, k)]);
      }
    }
    ctrl(static_cast<long long>(bcount));
    for (std::size_t k = 0; k < bcount; ++k) {
      Bucket& b = bucket_at(k);
      stamp(b.cycle, -1);  // lands at its cycle
      ctrl(static_cast<long long>(b.events.size()));
      for (const Event& ev : b.events) {
        ctrl(ev.vc);
        ctrl(ev.landings);
        ctrl(ev.credits);
      }
    }
    ctrl(static_cast<long long>(bcast_list.size()));
    for (const std::int32_t idx : bcast_list) ctrl(idx);
  }

  // The reference engine's quiesce contracts on the flat rings.
  void quiesce() const {
    for (std::size_t id = 0; id < vcs.size(); ++id) {
      const Vc& vc = vcs[id];
      PFAR_ENSURE(vc.total == 0, id, vc.total);
      PFAR_ENSURE(vc.credits + static_cast<std::int32_t>(vc.credits_inflight) ==
                      config.vc_credits,
                  id, vc.credits, vc.credits_inflight);
    }
    for (std::size_t sid = 0; sid < fcount.size(); ++sid) {
      PFAR_ENSURE(fcount[sid] == 0, sid, fcount[sid]);
    }
    for (std::size_t t = 0; t < rq_count.size(); ++t) {
      PFAR_ENSURE(rq_count[t] == 0, t, rq_count[t]);
    }
  }
};

// Ring capacity for a queue of at most `limit` packets of one tree: no
// queue ever holds more packets than the largest tree sends.
std::uint32_t ring_capacity(int limit, const std::vector<long long>& elements,
                            int payload) {
  long long packets = 1;
  for (const long long m : elements) packets = std::max(packets, (m + payload - 1) / payload);
  return std::bit_ceil(static_cast<std::uint32_t>(std::min<long long>(limit, packets)));
}

HorizonEngine::HorizonEngine(Run& r)
    : run(r),
      obs(r.obs),
      config(r.config),
      n(r.f.n),
      num_trees(r.f.num_trees),
      bw(r.config.link_bandwidth),
      latency(r.config.link_latency),
      stride(r.config.packet_payload),
      mode(r.config.collective),
      vcs(r.f.vcs.size()),
      pcap(ring_capacity(r.config.vc_credits, r.elements, stride)),
      pmask(pcap - 1),
      nodes(r.f.state.size()),
      fcap(ring_capacity(r.config.fork_buffer, r.elements, stride)),
      fmask(fcap - 1),
      buckets(16),
      periodic(!r.fault.flaky) {
  const Fabric& f = r.f;
  const std::size_t trees = static_cast<std::size_t>(num_trees);
  const std::size_t dlinks = static_cast<std::size_t>(f.num_dlinks);

  // Operand and expected-value generators. Values are functions of the
  // GLOBAL tree index, so a sharded sub-run (tree_gid != identity) moves
  // the very same integers as the serial run.
  exp_slope = mode == Collective::kBroadcast
                  ? kElemStride
                  : static_cast<std::int64_t>(n) * kElemStride;
  std::int32_t num_stages = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node& s = nodes[i];
    const std::size_t tree = i / static_cast<std::size_t>(n);
    const int gid = f.tree_gid[tree];
    s.tree = static_cast<std::int32_t>(tree);
    s.target = r.elements[tree];
    s.nchild = static_cast<std::int32_t>(f.state[i].children.size());
    s.parent_vc = f.state[i].parent_bcast_vc;
    s.stage_base = num_stages;
    num_stages += s.nchild;
    s.inj_next = local_value(static_cast<int>(i % static_cast<std::size_t>(n)), gid, 0);
    s.exp_next = mode == Collective::kBroadcast
                     ? local_value(f.roots[tree], gid, 0)
                     : sum_over_nodes(n, gid, 0);
    const auto& cvcs = f.state[i].child_reduce_vc;
    child_vcs.insert(child_vcs.end(), cvcs.begin(), cvcs.end());
  }
  root_state.resize(trees);
  for (int t = 0; t < num_trees; ++t) {
    root_state[static_cast<std::size_t>(t)] =
        t * n + f.roots[static_cast<std::size_t>(t)];
  }

  ring.resize(vcs.size() * pcap);
  for (std::size_t id = 0; id < vcs.size(); ++id) {
    const VcState& src = f.vcs[id];
    Vc& vc = vcs[id];
    vc.credits = config.vc_credits;
    vc.is_reduce = src.phase == Phase::kReduce;
    vc.src_state = src.tree * n + src.src;
    vc.dst_state = src.tree * n + src.dst;
    vc.dlink = src.dlink;
    if (src.phase == Phase::kBcast) {
      vc.stage = nodes[static_cast<std::size_t>(vc.src_state)].stage_base +
                 src.fork_index;
    }
  }

  lv_base.assign(dlinks + 1, 0);
  lv_ids.resize(vcs.size());
  for (std::size_t dl = 0; dl < dlinks; ++dl) {
    const auto& ids = f.link_vcs[dl];
    lv_base[dl + 1] = lv_base[dl] + static_cast<std::int32_t>(ids.size());
    if (ids.empty()) continue;
    active_dlinks.push_back(static_cast<std::int32_t>(dl));
    std::copy(ids.begin(), ids.end(), lv_ids.begin() + lv_base[dl]);
  }
  rr.assign(dlinks, 0);

  fork_ring.resize(static_cast<std::size_t>(num_stages) * fcap);
  fhead.assign(static_cast<std::size_t>(num_stages), 0);
  fcount.assign(static_cast<std::size_t>(num_stages), 0);
  root_ring.resize(trees * pcap);
  rq_head.assign(trees, 0);
  rq_count.assign(trees, 0);
  bcast_active.assign(nodes.size(), 0);
}

// The one cycle loop both engines run: the run's cycle-top events, the
// engine's four phases in model order, then its clock step (one cycle, or
// the horizon engine's idle jump). Returns the exit cycle.
template <class Engine>
long long drive(Engine& eng) {
  Run& run = eng.run;
  while (run.delivered_total < run.total_target) {
    ++run.result.stepped_cycles;
    run.begin_cycle(eng);
    eng.arrivals();
    eng.root_engines();
    if (run.config.collective != Collective::kReduce) eng.broadcast_fork();
    eng.arbitrate();
    eng.advance();
  }
  eng.quiesce();
  return run.now;
}

long long simulate(Run& run) {
  if (run.config.engine == SimEngine::kReference) {
    ReferenceEngine eng(run);
    return drive(eng);
  }
  HorizonEngine eng(run);
  return drive(eng);
}

}  // namespace


// ---------------------------------------------------------------------------
// Intra-run sharding (SimConfig::shard_threads, fast-forward engine only).
// Trees are grouped into link-disjoint components: trees sharing any
// physical edge always land in the same group, so two groups never have a
// VC on the same directed link and exchange no packets, credits, grants or
// token-bucket state. Each group therefore runs in its own Fabric (built on
// the FULL topology, preserving global directed-link ids and — via
// Fabric::tree_gid — global packet values) and the per-group results merge
// into exactly the serial run's: per-tree fields scatter by global index,
// per-link counters add over disjoint supports, maxima/sums combine, and
// the run's exit cycle is the max of the group exit cycles (each engine
// exits at its last delivery cycle + 1). Bit-identity across every thread
// count is pinned by tests/sharded_determinism_test.cpp. The one documented
// divergence: a deadlock/cycle-limit *exception* reports the failing
// group's own clock, which may differ from the serial cycle number.
//
// Public (docs/service_layer.md): the same partition is the allocation
// unit of the multi-tenant service scheduler — two jobs on different
// groups time nothing of each other, so the service may run them on
// independent virtual timelines exactly.
// ---------------------------------------------------------------------------
std::vector<std::vector<int>> link_disjoint_tree_groups(
    const graph::Graph& topology, const std::vector<TreeEmbedding>& trees) {
  const int num_trees = static_cast<int>(trees.size());
  const int n = topology.num_vertices();
  std::vector<int> uf(static_cast<std::size_t>(num_trees));
  for (int t = 0; t < num_trees; ++t) uf[static_cast<std::size_t>(t)] = t;
  const auto find = [&](int x) {
    while (uf[static_cast<std::size_t>(x)] != x) {
      uf[static_cast<std::size_t>(x)] =
          uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(x)])];
      x = uf[static_cast<std::size_t>(x)];
    }
    return x;
  };
  std::vector<int> edge_owner(static_cast<std::size_t>(topology.num_edges()),
                              -1);
  for (int t = 0; t < num_trees; ++t) {
    const auto& parent = trees[static_cast<std::size_t>(t)].parent;
    for (int v = 0; v < n; ++v) {
      const int p = parent[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      const std::size_t e =
          static_cast<std::size_t>(topology.edge_id(v, p));
      if (edge_owner[e] < 0) {
        edge_owner[e] = t;
      } else {
        const int a = find(edge_owner[e]);
        const int b = find(t);
        if (a != b) uf[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  }
  std::vector<int> group_of(static_cast<std::size_t>(num_trees), -1);
  std::vector<std::vector<int>> groups;
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t r = static_cast<std::size_t>(find(t));
    if (group_of[r] < 0) {
      group_of[r] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[r])].push_back(t);
  }
  // The groups partition the tree set: every tree lands in exactly one.
  std::size_t grouped = 0;
  for (const auto& g : groups) grouped += g.size();
  PFAR_ENSURE(grouped == static_cast<std::size_t>(num_trees), grouped,
              num_trees);
  return groups;
}

namespace {

long long run_sharded(const graph::Graph& topology,
                      const std::vector<TreeEmbedding>& trees,
                      const SimConfig& config,
                      const std::vector<long long>& elements_per_tree,
                      const std::vector<std::vector<int>>& groups,
                      const std::vector<long long>& bg_rates_ppm,
                      SimResult& result) {
  const int num_groups = static_cast<int>(groups.size());
  std::vector<SimResult> sub(static_cast<std::size_t>(num_groups));
  std::vector<long long> sub_cycles(static_cast<std::size_t>(num_groups), 0);
  // Every group receives the FULL fault script: an event on another
  // group's edge flips a link no local VC crosses, which is a no-op (the
  // serial run behaves identically for that group's trees), and flaky-drop
  // ordinals are per directed link, whose packets all belong to the one
  // group owning that edge — so decisions match the serial sequence.
  util::parallel_for(
      config.shard_threads, num_groups, [&](int g) {
        const std::vector<int>& gids =
            groups[static_cast<std::size_t>(g)];
        std::vector<TreeEmbedding> sub_trees;
        std::vector<long long> sub_elements;
        sub_trees.reserve(gids.size());
        sub_elements.reserve(gids.size());
        for (int t : gids) {
          sub_trees.push_back(trees[static_cast<std::size_t>(t)]);
          sub_elements.push_back(
              elements_per_tree[static_cast<std::size_t>(t)]);
        }
        Run run(topology, sub_trees, config, sub_elements, &gids);
        if (run.total_target > 0) {
          run.set_background(bg_rates_ppm);
          sub_cycles[static_cast<std::size_t>(g)] = simulate(run);
        }
        sub[static_cast<std::size_t>(g)] = std::move(run.result);
      });

  // Deterministic merge, in group order (though every combiner below is
  // order-independent: scatter to disjoint indices, sums, maxima, ANDs).
  long long cycles = 0;
  for (int g = 0; g < num_groups; ++g) {
    const std::size_t gi = static_cast<std::size_t>(g);
    cycles = std::max(cycles, sub_cycles[gi]);
    const SimResult& r = sub[gi];
    const std::vector<int>& gids = groups[gi];
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const std::size_t t = static_cast<std::size_t>(gids[i]);
      result.tree_finish_cycle[t] = r.tree_finish_cycle[i];
      result.tree_first_delivery[t] = r.tree_first_delivery[i];
      result.tree_failed[t] = r.tree_failed[i];
      result.tree_fail_cycle[t] = r.tree_fail_cycle[i];
      result.tree_completed[t] = r.tree_completed[i];
    }
    result.max_vc_occupancy =
        std::max(result.max_vc_occupancy, r.max_vc_occupancy);
    result.values_correct = result.values_correct && r.values_correct;
    result.dropped_packets += r.dropped_packets;
    result.dropped_flits += r.dropped_flits;
    result.canceled_packets += r.canceled_packets;
    result.canceled_flits += r.canceled_flits;
    result.stepped_cycles += r.stepped_cycles;
    result.idle_skipped_cycles += r.idle_skipped_cycles;
    result.periodic_jumps += r.periodic_jumps;
    result.periodic_cycles += r.periodic_cycles;
    for (std::size_t d = 0; d < r.link_flits.size(); ++d) {
      result.link_flits[d] += r.link_flits[d];
      result.link_dropped_flits[d] += r.link_dropped_flits[d];
      // Disjoint supports: exactly one group touches each VC-carrying
      // link, so max == sum here. Background counts are windowed per
      // group and normalized to the global exit cycle by the closed-form
      // pass in run() (background + faults forces a serial run).
      result.link_queue_hwm[d] =
          std::max(result.link_queue_hwm[d], r.link_queue_hwm[d]);
      result.link_bg_flits[d] += r.link_bg_flits[d];
    }
  }
  return cycles;
}

}  // namespace

SimResult sized_sim_result(const std::vector<long long>& elements_per_tree,
                           int num_dlinks) {
  PFAR_REQUIRE(num_dlinks >= 0, num_dlinks);
  const std::size_t trees = elements_per_tree.size();
  const std::size_t dlinks = static_cast<std::size_t>(num_dlinks);
  SimResult result;
  result.values_correct = true;
  result.tree_finish_cycle.assign(trees, 0);
  result.tree_first_delivery.assign(trees, -1);
  result.tree_failed.assign(trees, 0);
  result.tree_fail_cycle.assign(trees, -1);
  result.tree_completed.assign(trees, 0);
  result.link_flits.assign(dlinks, 0);
  result.link_queue_hwm.assign(dlinks, 0);
  result.link_bg_flits.assign(dlinks, 0);
  result.link_dropped_flits.assign(dlinks, 0);
  for (long long m : elements_per_tree) {
    if (m < 0) throw std::invalid_argument("run: negative element count");
    result.total_elements += m;
  }
  return result;
}

// pfar-lint: allow(contract-coverage) every config field, fault script and tree is validated via std::invalid_argument throws below
AllreduceSimulator::AllreduceSimulator(const graph::Graph& topology,
                                       std::vector<TreeEmbedding> trees,
                                       SimConfig config)
    : topology_(topology), trees_(std::move(trees)), config_(config) {
  // Every range check is written in positive form so NaN fails it.
  const SimConfig& c = config_;
  if (!(c.link_bandwidth >= 1 && c.link_latency >= 0 && c.vc_credits >= 1 &&
        c.fork_buffer >= 1 && c.packet_payload >= 1 &&
        c.packet_header_flits >= 0)) {
    throw std::invalid_argument("AllreduceSimulator: bad config");
  }
  if (!(c.max_cycles >= 0 && c.stall_limit >= 0)) {
    throw std::invalid_argument(
        "AllreduceSimulator: max_cycles and stall_limit must be "
        "non-negative");
  }
  if (!(c.progress_timeout >= 0)) {
    throw std::invalid_argument(
        "AllreduceSimulator: negative progress_timeout");
  }
  if (c.progress_timeout > 0 && !(c.progress_timeout < c.stall_limit)) {
    throw std::invalid_argument(
        "AllreduceSimulator: progress_timeout must be below stall_limit so "
        "per-tree detection fires before the global deadlock check");
  }
  const BackgroundTraffic& bg = c.background;
  if (!(bg.load >= 0.0 && bg.load < 1.0 && bg.packet_flits >= 1)) {
    throw std::invalid_argument(
        "AllreduceSimulator: background load must be in [0, 1) and "
        "packet_flits >= 1");
  }
  if (bg.active() && bg.pattern == TrafficPattern::kHotspot &&
      !(bg.hotspot_node >= 0 && bg.hotspot_node < topology_.num_vertices() &&
        bg.hotspot_fraction >= 0.0 && bg.hotspot_fraction <= 1.0)) {
    throw std::invalid_argument(
        "AllreduceSimulator: hotspot_node must name a vertex and "
        "hotspot_fraction lie in [0, 1]");
  }
  // Validate the fault script eagerly (edge existence, cycle/permille
  // ranges) so a bad script fails at construction, not mid-run.
  static_cast<void>(prepare_faults(topology_, config_.faults));
  const int n = topology_.num_vertices();
  for (const auto& tree : trees_) {
    if (static_cast<int>(tree.parent.size()) != n) {
      throw std::invalid_argument("AllreduceSimulator: tree size mismatch");
    }
    for (int v = 0; v < n; ++v) {
      if (v == tree.root) {
        if (tree.parent[static_cast<std::size_t>(v)] != -1) {
          throw std::invalid_argument("AllreduceSimulator: root has parent");
        }
        continue;
      }
      if (!topology_.has_edge(v, tree.parent[static_cast<std::size_t>(v)])) {
        throw std::invalid_argument(
            "AllreduceSimulator: tree edge not a physical link");
      }
    }
  }
}

// pfar-lint: allow(contract-coverage) the split vector is validated via std::invalid_argument throws (size and sign), matching the constructor
SimResult AllreduceSimulator::run(
    const std::vector<long long>& elements_per_tree) {
  const int num_trees = static_cast<int>(trees_.size());
  if (static_cast<int>(elements_per_tree.size()) != num_trees) {
    throw std::invalid_argument("run: elements_per_tree size mismatch");
  }

  // The flow tier never builds the per-VC fabric — that is the point: its
  // footprint is O(E + trees * N), which is what lets it reach q >= 243.
  if (config_.engine == SimEngine::kFlow) {
    return run_flow_allreduce(topology_, trees_, config_, elements_per_tree);
  }

  Run run(topology_, trees_, config_, elements_per_tree);
  SimResult& result = run.result;
  if (run.total_target == 0) return std::move(result);

  // Background traffic: steady-state per-directed-link drain rates,
  // computed once per run (empty vector = quiet network, and none of the
  // engines' background code executes).
  if (config_.background.active()) {
    run.set_background(background_link_rates_ppm(
        topology_, config_.background, config_.link_bandwidth));
  }
  const std::vector<long long>& bg_rates = run.bg_rates;

  // Observability: attach only when compiled in and a Recorder is supplied;
  // both engines then see the same (possibly null) observer pointer.
  SimObserver observer;
  if constexpr (obsv::kTraceCompiled) {
    if (config_.recorder != nullptr) {
      observer.init(config_.recorder, topology_, run.f, config_.collective);
      run.obs = &observer;
    }
  }

  // Intra-run sharding: fast-forward engine, more than one link-disjoint
  // tree group, and no observer (the trace is single-writer; a run with a
  // Recorder attached executes serially, still bit-identically).
  long long cycles = 0;
  bool sharded = false;
  // Background + faults runs execute serially: each shard would count
  // background drains over its own exit window and the per-link up-time
  // accounting could not be normalized afterwards (fault-free runs are
  // normalized in closed form below, so they shard freely).
  if (config_.engine == SimEngine::kFastForward &&
      config_.shard_threads != 1 && num_trees > 1 && run.obs == nullptr &&
      (bg_rates.empty() || config_.faults.empty())) {
    const auto groups = link_disjoint_tree_groups(topology_, trees_);
    if (groups.size() > 1) {
      cycles = run_sharded(topology_, trees_, config_, elements_per_tree,
                           groups, bg_rates, result);
      sharded = true;
      // Each group consumed its own FaultState copy up to its own exit
      // cycle. The serial engines apply every scripted event with
      // cycle <= exit - 1 (event cycles are wake points the idle jump
      // never skips), so replaying those events here reproduces the
      // serial run's final down set exactly.
      for (const auto& ev : run.fault.events) {
        if (ev.cycle < cycles) {
          run.fault.edge_down[static_cast<std::size_t>(ev.edge)] =
              ev.down ? 1 : 0;
        }
      }
    }
  }
  if (!sharded) cycles = simulate(run);

  result.cycles = cycles;
  result.aggregate_bandwidth = static_cast<double>(result.total_elements) /
                               static_cast<double>(cycles);
  // Healthy trees completed their whole assignment; failed trees recorded
  // their complete prefix at cancel time.
  for (int t = 0; t < num_trees; ++t) {
    if (!result.tree_failed[static_cast<std::size_t>(t)]) {
      result.tree_completed[static_cast<std::size_t>(t)] =
          elements_per_tree[static_cast<std::size_t>(t)];
    }
  }
  // Links still down at run end: the set recovery must replan around.
  const auto& edges = topology_.edges();
  for (std::size_t e = 0; e < run.fault.edge_down.size(); ++e) {
    if (run.fault.edge_down[e]) result.links_down.push_back(edges[e]);
  }
  if (!bg_rates.empty()) {
    // Every link was up for the whole run when no down/up events exist
    // (flaky links drop packets but keep serving), so each link's drain
    // count telescopes to the closed form over [0, cycles). Writing it
    // here (a) extends the accounting to links the engines never touch
    // (no VCs — the engines skip them, yet their background load is real
    // and the congestion controller wants it) and (b) normalizes sharded
    // runs, whose groups stop counting at their own exit cycles. With
    // down events the engine-maintained per-up-cycle counts stand, and
    // only VC-carrying links are accounted (the run was serial).
    if (config_.faults.events.empty()) {
      for (std::size_t d = 0; d < result.link_bg_flits.size(); ++d) {
        result.link_bg_flits[d] =
            background_packets_in(cycles, bg_rates[d],
                                  config_.background.packet_flits) *
            config_.background.packet_flits;
      }
    }
    for (long long flits : result.link_bg_flits) {
      result.background_flits += flits;
    }
    result.background_packets =
        result.background_flits / config_.background.packet_flits;
  }
  if (run.obs != nullptr) run.obs->finalize(cycles, result);
  return std::move(result);
}

}  // namespace pfar::simnet
