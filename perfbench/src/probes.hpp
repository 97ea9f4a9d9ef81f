// Layer probes of the traced run: each times one library layer from
// outside, by calling that layer's public functions on the workload's own
// inputs.  A workload runs only the probes of the layers its traffic
// enters (perfbench/layers.json lists which); the rest of its per-layer
// metrics come from the verified replay.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/thread_pool.hpp"
#include "replay.hpp"

namespace perfbench {

struct LayerInputs {
  /// The workload's graphs and one load vector per graph (of its scalar).
  std::vector<const lb::graph::Graph*> graphs;
  bool tokens = false;
  std::vector<std::vector<double>> real_loads;
  std::vector<std::vector<std::int64_t>> token_loads;
  std::uint64_t seed = 1;
  /// Rounds per probe loop (at least; small graphs run more).
  std::size_t rounds = 8;
  /// Rebuilds every graph of the workload from its generator.
  std::function<void()> rebuild_graphs;
  /// Median per-round step time of the workload (µs), for the roofline.
  double step_us_p50 = 0.0;
  lb::util::ThreadPool* pool_one = nullptr;
  lb::util::ThreadPool* pool_hw = nullptr;
  bool small = false;
};

/// graph.build_ms, graph.bytes_per_node.
void probe_graph(const LayerInputs& in, Outcome& out, Tracer& tr);
/// core.flows_us, core.totals_us, core.apply_us (the multi-pass parallel
/// round at pool-hw), core.ledger_build_ms, core.ledger_bytes_per_node.
/// Real-valued loads only.
void probe_kernel(const LayerInputs& in, Outcome& out, Tracer& tr);
/// core.bytes_per_round, core.copy_gbps, core.copy_gbps_ws, core.roofline_pct.
void probe_roofline(const LayerInputs& in, Outcome& out);
/// metrics.summary_us.
void probe_summary(const LayerInputs& in, Outcome& out, Tracer& tr);
/// metrics.steady_observe_us, metrics.steady_allocs, fed the replay's rounds.
void probe_steady(const std::vector<ReplayRound>& rounds, Outcome& out);
/// shard.plan_build_ms, shard.cut_edges.
void probe_shard_plans(const LayerInputs& in, Outcome& out, Tracer& tr);
/// linalg.summary_ms, linalg.solves.
void probe_linalg(const LayerInputs& in, Outcome& out, Tracer& tr);
/// util.dispatch_us.
void probe_dispatch(const LayerInputs& in, Outcome& out, Tracer& tr);

}  // namespace perfbench
