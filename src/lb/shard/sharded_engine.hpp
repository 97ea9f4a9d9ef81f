// The sharded engine: runs a balancer over K ownership domains with
// explicit halo exchange, producing a RunResult BIT-IDENTICAL to the
// shared-memory engine (core/engine.hpp) on the same inputs.
//
// Each round, a distributable balancer describes itself as a
// core::FlowProgram (plan_round); the engine visits its flow rule once
// and executes the round as each domain's independent half — pack
// boundary loads, exchange, evaluate owned cut edges' flows from halo
// copies, exchange, then one ascending sweep over the domain's edges
// (core::detail::sweep_domain, the kernel the shared-memory round runs
// over blocks, here with its cut flows staged from the halo) —
// reconciling at deterministic sim::CommEngine barriers.  Balancers that
// cannot be distributed (async, random-partner, ...) fall back to their
// shared-memory step() for that round, still through the domain
// executor, so every balancer remains runnable at any K.  The round loop
// itself is core::run's (core/round_executor.hpp).
//
// Why the results match bit for bit (DESIGN.md §7 has the full argument):
// flows are pure functions of (edge, endpoint round-start loads) and halo
// copies are bytewise verbatim, so owner-computed flows equal the
// oracle's; each domain's sweep visits every edge incident to an owned
// node in ascending base order with add_flow's per-edge update; and
// round observability (StepStats totals, Φ/discrepancy summaries) is
// folded per summary chunk — inside the sweep of the domain that owns
// the chunk whole, at the barrier for a chunk that spans domains —
// through the same deterministic reductions the shared-memory engine
// uses.
#pragma once

#include <vector>

#include "lb/core/engine.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/sim/comm.hpp"

namespace lb::shard {

/// Per-link cost override (e.g. one slow link for straggler studies).
struct LinkOverride {
  std::size_t from = 0;
  std::size_t to = 0;
  sim::LinkConfig config;
};

struct ShardConfig {
  /// Number of ownership domains K.  K = 1 still runs the full sharded
  /// machinery (a single domain simply has no links), which is the
  /// cheapest self-check that the domain path equals the oracle.
  std::size_t domains = 1;
  PartitionPolicy policy = PartitionPolicy::kGreedyEdgeCut;
  /// Cost model applied to every inter-domain link...
  sim::LinkConfig default_link;
  /// ...except these.
  std::vector<LinkOverride> link_overrides;
};

/// Sharded counterpart of core::run(): identical RunResult (trace
/// included) plus the comm-observability fields (RunResult::domains,
/// sharded_rounds, comm, domain_comm; RoundRecord::messages,
/// boundary_bytes, halo_wait_us).  Wall-clock fields excluded, as always.
template <class T>
core::RunResult run(core::Balancer<T>& balancer, graph::GraphSequence& seq,
                    std::vector<T>& load, const core::EngineConfig& config,
                    const ShardConfig& shard);

/// Convenience wrapper for a fixed network.
template <class T>
core::RunResult run_static(core::Balancer<T>& balancer, const graph::Graph& g,
                           std::vector<T>& load, const core::EngineConfig& config,
                           const ShardConfig& shard);

}  // namespace lb::shard
