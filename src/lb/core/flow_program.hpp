// FlowProgram: a balancer round expressed as data, for distributed replay.
//
// The shared-memory engine lets a balancer execute its round however it
// likes inside step().  The sharded engine (lb/shard/) cannot: domains
// must compute their owned edges' flows independently from halo copies of
// boundary loads, so the round has to be *described* — a pure per-edge
// flow function plus optional structure — rather than executed.  A
// Balancer that can be distributed implements plan_round() (see
// algorithm.hpp) by filling one of these; the sharded engine then runs
// the identical arithmetic through its ownership/halo machinery.
//
// The bit-identity contract: replaying a program through
//   compute-flows (ascending edge order, round-start snapshot)
//   + per-node gather in ascending incident-edge order
//   + optional per-node post combine
// must produce the exact load vector step() produces.  Every closure
// below is therefore required to be PURE in its stated inputs — flows
// may depend only on (edge index, endpoints, the two endpoint loads at
// round start), never on neighbouring loads or mutable state — because a
// remote domain evaluates it against halo *copies* of those operands and
// copies of doubles are bitwise verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "lb/graph/graph.hpp"

namespace lb::core {

/// A pair rule: a flow that depends only on the two round-start endpoint
/// loads, called as f(ℓ_u, ℓ_v) — FOS's α·(ℓ_u − ℓ_v), and diffusion
/// whenever every edge has the same denominator.  The torus stencil
/// round (DESIGN.md §9.6) runs pair rules only, since it has no edge
/// index to hand a per-edge rule.  A rule may also state the amount a
/// round of scalar T moves, f.amount(ℓ_u, ℓ_v), which must equal
/// static_cast<T>(f(ℓ_u, ℓ_v)); the stencil then calls it instead.
template <class F>
concept PairFlowRule = std::is_invocable_r_v<double, const F&, double, double>;

/// `flow` in the per-edge form f(k, e, ℓ_u, ℓ_v) that FlowProgram::flow
/// and the CSR round call: a pair rule behind the one adapter that drops
/// (k, e), any other flow unchanged.
template <class F>
auto edge_flow(const F& flow) {
  if constexpr (PairFlowRule<F>) {
    return [flow](std::size_t, const graph::Edge&, double lu, double lv) {
      return flow(lu, lv);
    };
  } else {
    return flow;
  }
}

template <class T>
struct FlowProgram {
  /// Which edges carry flow this round.
  enum class Support : std::uint8_t {
    /// Every alive edge (diffusion, FOS, SOS): flows are gathered per
    /// node over all incident edges, exactly like FlowLedger.
    kAllEdges,
    /// Only `matched` (dimension exchange): a vertex-disjoint edge set in
    /// matching order; each endpoint receives a single ±amount update.
    kMatching,
  };

  /// Signed flow for edge k = (e.u, e.v) from the round-start endpoint
  /// loads; positive moves load u -> v.  Must reproduce the balancer's
  /// step() flow for that edge bit for bit (same operand values, same
  /// operation order).
  using FlowFn =
      std::function<double(std::size_t k, const graph::Edge& e, double lu, double lv)>;

  /// Optional per-node combine applied after the flow apply: the node's
  /// final value from (applied gather result, round-start value).  Runs
  /// exactly once per node per round, in any order across nodes (it may
  /// only touch per-node state, e.g. SOS's prev_[u]).
  using PostFn = std::function<T(std::size_t u, T applied, T before)>;

  Support support = Support::kAllEdges;
  FlowFn flow;
  /// Base edge ids in matching order (kMatching only).  Ids index the
  /// frame's BASE edge list, so masked rounds need no materialized view.
  std::vector<std::uint32_t> matched;
  PostFn post;
  /// StepStats::links for the round (|E| or matching size).
  std::size_t links = 0;

  void reset() {
    support = Support::kAllEdges;
    flow = nullptr;
    matched.clear();
    post = nullptr;
    links = 0;
  }
};

}  // namespace lb::core
