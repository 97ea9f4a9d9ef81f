// FlowProgram: a balancer round expressed as data, for distributed replay.
//
// The shared-memory engine lets a balancer execute its round however it
// likes inside step().  The sharded engine (lb/shard/) cannot: domains
// must compute their owned edges' flows independently from halo copies of
// boundary loads, so the round has to be *described* — a pure flow rule
// plus optional structure — rather than executed.  A Balancer that can be
// distributed implements plan_round() (see algorithm.hpp) by filling one
// of these; the sharded engine then runs the identical arithmetic through
// its ownership/halo machinery.
//
// The rule is a FlowRule: a closed set of the library's rule types plus
// one type-erased alternative for caller-written rules.  An executor
// visits it once per round and hands the concrete rule to a template
// kernel, so no library rule is called through an indirection per edge.
//
// The bit-identity contract: replaying a program through
//   compute-flows (ascending edge order, round-start snapshot)
//   + per-node gather in ascending incident-edge order
//   + optional per-node post combine
// must produce the exact load vector step() produces.  Every rule below is
// therefore required to be PURE in its stated inputs — flows may depend
// only on (edge index, endpoints, the two endpoint loads at round start),
// never on neighbouring loads or mutable state — because a remote domain
// evaluates it against halo *copies* of those operands and copies of
// doubles are bitwise verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/fos.hpp"
#include "lb/graph/graph.hpp"

namespace lb::core {

/// A pair rule: a flow that depends only on the two round-start endpoint
/// loads, called as f(ℓ_u, ℓ_v) — FOS's α·(ℓ_u − ℓ_v), and diffusion
/// whenever every edge has the same denominator.  The torus stencil
/// round (DESIGN.md §9.6) runs pair rules only, since it has no edge
/// index to hand a per-edge rule.  A rule may also state the amount a
/// round of scalar T moves, f.amount(ℓ_u, ℓ_v), which must equal
/// static_cast<T>(f(ℓ_u, ℓ_v)); the stencil and the sharded sweep then
/// call it instead.
template <class F>
concept PairFlowRule = std::is_invocable_r_v<double, const F&, double, double>;

/// Edge k's flow under a rule of either form: a pair rule drops (k, e).
template <class F>
double rule_flow(const F& rule, std::size_t k, const graph::Edge& e, double lu, double lv) {
  if constexpr (PairFlowRule<F>) {
    return rule(lu, lv);
  } else {
    return rule(k, e, lu, lv);
  }
}

/// `flow` in the per-edge form f(k, e, ℓ_u, ℓ_v) that the CSR round
/// calls: a pair rule behind the one adapter that drops (k, e), any other
/// flow unchanged.
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

/// A round's flow rule: one of the library's rules, or a caller-written
/// per-edge function.  Callable like the std::function it replaces —
/// rule(k, e, ℓ_u, ℓ_v), `explicit operator bool`, assignment from a
/// callable — and visit(fn) hands fn the concrete rule, which is how the
/// executors run it: one dispatch per round, then a template kernel.
///
/// Assigning a library rule type stores it as itself; any other callable
/// (a pair rule through edge_flow) is type-erased into EdgeFn.  No library
/// balancer publishes an EdgeFn: that alternative exists for rules written
/// outside the library (tests, experiments), and costs an indirect call
/// per edge.
template <class T>
class FlowRule {
 public:
  using EdgeFn =
      std::function<double(std::size_t k, const graph::Edge& e, double lu, double lv)>;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FlowRule>)
  FlowRule& operator=(F&& f) {
    assign(std::forward<F>(f));
    return *this;
  }

  /// False when no rule is set (an empty EdgeFn).
  explicit operator bool() const {
    const EdgeFn* fn = std::get_if<EdgeFn>(&rule_);
    return fn == nullptr || static_cast<bool>(*fn);
  }

  /// Edge k's flow.  One dispatch per call: executors visit() instead.
  double operator()(std::size_t k, const graph::Edge& e, double lu, double lv) const {
    return visit([&](const auto& rule) { return rule_flow(rule, k, e, lu, lv); });
  }

  /// fn(rule) with the concrete rule (pair rules as pair rules).
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), rule_);
  }

 private:
  using Rule = std::variant<EdgeFn, UniformDiffusionShare<T, true>,
                            UniformDiffusionShare<T, false>, FrameDiffusionShare<T>, FosFlow,
                            MatchedFlow<T>>;

  template <class D, class V>
  struct IsAlternative;
  template <class D, class... Rs>
  struct IsAlternative<D, std::variant<Rs...>>
      : std::bool_constant<(std::is_same_v<D, Rs> || ...)> {};

  template <class F>
  void assign(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<D, std::nullptr_t>) {
      rule_.template emplace<EdgeFn>();
    } else if constexpr (IsAlternative<D, Rule>::value) {
      rule_.template emplace<D>(std::forward<F>(f));
    } else if constexpr (PairFlowRule<D>) {
      rule_.template emplace<EdgeFn>(edge_flow(f));
    } else {
      rule_.template emplace<EdgeFn>(std::forward<F>(f));
    }
  }

  Rule rule_;
};

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

  /// Optional per-node combine applied after the flow apply: the node's
  /// final value from (applied gather result, round-start value).  Runs
  /// exactly once per node per round, in any order across nodes (it may
  /// only touch per-node state, e.g. SOS's prev_[u]).
  using PostFn = std::function<T(std::size_t u, T applied, T before)>;

  Support support = Support::kAllEdges;
  /// Signed flow for edge k = (e.u, e.v) from the round-start endpoint
  /// loads; positive moves load u -> v.  Must reproduce the balancer's
  /// step() flow for that edge bit for bit (same operand values, same
  /// operation order).
  FlowRule<T> flow;
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
