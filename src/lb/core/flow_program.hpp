// FlowProgram: a balancer round expressed as data.
//
// A Balancer that can be planned implements plan_round() (see
// algorithm.hpp) by filling one of these — a pure flow rule plus optional
// structure — and both executors run it: Balancer::step's default runs it
// in shared memory, and the sharded engine (lb/shard/) runs the identical
// arithmetic through its ownership/halo machinery, where domains compute
// their owned edges' flows independently from halo copies of boundary
// loads.  Each plannable round is thereby written once.
//
// The rule is a FlowRule: a closed set of the library's rule types plus
// one type-erased alternative for caller-written rules.  An executor
// visits it once per round and hands the concrete rule to a template
// kernel, so no library rule is called through an indirection per edge.
// The optional post (SOS's β-combine) is a plain value, BetaCombine.
//
// The bit-identity contract: replaying a program through
//   compute-flows (ascending edge order, round-start snapshot)
//   + per-node gather in ascending incident-edge order
//   + optional per-node post combine
// must produce the seed's load vector (tests/seed_oracle.hpp).  Every
// rule below is therefore required to be PURE in its stated inputs —
// flows may depend only on (edge index, endpoints, the two endpoint loads
// at round start), never on neighbouring loads or mutable state —
// because a remote domain evaluates it against halo *copies* of those
// operands and copies of doubles are bitwise verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
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

/// A round's flow rule: one of the library's rules, or a caller-written
/// per-edge function.  Callable like the std::function it replaces —
/// rule(k, e, ℓ_u, ℓ_v), `explicit operator bool`, assignment from a
/// callable — and visit(fn) hands fn the concrete rule, which is how the
/// executors run it: one dispatch per round, then a template kernel.
///
/// Assigning a library rule type stores it as itself; any other callable
/// (a pair rule behind an adapter that drops (k, e)) is type-erased into
/// EdgeFn.  No library
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
                            UniformDiffusionShare<T, false>, FrameDiffusionShare<T>,
                            MatchedFlow<T>>;

  template <class F>
  void assign(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<D, std::nullptr_t>) {
      rule_.template emplace<EdgeFn>();
    } else if constexpr (std::is_constructible_v<Rule, std::in_place_type_t<D>, F>) {
      // D is one of the alternatives.
      rule_.template emplace<D>(std::forward<F>(f));
    } else if constexpr (PairFlowRule<D>) {
      rule_.template emplace<EdgeFn>(
          [f](std::size_t, const graph::Edge&, double lu, double lv) { return f(lu, lv); });
    } else {
      rule_.template emplace<EdgeFn>(std::forward<F>(f));
    }
  }

  Rule rule_;
};

/// SOS's β-combine, the one per-node post a round may carry: node u's
/// final value from `applied` = (M·L^t)_u and `before` = L^t_u —
/// `applied` itself in the run's first round, β·applied + (1−β)·L^{t-1}_u
/// after it — and then L^{t-1}_u <- `before`.  It touches only node u's
/// state, so it runs exactly once per node, in any order across nodes:
/// every all-edges kernel calls it inline on each summary chunk's final
/// nodes, before the chunk's Φ/K fold.  A plain value; `prev` null means
/// no post.
template <class T>
struct BetaCombine {
  double beta = 0.0;
  bool first = false;
  T* prev = nullptr;  // L^{t-1}, the balancer's own vector

  explicit operator bool() const { return prev != nullptr; }

  T operator()(std::size_t u, T applied, T before) const {
    const T next = first ? applied : static_cast<T>(beta * applied + (1.0 - beta) * prev[u]);
    prev[u] = before;
    return next;
  }
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

  Support support = Support::kAllEdges;
  /// Signed flow for edge k = (e.u, e.v) from the round-start endpoint
  /// loads; positive moves load u -> v.
  FlowRule<T> flow;
  /// Base edge ids in matching order (kMatching only): a view of the
  /// balancer's draw, valid until its next one.  Ids index the frame's
  /// BASE edge list, so masked rounds need no materialized view.
  std::span<const std::uint32_t> matched;
  BetaCombine<T> post;
  /// StepStats::links for the round (|E| or matching size).
  std::size_t links = 0;

  void reset() {
    support = Support::kAllEdges;
    flow = nullptr;
    matched = {};
    post = {};
    links = 0;
  }
};

}  // namespace lb::core
