// Dimension-exchange baseline: Ghosh & Muthukrishnan's random-matching
// protocol (SPAA'94, [12]) — the algorithm whose potential argument the
// paper adapts, and whose convergence it claims to beat by a constant
// factor thanks to concurrency.
//
// Each round a matching of the network is selected; every matched pair
// balances completely: the richer endpoint sends (ℓ_i − ℓ_j)/2
// (⌊·⌋ for the discrete variant, as in §4 of [12]).  The matching is
// drawn on the round's frame (graph/matching.hpp) as base edge ids, so a
// masked round builds no Graph and a steady round allocates nothing.  The
// round is its plan: the draw, published without a copy, and the
// matched-pair rule.  A matching touches each node at most once, so
// Balancer::step's default applies the pairs directly, in matching
// order, with the per-edge update every round shares
// (add_flow/count_flow, core/flow_ledger.hpp) — O(|matching|) work at
// any pool size.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "lb/core/algorithm.hpp"
#include "lb/graph/matching.hpp"

namespace lb::core {

enum class MatchingStrategy {
  /// The local protocol of [12]: Pr[e ∈ M] >= 1/(8δ).
  kGhoshMuthukrishnan,
  /// Greedy maximal matching over a random edge order (denser matchings,
  /// still uniform-ish; the "best case" for dimension exchange).
  kRandomMaximal,
  /// Round-robin over hypercube dimensions (classic dimension exchange;
  /// only valid on hypercube bases — asserts otherwise; a masked round
  /// uses the colour's alive edges).
  kHypercubeRoundRobin,
};

/// The matched-pair rule of [12] as a signed flow u → v: the richer
/// endpoint sends half the difference, ⌊·⌋ for Tokens.  A pair rule
/// (flow_program.hpp).
template <class T>
struct MatchedFlow {
  double operator()(double lu, double lv) const {
    const double diff = lu - lv;
    if (diff == 0.0) return 0.0;
    double amount = std::fabs(diff) / 2.0;
    if constexpr (std::is_integral_v<T>) amount = std::floor(amount);
    if (amount == 0.0) return 0.0;
    return diff > 0.0 ? amount : -amount;
  }
};

template <class T>
class DimensionExchange final : public Balancer<T> {
 public:
  explicit DimensionExchange(
      MatchingStrategy strategy = MatchingStrategy::kGhoshMuthukrishnan);

  std::string name() const override;

  /// The round (flow_program.hpp): draws the round's matching from
  /// ctx.rng(), publishes it as base edge ids in matching order — a view
  /// of scratch_, valid until the next draw — and describes the matched
  /// transfer ±⌊|ℓ_u − ℓ_v|/2⌋ as its MatchedFlow rule.
  bool plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) override;

  MatchingStrategy strategy() const { return strategy_; }

  /// Run isolation: restart the round-robin dimension schedule.  Only
  /// kHypercubeRoundRobin carries trajectory state between rounds; the
  /// randomized strategies draw everything from the context's Rng.
  void on_run_begin() override { round_ = 0; }

 private:
  MatchingStrategy strategy_;
  std::size_t round_ = 0;  // for round-robin colour selection
  graph::MatchingScratch scratch_;  // the draws' rows and work arrays
};

using ContinuousDimensionExchange = DimensionExchange<double>;
using DiscreteDimensionExchange = DimensionExchange<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_dimension_exchange_continuous(
    MatchingStrategy strategy = MatchingStrategy::kGhoshMuthukrishnan);
std::unique_ptr<DiscreteBalancer> make_dimension_exchange_discrete(
    MatchingStrategy strategy = MatchingStrategy::kGhoshMuthukrishnan);

}  // namespace lb::core
