#include "lb/core/dimension_exchange.hpp"

#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

namespace {

std::size_t hypercube_dimensions(const graph::Graph& g) {
  std::size_t d = 0;
  while ((std::size_t{1} << d) < g.num_nodes()) ++d;
  LB_ASSERT_MSG((std::size_t{1} << d) == g.num_nodes(),
                "round-robin matching requires a 2^d-node hypercube");
  return d;
}

}  // namespace

template <class T>
DimensionExchange<T>::DimensionExchange(MatchingStrategy strategy) : strategy_(strategy) {}

template <class T>
std::string DimensionExchange<T>::name() const {
  const char* base = std::is_integral_v<T> ? "dimexch-disc" : "dimexch-cont";
  switch (strategy_) {
    case MatchingStrategy::kGhoshMuthukrishnan: return std::string(base) + "(gm)";
    case MatchingStrategy::kRandomMaximal: return std::string(base) + "(maximal)";
    case MatchingStrategy::kHypercubeRoundRobin: return std::string(base) + "(rr)";
  }
  return base;
}

template <class T>
graph::Matching DimensionExchange<T>::draw_matching(RoundContext<T>& ctx) {
  // step() and plan_round() both draw here: the same view (materialized
  // on masked rounds), the same RNG stream, the same round-robin advance.
  const graph::Graph& g = ctx.graph();
  graph::Matching m;
  switch (strategy_) {
    case MatchingStrategy::kGhoshMuthukrishnan:
      m = graph::gm_random_matching(g, ctx.rng());
      break;
    case MatchingStrategy::kRandomMaximal:
      m = graph::random_maximal_matching(g, ctx.rng());
      break;
    case MatchingStrategy::kHypercubeRoundRobin: {
      const std::size_t d = hypercube_dimensions(g);
      m = graph::hypercube_dimension_matching(g, d, round_ % d);
      break;
    }
  }
  ++round_;
  return m;
}

template <class T>
StepStats DimensionExchange<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  LB_ASSERT_MSG(load.size() == ctx.frame().num_nodes(), "load vector does not match graph");
  const graph::Matching m = draw_matching(ctx);

  // A matching touches each node at most once, so the pairs' transfers
  // are independent: each endpoint takes its one ±share, and the stats
  // accumulate in matching order.
  StepStats stats;
  stats.links = m.size();
  for (const graph::Edge& e : m) {
    const double f =
        MatchedFlow<T>{}(static_cast<double>(load[e.u]), static_cast<double>(load[e.v]));
    count_flow<T>(stats, f);
    add_flow(load[e.u], -f);
    add_flow(load[e.v], f);
  }
  return stats;
}

template <class T>
bool DimensionExchange<T>::plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
  const graph::Matching m = draw_matching(ctx);

  // Export as BASE edge ids (a masked view's edges are a subset of the
  // base list with identical endpoints), preserving matching order so
  // the replayed stats accumulate exactly like step()'s loop.  The
  // transfer itself is orientation-symmetric (richer endpoint sends), so
  // canonical endpoint order is equivalent to the matching's own.
  const graph::Graph& base = ctx.frame().base();
  program.support = FlowProgram<T>::Support::kMatching;
  program.links = m.size();
  program.matched.clear();
  program.matched.reserve(m.size());
  for (const graph::Edge& e : m) {
    const std::size_t k = base.edge_index(e.u, e.v);
    LB_DEBUG_ASSERT(k < base.num_edges());
    program.matched.push_back(static_cast<std::uint32_t>(k));
  }
  program.flow = MatchedFlow<T>{};
  return true;
}

template class DimensionExchange<double>;
template class DimensionExchange<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_dimension_exchange_continuous(
    MatchingStrategy strategy) {
  return std::make_unique<ContinuousDimensionExchange>(strategy);
}

std::unique_ptr<DiscreteBalancer> make_dimension_exchange_discrete(
    MatchingStrategy strategy) {
  return std::make_unique<DiscreteDimensionExchange>(strategy);
}

}  // namespace lb::core
