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
std::span<const std::uint32_t> DimensionExchange<T>::draw_matching(RoundContext<T>& ctx) {
  // step() and plan_round() both draw here: the same frame, the same RNG
  // stream, the same round-robin advance.
  const graph::TopologyFrame& frame = ctx.frame();
  std::span<const std::uint32_t> ids;
  switch (strategy_) {
    case MatchingStrategy::kGhoshMuthukrishnan:
      ids = graph::gm_random_matching(frame, ctx.rng(), scratch_);
      break;
    case MatchingStrategy::kRandomMaximal:
      ids = graph::random_maximal_matching(frame, ctx.rng(), scratch_);
      break;
    case MatchingStrategy::kHypercubeRoundRobin: {
      // A one-node hypercube has no dimension, and no edge to match.
      const std::size_t d = hypercube_dimensions(frame.base());
      if (d != 0) ids = graph::hypercube_dimension_matching(frame, d, round_ % d, scratch_);
      break;
    }
  }
  ++round_;
  return ids;
}

template <class T>
StepStats DimensionExchange<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  LB_ASSERT_MSG(load.size() == ctx.frame().num_nodes(), "load vector does not match graph");
  const std::span<const std::uint32_t> ids = draw_matching(ctx);
  const auto& edges = ctx.frame().base().edges();

  // A matching touches each node at most once, so the pairs' transfers
  // are independent: each endpoint takes its one ±share, and the stats
  // accumulate in matching order.
  StepStats stats;
  stats.links = ids.size();
  for (const std::uint32_t k : ids) {
    const graph::Edge& e = edges[k];
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
  // The draw's base edge ids, in matching order, so the replayed stats
  // accumulate exactly like step()'s loop.
  const std::span<const std::uint32_t> ids = draw_matching(ctx);
  program.support = FlowProgram<T>::Support::kMatching;
  program.links = ids.size();
  program.matched.assign(ids.begin(), ids.end());
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
