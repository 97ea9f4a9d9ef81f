#include "lb/core/dimension_exchange.hpp"

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
bool DimensionExchange<T>::plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
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
  program.support = FlowProgram<T>::Support::kMatching;
  program.matched = ids;
  program.links = ids.size();
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
