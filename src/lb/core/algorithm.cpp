#include "lb/core/algorithm.hpp"

#include <span>

#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

// Out of line so the unique_ptr<RunArena<T>> member can be declared over
// an incomplete type in the header.
template <class T>
Balancer<T>::Balancer() = default;

template <class T>
Balancer<T>::~Balancer() = default;

namespace {

/// A matching round: the pairs are vertex-disjoint, so each endpoint
/// takes its one ±share, and the stats accumulate in matching order.
template <class T, class Rule>
StepStats run_matching_round(const graph::TopologyFrame& frame,
                             std::span<const std::uint32_t> matched, const Rule& rule,
                             std::vector<T>& load) {
  const auto& edges = frame.base().edges();
  StepStats stats;
  for (const std::uint32_t k : matched) {
    const graph::Edge& e = edges[k];
    const double f =
        rule_flow(rule, k, e, static_cast<double>(load[e.u]), static_cast<double>(load[e.v]));
    count_flow<T>(stats, f);
    add_flow(load[e.u], -f);
    add_flow(load[e.v], f);
  }
  return stats;
}

}  // namespace

template <class T>
StepStats Balancer<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  FlowProgram<T>& program = ctx.arena().program();
  program.reset();
  const bool planned = plan_round(ctx, program);
  LB_ASSERT_MSG(planned, (name() + " neither plans its rounds nor overrides step()").c_str());
  LB_ASSERT_MSG(load.size() == ctx.frame().num_nodes(), "load vector does not match graph");
  // One dispatch on the rule per round; the kernels then run the concrete
  // rule (a caller-written EdgeFn as its std::function).
  StepStats stats = program.flow.visit([&](const auto& rule) {
    return program.support == FlowProgram<T>::Support::kMatching
               ? run_matching_round(ctx.frame(), program.matched, rule, load)
               : run_blocked_round(ctx, load, rule, program.post);
  });
  stats.links = program.links;
  return stats;
}

template <class T>
StepStats Balancer<T>::step(const graph::Graph& g, std::vector<T>& load,
                            util::Rng& rng) {
  if (!legacy_arena_) legacy_arena_ = std::make_unique<RunArena<T>>();
  RoundContext<T> ctx(g, rng, &util::ThreadPool::global(), *legacy_arena_);
  return step(ctx, load);
}

template class Balancer<double>;
template class Balancer<std::int64_t>;

}  // namespace lb::core
