#include "lb/core/fos.hpp"

#include "lb/core/diffusion.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

StepStats FirstOrderScheme::step(RoundContext<double>& ctx,
                                 std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  util::ThreadPool* pool = parallel_ ? ctx.pool() : nullptr;

  // Flow form of L^{t+1} = M·L^t: every edge carries α·(ℓ_u − ℓ_v), all
  // computed from the round-start snapshot.
  StepStats stats;
  if (apply_ == ApplyPath::kLedger) {
    stats = run_blocked_round(ctx, pool, load, fos_flow(frame));
  } else {
    // The seed's edge sweep on the materialized view (the oracle).
    const graph::Graph& g = ctx.graph();
    std::vector<double>& flows = ctx.arena().flows();
    compute_edge_flows(g, load, flows, pool, fos_flow(frame));
    accumulate_flow_totals<double>(graph::TopologyFrame(g), flows, stats);
    apply_edge_sweep(g, flows, load);
  }
  stats.links = frame.num_edges();
  return stats;
}

bool FirstOrderScheme::plan_round(RoundContext<double>& ctx,
                                  FlowProgram<double>& program) {
  if (apply_ != ApplyPath::kLedger) return false;
  program.links = ctx.frame().num_edges();
  program.flow = fos_flow(ctx.frame());
  return true;
}

std::unique_ptr<ContinuousBalancer> make_fos_continuous() {
  return std::make_unique<FirstOrderScheme>();
}

std::unique_ptr<DiscreteBalancer> make_fos_discrete() {
  DiffusionConfig cfg;
  cfg.rule = DenominatorRule::kDegreePlusOne;
  return std::make_unique<DiscreteDiffusion>(cfg);
}

}  // namespace lb::core
