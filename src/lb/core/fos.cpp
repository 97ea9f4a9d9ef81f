#include "lb/core/fos.hpp"

#include "lb/core/diffusion.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

StepStats FirstOrderScheme::step(RoundContext<double>& ctx,
                                 std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  // Flow form of L^{t+1} = M·L^t: every edge carries α·(ℓ_u − ℓ_v), all
  // computed from the round-start snapshot.
  StepStats stats = run_blocked_round(ctx, ctx.pool(), load, fos_flow(frame));
  stats.links = frame.num_edges();
  return stats;
}

bool FirstOrderScheme::plan_round(RoundContext<double>& ctx,
                                  FlowProgram<double>& program) {
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
