#include "lb/core/fos.hpp"

#include "lb/core/diffusion.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"

namespace lb::core {

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
