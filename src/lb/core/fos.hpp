// First-order scheme (FOS) of Cybenko [3] / Boillat [2]: L^{t+1} = M·L^t
// with the uniform diffusion matrix M (α = 1/(δ+1)).
//
// Its round is its plan: the edge flows α·(ℓ_u − ℓ_v) from the
// round-start loads, which Balancer::step's default runs as the blocked
// round (core/round_context.hpp, DESIGN.md §9.2) — equivalent to the
// matrix-vector form, and bit-identical across thread counts and block
// widths.  The
// discrete first-order scheme of Muthukrishnan–Ghosh–Schultz [15]
// (integer flows, floored per edge) is the flow-form DiffusionBalancer
// with DenominatorRule::kDegreePlusOne over Tokens; make_fos_discrete()
// returns it.
#pragma once

#include <memory>

#include "lb/core/algorithm.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/graph/edge_mask.hpp"

namespace lb::core {

/// The first-order-scheme edge flow α·(ℓ_u − ℓ_v) with α = 1/(δ+1) over
/// the frame's (alive) max degree — the one statement of the rule that
/// FOS and SOS's FOS half plan.  It is the scaled-gap pair rule
/// (flow_program.hpp): (ℓ_u − ℓ_v)·α, the same bits, since IEEE
/// multiplication commutes.
inline UniformDiffusionShare<double, true> fos_flow(const graph::TopologyFrame& frame) {
  return {1.0 / (static_cast<double>(frame.max_degree()) + 1.0)};
}

class FirstOrderScheme final : public Balancer<double> {
 public:
  std::string name() const override { return "fos"; }

  /// The round (flow_program.hpp): fos_flow on every alive edge.
  bool plan_round(RoundContext<double>& ctx,
                  FlowProgram<double>& program) override;
};

std::unique_ptr<ContinuousBalancer> make_fos_continuous();
std::unique_ptr<DiscreteBalancer> make_fos_discrete();

}  // namespace lb::core
