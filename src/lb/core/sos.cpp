#include "lb/core/sos.hpp"

#include <cmath>
#include <stdexcept>

#include "lb/core/flow_program.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/round_context.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

SecondOrderScheme::SecondOrderScheme(std::optional<double> beta)
    : configured_beta_(beta), beta_(beta) {
  if (beta_) {
    LB_ASSERT_MSG(*beta_ >= 1.0 && *beta_ < 2.0, "SOS needs beta in [1, 2)");
  }
}

double SecondOrderScheme::optimal_beta(double gamma) {
  LB_ASSERT_MSG(gamma >= 0.0 && gamma < 1.0, "gamma must lie in [0, 1)");
  return 2.0 / (1.0 + std::sqrt(1.0 - gamma * gamma));
}

bool SecondOrderScheme::plan_round(RoundContext<double>& ctx,
                                   FlowProgram<double>& program) {
  if (!beta_) {
    // γ needs the full spectral machinery; on a masked round this
    // materializes the (cached) round-1 view once — identical to what
    // the rebuild path computes.  Dynamic runs normally pass β explicitly.
    // A disconnected round-1 view has γ = 1, for which no β exists: that
    // is the caller's input, so it throws rather than tripping
    // optimal_beta's contract.  γ comes through the run's spectral cache
    // when the engine carries one (Tier-1 exact — summary() reads the one
    // values-only decomposition the cold diffusion_gamma also runs, so
    // the value is bit-identical to the cold call and the trajectory
    // cannot move), cold otherwise.
    linalg::SpectralCache* cache = ctx.spectral_cache();
    const double gamma = cache != nullptr ? cache->summary(ctx.graph()).gamma
                                          : linalg::diffusion_gamma(ctx.graph());
    if (!(gamma >= 0.0 && gamma < 1.0)) {
      throw std::invalid_argument("auto-β needs a connected round-1 topology; pass β");
    }
    beta_ = optimal_beta(gamma);
  }
  // The run's first round is a plain FOS round, after which L^{t-1} is
  // recorded.
  prev_.resize(ctx.frame().num_nodes());
  program.post = BetaCombine<double>{*beta_, !have_prev_, prev_.data()};
  have_prev_ = true;
  program.links = ctx.frame().num_edges();
  program.flow = fos_flow(ctx.frame());
  return true;
}

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta) {
  return std::make_unique<SecondOrderScheme>(beta);
}

}  // namespace lb::core
