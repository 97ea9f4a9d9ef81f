#include "lb/core/sos.hpp"

#include <cmath>
#include <stdexcept>

#include "lb/core/flow_program.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/round_context.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

namespace {

/// γ for the auto-β derivation: through the run's spectral cache when
/// the engine carries one (Tier-1 exact — summary() reads the one
/// values-only decomposition the cold diffusion_gamma also runs, so the
/// value is bit-identical to the cold call and the trajectory cannot
/// move), cold otherwise.
double round_gamma(RoundContext<double>& ctx) {
  const graph::Graph& g = ctx.graph();
  linalg::SpectralCache* cache = ctx.spectral_cache();
  if (cache != nullptr) return cache->summary(g).gamma;
  return linalg::diffusion_gamma(g);
}

}  // namespace

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

bool SecondOrderScheme::begin_round(RoundContext<double>& ctx) {
  if (!beta_) {
    // γ needs the full spectral machinery; on a masked round this
    // materializes the (cached) round-1 view once — identical to what
    // the rebuild path computes.  Dynamic runs normally pass β explicitly.
    // A disconnected round-1 view has γ = 1, for which no β exists: that
    // is the caller's input, so it throws rather than tripping
    // optimal_beta's contract.
    const double gamma = round_gamma(ctx);
    if (!(gamma >= 0.0 && gamma < 1.0)) {
      throw std::invalid_argument("auto-β needs a connected round-1 topology; pass β");
    }
    beta_ = optimal_beta(gamma);
  }
  prev_.resize(ctx.frame().num_nodes());
  const bool first = !have_prev_;
  have_prev_ = true;
  return first;
}

double SecondOrderScheme::next_load(std::size_t u, double applied, double before,
                                    bool first) {
  const double b = *beta_;
  const double next = first ? applied : b * applied + (1.0 - b) * prev_[u];
  prev_[u] = before;
  return next;
}

StepStats SecondOrderScheme::step(RoundContext<double>& ctx,
                                  std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  const bool first = begin_round(ctx);
  util::ThreadPool* pool = ctx.pool();

  // scratch = M·load: the FOS edge flows α·(ℓ_u − ℓ_v) applied to the
  // round-start loads, written into SOS's own buffer — `load` stays L^t
  // for the combine below, so the round publishes no summary of its own.
  StepStats stats = run_blocked_round_into(ctx, pool, load, scratch_, /*observe=*/false,
                                           fos_flow(frame));
  stats.links = frame.num_edges();

  // The final load is produced by the combine, not the apply, so the
  // fused summary rides this sweep instead: the combine is driven by the
  // fixed metrics chunks and each node's new value is accumulated as it
  // is written — bit-identical loads (per-node ops) and a bit-deterministic
  // summary at every pool size.
  const auto combine = [&](std::size_t u) {
    load[u] = next_load(u, scratch_[u], load[u], first);
    return load[u];
  };
  const std::size_t n = load.size();
  if (ctx.summary_requested()) {
    ctx.publish_summary(fused_sweep_with_summary<double>(
        pool, n, ctx.summary_average(), ctx.summary_mode(), ctx.arena().summary_parts(),
        combine));
  } else {
    const auto sweep = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) combine(u);
    };
    if (pool != nullptr) {
      pool->parallel_for(0, n, 1024, sweep);
    } else {
      sweep(0, n);
    }
  }
  return stats;
}

bool SecondOrderScheme::plan_round(RoundContext<double>& ctx,
                                   FlowProgram<double>& program) {
  const bool first = begin_round(ctx);
  program.links = ctx.frame().num_edges();
  program.flow = fos_flow(ctx.frame());
  // `applied` is step()'s scratch_[u] (M·L at u), `before` its load[u].
  program.post = [this, first](std::size_t u, double applied, double before) {
    return next_load(u, applied, before, first);
  };
  return true;
}

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta) {
  return std::make_unique<SecondOrderScheme>(beta);
}

}  // namespace lb::core
