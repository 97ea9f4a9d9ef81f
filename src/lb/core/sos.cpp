#include "lb/core/sos.hpp"

#include <cmath>

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
/// the engine carries one (Tier-1 exact — summary() computes through the
/// identical lambda2/lambda_max path on a miss, so the value is
/// bit-identical to the cold call and the trajectory cannot move), cold
/// otherwise.
double round_gamma(RoundContext<double>& ctx) {
  const graph::Graph& g = ctx.graph();
  linalg::SpectralCache* cache = ctx.spectral_cache();
  if (cache != nullptr) return cache->summary(g).gamma;
  return linalg::diffusion_gamma(g);
}

}  // namespace

SecondOrderScheme::SecondOrderScheme(std::optional<double> beta, bool parallel,
                                     ApplyPath apply)
    : configured_beta_(beta), beta_(beta), parallel_(parallel), apply_(apply) {
  if (beta_) {
    LB_ASSERT_MSG(*beta_ >= 1.0 && *beta_ < 2.0, "SOS needs beta in [1, 2)");
  }
}

double SecondOrderScheme::optimal_beta(double gamma) {
  LB_ASSERT_MSG(gamma >= 0.0 && gamma < 1.0, "gamma must lie in [0, 1)");
  return 2.0 / (1.0 + std::sqrt(1.0 - gamma * gamma));
}

StepStats SecondOrderScheme::step(RoundContext<double>& ctx,
                                  std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  if (!beta_) {
    // γ needs the full spectral machinery; on a masked round this
    // materializes the (cached) round-1 view once — identical to what
    // the rebuild path computes.  Dynamic runs normally pass β explicitly.
    beta_ = optimal_beta(round_gamma(ctx));
  }
  util::ThreadPool* pool = parallel_ ? ctx.pool() : nullptr;

  // scratch = M·load: the FOS edge flows α·(ℓ_u − ℓ_v) applied to the
  // round-start loads, written into SOS's own buffer — `load` stays L^t
  // for the β-combine below, so the round publishes no summary.
  StepStats stats;
  if (apply_ == ApplyPath::kLedger) {
    stats = run_blocked_round_into(ctx, pool, load, scratch_, /*observe=*/false,
                                   fos_flow(frame));
  } else {
    const graph::Graph& g = ctx.graph();
    std::vector<double>& flows = ctx.arena().flows();
    compute_edge_flows(g, load, flows, pool, fos_flow(frame));
    accumulate_flow_totals<double>(graph::TopologyFrame(g), flows, stats);
    scratch_ = load;
    apply_edge_sweep(g, flows, scratch_);
  }
  stats.links = frame.num_edges();

  if (!have_prev_) {
    // First round is a plain FOS step.
    prev_ = load;
    load.swap(scratch_);
    have_prev_ = true;
    return stats;
  }

  // The final load is produced by the β-combination, not the apply, so
  // the fused summary rides this sweep instead: the combine is driven by
  // the fixed metrics chunks and each node's new value is accumulated as
  // it is written — bit-identical loads (per-node ops unchanged) and a
  // bit-deterministic summary at every pool size.
  const double b = *beta_;
  const std::size_t n = load.size();
  if (ctx.summary_requested()) {
    ctx.publish_summary(fused_sweep_with_summary<double>(
        pool, n, ctx.summary_average(), ctx.summary_mode(),
        ctx.arena().summary_parts(),
        [&](std::size_t u) {
          const double next = b * scratch_[u] + (1.0 - b) * prev_[u];
          prev_[u] = load[u];
          load[u] = next;
          return next;
        }));
  } else {
    auto combine = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        const double next = b * scratch_[u] + (1.0 - b) * prev_[u];
        prev_[u] = load[u];
        load[u] = next;
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(0, n, 1024, combine);
    } else {
      combine(0, n);
    }
  }
  return stats;
}

bool SecondOrderScheme::plan_round(RoundContext<double>& ctx,
                                   FlowProgram<double>& program) {
  if (apply_ != ApplyPath::kLedger) return false;
  const graph::TopologyFrame& frame = ctx.frame();
  if (!beta_) {
    // Same round-1 spectral derivation as step(); on masked rounds this
    // materializes the cached view, identical to the stepped run.
    beta_ = optimal_beta(round_gamma(ctx));
  }
  program.links = frame.num_edges();
  program.flow = fos_flow(frame);
  if (!have_prev_) {
    // First round is a plain FOS step: the applied value stands, and the
    // round-start load becomes L^{t-1} (step()'s prev_ = load copy).
    prev_.resize(frame.num_nodes());
    program.post = [this](std::size_t u, double applied, double before) {
      prev_[u] = before;
      return applied;
    };
    have_prev_ = true;
    return true;
  }
  const double b = *beta_;
  program.post = [this, b](std::size_t u, double applied, double before) {
    // `applied` is step()'s scratch_[u] (M·L at u), so this is the exact
    // combine expression: b·scratch + (1−b)·prev, then prev <- L^t.
    const double next = b * applied + (1.0 - b) * prev_[u];
    prev_[u] = before;
    return next;
  };
  return true;
}

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta) {
  return std::make_unique<SecondOrderScheme>(beta);
}

}  // namespace lb::core
