// Second-order scheme (SOS) of Muthukrishnan, Ghosh & Schultz [15]:
//
//   L^1     = M·L^0
//   L^{t+1} = β·M·L^t + (1 − β)·L^{t-1},   1 <= β < 2.
//
// With the optimal β = 2 / (1 + sqrt(1 − γ²)) (γ the second-largest
// |eigenvalue| of M) the scheme converges like the Chebyshev-accelerated
// iteration — asymptotically much faster than FOS on slowly-mixing
// topologies.  Continuous only: the affine combination conserves total
// load but produces fractional (and possibly transiently negative)
// intermediate loads, exactly as in [15].
//
// The M·L product is the FOS blocked round (core/round_context.hpp) into
// SOS's own buffer, and the β-combination one fixed-chunk per-node sweep,
// so every phase of a round is parallel and bit-identical across thread
// counts.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "lb/core/algorithm.hpp"

namespace lb::core {

class SecondOrderScheme final : public Balancer<double> {
 public:
  /// If `beta` is nullopt it is computed on first use from the graph's
  /// spectrum via diffusion_gamma (dense path; intended for n <= 4096).
  /// That first round throws std::invalid_argument when its view is
  /// disconnected (γ = 1, so no optimal β exists).
  explicit SecondOrderScheme(std::optional<double> beta = std::nullopt);

  std::string name() const override { return "sos"; }
  using Balancer<double>::step;
  StepStats step(RoundContext<double>& ctx, std::vector<double>& load) override;

  /// Sharded replay (flow_program.hpp): the FOS edge flow plus
  /// next_load() as the per-node post combine — the one statement of the
  /// β-recurrence step() also runs.  prev_ is per-node state, so the post
  /// closure is safe to run from any domain.
  bool plan_round(RoundContext<double>& ctx,
                  FlowProgram<double>& program) override;

  /// Run isolation: forget L^{t-1} (the next step is a plain FOS round
  /// again, as for a fresh instance) and, when β was auto-computed,
  /// forget it too so a run on a different graph re-derives its own
  /// optimal β exactly as a fresh balancer would.
  void on_run_begin() override {
    have_prev_ = false;
    beta_ = configured_beta_;
  }

  double beta() const { return beta_.value_or(0.0); }

  /// Optimal β for a given γ ∈ [0, 1); asserts that contract.
  static double optimal_beta(double gamma);

 private:
  /// Per-round setup shared by step() and plan_round(): derives the
  /// auto-β on first use, sizes prev_, and returns true on the run's
  /// first round (a plain FOS step), after which L^{t-1} is recorded.
  bool begin_round(RoundContext<double>& ctx);

  /// Node u's next load from `applied` = (M·L^t)_u and `before` = L^t_u:
  /// `applied` itself on the first round, β·applied + (1−β)·L^{t-1}_u
  /// otherwise; then L^{t-1}_u <- `before`.
  double next_load(std::size_t u, double applied, double before, bool first);

  std::optional<double> configured_beta_;  // constructor argument, verbatim
  std::optional<double> beta_;             // in effect (auto-filled on first step)
  std::vector<double> prev_;     // L^{t-1} — algorithm state, not scratch
  std::vector<double> scratch_;  // M·L^t
  bool have_prev_ = false;
};

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta = std::nullopt);

}  // namespace lb::core
