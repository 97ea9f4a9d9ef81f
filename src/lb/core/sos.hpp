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
// The round is its plan: the FOS edge flow, whose gather is M·L, and the
// β-combination as the program's post (BetaCombine, flow_program.hpp),
// which every all-edges kernel runs on each node once its gather is
// final — one pass, parallel and bit-identical across thread counts.
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

  /// The round (flow_program.hpp): the FOS edge flow, and the β-combine
  /// over prev_ as the post.  prev_ is per-node state, so the post is
  /// safe to run from any block or domain.
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
  std::optional<double> configured_beta_;  // constructor argument, verbatim
  std::optional<double> beta_;             // in effect (auto-filled on first round)
  std::vector<double> prev_;  // L^{t-1} — algorithm state, not scratch
  bool have_prev_ = false;
};

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta = std::nullopt);

}  // namespace lb::core
