// Optimal Polynomial Scheme (OPS) of Diekmann, Frommer & Monien [7].
//
// Given the m distinct nonzero eigenvalues λ_1 < ... < λ_m of the graph
// Laplacian, the iteration
//
//   L^k = L^{k-1} − (1/λ_k) · (Laplacian · L^{k-1})
//
// applies the error polynomial p(λ) = Π_k (1 − λ/λ_k), which vanishes on
// every nonzero eigenvalue — so after exactly m rounds the load is
// perfectly balanced (up to floating-point error).  This is the strongest
// continuous comparator in the paper's related-work section and a direct
// consumer of the library's own eigensolver (the environment has no
// Eigen, so the spectrum comes from lb::linalg).
//
// Continuous only; intermediate loads may go negative (a known property
// of polynomial flow schemes).  Requires a static topology *within a
// run*: the spectrum is computed on first step, keyed on the frame's
// topology epoch, and the schedule asserts the topology stays put
// mid-schedule.  Rounds run on the frame (alive-degrees and alive edges);
// only the binding reads the round's Graph.  Across runs (on_run_begin)
// the scheme may be rebound to a new graph — it recomputes the schedule
// then, while a run on the *same* unmasked graph reuses the cached
// spectrum (the campaign layer's amortization).
#pragma once

#include <memory>
#include <vector>

#include "lb/core/algorithm.hpp"

namespace lb::graph {
class EdgeMask;
}

namespace lb::core {

class OptimalPolynomialScheme final : public Balancer<double> {
 public:
  /// `eigenvalue_tolerance` clusters numerically-equal eigenvalues when
  /// extracting the distinct values.
  explicit OptimalPolynomialScheme(double eigenvalue_tolerance = 1e-8);

  std::string name() const override { return "ops"; }
  using Balancer<double>::step;
  StepStats step(RoundContext<double>& ctx, std::vector<double>& load) override;

  /// Number of rounds needed for perfect balance (m = #distinct nonzero
  /// Laplacian eigenvalues); 0 before the first step.
  std::size_t schedule_length() const { return schedule_.size(); }
  /// Rounds already executed; past schedule_length() the scheme restarts
  /// its schedule (useful when loads changed externally).
  std::size_t position() const { return position_; }

  /// Run isolation: restart the schedule from λ_1.  A spectrum bound to
  /// an unmasked graph is kept — it is a pure function of the graph
  /// (revision-keyed), so the next run recomputes it only if it executes
  /// on a new topology.  One bound to a mask is dropped: a mask's
  /// revisions count its own commits, so another run's mask could repeat
  /// the key.
  void on_run_begin() override {
    position_ = 0;
    if (bound_mask_ != nullptr) schedule_.clear();
  }

 private:
  double tol_;
  std::vector<double> schedule_;  // distinct nonzero eigenvalues, Leja-ordered
  std::size_t position_ = 0;
  // The topology the schedule was computed for: the frame's base
  // revision, mask and mask revision.
  std::uint64_t bound_base_ = 0;
  const graph::EdgeMask* bound_mask_ = nullptr;
  std::uint64_t bound_mask_revision_ = 0;
  std::vector<double> lx_;  // scratch: Laplacian * load
};

/// OPS's schedule for an ascending Laplacian spectrum: the distinct
/// eigenvalues above `tol` (a value within `tol` of the last kept one
/// merges into it) in Leja order — the largest first, then greedily the
/// one maximizing Π|λ − chosen| over the values already chosen.
std::vector<double> leja_schedule(const std::vector<double>& spectrum, double tol);

std::unique_ptr<ContinuousBalancer> make_ops();

}  // namespace lb::core
