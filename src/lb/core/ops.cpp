#include "lb/core/ops.hpp"

#include <cmath>

#include "lb/core/round_context.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

OptimalPolynomialScheme::OptimalPolynomialScheme(double eigenvalue_tolerance)
    : tol_(eigenvalue_tolerance) {
  LB_ASSERT_MSG(tol_ > 0.0, "eigenvalue tolerance must be positive");
}

std::vector<double> leja_schedule(const std::vector<double>& spectrum, double tol) {
  std::vector<double> distinct;
  for (double lambda : spectrum) {
    if (lambda <= tol) continue;  // skip the kernel (and numerical zeros)
    if (!distinct.empty() && std::fabs(lambda - distinct.back()) <= tol) continue;
    distinct.push_back(lambda);
  }
  LB_ASSERT_MSG(!distinct.empty(), "graph has no nonzero Laplacian eigenvalues");

  // Leja ordering: applying the factors (1 − λ/λ_k) in ascending λ_k
  // order amplifies the high modes catastrophically on spectra with
  // many eigenvalues (path graphs overflow double).  Greedily ordering
  // each next λ_k to maximize Π|λ_k − chosen| keeps the intermediate
  // polynomial bounded — the standard stabilization for polynomial
  // iterations.  The product is scored as Σ log|λ_k − chosen| (no
  // overflow), and each candidate keeps its running sum, adding one term
  // per choice — O(D²) logs.  That adds the same terms in the same order
  // from 0.0 as re-summing the whole chosen set at every step, so the
  // scores and the argmax (first index on ties) are exactly those of the
  // O(D³) textbook loop, which tests/test_spectral_pins.cpp keeps as the
  // oracle.
  const std::size_t d = distinct.size();
  std::vector<double> schedule;
  schedule.reserve(d);
  std::vector<double> score(d, 0.0);
  std::vector<bool> used(d, false);
  std::size_t pick = d - 1;  // start from the largest eigenvalue
  for (;;) {
    used[pick] = true;
    schedule.push_back(distinct[pick]);
    if (schedule.size() == d) return schedule;
    const double chosen = distinct[pick];
    pick = d;
    for (std::size_t i = 0; i < d; ++i) {
      if (used[i]) continue;
      score[i] += std::log(std::fabs(distinct[i] - chosen));
      if (pick == d || score[i] > score[pick]) pick = i;
    }
  }
}

StepStats OptimalPolynomialScheme::step(RoundContext<double>& ctx,
                                        std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  if (schedule_.empty() || frame.base_revision() != bound_base_ ||
      frame.mask() != bound_mask_ || frame.mask_revision() != bound_mask_revision_) {
    // Rebinding to a new topology is legal only at a run start, after
    // on_run_begin() reset position_.  A topology change at any later
    // round — even one landing exactly on a schedule-length boundary
    // (e.g. a periodic sequence whose period divides m) — means the
    // scheme was stepped over a dynamic topology, which OPS cannot
    // serve.  Note this is stricter than the old node/edge-count check,
    // which silently accepted a different graph of identical shape.
    LB_ASSERT_MSG(position_ == 0, "OPS graph changed mid-run");
    // Schedule binding, the one read of the round's Graph (materialized
    // on a masked frame): through the run's spectral cache when present
    // (Tier-1 exact — a miss computes the identical cold spectrum, so
    // the schedule is bit-identical either way), cold otherwise.
    const graph::Graph& g = ctx.graph();
    linalg::SpectralCache* cache = ctx.spectral_cache();
    schedule_ = leja_schedule(cache != nullptr ? cache->spectrum(g)
                                               : linalg::laplacian_spectrum(g),
                              tol_);
    bound_base_ = frame.base_revision();
    bound_mask_ = frame.mask();
    bound_mask_revision_ = frame.mask_revision();
  }

  const double lambda = schedule_[position_ % schedule_.size()];
  ++position_;

  // lx = Laplacian * load, matrix-free over the frame's alive edges: u
  // starts from d(u)·ℓ_u and subtracts its neighbours' loads in ascending
  // edge order, which is ascending neighbour order.
  const auto& edges = frame.base().edges();
  lx_.resize(load.size());
  for (std::size_t u = 0; u < load.size(); ++u) {
    lx_[u] = static_cast<double>(frame.degree(static_cast<graph::NodeId>(u))) * load[u];
  }
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!frame.alive(k)) continue;
    lx_[edges[k].u] -= load[edges[k].v];
    lx_[edges[k].v] -= load[edges[k].u];
  }

  StepStats stats;
  stats.links = frame.num_edges();
  const double inv = 1.0 / lambda;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!frame.alive(k)) continue;
    const double f = inv * std::fabs(load[edges[k].u] - load[edges[k].v]);
    if (f > 0.0) {
      stats.transferred += f;
      ++stats.active_edges;
    }
  }
  for (std::size_t u = 0; u < load.size(); ++u) load[u] -= inv * lx_[u];
  return stats;
}

std::unique_ptr<ContinuousBalancer> make_ops() {
  return std::make_unique<OptimalPolynomialScheme>();
}

}  // namespace lb::core
