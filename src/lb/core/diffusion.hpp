// Algorithm 1 of the paper: concurrent neighbourhood diffusion.
//
//   for every node i in parallel:
//     for every neighbour j:
//       if ℓ_i > ℓ_j: send (ℓ_i − ℓ_j) / (4·max(d_i, d_j)) from i to j
//
// The continuous variant sends the exact fraction; the discrete variant
// sends ⌊·⌋ tokens (§4.2).  All amounts are computed from the round-start
// snapshot and applied together, which is exactly the concurrency the
// paper's sequentialization technique analyzes.
//
// The denominator is configurable for two reasons:
//   * DenominatorRule::kDegreePlusOne turns the same flow computation into
//     the classic first-order scheme of Cybenko [3] (α = 1/(δ+1)) —
//     including its natural discrete rounding, as studied in [15];
//   * the bench ablation varies the safety factor (2/4/8·max) to show why
//     the paper divides by 4·max(d_i,d_j): smaller denominators let load
//     overshoot and bounce ("ping-pong"), larger ones slow convergence.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

#include "lb/core/algorithm.hpp"
#include "lb/core/flow_ledger.hpp"

namespace lb::core {

enum class DenominatorRule {
  /// factor · max(d_i, d_j) — the paper's rule with factor 4.
  kFactorTimesMaxDegree,
  /// δ + 1 globally (Cybenko's first-order scheme denominator).
  kDegreePlusOne,
};

struct DiffusionConfig {
  DenominatorRule rule = DenominatorRule::kFactorTimesMaxDegree;
  /// The safety factor in front of max(d_i, d_j); the paper uses 4.
  double factor = 4.0;
};

/// Per-edge flow magnitude |ℓ_i − ℓ_j| / denom with the configured rule
/// (before rounding).  Exposed for the sequentialization toolkit, which
/// must reproduce Algorithm 1's weights exactly.
double diffusion_edge_weight(const graph::Graph& g, graph::NodeId i, graph::NodeId j,
                             double load_i, double load_j, const DiffusionConfig& cfg);

/// Algorithm 1's signed edge flow: `gap` (ℓ_u − ℓ_v, or any signed
/// numerator) over the edge's denominator, truncated toward zero for
/// Tokens.  IEEE multiplication and division are sign-symmetric, so this
/// is exactly the paper's "ℓ_u > ℓ_v ? ⌊w⌋ : −⌊w⌋" with w = |gap|/denom —
/// with no data-dependent branch.  Positive moves load u -> v.
template <class T>
inline double diffusion_share(double gap, double denom) {
  const double q = gap / denom;
  if constexpr (std::is_integral_v<T>) {
    return std::trunc(q);
  } else {
    return q;
  }
}

/// Algorithm-1 denominator of edge e on a frame, from its (alive-)
/// degrees — the one per-edge definition every closure that cannot use a
/// uniform denominator shares (irregular bases and masked frames of plain
/// diffusion, and async diffusion), computing the identical double
/// diffusion_edge_weight derives from the (materialized) graph's degrees.
/// `degree_plus_one` is the precomputed frame.max_degree()+1 so the
/// per-edge call stays branch+lookup only.
inline double frame_diffusion_denominator(const graph::TopologyFrame& frame,
                                          const graph::Edge& e, DenominatorRule rule,
                                          double factor, double degree_plus_one) {
  switch (rule) {
    case DenominatorRule::kFactorTimesMaxDegree:
      return factor *
             static_cast<double>(std::max(frame.degree(e.u), frame.degree(e.v)));
    case DenominatorRule::kDegreePlusOne:
      return degree_plus_one;
  }
  return 0.0;
}

/// diffusion_share<T>(ℓ_u − ℓ_v, d) as a pair rule (flow_program.hpp),
/// for rounds in which every edge has the one denominator d.  With
/// kByInverse, `scale` multiplies the gap: an exact power-of-two inverse
/// 1/d (gap·(1/d) and gap/d are the same real number, so IEEE arithmetic
/// rounds both to the same double), or FOS's α (fos.hpp); otherwise
/// `scale` is d itself.  amount() is the whole-token amount T(flow) a round
/// moves, cast straight from the quotient: the cast truncates, so the
/// flow's trunc changes no amount, and skipping it skips trunc's
/// branchy expansion on baseline x86-64.
template <class T, bool kByInverse>
struct UniformDiffusionShare {
  double scale;

  double quotient(double lu, double lv) const {
    return kByInverse ? (lu - lv) * scale : (lu - lv) / scale;
  }
  double operator()(double lu, double lv) const {
    if constexpr (std::is_integral_v<T>) {
      return std::trunc(quotient(lu, lv));
    } else {
      return quotient(lu, lv);
    }
  }
  T amount(double lu, double lv) const { return static_cast<T>(quotient(lu, lv)); }
};

/// Algorithm 1's per-edge rule where edges differ in denominator (an
/// irregular base, or a masked frame): the edge's own
/// frame_diffusion_denominator, read from the frame's (alive-)degrees as
/// the rule runs.  The frame must outlive the round (it lives in the
/// sequence).
template <class T>
struct FrameDiffusionShare {
  const graph::TopologyFrame* frame;
  DenominatorRule rule;
  double factor;
  double degree_plus_one;

  double operator()(std::size_t, const graph::Edge& e, double lu, double lv) const {
    return diffusion_share<T>(
        lu - lv, frame_diffusion_denominator(*frame, e, rule, factor, degree_plus_one));
  }
};

template <class T>
class DiffusionBalancer final : public Balancer<T> {
 public:
  explicit DiffusionBalancer(DiffusionConfig cfg = {});

  std::string name() const override;

  /// The round (flow_program.hpp): Algorithm 1's flow as a pair rule
  /// (UniformDiffusionShare) when the frame is unmasked and every edge
  /// has the same denominator (δ + 1, or factor·δ on a regular base), else
  /// the per-edge FrameDiffusionShare (the frame's degrees; a mask's
  /// alive-degrees, the identical doubles the materialized subgraph
  /// gives).  No state: round scratch, the blocked round's plan and the
  /// stencil's buffers come from the RoundContext.
  bool plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) override;

  const DiffusionConfig& config() const { return cfg_; }

 private:
  DiffusionConfig cfg_;
};

using ContinuousDiffusion = DiffusionBalancer<double>;
using DiscreteDiffusion = DiffusionBalancer<std::int64_t>;

/// Algorithm 1 with the paper's parameters.
std::unique_ptr<ContinuousBalancer> make_diffusion_continuous();
std::unique_ptr<DiscreteBalancer> make_diffusion_discrete();

}  // namespace lb::core
