#include "lb/core/diffusion.hpp"

#include <cmath>
#include <sstream>
#include <type_traits>

#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

double diffusion_edge_weight(const graph::Graph& g, graph::NodeId i, graph::NodeId j,
                             double load_i, double load_j, const DiffusionConfig& cfg) {
  double denom = 0.0;
  switch (cfg.rule) {
    case DenominatorRule::kFactorTimesMaxDegree:
      denom = cfg.factor * static_cast<double>(std::max(g.degree(i), g.degree(j)));
      break;
    case DenominatorRule::kDegreePlusOne:
      denom = static_cast<double>(g.max_degree()) + 1.0;
      break;
  }
  LB_DEBUG_ASSERT(denom > 0.0);
  return std::fabs(load_i - load_j) / denom;
}

template <class T>
DiffusionBalancer<T>::DiffusionBalancer(DiffusionConfig cfg) : cfg_(cfg) {
  LB_ASSERT_MSG(cfg_.factor > 0.0, "diffusion factor must be positive");
}

template <class T>
std::string DiffusionBalancer<T>::name() const {
  std::string base = std::is_integral_v<T> ? "diffusion-disc" : "diffusion-cont";
  if (cfg_.rule == DenominatorRule::kDegreePlusOne) {
    base = std::is_integral_v<T> ? "fos-disc" : "fos-flow";
  } else if (cfg_.factor != 4.0) {
    // Shortest-form formatting: "f=2" for 2.0 but "f=2.5" for 2.5, so
    // distinct configs never collide in bench CSV rows.
    std::ostringstream os;
    os << "(f=" << cfg_.factor << ")";
    base += os.str();
  }
  return base;
}

template <class T>
bool DiffusionBalancer<T>::plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
  const graph::TopologyFrame& frame = ctx.frame();
  const DenominatorRule rule = cfg_.rule;
  const double factor = cfg_.factor;
  const double degree_plus_one = static_cast<double>(frame.max_degree()) + 1.0;
  program.links = frame.num_edges();
  if (!frame.masked() &&
      (rule == DenominatorRule::kDegreePlusOne || frame.base().is_regular())) {
    // One denominator for every edge — δ + 1 always, factor·δ on a
    // regular base, the double frame_diffusion_denominator gives each
    // edge — so the rule is a pair rule.
    const double denom = rule == DenominatorRule::kDegreePlusOne
                             ? degree_plus_one
                             : factor * static_cast<double>(frame.max_degree());
    if (int exponent = 0; std::frexp(denom, &exponent) == 0.5) {
      // A power of two, such as the paper's 4·δ on a 4-regular torus.
      program.flow = UniformDiffusionShare<T, true>{1.0 / denom};
    } else {
      program.flow = UniformDiffusionShare<T, false>{denom};
    }
  } else {
    // The frame outlives the round (it lives in the sequence), so a
    // planned rule may hold it.
    program.flow = FrameDiffusionShare<T>{&frame, rule, factor, degree_plus_one};
  }
  return true;
}

template class DiffusionBalancer<double>;
template class DiffusionBalancer<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_diffusion_continuous() {
  return std::make_unique<ContinuousDiffusion>();
}

std::unique_ptr<DiscreteBalancer> make_diffusion_discrete() {
  return std::make_unique<DiscreteDiffusion>();
}

}  // namespace lb::core
