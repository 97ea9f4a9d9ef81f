#include "lb/core/diffusion.hpp"

#include <cmath>
#include <sstream>

#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

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
template <class Use>
decltype(auto) DiffusionBalancer<T>::with_round_flow(RoundContext<T>& ctx, Use&& use) {
  const graph::TopologyFrame& frame = ctx.frame();
  if (frame.masked()) {
    // Alive-degrees move with every mask revision, so the per-epoch
    // denominator cache buys nothing here.  The frame outlives the round
    // (it lives in the sequence), so a planned closure may hold it.
    const double factor = cfg_.factor;
    const double degree_plus_one = static_cast<double>(frame.max_degree()) + 1.0;
    const DenominatorRule rule = cfg_.rule;
    return use([&frame, factor, degree_plus_one, rule](
                   std::size_t, const graph::Edge& e, double lu, double lv) {
      return diffusion_share<T>(
          lu - lv, masked_diffusion_denominator(frame, e, rule, factor, degree_plus_one));
    });
  }
  // The cached denominator is the same double the seed computes inline.
  ensure_denominators(frame.base(), ctx.pool());
  return use([this](std::size_t k, const graph::Edge&, double lu, double lv) {
    return diffusion_share<T>(lu - lv, denoms_[k]);
  });
}

template <class T>
StepStats DiffusionBalancer<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  LB_ASSERT_MSG(load.size() == ctx.frame().num_nodes(), "load vector does not match graph");
  StepStats stats = with_round_flow(
      ctx, [&](const auto& flow) { return run_blocked_round(ctx, ctx.pool(), load, flow); });
  stats.links = ctx.frame().num_edges();
  return stats;
}

template <class T>
void DiffusionBalancer<T>::ensure_denominators(const graph::Graph& g,
                                               util::ThreadPool* pool) {
  if (denom_revision_ == g.revision()) return;
  denom_revision_ = g.revision();
  const auto& edges = g.edges();
  denoms_.resize(edges.size());
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const graph::Edge& e = edges[k];
      switch (cfg_.rule) {
        case DenominatorRule::kFactorTimesMaxDegree:
          denoms_[k] = cfg_.factor *
                       static_cast<double>(std::max(g.degree(e.u), g.degree(e.v)));
          break;
        case DenominatorRule::kDegreePlusOne:
          denoms_[k] = static_cast<double>(g.max_degree()) + 1.0;
          break;
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, edges.size(), 2048, fill);
  } else {
    fill(0, edges.size());
  }
}

template <class T>
bool DiffusionBalancer<T>::plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
  program.links = ctx.frame().num_edges();
  with_round_flow(ctx, [&program](const auto& flow) { program.flow = flow; });
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
