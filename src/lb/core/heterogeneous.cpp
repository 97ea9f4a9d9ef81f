#include "lb/core/heterogeneous.hpp"

#include <cmath>

#include "lb/core/diffusion.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

template <class T>
double weighted_potential(const std::vector<T>& load, const std::vector<double>& speed) {
  LB_ASSERT_MSG(load.size() == speed.size(), "load/speed size mismatch");
  double total = 0.0, total_speed = 0.0;
  for (std::size_t i = 0; i < load.size(); ++i) {
    total += static_cast<double>(load[i]);
    total_speed += speed[i];
  }
  if (total_speed <= 0.0) return 0.0;
  const double share = total / total_speed;  // W/S
  double acc = 0.0;
  for (std::size_t i = 0; i < load.size(); ++i) {
    const double d = static_cast<double>(load[i]) / speed[i] - share;
    acc += speed[i] * d * d;
  }
  return acc;
}

template <class T>
double weighted_discrepancy(const std::vector<T>& load,
                            const std::vector<double>& speed) {
  LB_ASSERT_MSG(load.size() == speed.size(), "load/speed size mismatch");
  double total = 0.0, total_speed = 0.0;
  for (std::size_t i = 0; i < load.size(); ++i) {
    total += static_cast<double>(load[i]);
    total_speed += speed[i];
  }
  if (total_speed <= 0.0) return 0.0;
  const double share = total / total_speed;
  double worst = 0.0;
  for (std::size_t i = 0; i < load.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(static_cast<double>(load[i]) / speed[i] - share));
  }
  return worst;
}

template <class T>
HeterogeneousDiffusion<T>::HeterogeneousDiffusion(std::vector<double> speed)
    : speed_(std::move(speed)) {
  for (double s : speed_) {
    LB_ASSERT_MSG(s > 0.0, "node speeds must be positive");
  }
}

template <class T>
StepStats HeterogeneousDiffusion<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  LB_ASSERT_MSG(speed_.size() == frame.num_nodes(),
                "speed vector does not match graph");

  // The normalized-gap flow of Elsässer–Monien–Preis on the blocked round.
  // frame.degree is the mask's alive-degree on masked rounds (= the
  // materialized subgraph's degree) and the graph's own otherwise — the
  // identical doubles either way.  The gap times the harmonic speed is
  // signed, so diffusion_share gives ±⌊|gap|·h/denom⌋ with no branch.
  const auto flow_fn = [this, &frame](std::size_t, const graph::Edge& e, double li,
                                      double lj) {
    const double harmonic =
        2.0 * speed_[e.u] * speed_[e.v] / (speed_[e.u] + speed_[e.v]);
    const double denom =
        4.0 * static_cast<double>(std::max(frame.degree(e.u), frame.degree(e.v)));
    return diffusion_share<T>((li / speed_[e.u] - lj / speed_[e.v]) * harmonic, denom);
  };
  StepStats stats = run_blocked_round(ctx, load, flow_fn);
  stats.links = frame.num_edges();
  return stats;
}

template double weighted_potential<double>(const std::vector<double>&,
                                           const std::vector<double>&);
template double weighted_potential<std::int64_t>(const std::vector<std::int64_t>&,
                                                 const std::vector<double>&);
template double weighted_discrepancy<double>(const std::vector<double>&,
                                             const std::vector<double>&);
template double weighted_discrepancy<std::int64_t>(const std::vector<std::int64_t>&,
                                                   const std::vector<double>&);
template class HeterogeneousDiffusion<double>;
template class HeterogeneousDiffusion<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_heterogeneous_continuous(
    std::vector<double> speed) {
  return std::make_unique<ContinuousHeterogeneousDiffusion>(std::move(speed));
}

std::unique_ptr<DiscreteBalancer> make_heterogeneous_discrete(
    std::vector<double> speed) {
  return std::make_unique<DiscreteHeterogeneousDiffusion>(std::move(speed));
}

}  // namespace lb::core
