#include "lb/core/async.hpp"

#include <cstdio>

#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

template <class T>
AsyncDiffusion<T>::AsyncDiffusion(double activation_probability, DiffusionConfig cfg)
    : p_(activation_probability), cfg_(cfg) {
  LB_ASSERT_MSG(p_ > 0.0 && p_ <= 1.0, "activation probability must lie in (0,1]");
}

template <class T>
std::string AsyncDiffusion<T>::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s(p=%.2f)",
                std::is_integral_v<T> ? "async-diffusion-disc" : "async-diffusion-cont",
                p_);
  return buf;
}

template <class T>
StepStats AsyncDiffusion<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");

  // Draw this round's active set (sequential: the RNG is a shared
  // stream) — before any topology access, so masked and materialized
  // runs consume the identical RNG prefix.
  std::vector<std::uint8_t>& active = ctx.arena().node_flags();
  active.assign(load.size(), 0);
  for (std::size_t u = 0; u < load.size(); ++u) {
    active[u] = ctx.rng().next_bool(p_) ? 1 : 0;
  }

  // An edge moves load only if its *richer* endpoint is active (that node
  // executes the send); the flow is Algorithm 1's rule on the round-start
  // snapshot, so all the usual safety properties carry over.  With the
  // active set fixed, the flows are a pure function of the snapshot, so
  // the round runs as the blocked round like plain diffusion — on masked
  // frames with the mask's alive-degrees, never materializing.
  const double factor = cfg_.factor;
  const double degree_plus_one = static_cast<double>(frame.max_degree()) + 1.0;
  const DenominatorRule rule = cfg_.rule;
  const auto flow_fn = [&frame, &active, factor, degree_plus_one, rule](
                           std::size_t, const graph::Edge& e, double li, double lj) {
    const graph::NodeId sender = li > lj ? e.u : e.v;
    const double f = diffusion_share<T>(
        li - lj, frame_diffusion_denominator(frame, e, rule, factor, degree_plus_one));
    return active[sender] != 0 ? f : 0.0;
  };
  StepStats stats = run_blocked_round(ctx, load, flow_fn);
  stats.links = frame.num_edges();
  return stats;
}

template class AsyncDiffusion<double>;
template class AsyncDiffusion<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_async_continuous(double p) {
  return std::make_unique<ContinuousAsyncDiffusion>(p);
}

std::unique_ptr<DiscreteBalancer> make_async_discrete(double p) {
  return std::make_unique<DiscreteAsyncDiffusion>(p);
}

}  // namespace lb::core
