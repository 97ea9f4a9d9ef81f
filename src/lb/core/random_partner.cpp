#include "lb/core/random_partner.hpp"

#include <cmath>

#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"

namespace lb::core {

void sample_partner_links(std::size_t n, util::Rng& rng, PartnerLinks& links) {
  LB_ASSERT_MSG(n >= 2, "random partners need at least two nodes");
  links.partner.resize(n);
  links.degree.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // Uniform over the other n−1 nodes.
    std::size_t j = static_cast<std::size_t>(rng.next_below(n - 1));
    if (j >= i) ++j;
    links.partner[i] = static_cast<graph::NodeId>(j);
    ++links.degree[i];
    ++links.degree[j];
  }
}

PartnerLinks sample_partner_links(std::size_t n, util::Rng& rng) {
  PartnerLinks links;
  sample_partner_links(n, rng, links);
  return links;
}

template <class T>
StepStats RandomPartnerBalancer<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  const std::size_t n = load.size();
  sample_partner_links(n, ctx.rng(), links_);
  const PartnerLinks& links = links_;

  // All transfers are computed from the round-start snapshot and applied
  // at the end — the concurrent semantics of Algorithm 2.  The sampling
  // and delta accumulation stay sequential (a single RNG stream and
  // scattered ±writes); only the final per-node delta application — the
  // one dense sweep — parallelizes, and it carries the fused summary.
  std::vector<T>& delta = ctx.arena().node_scratch();
  delta.assign(n, T{});
  StepStats stats;
  stats.links = n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = links.partner[i];
    const double li = static_cast<double>(load[i]);
    const double lj = static_cast<double>(load[j]);
    if (li == lj) continue;
    const double denom =
        4.0 * static_cast<double>(std::max(links.degree[i], links.degree[j]));
    double w = std::fabs(li - lj) / denom;
    if constexpr (std::is_integral_v<T>) {
      w = std::floor(w);
    }
    const T amount = static_cast<T>(w);
    if (amount == T{}) continue;
    if (li > lj) {
      delta[i] -= amount;
      delta[j] += amount;
    } else {
      delta[j] -= amount;
      delta[i] += amount;
    }
    stats.transferred += static_cast<double>(amount);
    ++stats.active_edges;
  }
  if (ctx.summary_requested()) {
    ctx.publish_summary(fused_sweep_with_summary<T>(
        ctx.pool(), n, ctx.summary_average(), ctx.summary_mode(),
        ctx.arena().summary_parts(),
        [&](std::size_t i) {
          const T value = load[i] + delta[i];
          load[i] = value;
          return value;
        }));
  } else {
    for (std::size_t i = 0; i < n; ++i) load[i] += delta[i];
  }
  return stats;
}

template class RandomPartnerBalancer<double>;
template class RandomPartnerBalancer<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_random_partner_continuous() {
  return std::make_unique<ContinuousRandomPartner>();
}

std::unique_ptr<DiscreteBalancer> make_random_partner_discrete() {
  return std::make_unique<DiscreteRandomPartner>();
}

}  // namespace lb::core
