// The seed's sequential rounds, kept as the tests' bit-identity oracle.
//
// The library runs every round one way (the blocked round, or a direct
// matched-pair loop); these balancers run the same algorithms the way the
// seed did, in the seed's own arithmetic: every edge flow computed from
// the round-start loads on the round's materialized graph, then applied
// by one sequential sweep over the edge list.  Nothing here is shared
// with the code under test beyond the flow fill (compute_edge_flows) and
// the StepStats contract's per-edge count and chunk fold (count_flow,
// fold_chunk_stats), so a production round that drifts by one bit
// diverges from these.
//
//   * seed::apply_edge_sweep   — the sequential edge-list apply.
//   * seed::diffusion_flows    — Algorithm 1's per-edge flows, seed style.
//   * seed::Diffusion<T>       — Algorithm 1 (and the FOS flow form) via
//                                diffusion_edge_weight, ⌊·⌋ for Tokens and
//                                an explicit sign.
//   * seed::SecondOrder        — FOS when β is unset, SOS otherwise: the
//                                sweep into a copy of the load, then the
//                                β-combine.
//   * seed::gm_random_matching, seed::random_maximal_matching,
//     seed::hypercube_dimension_matching
//                              — the seed's matching draws on a Graph
//                                (the library draws on the frame,
//                                graph/matching.hpp).
//   * seed::DimensionExchange  — those draws on the round's materialized
//                                graph, then the seed's ±amount pair loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "lb/core/algorithm.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/round_context.hpp"
#include "lb/graph/matching.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/rng.hpp"

namespace seed {

using lb::core::StepStats;
using lb::graph::Edge;
using lb::graph::Graph;
using lb::graph::Matching;
using lb::graph::NodeId;

/// Ghosh–Muthukrishnan's local matching as the seed drew it on a Graph:
/// every node with a neighbour wakes w.p. 1/2 and proposes to a uniform
/// neighbour; a sleeping node accepts one incoming proposal, uniform by
/// reservoir; the matching lists the accepted edges by accepting node.
inline Matching gm_random_matching(const Graph& g, lb::util::Rng& rng) {
  const std::size_t n = g.num_nodes();
  constexpr NodeId kNone = static_cast<NodeId>(-1);
  std::vector<NodeId> proposal(n, kNone);
  std::vector<bool> awake(n, false);
  for (std::size_t u = 0; u < n; ++u) {
    if (g.degree(static_cast<NodeId>(u)) == 0) continue;
    if (!rng.next_bool(0.5)) continue;
    awake[u] = true;
    const auto nb = g.neighbors(static_cast<NodeId>(u));
    proposal[u] = nb[static_cast<std::size_t>(rng.next_below(nb.size()))];
  }
  Matching m;
  std::vector<NodeId> accepted(n, kNone);
  std::vector<std::size_t> incoming(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    if (!awake[u]) continue;
    const NodeId v = proposal[u];
    if (awake[v]) continue;
    ++incoming[v];
    if (rng.next_below(incoming[v]) == 0) accepted[v] = static_cast<NodeId>(u);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (accepted[v] == kNone) continue;
    const NodeId u = accepted[v];
    m.push_back(Edge{std::min<NodeId>(u, static_cast<NodeId>(v)),
                     std::max<NodeId>(u, static_cast<NodeId>(v))});
  }
  return m;
}

/// Greedy maximal matching over a Rng::shuffle of the edge indices.
inline Matching random_maximal_matching(const Graph& g, lb::util::Rng& rng) {
  std::vector<std::size_t> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<bool> used(g.num_nodes(), false);
  Matching m;
  for (std::size_t idx : order) {
    const Edge& e = g.edges()[idx];
    if (used[e.u] || used[e.v]) continue;
    used[e.u] = used[e.v] = true;
    m.push_back(e);
  }
  return m;
}

/// Colour `colour` of a `dimensions`-cube's round-robin schedule: every
/// (u, u ^ 2^colour) in ascending u; asserts that each edge exists.
inline Matching hypercube_dimension_matching(const Graph& g, std::size_t dimensions,
                                             std::size_t colour) {
  LB_ASSERT_MSG(colour < dimensions, "colour must be a hypercube dimension");
  LB_ASSERT_MSG(g.num_nodes() == (std::size_t{1} << dimensions),
                "graph is not a hypercube of the stated dimension");
  Matching m;
  const std::size_t bit = std::size_t{1} << colour;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    const std::size_t v = u ^ bit;
    if (u < v) {
      LB_ASSERT_MSG(g.has_edge(static_cast<NodeId>(u), static_cast<NodeId>(v)),
                    "hypercube edge missing");
      m.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
    }
  }
  return m;
}

/// The seed's sequential edge-list apply: every edge in ascending order
/// moves |f| from its sender to its receiver; a zero share (or one that
/// truncates to zero tokens) is skipped.
template <class T>
void apply_edge_sweep(const Graph& g, const std::vector<double>& flows, std::vector<T>& load) {
  const auto& edges = g.edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const double f = flows[k];
    if (f == 0.0) continue;
    const Edge& e = edges[k];
    const T amount = static_cast<T>(std::fabs(f));
    if (amount == T{}) continue;
    if (f > 0.0) {
      load[e.u] -= amount;
      load[e.v] += amount;
    } else {
      load[e.v] -= amount;
      load[e.u] += amount;
    }
  }
}

/// Algorithm 1's signed flow on every edge of `g` from `load`, as the seed
/// computed it: the denominator recomputed per edge by
/// diffusion_edge_weight, floored for Tokens, signed by comparison.
template <class T>
void diffusion_flows(const Graph& g, const std::vector<T>& load,
                     const lb::core::DiffusionConfig& cfg, std::vector<double>& flows) {
  lb::core::compute_edge_flows(
      g, load, flows, nullptr, [&](std::size_t, const Edge& e, double li, double lj) {
        if (li == lj) return 0.0;
        double w = lb::core::diffusion_edge_weight(g, e.u, e.v, li, lj, cfg);
        if constexpr (std::is_integral_v<T>) w = std::floor(w);
        return li > lj ? w : -w;
      });
}

/// StepStats of a flow vector under the fixed-chunk contract
/// (fold_chunk_stats): each edge counts in the summary chunk of its lower
/// endpoint, in ascending edge order from +0.0, and the chunks fold in
/// order.
template <class T>
StepStats chunk_totals(const Graph& g, const std::vector<double>& flows) {
  const auto& edges = g.edges();
  StepStats stats, chunk;
  std::size_t current = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const std::size_t c = edges[k].u / lb::core::kSummaryChunkWidth;
    if (c != current) {
      lb::core::fold_chunk_stats(stats, chunk);
      chunk = StepStats{};
      current = c;
    }
    lb::core::count_flow<T>(chunk, flows[k]);
  }
  lb::core::fold_chunk_stats(stats, chunk);
  return stats;
}

/// One all-edges round on `g`: StepStats under the fixed-chunk contract,
/// then the sweep.
template <class T>
StepStats sweep_round(const Graph& g, const std::vector<double>& flows, std::vector<T>& load) {
  StepStats stats = chunk_totals<T>(g, flows);
  stats.links = g.num_edges();
  apply_edge_sweep(g, flows, load);
  return stats;
}

/// Algorithm 1 as the seed ran it: diffusion_flows, then the sweep.
template <class T>
class Diffusion final : public lb::core::Balancer<T> {
 public:
  explicit Diffusion(lb::core::DiffusionConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "seed-diffusion"; }
  using lb::core::Balancer<T>::step;
  StepStats step(lb::core::RoundContext<T>& ctx, std::vector<T>& load) override {
    const Graph& g = ctx.graph();
    diffusion_flows(g, load, cfg_, flows_);
    return sweep_round(g, flows_, load);
  }

 private:
  lb::core::DiffusionConfig cfg_;
  std::vector<double> flows_;
};

/// The first-order scheme (β unset) or the second-order scheme (β set),
/// as the seed ran them: α·(ℓ_u − ℓ_v) per edge, α = 1/(δ+1), swept into
/// a copy of the load; SOS then combines β·(M·L) + (1−β)·L^{t-1}, with a
/// plain FOS step in the run's first round.
class SecondOrder final : public lb::core::Balancer<double> {
 public:
  explicit SecondOrder(std::optional<double> beta = std::nullopt) : beta_(beta) {}

  std::string name() const override { return beta_ ? "seed-sos" : "seed-fos"; }
  void on_run_begin() override { have_prev_ = false; }
  using lb::core::Balancer<double>::step;
  StepStats step(lb::core::RoundContext<double>& ctx, std::vector<double>& load) override {
    const Graph& g = ctx.graph();
    const double alpha = 1.0 / (static_cast<double>(g.max_degree()) + 1.0);
    lb::core::compute_edge_flows(
        g, load, flows_, nullptr,
        [alpha](std::size_t, const Edge&, double lu, double lv) { return alpha * (lu - lv); });
    if (!beta_) return sweep_round(g, flows_, load);

    std::vector<double> next = load;  // M·L^t
    const StepStats stats = sweep_round(g, flows_, next);
    if (!have_prev_) {
      prev_ = load;
      load = next;
      have_prev_ = true;
      return stats;
    }
    const double b = *beta_;
    for (std::size_t u = 0; u < load.size(); ++u) {
      const double combined = b * next[u] + (1.0 - b) * prev_[u];
      prev_[u] = load[u];
      load[u] = combined;
    }
    return stats;
  }

 private:
  std::optional<double> beta_;
  std::vector<double> flows_;
  std::vector<double> prev_;
  bool have_prev_ = false;
};

/// Dimension exchange as the seed ran it: the seed's matching draw on the
/// round's materialized graph (same Rng stream, same round-robin
/// schedule), then every matched pair balanced in matching order — the
/// richer endpoint sends ⌊|ℓ_u − ℓ_v|/2⌋ (Tokens) or |ℓ_u − ℓ_v|/2 (Real).
template <class T>
class DimensionExchange final : public lb::core::Balancer<T> {
 public:
  explicit DimensionExchange(lb::core::MatchingStrategy strategy) : strategy_(strategy) {}

  std::string name() const override { return "seed-dimexch"; }
  void on_run_begin() override { round_ = 0; }
  using lb::core::Balancer<T>::step;
  StepStats step(lb::core::RoundContext<T>& ctx, std::vector<T>& load) override {
    const Graph& g = ctx.graph();
    lb::graph::Matching m;
    switch (strategy_) {
      case lb::core::MatchingStrategy::kGhoshMuthukrishnan:
        m = seed::gm_random_matching(g, ctx.rng());
        break;
      case lb::core::MatchingStrategy::kRandomMaximal:
        m = seed::random_maximal_matching(g, ctx.rng());
        break;
      case lb::core::MatchingStrategy::kHypercubeRoundRobin: {
        std::size_t d = 0;
        while ((std::size_t{1} << d) < g.num_nodes()) ++d;
        m = seed::hypercube_dimension_matching(g, d, round_ % d);
        break;
      }
    }
    ++round_;

    StepStats stats;
    stats.links = m.size();
    for (const Edge& e : m) {
      const double diff = static_cast<double>(load[e.u]) - static_cast<double>(load[e.v]);
      if (diff == 0.0) continue;
      double half = std::fabs(diff) / 2.0;
      if constexpr (std::is_integral_v<T>) half = std::floor(half);
      const T amount = static_cast<T>(half);
      if (amount == T{}) continue;
      stats.transferred += static_cast<double>(amount);
      ++stats.active_edges;
      if (diff > 0.0) {
        load[e.u] -= amount;
        load[e.v] += amount;
      } else {
        load[e.v] -= amount;
        load[e.u] += amount;
      }
    }
    return stats;
  }

 private:
  lb::core::MatchingStrategy strategy_;
  std::size_t round_ = 0;
};

}  // namespace seed
