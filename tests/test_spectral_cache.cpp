// Three-tier spectral cache suite (lb/linalg/spectral_cache.hpp,
// DESIGN.md §10): Tier-1 exact hits must be bit-identical to the cold
// solvers, Tier-2 brackets must contain the dense ground truth, Tier-3
// warm starts must agree with cold within tolerance — and everything the
// cache feeds into an engine trajectory (SOS auto-β, OPS schedules,
// dynamic runs, campaign cells) must stay bit-identical to the cache-free
// oracle at every pool size.
#include "lb/linalg/spectral_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/dynamic_runner.hpp"
#include "lb/core/sos.hpp"
#include "lb/exp/campaign.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/linalg/lanczos.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::graph::Graph;
using lb::graph::TopologyFrame;
using lb::linalg::Lambda2Answer;
using lb::linalg::SpectralCache;
using lb::linalg::SpectralGuard;
using lb::linalg::SpectralQuery;
using lb::linalg::SpectralTier;
using lb::util::ThreadPool;

/// RAII ceiling override; restores env/default resolution on scope exit.
struct CeilingGuard {
  CeilingGuard(long long dense, long long lanczos) {
    lb::linalg::set_max_spectral_n(dense);
    lb::linalg::set_max_lanczos_spectral_n(lanczos);
  }
  ~CeilingGuard() { lb::linalg::set_max_spectral_n(-1); }
};

std::vector<std::size_t> pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {1, 2, hw};
}

/// Bit-level equality of everything except wall-clock observability.
::testing::AssertionResult results_bits_equal(const lb::core::RunResult& a,
                                              const lb::core::RunResult& b) {
  if (a.rounds != b.rounds)
    return ::testing::AssertionFailure()
           << "rounds " << a.rounds << " vs " << b.rounds;
  if (a.reached_target != b.reached_target || a.stalled != b.stalled)
    return ::testing::AssertionFailure() << "termination flags differ";
  if (a.initial_potential != b.initial_potential)
    return ::testing::AssertionFailure() << "initial potential differs";
  if (a.final_potential != b.final_potential)
    return ::testing::AssertionFailure()
           << "final potential " << a.final_potential << " vs "
           << b.final_potential;
  if (a.final_discrepancy != b.final_discrepancy)
    return ::testing::AssertionFailure() << "final discrepancy differs";
  if (a.trace.size() != b.trace.size())
    return ::testing::AssertionFailure()
           << "trace size " << a.trace.size() << " vs " << b.trace.size();
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& ra = a.trace[i];
    const auto& rb = b.trace[i];
    if (ra.round != rb.round || ra.potential != rb.potential ||
        ra.discrepancy != rb.discrepancy || ra.transferred != rb.transferred ||
        ra.active_edges != rb.active_edges) {
      return ::testing::AssertionFailure() << "trace diverges at round " << ra.round;
    }
  }
  return ::testing::AssertionSuccess();
}

// --- Tier 1: exact hits ----------------------------------------------------

TEST(SpectralCacheTest, ExactHitsRepeatedFramesBitIdentical) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  auto seq = lb::graph::make_partition_sequence(base, 3);
  SpectralCache cache;
  const SpectralQuery query;  // tol 0: exact tiers only
  std::map<std::uint64_t, double> first_seen;
  const std::size_t rounds = 24;
  for (std::size_t k = 1; k <= rounds; ++k) {
    const TopologyFrame& frame = seq->frame_at(k);
    const Lambda2Answer ans = cache.lambda2(frame, query);
    // Dense path with tol 0 computes exactly what the cold entry point
    // computes — compare bits, not tolerances.
    EXPECT_EQ(ans.value, lb::linalg::lambda2(frame));
    const auto [it, inserted] = first_seen.emplace(frame.fingerprint(), ans.value);
    if (inserted) {
      EXPECT_NE(ans.tier, SpectralTier::kExactHit);
    } else {
      EXPECT_EQ(ans.tier, SpectralTier::kExactHit);
      EXPECT_EQ(ans.value, it->second);
    }
  }
  EXPECT_EQ(cache.stats().lambda2_solves(), first_seen.size());
  EXPECT_EQ(cache.stats().exact_hits, rounds - first_seen.size());
  EXPECT_EQ(cache.lambda2_entries(), first_seen.size());
}

TEST(SpectralCacheTest, DenseValuesUnchangedByVectorAccumulation) {
  // The anchor-maintaining dense solve turns vector accumulation on; the
  // QL value recurrence never reads those vectors, so λ2 must still be
  // bit-identical to the vectors-off cold path.  If this pin ever breaks,
  // SpectralCache must switch to a second vectors-off solve for the value.
  const Graph base = lb::graph::make_torus2d(6, 6);
  const TopologyFrame frame(base);
  SpectralCache cache;
  SpectralQuery query;
  query.bound_skip_tol = 1e-3;  // forces want_anchor (vectors on)
  const Lambda2Answer ans = cache.lambda2(frame, query);
  EXPECT_EQ(ans.tier, SpectralTier::kSolvedDense);
  EXPECT_EQ(ans.value, lb::linalg::lambda2(base));
}

TEST(SpectralCacheTest, SummaryExactHitAndRevisionInvalidation) {
  const Graph g1 = lb::graph::make_torus2d(6, 6);
  SpectralCache cache;
  const auto s1 = cache.summary(g1);
  const auto cold = lb::linalg::spectral_summary(g1);
  EXPECT_EQ(s1.lambda2, cold.lambda2);
  EXPECT_EQ(s1.lambda_max, cold.lambda_max);
  EXPECT_EQ(s1.gamma, cold.gamma);
  const auto s2 = cache.summary(g1);
  EXPECT_EQ(cache.stats().summary_solves, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(s2.lambda2, s1.lambda2);
  EXPECT_EQ(s2.gamma, s1.gamma);

  // Same structure, new Graph object: a distinct revision is a distinct
  // base, so the cache must NOT serve g1's entry for g2.
  const Graph g2 = lb::graph::make_torus2d(6, 6);
  ASSERT_NE(g1.revision(), g2.revision());
  cache.summary(g2);
  EXPECT_EQ(cache.stats().summary_solves, 2u);
  EXPECT_TRUE(cache.cached_summary(g1.revision()).has_value());
  EXPECT_TRUE(cache.cached_summary(g2.revision()).has_value());
  EXPECT_FALSE(cache.cached_summary(0).has_value());
}

TEST(SpectralCacheTest, SpectrumExactHitMatchesColdBits) {
  const Graph g = lb::graph::make_cycle(12);
  SpectralCache cache;
  const lb::linalg::Vector& s1 = cache.spectrum(g);
  const lb::linalg::Vector cold = lb::linalg::laplacian_spectrum(g);
  ASSERT_EQ(s1.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(s1[i], cold[i]);
  cache.spectrum(g);
  EXPECT_EQ(cache.stats().spectrum_solves, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
}

/// Bit-level equality of the four summary fields.
::testing::AssertionResult summaries_bits_equal(const lb::linalg::SpectralSummary& a,
                                                const lb::linalg::SpectralSummary& b) {
  if (a.lambda2 == b.lambda2 && a.lambda_max == b.lambda_max && a.gamma == b.gamma &&
      a.eigen_gap == b.eigen_gap && a.n == b.n && a.max_degree == b.max_degree) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "lambda2 " << a.lambda2 << " vs " << b.lambda2 << ", lambda_max "
         << a.lambda_max << " vs " << b.lambda_max << ", gamma " << a.gamma << " vs "
         << b.gamma;
}

TEST(SpectralCacheTest, SummaryAndSpectrumShareOneDenseSolve) {
  // Either order runs exactly one values-only solve per revision: the
  // first call solves (and counts it), the second reads the same entry.
  const Graph g = lb::graph::make_torus2d(6, 6);
  const lb::linalg::SpectralSummary cold_summary = lb::linalg::spectral_summary(g);
  const lb::linalg::Vector cold_spectrum = lb::linalg::laplacian_spectrum(g);
  for (const bool summary_first : {true, false}) {
    SCOPED_TRACE(summary_first ? "summary first" : "spectrum first");
    SpectralCache cache;
    lb::linalg::SpectralSummary s;
    if (summary_first) s = cache.summary(g);
    const lb::linalg::Vector spectrum = cache.spectrum(g);
    if (!summary_first) s = cache.summary(g);
    EXPECT_EQ(cache.stats().summary_solves + cache.stats().spectrum_solves, 1u);
    EXPECT_EQ(cache.stats().summary_solves, summary_first ? 1u : 0u);
    EXPECT_EQ(cache.stats().exact_hits, 1u);
    EXPECT_TRUE(summaries_bits_equal(s, cold_summary));
    EXPECT_EQ(spectrum, cold_spectrum);
    ASSERT_TRUE(cache.cached_summary(g.revision()).has_value());
    EXPECT_TRUE(summaries_bits_equal(*cache.cached_summary(g.revision()), cold_summary));
    // A second revision is a second solve.
    const Graph other = lb::graph::make_torus2d(6, 6);
    cache.spectrum(other);
    cache.summary(other);
    EXPECT_EQ(cache.stats().summary_solves + cache.stats().spectrum_solves, 2u);
  }
}

TEST(SpectralCacheTest, SparseSummaryStillTakesLanczos) {
  // n > dense_cutoff: summary() keeps the cold Lanczos pair, even when
  // spectrum() already holds the revision's dense decomposition.
  const Graph g = lb::graph::make_torus2d(6, 6);
  const std::size_t cutoff = 16;
  const lb::linalg::SpectralSummary cold = lb::linalg::spectral_summary(g, cutoff);
  SpectralCache cache;
  cache.spectrum(g);
  EXPECT_TRUE(summaries_bits_equal(cache.summary(g, cutoff), cold));
  EXPECT_TRUE(summaries_bits_equal(cache.summary(g, cutoff), cold));
  EXPECT_EQ(cache.stats().spectrum_solves, 1u);
  EXPECT_EQ(cache.stats().summary_solves, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  // The report reads the summary summary() served.
  EXPECT_TRUE(summaries_bits_equal(*cache.cached_summary(g.revision()), cold));
}

// --- Tier 2: delta brackets ------------------------------------------------

TEST(SpectralCacheTest, BoundsBracketDenseGroundTruth) {
  // Random masked graphs: every probe's [lower, upper] must contain the
  // dense ground truth, connected or not.
  const Graph base = lb::graph::make_torus2d(5, 5);
  auto seq = lb::graph::make_bernoulli_sequence(base, 0.85, 33);
  SpectralCache cache;
  SpectralQuery solve;
  solve.bound_skip_tol = 1e-12;  // maintain anchors; skips essentially never
  std::size_t probes = 0;
  for (std::size_t k = 1; k <= 30; ++k) {
    const TopologyFrame& frame = seq->frame_at(k);
    const auto bounds = cache.probe_bounds(frame);
    const double truth = lb::linalg::lambda2(frame);
    if (bounds) {
      ++probes;
      EXPECT_LE(bounds->lower, bounds->upper + 1e-12);
      EXPECT_LE(bounds->lower, truth + 1e-9)
          << "round " << k << " lower bound above ground truth";
      EXPECT_GE(bounds->upper, truth - 1e-9)
          << "round " << k << " upper bound below ground truth";
    }
    cache.lambda2(frame, solve);  // refresh the anchor for the next round
  }
  EXPECT_GE(probes, 25u);  // anchor exists from round 2 on
  EXPECT_GT(cache.stats().lambda2_solves(), 0u);
}

TEST(SpectralCacheTest, LooseToleranceBoundSkipsStayWithinBracket) {
  // Complete graph: λ2 = n ≫ 2·|removed|, so small churn deltas keep the
  // bracket inside a loose gate and Tier 2 fires.
  const Graph base = lb::graph::make_complete(16);
  auto seq = lb::graph::make_churn_sequence(base, 0.95, 0.02, 7);
  SpectralCache cache;
  SpectralQuery query;
  query.bound_skip_tol = 0.9;
  std::size_t skips = 0;
  for (std::size_t k = 1; k <= 40; ++k) {
    const TopologyFrame& frame = seq->frame_at(k);
    const Lambda2Answer ans = cache.lambda2(frame, query);
    if (ans.tier == SpectralTier::kBoundSkip) {
      ++skips;
      // The reused value is within tol of the truth: both live in the
      // gate interval (1 ± 0.9)·anchor.
      const double truth = lb::linalg::lambda2(frame);
      EXPECT_GE(truth, ans.value * 0.1 - 1e-9);
      EXPECT_LE(truth, ans.value * 1.9 + 1e-9);
      // Skips must never enter the exact map under this fingerprint.
      EXPECT_FALSE(cache.cached_lambda2(frame.fingerprint()).has_value());
    }
  }
  EXPECT_GT(skips, 0u);
  EXPECT_EQ(cache.stats().bound_skips, skips);
}

TEST(SpectralCacheTest, ZeroToleranceNeverBoundSkips) {
  const Graph base = lb::graph::make_complete(16);
  auto seq = lb::graph::make_churn_sequence(base, 0.95, 0.02, 7);
  SpectralCache cache;
  const SpectralQuery query;  // bound_skip_tol = 0
  for (std::size_t k = 1; k <= 40; ++k) {
    const TopologyFrame& frame = seq->frame_at(k);
    const Lambda2Answer ans = cache.lambda2(frame, query);
    EXPECT_NE(ans.tier, SpectralTier::kBoundSkip);
    EXPECT_EQ(ans.value, lb::linalg::lambda2(frame));  // dense path: bits
  }
  EXPECT_EQ(cache.stats().bound_skips, 0u);
}

// --- Tier 3: warm-started Lanczos ------------------------------------------

TEST(SpectralCacheTest, WarmStartedLanczosMatchesColdAndConvergesNoSlower) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  const auto l = lb::linalg::laplacian_csr(g);
  lb::linalg::LanczosOptions opts;
  opts.deflate = {lb::linalg::Vector(g.num_nodes(), 1.0)};
  const auto cold = lb::linalg::lanczos_smallest(l, opts);
  ASSERT_TRUE(cold.converged);
  ASSERT_EQ(cold.eigenvector.size(), g.num_nodes());
  opts.initial = cold.eigenvector;  // perfect warm start
  const auto warm = lb::linalg::lanczos_smallest(l, opts);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(warm.eigenvalue, cold.eigenvalue, 1e-8);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(SpectralCacheTest, WarmSolvesMatchColdWithinTolerance) {
  // dense_cutoff below n forces the Lanczos path; gentle churn keeps
  // consecutive Fiedler vectors close so the warm start has bite.
  const Graph base = lb::graph::make_torus2d(16, 16);
  const auto run_leg = [&](bool warm, SpectralCache& cache) {
    auto seq = lb::graph::make_churn_sequence(base, 0.98, 0.005, 11);
    SpectralQuery query;
    query.dense_cutoff = 128;
    query.warm_start = warm;
    std::vector<double> values;
    for (std::size_t k = 1; k <= 12; ++k) {
      values.push_back(cache.lambda2(seq->frame_at(k), query).value);
    }
    return values;
  };
  SpectralCache warm_cache, cold_cache;
  const std::vector<double> warm = run_leg(true, warm_cache);
  const std::vector<double> cold = run_leg(false, cold_cache);
  for (std::size_t k = 0; k < warm.size(); ++k) {
    EXPECT_NEAR(warm[k], cold[k], 1e-6 * std::max(1.0, cold[k]))
        << "round " << k + 1;
  }
  EXPECT_GT(warm_cache.stats().warm_solves, 0u);
  EXPECT_EQ(cold_cache.stats().warm_solves, 0u);
  // Warm starts must not cost more Krylov iterations per solve on a
  // slowly churning topology.
  const auto& ws = warm_cache.stats();
  const auto& cs = cold_cache.stats();
  ASSERT_GT(cs.cold_solves, 0u);
  const double warm_avg = static_cast<double>(ws.warm_iterations) /
                          static_cast<double>(ws.warm_solves);
  const double cold_avg = static_cast<double>(cs.cold_iterations) /
                          static_cast<double>(cs.cold_solves);
  EXPECT_LE(warm_avg, cold_avg);
}

// --- Guard split -----------------------------------------------------------

TEST(SpectralGuardSplitTest, VerdictsFollowTheDispatchPath) {
  const CeilingGuard guard(100, 1000);
  EXPECT_EQ(lb::linalg::spectral_guard(50), SpectralGuard::kNone);
  EXPECT_EQ(lb::linalg::spectral_guard(200), SpectralGuard::kDense);
  EXPECT_EQ(lb::linalg::spectral_guard(600), SpectralGuard::kNone);
  EXPECT_EQ(lb::linalg::spectral_guard(2000), SpectralGuard::kLanczos);
  // The verdict follows the path the solver would take: raising the
  // dense cutoff moves the same n onto the dense ceiling.
  EXPECT_EQ(lb::linalg::spectral_guard(600, /*dense_cutoff=*/1024),
            SpectralGuard::kDense);
}

TEST(SpectralGuardSplitTest, SetMaxSpectralNSetsBothCeilings) {
  const CeilingGuard guard(-1, -1);
  lb::linalg::set_max_spectral_n(64);  // historical hard-ceiling hook
  EXPECT_EQ(lb::linalg::max_spectral_n(), 64u);
  EXPECT_EQ(lb::linalg::max_lanczos_spectral_n(), 64u);
  lb::linalg::set_max_lanczos_spectral_n(4096);  // re-split
  EXPECT_EQ(lb::linalg::max_spectral_n(), 64u);
  EXPECT_EQ(lb::linalg::max_lanczos_spectral_n(), 4096u);
}

TEST(SpectralGuardSplitTest, GuardSkipIsNotCached) {
  const Graph g = lb::graph::make_cycle(16);
  const TopologyFrame frame(g);
  SpectralCache cache;
  {
    const CeilingGuard guard(8, 8);
    const Lambda2Answer ans = cache.lambda2(frame);
    EXPECT_EQ(ans.tier, SpectralTier::kGuardSkip);
    EXPECT_EQ(ans.guard, SpectralGuard::kDense);
    EXPECT_EQ(ans.value, 0.0);
    EXPECT_EQ(cache.lambda2_entries(), 0u);
  }
  // Guard lifted: the stale degraded zero must not be served.
  const Lambda2Answer ans = cache.lambda2(frame);
  EXPECT_EQ(ans.tier, SpectralTier::kSolvedDense);
  EXPECT_EQ(ans.value, lb::linalg::lambda2(g));
}

// --- Per-round status in the dynamic profile -------------------------------

TEST(SpectralProfileTest, StatusesRecordProvenance) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  auto seq = lb::graph::make_partition_sequence(base, 3);
  lb::core::SpectralProfileOptions opts;
  opts.bound_skip_tol = 0.0;  // exact tiers only
  const auto p = lb::core::profile_sequence(*seq, 12, opts);
  ASSERT_EQ(p.status_per_round.size(), 12u);
  // Period 6: 3 whole rounds (one distinct frame), 3 cut rounds (the
  // halved torus is disconnected).
  using S = lb::core::bounds::RoundSpectralStatus;
  for (std::size_t k = 0; k < 12; ++k) {
    const bool whole = (k % 6) < 3;
    if (!whole) {
      EXPECT_EQ(p.status_per_round[k], S::kDisconnected) << "round " << k + 1;
      EXPECT_EQ(p.lambda2_per_round[k], 0.0);
    } else if (k == 0) {
      EXPECT_EQ(p.status_per_round[k], S::kComputed);
    } else {
      EXPECT_EQ(p.status_per_round[k], S::kCacheHit) << "round " << k + 1;
      EXPECT_EQ(p.lambda2_per_round[k], p.lambda2_per_round[0]);
    }
  }
  EXPECT_EQ(p.solved_rounds, 1u);
  EXPECT_EQ(p.cache_hit_rounds, 5u);
  EXPECT_EQ(p.disconnected_rounds, 6u);
  EXPECT_EQ(p.bound_skipped_rounds, 0u);
  EXPECT_EQ(p.spectral_skipped_rounds, 0u);
  EXPECT_EQ(p.guard_fired, SpectralGuard::kNone);

  // The exact-tier warm profile must reproduce the cold oracle bit for
  // bit — same λ2 entries, same A_K.
  seq->reset();
  lb::core::SpectralProfileOptions cold_opts;
  cold_opts.warm = false;
  const auto cold = lb::core::profile_sequence(*seq, 12, cold_opts);
  ASSERT_EQ(cold.lambda2_per_round.size(), p.lambda2_per_round.size());
  for (std::size_t k = 0; k < 12; ++k) {
    EXPECT_EQ(p.lambda2_per_round[k], cold.lambda2_per_round[k]);
  }
  EXPECT_EQ(p.average_ratio, cold.average_ratio);
}

TEST(SpectralProfileTest, ColdLegSolvesEveryConnectedRound) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  auto seq = lb::graph::make_partition_sequence(base, 3);
  lb::core::SpectralProfileOptions cold_opts;
  cold_opts.warm = false;
  const auto cold = lb::core::profile_sequence(*seq, 12, cold_opts);
  EXPECT_EQ(cold.solved_rounds, 6u);
  EXPECT_EQ(cold.cache_hit_rounds, 0u);
  EXPECT_EQ(cold.disconnected_rounds, 6u);
}

TEST(SpectralProfileTest, BoundSkipsKeepAverageWithinTolerance) {
  const Graph base = lb::graph::make_complete(16);
  const auto profile_leg = [&](lb::core::SpectralProfileOptions opts) {
    auto seq = lb::graph::make_churn_sequence(base, 0.95, 0.02, 5);
    return lb::core::profile_sequence(*seq, 40, opts);
  };
  lb::core::SpectralProfileOptions warm_opts;
  // On a complete graph λ2 = n, so the Weyl lower gate n − 2·removed
  // admits removed <= 8·tol edge deltas — 0.25 lets rounds one or two
  // flips away from the latest anchor skip while the rest re-solve.
  warm_opts.bound_skip_tol = 0.25;
  lb::core::SpectralProfileOptions cold_opts;
  cold_opts.warm = false;
  const auto warm = profile_leg(warm_opts);
  const auto cold = profile_leg(cold_opts);
  EXPECT_GT(warm.bound_skipped_rounds, 0u);
  ASSERT_GT(cold.average_ratio, 0.0);
  // Every skipped round's λ2 is within tol of its bracketed truth, so
  // the average moves by at most tol (plus slack).
  EXPECT_NEAR(warm.average_ratio, cold.average_ratio, 0.3 * cold.average_ratio);
  // Status accounting covers every round.
  using S = lb::core::bounds::RoundSpectralStatus;
  std::size_t skipped = 0;
  for (const S s : warm.status_per_round) {
    if (s == S::kBoundSkipped) ++skipped;
  }
  EXPECT_EQ(skipped, warm.bound_skipped_rounds);
}

TEST(SpectralProfileTest, GuardSkipsRecordWhichGuardFired) {
  const CeilingGuard guard(8, 8);
  const Graph base = lb::graph::make_cycle(16);
  auto seq = lb::graph::make_static_sequence(base);
  const auto p = lb::core::profile_sequence(*seq, 5);
  using S = lb::core::bounds::RoundSpectralStatus;
  for (const S s : p.status_per_round) EXPECT_EQ(s, S::kGuardSkipped);
  EXPECT_EQ(p.spectral_skipped_rounds, 5u);
  EXPECT_EQ(p.guard_fired, SpectralGuard::kDense);
  EXPECT_EQ(p.average_ratio, 0.0);
}

TEST(SpectralProfileTest, StatusAwareRatioMatchesLegacy) {
  using S = lb::core::bounds::RoundSpectralStatus;
  const std::vector<double> l2{1.0, 0.0, 2.0, 0.5};
  const std::vector<std::size_t> delta{4, 0, 4, 2};
  const std::vector<S> status{S::kComputed, S::kDisconnected, S::kCacheHit,
                              S::kBoundSkipped};
  EXPECT_EQ(lb::core::bounds::dynamic_average_ratio(l2, delta, status),
            lb::core::bounds::dynamic_average_ratio(l2, delta));
}

// --- Dynamic runner: warm vs cold bit identity -----------------------------

TEST(SpectralDynamicTest, WarmAndColdRunsAreBitIdenticalAcrossPools) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  const auto load = lb::workload::spike<double>(base.num_nodes(), 3600.0);

  struct Named {
    const char* name;
    std::function<std::unique_ptr<lb::core::Balancer<double>>()> make;
  };
  const std::vector<Named> balancers = {
      {"diffusion",
       [] { return std::make_unique<lb::core::ContinuousDiffusion>(); }},
      {"sos-auto", [] { return lb::core::make_sos(std::nullopt); }},
  };

  for (const Named& b : balancers) {
    for (const std::size_t threads : pool_sizes()) {
      ThreadPool pool(threads);
      lb::core::EngineConfig cfg;
      cfg.record_trace = true;
      cfg.pool = &pool;

      auto warm_seq = lb::graph::make_churn_sequence(base, 0.85, 0.05, 21);
      auto warm_balancer = b.make();
      const lb::core::SpectralProfileOptions warm_opts;  // warm defaults
      const auto warm = lb::core::run_dynamic<double>(
          *warm_balancer, *warm_seq, load, 60, 1e-9, 512, &cfg, &warm_opts);

      auto cold_seq = lb::graph::make_churn_sequence(base, 0.85, 0.05, 21);
      auto cold_balancer = b.make();
      lb::core::SpectralProfileOptions cold_opts;
      cold_opts.warm = false;  // cache-free oracle leg
      const auto cold = lb::core::run_dynamic<double>(
          *cold_balancer, *cold_seq, load, 60, 1e-9, 512, &cfg, &cold_opts);

      EXPECT_TRUE(results_bits_equal(warm.run, cold.run))
          << b.name << " threads=" << threads;
      // Profile entries served by exact tiers must match cold bits.
      using S = lb::core::bounds::RoundSpectralStatus;
      for (std::size_t k = 0; k < warm.profile.status_per_round.size(); ++k) {
        if (warm.profile.status_per_round[k] == S::kBoundSkipped) continue;
        EXPECT_EQ(warm.profile.lambda2_per_round[k],
                  cold.profile.lambda2_per_round[k])
            << b.name << " round " << k + 1;
      }
    }
  }
}

TEST(SpectralDynamicTest, DiscreteWarmAndColdRunsAreBitIdentical) {
  const Graph base = lb::graph::make_torus2d(4, 4);
  const auto load = lb::workload::spike<std::int64_t>(base.num_nodes(), 160000);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    lb::core::EngineConfig cfg;
    cfg.record_trace = true;
    cfg.pool = &pool;

    auto warm_seq = lb::graph::make_bernoulli_sequence(base, 0.8, 9);
    lb::core::DiscreteDiffusion warm_balancer;
    const lb::core::SpectralProfileOptions warm_opts;
    const auto warm = lb::core::run_dynamic<std::int64_t>(
        warm_balancer, *warm_seq, load, 80, 1e-9, 512, &cfg, &warm_opts);

    auto cold_seq = lb::graph::make_bernoulli_sequence(base, 0.8, 9);
    lb::core::DiscreteDiffusion cold_balancer;
    lb::core::SpectralProfileOptions cold_opts;
    cold_opts.warm = false;
    const auto cold = lb::core::run_dynamic<std::int64_t>(
        cold_balancer, *cold_seq, load, 80, 1e-9, 512, &cfg, &cold_opts);

    EXPECT_TRUE(results_bits_equal(warm.run, cold.run)) << "threads=" << threads;
  }
}

TEST(SpectralDynamicTest, GuardFiredIsReportedInRunResult) {
  const CeilingGuard guard(8, 8);
  const Graph base = lb::graph::make_cycle(16);
  auto seq = lb::graph::make_static_sequence(base);
  lb::core::ContinuousDiffusion alg;
  const auto load = lb::workload::spike<double>(base.num_nodes(), 1600.0);
  const auto res = lb::core::run_dynamic<double>(alg, *seq, load, 10, 1e-9);
  EXPECT_TRUE(res.run.spectral_skipped);
  EXPECT_EQ(res.run.spectral_guard, SpectralGuard::kDense);
}

// --- Campaign: cached cells vs the fresh oracle ----------------------------

TEST(SpectralCampaignTest, CachedCellsMatchFreshOracleAcrossPools) {
  lb::exp::ExperimentPlan plan;
  plan.graphs = {{"torus2d", 36}, {"complete", 16}};
  plan.scenarios = {lb::exp::static_scenario(),
                    lb::exp::churn_scenario(0.85, 0.05),
                    lb::exp::partition_scenario(3)};
  plan.balancers = {{lb::exp::BalancerKind::kSos, 0.0},   // auto-β: cache path
                    {lb::exp::BalancerKind::kOps, 0.0},   // spectrum: cache path
                    {lb::exp::BalancerKind::kDiffusion, 0.0}};
  plan.seeds = {1, 2};
  plan.engine.max_rounds = 40;
  plan.engine.record_trace = true;

  const std::vector<lb::exp::Cell> cells = plan.cells();
  ASSERT_FALSE(cells.empty());
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    lb::exp::CampaignOptions opts;
    opts.mode = lb::exp::ArtifactMode::kCached;
    opts.pool = &pool;
    lb::exp::CampaignRunner runner(opts);
    const auto report = runner.run(plan);
    ASSERT_EQ(report.cells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto fresh =
          lb::exp::CampaignRunner::run_cell_fresh(plan, cells[i], &pool);
      EXPECT_TRUE(results_bits_equal(report.cells[i].run, fresh.run))
          << plan.cell_label(cells[i]) << " threads=" << threads;
    }
    // The report's per-graph λ2 is recovered from the SpectralCache's
    // revision-keyed entries (the SOS auto-β and OPS static cells fill them).
    ASSERT_EQ(report.lambda2_per_graph.size(), plan.graphs.size());
    for (const double l2 : report.lambda2_per_graph) EXPECT_GT(l2, 0.0);
  }
}

TEST(SpectralCampaignTest, OpsOnlyPlanReportsLambda2) {
  // No SOS cell ever asks for a summary: the λ2 comes off the spectrum
  // OPS's schedule binding solved, bit-equal to the cold value.
  lb::exp::ExperimentPlan plan;
  plan.graphs = {{"torus2d", 36}, {"hypercube", 32}};
  plan.scenarios = {lb::exp::static_scenario()};
  plan.balancers = {{lb::exp::BalancerKind::kOps, 0.0}};
  plan.seeds = {1};
  plan.engine.max_rounds = 20;

  lb::exp::CampaignOptions opts;
  opts.mode = lb::exp::ArtifactMode::kCached;
  const auto report = lb::exp::CampaignRunner(opts).run(plan);
  ASSERT_EQ(report.lambda2_per_graph.size(), plan.graphs.size());
  for (std::size_t gi = 0; gi < plan.graphs.size(); ++gi) {
    lb::util::Rng rng(lb::exp::graph_build_seed(plan, gi));
    const Graph base = lb::graph::make_named(plan.graphs[gi].family, plan.graphs[gi].n, rng);
    EXPECT_GT(report.lambda2_per_graph[gi], 0.0) << plan.graphs[gi].family;
    EXPECT_EQ(report.lambda2_per_graph[gi], lb::linalg::spectral_summary(base).lambda2)
        << plan.graphs[gi].family;
  }
}

}  // namespace
