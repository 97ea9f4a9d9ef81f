// Determinism tests for the fixed-chunk parallel reduction
// (lb/core/metrics.hpp) and the engine's fused metrics path: LoadSummary
// and whole-engine RunResults must be BIT-identical across thread-pool
// sizes 1, 2 and hardware_concurrency, for both scalar types, including
// on adversarial float orderings where naive parallel summation would
// diverge between schedules.
#include "lb/core/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "lb/core/async.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/load.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/generators.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::core::EngineConfig;
using lb::core::LoadSummary;
using lb::core::RunResult;
using lb::core::SummaryMode;
using lb::util::ThreadPool;

template <class T>
bool bits_equal(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T>
::testing::AssertionResult summaries_bits_equal(const LoadSummary<T>& a,
                                                const LoadSummary<T>& b) {
  if (!bits_equal(a.total, b.total)) {
    return ::testing::AssertionFailure() << "total " << a.total << " vs " << b.total;
  }
  if (!bits_equal(a.average, b.average)) {
    return ::testing::AssertionFailure()
           << "average " << a.average << " vs " << b.average;
  }
  if (!bits_equal(a.potential, b.potential)) {
    return ::testing::AssertionFailure()
           << "potential " << a.potential << " vs " << b.potential;
  }
  if (!bits_equal(a.discrepancy, b.discrepancy)) {
    return ::testing::AssertionFailure()
           << "discrepancy " << a.discrepancy << " vs " << b.discrepancy;
  }
  if (!bits_equal(a.min, b.min) || !bits_equal(a.max, b.max)) {
    return ::testing::AssertionFailure() << "extrema differ";
  }
  return ::testing::AssertionSuccess();
}

template <class T>
::testing::AssertionResult vectors_bits_equal(const std::vector<T>& a,
                                              const std::vector<T>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size mismatch";
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!bits_equal(a[i], b[i])) {
        return ::testing::AssertionFailure()
               << "first divergence at index " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::size_t> pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {1, 2, hw};
}

// Values spanning ~600 orders of magnitude with sign flips: any reduction
// whose summation order depends on the schedule diverges immediately.
std::vector<double> adversarial_doubles(std::size_t n) {
  lb::util::Rng rng(1234);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mantissa = rng.next_double() * 2.0 - 1.0;
    const int exponent = static_cast<int>(rng.next_below(600)) - 300;
    v[i] = std::ldexp(mantissa, exponent);
  }
  return v;
}

TEST(MetricsParallelTest, SingleChunkBitEqualsSequentialSummarize) {
  // n <= kSummaryChunkWidth: the deterministic reduction must reproduce
  // the seed's sequential summarize() bit for bit, both scalar types.
  lb::util::Rng rng(7);
  const auto real = lb::workload::uniform_random<double>(1000, 1e6, rng);
  const auto tokens = lb::workload::uniform_random<std::int64_t>(1000, 1000000, rng);
  ThreadPool pool(4);
  EXPECT_TRUE(summaries_bits_equal(lb::core::summarize(real),
                                   lb::core::summarize_parallel(real, &pool)));
  EXPECT_TRUE(summaries_bits_equal(lb::core::summarize(tokens),
                                   lb::core::summarize_parallel(tokens, &pool)));
}

TEST(MetricsParallelTest, AdversarialOrderingBitIdenticalAcrossPools) {
  // Multi-chunk adversarial vector: every pool size (and the inline
  // nullptr path) must land on identical bits for every field.
  const auto v = adversarial_doubles(3 * lb::core::kSummaryChunkWidth + 17);
  const LoadSummary<double> reference = lb::core::summarize_parallel(v, nullptr);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    EXPECT_TRUE(
        summaries_bits_equal(reference, lb::core::summarize_parallel(v, &pool)))
        << "pool size " << threads;
    EXPECT_TRUE(summaries_bits_equal(
        lb::core::summarize_deterministic(v, reference.average, nullptr,
                                          SummaryMode::kFull),
        lb::core::summarize_deterministic(v, reference.average, &pool,
                                          SummaryMode::kFull)))
        << "pool size " << threads;
  }
}

TEST(MetricsParallelTest, TokenTotalsExactBeyondDoublePrecision) {
  // Chunk totals accumulate in T, so int64 sums stay exact where a
  // double-accumulated reduction would round (2^53 + 1 is not
  // representable as a double).
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  std::vector<std::int64_t> v(2 * lb::core::kSummaryChunkWidth, 0);
  v[0] = big;
  v[v.size() - 1] = 1;
  ThreadPool pool(4);
  const auto s = lb::core::summarize_parallel(v, &pool);
  EXPECT_EQ(s.total, big + 1);
}

TEST(MetricsParallelTest, ModesAgreeOnSharedFields) {
  const auto v = adversarial_doubles(2 * lb::core::kSummaryChunkWidth + 5);
  ThreadPool pool(3);
  const double avg = lb::core::summarize_parallel(v, &pool).average;
  const auto full =
      lb::core::summarize_deterministic(v, avg, &pool, SummaryMode::kFull);
  const auto phi =
      lb::core::summarize_deterministic(v, avg, &pool, SummaryMode::kPotentialOnly);
  const auto extrema =
      lb::core::summarize_deterministic(v, avg, &pool, SummaryMode::kExtremaOnly);
  EXPECT_TRUE(bits_equal(full.potential, phi.potential));
  EXPECT_TRUE(bits_equal(full.discrepancy, extrema.discrepancy));
  EXPECT_TRUE(bits_equal(full.min, extrema.min));
  EXPECT_TRUE(bits_equal(full.max, extrema.max));
  EXPECT_TRUE(bits_equal(full.total, phi.total));
  EXPECT_TRUE(bits_equal(full.total, extrema.total));
}

TEST(MetricsParallelTest, FusedLedgerApplyMatchesStandaloneReduction) {
  // apply_with_summary == apply() followed by summarize_deterministic(),
  // loads and summary both, at every pool size.
  const auto g = lb::graph::make_torus2d(96, 96);  // 9216 nodes, 3 chunks
  lb::util::Rng rng(5);
  const auto start = lb::workload::uniform_random<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()), rng);
  const double avg = lb::core::summarize_parallel(start, nullptr).average;

  std::vector<double> flows;
  seed::diffusion_flows(g, start, {}, flows);

  std::vector<double> oracle_load = start;
  seed::apply_edge_sweep(g, flows, oracle_load);
  const LoadSummary<double> oracle_summary = lb::core::summarize_deterministic(
      oracle_load, avg, nullptr, SummaryMode::kFull);

  lb::core::FlowLedger ledger;
  ledger.rebuild(g);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    std::vector<double> load = start;
    LoadSummary<double> summary;
    std::vector<lb::core::SummaryPartial<double>> parts;
    ledger.apply_with_summary(g, flows, load, &pool, avg, SummaryMode::kFull,
                              parts, summary);
    EXPECT_TRUE(vectors_bits_equal(oracle_load, load)) << "pool " << threads;
    EXPECT_TRUE(summaries_bits_equal(oracle_summary, summary))
        << "pool " << threads;
  }
}

// --- Whole-engine determinism -------------------------------------------

template <class T, class MakeBalancer>
void expect_engine_identical_across_pools(const lb::graph::Graph& g,
                                          MakeBalancer&& make,
                                          std::size_t rounds) {
  lb::util::Rng rng(42);
  const auto start = lb::workload::uniform_random<T>(
      g.num_nodes(), static_cast<T>(1000 * g.num_nodes()), rng);

  struct Outcome {
    RunResult result;
    std::vector<T> load;
  };
  std::vector<Outcome> outcomes;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    auto balancer = make();
    std::vector<T> load = start;
    EngineConfig cfg;
    cfg.max_rounds = rounds;
    cfg.target_potential = 0.0;
    cfg.stall_rounds = 0;
    cfg.seed = 9;
    cfg.pool = &pool;
    outcomes.push_back({lb::core::run_static(*balancer, g, load, cfg), load});
  }
  const Outcome& ref = outcomes.front();
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    ASSERT_TRUE(vectors_bits_equal(ref.load, o.load)) << "pool variant " << i;
    EXPECT_EQ(ref.result.rounds, o.result.rounds);
    EXPECT_TRUE(bits_equal(ref.result.initial_potential, o.result.initial_potential));
    EXPECT_TRUE(bits_equal(ref.result.final_potential, o.result.final_potential))
        << ref.result.final_potential << " vs " << o.result.final_potential;
    EXPECT_TRUE(bits_equal(ref.result.final_discrepancy, o.result.final_discrepancy));
    ASSERT_EQ(ref.result.trace.size(), o.result.trace.size());
    for (std::size_t r = 0; r < ref.result.trace.size(); ++r) {
      ASSERT_TRUE(bits_equal(ref.result.trace[r].potential, o.result.trace[r].potential))
          << "round " << r + 1;
      ASSERT_TRUE(
          bits_equal(ref.result.trace[r].discrepancy, o.result.trace[r].discrepancy))
          << "round " << r + 1;
      ASSERT_TRUE(
          bits_equal(ref.result.trace[r].transferred, o.result.trace[r].transferred))
          << "round " << r + 1;
    }
  }
}

TEST(EngineDeterminismTest, DiffusionContinuousBitIdenticalAcrossPools) {
  const auto g = lb::graph::make_torus2d(96, 96);
  expect_engine_identical_across_pools<double>(
      g, [] { return std::make_unique<lb::core::ContinuousDiffusion>(); }, 30);
}

TEST(EngineDeterminismTest, DiffusionDiscreteBitIdenticalAcrossPools) {
  const auto g = lb::graph::make_torus2d(96, 96);
  expect_engine_identical_across_pools<std::int64_t>(
      g, [] { return std::make_unique<lb::core::DiscreteDiffusion>(); }, 30);
}

TEST(EngineDeterminismTest, SecondOrderSchemeBitIdenticalAcrossPools) {
  const auto g = lb::graph::make_hypercube(13);  // 8192 nodes, 2 chunks
  expect_engine_identical_across_pools<double>(
      g, [] { return std::make_unique<lb::core::SecondOrderScheme>(1.5); }, 20);
}

TEST(EngineDeterminismTest, RandomPartnerBitIdenticalAcrossPools) {
  lb::util::Rng rng(42);
  const std::size_t n = 2 * lb::core::kSummaryChunkWidth + 100;
  // The balancer ignores the topology (uses_network() is false) but the
  // engine still requires a matching node count.
  const auto g = lb::graph::make_cycle(n);
  const auto start = lb::workload::uniform_random<double>(
      n, 1000.0 * static_cast<double>(n), rng);
  std::vector<std::vector<double>> loads;
  std::vector<RunResult> results;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    lb::core::ContinuousRandomPartner alg;
    std::vector<double> load = start;
    EngineConfig cfg;
    cfg.max_rounds = 25;
    cfg.target_potential = 0.0;
    cfg.stall_rounds = 0;
    cfg.pool = &pool;
    results.push_back(lb::core::run_static(alg, g, load, cfg));
    loads.push_back(std::move(load));
  }
  for (std::size_t i = 1; i < loads.size(); ++i) {
    ASSERT_TRUE(vectors_bits_equal(loads.front(), loads[i]));
    EXPECT_TRUE(bits_equal(results.front().final_potential,
                           results[i].final_potential));
  }
}

TEST(EngineDeterminismTest, DimensionExchangeBitIdenticalAcrossPools) {
  // A cycle makes random-maximal matchings cover ~half the edge list and
  // spans three summary chunks, so the engine's standalone fixed-chunk
  // summary of the direct pair loop's loads runs chunk-parallel on the
  // multi-worker pools and inline on the single-worker leg.
  const auto g = lb::graph::make_cycle(2 * lb::core::kSummaryChunkWidth + 64);
  expect_engine_identical_across_pools<std::int64_t>(
      g,
      [] {
        return std::make_unique<lb::core::DiscreteDimensionExchange>(
            lb::core::MatchingStrategy::kRandomMaximal);
      },
      25);
}

TEST(EngineDeterminismTest, AsyncDiffusionBitIdenticalAcrossPools) {
  const auto g = lb::graph::make_torus2d(72, 72);  // 5184 nodes, 2 chunks
  expect_engine_identical_across_pools<std::int64_t>(
      g, [] { return std::make_unique<lb::core::DiscreteAsyncDiffusion>(0.6); },
      25);
}

TEST(EngineDeterminismTest, FusedMatchesSequentialOracleForTokens) {
  // Tokens conserve totals exactly and n fits one chunk, so the engine's
  // fused Φ/K (run-start average) must equal the sequential summarize()
  // (average recomputed per round) of the same trajectory stepped by
  // hand, bit for bit, trace included.
  const auto g = lb::graph::make_torus2d(20, 20);
  lb::util::Rng rng(3);
  const auto start = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), 400000, rng);
  EngineConfig cfg;
  cfg.max_rounds = 50;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  lb::core::DiscreteDiffusion alg;
  std::vector<std::int64_t> engine_load = start;
  const RunResult fused = lb::core::run_static(alg, g, engine_load, cfg);

  lb::core::DiscreteDiffusion by_hand;
  lb::util::Rng step_rng(cfg.seed);
  std::vector<std::int64_t> load = start;
  EXPECT_TRUE(bits_equal(fused.initial_potential, lb::core::summarize(load).potential));
  ASSERT_FALSE(fused.trace.empty());
  for (std::size_t r = 0; r < fused.trace.size(); ++r) {
    by_hand.step(g, load, step_rng);
    const LoadSummary<std::int64_t> serial = lb::core::summarize(load);
    ASSERT_TRUE(bits_equal(fused.trace[r].potential, serial.potential)) << "round " << r + 1;
    ASSERT_TRUE(bits_equal(fused.trace[r].discrepancy, serial.discrepancy))
        << "round " << r + 1;
  }
  EXPECT_TRUE(vectors_bits_equal(engine_load, load));
  const LoadSummary<std::int64_t> last = lb::core::summarize(load);
  EXPECT_TRUE(bits_equal(fused.final_potential, last.potential));
  EXPECT_TRUE(bits_equal(fused.final_discrepancy, last.discrepancy));
}

TEST(EngineDeterminismTest, NoTraceRunMatchesTracedTerminals) {
  // record_trace = false skips per-round bookkeeping but the terminal
  // Φ/K must be bit-identical to the traced run's.
  const auto g = lb::graph::make_torus2d(96, 96);
  lb::util::Rng rng(11);
  const auto start = lb::workload::uniform_random<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()), rng);
  auto run_with = [&](bool record_trace) {
    lb::core::ContinuousDiffusion alg;
    std::vector<double> load = start;
    EngineConfig cfg;
    cfg.max_rounds = 30;
    cfg.target_potential = 0.0;
    cfg.stall_rounds = 0;
    cfg.record_trace = record_trace;
    return lb::core::run_static(alg, g, load, cfg);
  };
  const RunResult traced = run_with(true);
  const RunResult bare = run_with(false);
  EXPECT_TRUE(bare.trace.empty());
  EXPECT_EQ(traced.rounds, bare.rounds);
  EXPECT_TRUE(bits_equal(traced.final_potential, bare.final_potential));
  EXPECT_TRUE(bits_equal(traced.final_discrepancy, bare.final_discrepancy));
}

TEST(EngineDeterminismTest, WallClockObservabilityPopulated) {
  const auto g = lb::graph::make_torus2d(32, 32);
  auto load = lb::workload::spike<double>(g.num_nodes(), 102400.0);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 20;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.step_seconds, 0.0);
  EXPECT_GE(r.metrics_seconds, 0.0);
  EXPECT_GE(r.total_seconds, r.step_seconds);
  ASSERT_EQ(r.trace.size(), 20u);
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_GT(r.trace[i].step_us, 0.0);
    EXPECT_GE(r.trace[i].metrics_us, 0.0);
  }
}

}  // namespace
