// E14: engineering microbenchmarks (google-benchmark) for the library's
// hot kernels — diffusion round throughput, SpMV, λ2 computation, matching
// generation, and the sequentialization ledger.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sequential.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/matching.hpp"
#include "lb/linalg/lanczos.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"

namespace {

lb::graph::Graph torus_of(std::size_t n) {
  const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  return lb::graph::make_torus2d(side, side);
}

// One diffusion round (the blocked round) on the global pool.
void BM_DiffusionRoundContinuous(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  lb::util::Rng rng(1);
  auto load = lb::workload::uniform_random<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()), rng);
  lb::core::ContinuousDiffusion alg;
  for (auto _ : state) {
    alg.step(g, load, rng);
    benchmark::DoNotOptimize(load.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_DiffusionRoundContinuous)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_DiffusionRoundDiscrete(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  lb::util::Rng rng(2);
  auto load = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), 1000 * static_cast<std::int64_t>(g.num_nodes()), rng);
  lb::core::DiscreteDiffusion alg;
  for (auto _ : state) {
    alg.step(g, load, rng);
    benchmark::DoNotOptimize(load.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_DiffusionRoundDiscrete)->Arg(1024)->Arg(16384)->Arg(65536);

// Fused-metrics ablation: one observed engine round — step plus the
// post-round Φ/discrepancy summary — unfused (the round, then the
// sequential O(n) summarize()) versus fused (the deterministic
// fixed-chunk reduction folded inside the blocked round).  range(1) == 0
// is step+summarize, 1 is fused.
template <class T>
void observed_round_body(benchmark::State& state, std::uint64_t seed) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  lb::util::Rng rng(seed);
  auto load = lb::workload::uniform_random<T>(
      g.num_nodes(), static_cast<T>(1000 * g.num_nodes()), rng);
  const bool fused = state.range(1) != 0;
  lb::core::DiffusionBalancer<T> alg;
  lb::core::RunArena<T> arena;
  lb::util::ThreadPool& pool = lb::util::ThreadPool::global();
  const double average = lb::core::summarize_parallel(load, &pool).average;
  for (auto _ : state) {
    lb::core::RoundContext<T> ctx(g, rng, &pool, arena);
    if (fused) ctx.request_summary(lb::core::SummaryMode::kFull, average);
    alg.step(ctx, load);
    lb::core::LoadSummary<T> summary;
    if (fused) {
      summary = ctx.has_summary()
                    ? ctx.summary()
                    : lb::core::summarize_deterministic(
                          load, average, &pool, lb::core::SummaryMode::kFull);
    } else {
      summary = lb::core::summarize(load);
    }
    benchmark::DoNotOptimize(summary.potential);
    benchmark::DoNotOptimize(load.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
  state.SetLabel(fused ? "metrics=fused" : "metrics=step+summarize");
}

void BM_ObservedRoundContinuous(benchmark::State& state) {
  observed_round_body<double>(state, 9);
}
BENCHMARK(BM_ObservedRoundContinuous)->ArgsProduct({{16384, 65536}, {0, 1}});

void BM_ObservedRoundDiscrete(benchmark::State& state) {
  observed_round_body<std::int64_t>(state, 10);
}
BENCHMARK(BM_ObservedRoundDiscrete)->ArgsProduct({{16384, 65536}, {0, 1}});

// The isolated metrics sweep: sequential summarize() vs the deterministic
// fixed-chunk parallel reduction, standalone (no apply fusion).
void BM_SummarizeOnly(benchmark::State& state) {
  lb::util::Rng rng(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto load = lb::workload::uniform_random<double>(
      n, 1000.0 * static_cast<double>(n), rng);
  const bool parallel = state.range(1) != 0;
  lb::util::ThreadPool& pool = lb::util::ThreadPool::global();
  const double average = lb::core::summarize_parallel(load, &pool).average;
  for (auto _ : state) {
    if (parallel) {
      benchmark::DoNotOptimize(lb::core::summarize_deterministic(
          load, average, &pool, lb::core::SummaryMode::kFull));
    } else {
      benchmark::DoNotOptimize(lb::core::summarize(load));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(parallel ? "summarize=chunked-parallel" : "summarize=sequential");
}
BENCHMARK(BM_SummarizeOnly)->ArgsProduct({{16384, 65536, 1048576}, {0, 1}});

void BM_RandomPartnerRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lb::util::Rng rng(3);
  auto load = lb::workload::uniform_random<double>(
      n, 1000.0 * static_cast<double>(n), rng);
  const auto dummy = lb::graph::make_complete(2);
  lb::core::ContinuousRandomPartner alg;
  for (auto _ : state) {
    alg.step(dummy, load, rng);
    benchmark::DoNotOptimize(load.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RandomPartnerRound)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_SpmvLaplacian(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  const auto l = lb::linalg::laplacian_csr(g);
  lb::util::Rng rng(4);
  lb::linalg::Vector x(g.num_nodes());
  for (double& v : x) v = rng.next_double();
  lb::linalg::Vector y;
  for (auto _ : state) {
    l.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(l.nonzeros()));
}
BENCHMARK(BM_SpmvLaplacian)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_Lambda2Lanczos(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // Force the sparse Lanczos path regardless of size.
    benchmark::DoNotOptimize(lb::linalg::lambda2(g, /*dense_cutoff=*/2));
  }
}
BENCHMARK(BM_Lambda2Lanczos)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_Lambda2Dense(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::linalg::lambda2(g, /*dense_cutoff=*/100000));
  }
}
BENCHMARK(BM_Lambda2Dense)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The GM matching draw on a frame (dimension exchange's per-round draw):
// range(1) = 0 draws on the unmasked torus, 1 on a churn mask (90% of the
// edges alive, 5% turnover) that changes every iteration.
void BM_GmRandomMatching(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  const bool churn = state.range(1) != 0;
  auto seq = lb::graph::make_churn_sequence(g, 0.9, 0.05, 4);
  const lb::graph::TopologyFrame full(g);
  lb::graph::MatchingScratch scratch;
  lb::util::Rng rng(5);
  std::size_t round = 0;
  for (auto _ : state) {
    const lb::graph::TopologyFrame& frame = churn ? seq->frame_at(++round) : full;
    benchmark::DoNotOptimize(lb::graph::gm_random_matching(frame, rng, scratch).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_GmRandomMatching)->ArgsProduct({{1024, 16384}, {0, 1}});

void BM_SequentializeRound(benchmark::State& state) {
  const auto g = torus_of(static_cast<std::size_t>(state.range(0)));
  lb::util::Rng rng(6);
  const auto load = lb::workload::uniform_random<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::core::sequentialize_round(g, load));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SequentializeRound)->Arg(1024)->Arg(16384);

void BM_GraphConstructionTorus(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(torus_of(n));
  }
}
BENCHMARK(BM_GraphConstructionTorus)->Arg(1024)->Arg(65536)->Arg(1048576);

}  // namespace

BENCHMARK_MAIN();
