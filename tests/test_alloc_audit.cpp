// Steady-state allocation audit (DESIGN.md §9.4): an engine round at pool
// 1 must not touch the heap, on the torus stencil, the CSR round and the
// sharded round alike.  This binary replaces the global operator new with
// a counting hook — which is why it is a binary of its own — runs each
// balancer for R and for 2R rounds, and requires both runs to allocate
// exactly as often: per-run setup cancels, so any difference is an
// allocation made by the rounds themselves.  Setup is pinned too: the
// blocked round's plan is built with one allocation and rebuilt into
// sufficient capacity with none, and the sharded tables allocate each of
// their arrays once.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::graph::Graph;

/// Serves one fixed masked frame every round: the mask never changes
/// after construction, so frame bookkeeping allocates nothing and every
/// allocation the audit sees belongs to the round.
class FixedMaskSequence final : public lb::graph::GraphSequence {
 public:
  explicit FixedMaskSequence(const Graph& base) : mask_(base), frame_(mask_) {
    for (std::size_t k = 0; k < base.num_edges(); k += 3) mask_.set_alive(k, false);
    mask_.commit();
  }
  std::size_t num_nodes() const override { return mask_.base().num_nodes(); }
  const lb::graph::TopologyFrame& frame_at(std::size_t) override { return frame_; }
  void reset() override {}
  std::string name() const override { return "fixed-mask"; }

 private:
  lb::graph::EdgeMask mask_;
  lb::graph::TopologyFrame frame_;
};

template <class T>
using MakeBalancer = std::function<std::unique_ptr<lb::core::Balancer<T>>()>;

/// Heap allocations of one pool-1 engine run of `rounds` rounds.  The
/// pool, balancer and load copy are made before the hook is armed.
template <class T>
long long count_run(const MakeBalancer<T>& make, lb::graph::GraphSequence& seq,
                    const std::vector<T>& load0, std::size_t rounds) {
  lb::util::ThreadPool pool(1);
  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  cfg.record_trace = false;
  cfg.pool = &pool;
  auto balancer = make();
  std::vector<T> load = load0;
  lb::core::RunResult result;
  const long long allocs =
      count_allocations([&] { result = lb::core::run(*balancer, seq, load, cfg); });
  EXPECT_EQ(result.rounds, rounds);
  return allocs;
}

/// Zero allocations per steady-state round, unmasked and masked.
template <class T>
void expect_round_allocation_free(const MakeBalancer<T>& make, const std::vector<T>& load0,
                                  const Graph& g) {
  constexpr std::size_t kRounds = 12;
  auto stat = lb::graph::make_static_view(g);
  FixedMaskSequence masked(g);
  for (lb::graph::GraphSequence* seq :
       {static_cast<lb::graph::GraphSequence*>(stat.get()),
        static_cast<lb::graph::GraphSequence*>(&masked)}) {
    SCOPED_TRACE(seq->name());
    const long long short_run = count_run<T>(make, *seq, load0, kRounds);
    const long long long_run = count_run<T>(make, *seq, load0, 2 * kRounds);
    EXPECT_EQ(long_run, short_run) << (long_run - short_run) << " allocations in "
                                   << kRounds << " extra rounds";
  }
}

/// A torus whose CSR is already filled: make_torus2d fills it on the
/// first call that reads adjacency, and that one-time fill must not land
/// inside a counted region.
Graph built_torus(std::size_t rows, std::size_t cols) {
  const Graph g = lb::graph::make_torus2d(rows, cols);
  (void)g.edges();
  return g;
}

/// n = 4096: four summary chunks, so every fixed-chunk path runs more
/// than one chunk.  A torus, so its unmasked pair-rule rounds take the
/// torus stencil (DESIGN.md §9.6).
Graph audit_graph() { return built_torus(64, 64); }

/// The same edge list without the torus shape: its rounds take the CSR
/// blocked round.
Graph csr_twin(const Graph& g) { return lb::graph::subgraph_with_edges(g, g.edges(), "twin"); }

/// Zero allocations per steady-state round on the torus (the stencil
/// unmasked, the CSR round masked) and on its CSR twin.
template <class T>
void expect_rounds_allocation_free(const MakeBalancer<T>& make, const std::vector<T>& load0) {
  const Graph g = audit_graph();
  {
    SCOPED_TRACE("torus");
    expect_round_allocation_free<T>(make, load0, g);
  }
  SCOPED_TRACE("csr twin");
  expect_round_allocation_free<T>(make, load0, csr_twin(g));
}

std::vector<double> real_load(std::size_t n) {
  lb::util::Rng rng(5);
  return lb::workload::bimodal<double>(n, 1000.0 * static_cast<double>(n), rng);
}

TEST(AllocAuditTest, DiffusionContinuousRoundsDoNotAllocate) {
  expect_rounds_allocation_free<double>([] { return lb::core::make_diffusion_continuous(); },
                                        real_load(audit_graph().num_nodes()));
}

TEST(AllocAuditTest, DiffusionDiscreteRoundsDoNotAllocate) {
  const std::size_t n = audit_graph().num_nodes();
  lb::util::Rng rng(7);
  const auto load0 = lb::workload::uniform_random<std::int64_t>(
      n, static_cast<std::int64_t>(1000 * n), rng);
  expect_rounds_allocation_free<std::int64_t>(
      [] { return lb::core::make_diffusion_discrete(); }, load0);
}

TEST(AllocAuditTest, FosRoundsDoNotAllocate) {
  expect_rounds_allocation_free<double>([] { return lb::core::make_fos_continuous(); },
                                        real_load(audit_graph().num_nodes()));
}

TEST(AllocAuditTest, SosRoundsDoNotAllocate) {
  expect_rounds_allocation_free<double>([] { return lb::core::make_sos(1.5); },
                                        real_load(audit_graph().num_nodes()));
}

TEST(AllocAuditTest, StencilRoundsOnLargerToriDoNotAllocate) {
  // 96 x 96 = 9216 nodes: two full stencil groups and a narrower last
  // one, so the halo re-evaluation and the narrow-group fold both run.
  const Graph g = built_torus(96, 96);
  auto stat = lb::graph::make_static_view(g);
  const auto load0 = real_load(g.num_nodes());
  for (const MakeBalancer<double>& make :
       {MakeBalancer<double>([] { return lb::core::make_diffusion_continuous(); }),
        MakeBalancer<double>([] { return lb::core::make_fos_continuous(); }),
        MakeBalancer<double>([] { return lb::core::make_sos(1.5); })}) {
    const long long short_run = count_run<double>(make, *stat, load0, 12);
    const long long long_run = count_run<double>(make, *stat, load0, 24);
    EXPECT_EQ(long_run, short_run) << (long_run - short_run) << " allocations in 12 rounds";
  }
}

/// Zero allocations per steady-state round on a static, a fixed-mask and
/// a churn sequence over the audit torus.  The churn mask changes every
/// round, so a round that built the masked view as a Graph would allocate
/// every round.  Each run gets a fresh sequence (a sequence replays from
/// round 1 only after reset()), made before the hook is armed.  Under
/// LB_CHECK=1 every leg also runs the invariant layer, whose recount of
/// each committed mask (check::check_mask) must not allocate either.
template <class T>
void expect_dynamic_rounds_allocation_free(const MakeBalancer<T>& make,
                                           const std::vector<T>& load0) {
  constexpr std::size_t kRounds = 12;
  const Graph g = audit_graph();
  using MakeSequence = std::function<std::unique_ptr<lb::graph::GraphSequence>()>;
  const std::pair<const char*, MakeSequence> sequences[] = {
      {"static", [&g] { return lb::graph::make_static_view(g); }},
      {"fixed-mask", [&g] { return std::make_unique<FixedMaskSequence>(g); }},
      {"churn", [&g] { return lb::graph::make_churn_sequence(g, 0.9, 0.05, 3); }},
  };
  for (const auto& [name, make_sequence] : sequences) {
    SCOPED_TRACE(name);
    auto short_seq = make_sequence();
    auto long_seq = make_sequence();
    const long long short_run = count_run<T>(make, *short_seq, load0, kRounds);
    const long long long_run = count_run<T>(make, *long_seq, load0, 2 * kRounds);
    EXPECT_EQ(long_run, short_run) << (long_run - short_run) << " allocations in "
                                   << kRounds << " extra rounds";
  }
}

std::vector<std::int64_t> token_load(std::size_t n) {
  lb::util::Rng rng(7);
  return lb::workload::uniform_random<std::int64_t>(n, static_cast<std::int64_t>(1000 * n),
                                                    rng);
}

TEST(AllocAuditTest, DimensionExchangeRoundsDoNotAllocate) {
  const std::size_t n = audit_graph().num_nodes();
  expect_dynamic_rounds_allocation_free<double>(
      [] {
        return lb::core::make_dimension_exchange_continuous(
            lb::core::MatchingStrategy::kGhoshMuthukrishnan);
      },
      real_load(n));
  expect_dynamic_rounds_allocation_free<std::int64_t>(
      [] {
        return lb::core::make_dimension_exchange_discrete(
            lb::core::MatchingStrategy::kGhoshMuthukrishnan);
      },
      token_load(n));
  expect_dynamic_rounds_allocation_free<std::int64_t>(
      [] {
        return lb::core::make_dimension_exchange_discrete(
            lb::core::MatchingStrategy::kRandomMaximal);
      },
      token_load(n));
}

TEST(AllocAuditTest, RandomPartnerRoundsDoNotAllocate) {
  const std::size_t n = audit_graph().num_nodes();
  expect_dynamic_rounds_allocation_free<double>(
      [] { return lb::core::make_random_partner_continuous(); }, real_load(n));
  expect_dynamic_rounds_allocation_free<std::int64_t>(
      [] { return lb::core::make_random_partner_discrete(); }, token_load(n));
}

/// Heap allocations of one pool-1 sharded run (K = 4) of `rounds` rounds.
template <class T>
long long count_sharded_run(const MakeBalancer<T>& make, const Graph& g,
                            lb::shard::PartitionPolicy policy, const std::vector<T>& load0,
                            std::size_t rounds) {
  lb::util::ThreadPool pool(1);
  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  cfg.record_trace = false;
  cfg.pool = &pool;
  lb::shard::ShardConfig shard;
  shard.domains = 4;
  shard.policy = policy;
  auto balancer = make();
  std::vector<T> load = load0;
  lb::core::RunResult result;
  const long long allocs = count_allocations(
      [&] { result = lb::shard::run_static(*balancer, g, load, cfg, shard); });
  EXPECT_EQ(result.rounds, rounds);
  return allocs;
}

TEST(AllocAuditTest, ShardedRoundsDoNotAllocate) {
  // The torus's greedy partition is contiguous row blocks; the strided
  // one interleaves every domain's nodes and cut edges.
  const Graph g = audit_graph();
  const auto real = real_load(g.num_nodes());
  lb::util::Rng rng(7);
  const auto tokens = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), static_cast<std::int64_t>(1000 * g.num_nodes()), rng);
  for (const lb::shard::PartitionPolicy policy :
       {lb::shard::PartitionPolicy::kGreedyEdgeCut, lb::shard::PartitionPolicy::kStrided}) {
    SCOPED_TRACE(lb::shard::to_string(policy));
    for (const MakeBalancer<double>& make :
         {MakeBalancer<double>([] { return lb::core::make_diffusion_continuous(); }),
          MakeBalancer<double>([] { return lb::core::make_fos_continuous(); }),
          MakeBalancer<double>([] { return lb::core::make_sos(1.5); })}) {
      const long long short_run = count_sharded_run<double>(make, g, policy, real, 12);
      const long long long_run = count_sharded_run<double>(make, g, policy, real, 24);
      EXPECT_EQ(long_run, short_run) << (long_run - short_run) << " allocations in 12 rounds";
    }
    const MakeBalancer<std::int64_t> disc([] { return lb::core::make_diffusion_discrete(); });
    EXPECT_EQ(count_sharded_run<std::int64_t>(disc, g, policy, tokens, 24),
              count_sharded_run<std::int64_t>(disc, g, policy, tokens, 12));
  }
}

TEST(AllocAuditTest, ShardTablesAllocateEachArrayOnce) {
  // Every array of the ownership map and the halo plans is sized by a
  // counting pass before it is filled: a handful of arrays per domain and
  // at most four lists per link, with no growth.
  const Graph g = audit_graph();
  for (const lb::shard::PartitionPolicy policy :
       {lb::shard::PartitionPolicy::kGreedyEdgeCut, lb::shard::PartitionPolicy::kStrided}) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      lb::shard::OwnershipMap map;
      lb::shard::HaloExchange halo;
      const long long allocs = count_allocations([&] {
        map = lb::shard::OwnershipMap::build(g, k, policy);
        halo = lb::shard::HaloExchange::build(g, map);
      });
      std::size_t links = 0;
      for (const lb::shard::DomainPlan& plan : halo.plans()) links += plan.links.size();
      EXPECT_LE(allocs, static_cast<long long>(12 * k + 4 * links + 24))
          << lb::shard::to_string(policy) << " K = " << k << ", " << links << " links";
    }
  }
}

TEST(AllocAuditTest, RoundPlanBuildsWithOneAllocation) {
  const Graph g = audit_graph();
  lb::core::BlockedRoundPlan plan;
  EXPECT_EQ(count_allocations([&] { plan.rebuild(g, 1024); }), 1);
  EXPECT_TRUE(plan.valid_for(g, 1024));
}

TEST(AllocAuditTest, RoundPlanRebuildsIntoSufficientCapacityWithoutAllocating) {
  // A campaign arena keeps its plan across cells: a rebuild for another
  // base or width whose index fits what the plan already holds must not
  // touch the heap.
  const Graph g = audit_graph();
  const Graph same_size = audit_graph();  // a fresh revision of the same shape
  const Graph smaller = built_torus(32, 32);
  lb::core::BlockedRoundPlan plan;
  plan.rebuild(g, 1024);
  EXPECT_EQ(count_allocations([&] { plan.rebuild(g, 1024); }), 0);
  EXPECT_EQ(count_allocations([&] { plan.rebuild(same_size, 1024); }), 0);
  EXPECT_TRUE(plan.valid_for(same_size, 1024));
  EXPECT_EQ(count_allocations([&] { plan.rebuild(g, 2048); }), 0);
  EXPECT_TRUE(plan.valid_for(g, 2048));
  EXPECT_EQ(count_allocations([&] { plan.rebuild(smaller, 1024); }), 0);
  EXPECT_TRUE(plan.valid_for(smaller, 1024));
}

}  // namespace
