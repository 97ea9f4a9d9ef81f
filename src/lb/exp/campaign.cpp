#include "lb/exp/campaign.hpp"

#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "lb/core/async.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/heterogeneous.hpp"
#include "lb/core/load.hpp"
#include "lb/core/ops.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/initial.hpp"
#include "lb/workload/stream.hpp"

namespace lb::exp {

namespace {

/// Heterogeneous speed pattern: odd node ids run `ratio`× faster than
/// even ones.  A pure function of (n, ratio) so the campaign and the
/// fresh oracle derive identical vectors.
std::vector<double> hetero_speeds(std::size_t n, double ratio) {
  std::vector<double> speed(n, 1.0);
  for (std::size_t i = 1; i < n; i += 2) speed[i] = ratio;
  return speed;
}

/// Construct the balancer a cell runs.  `sos_beta` carries the cached
/// optimal β when the artifact cache holds the base's spectral profile
/// (static scenarios only — on dynamic sequences SOS derives β from the
/// round-1 view, which the cache does not model); nullopt lets the
/// balancer compute its own spectral quantities inside the run.
template <class T>
std::unique_ptr<core::Balancer<T>> make_balancer(const BalancerSpec& spec,
                                                 std::size_t n,
                                                 std::optional<double> sos_beta) {
  switch (spec.kind) {
    case BalancerKind::kDiffusion:
      return std::make_unique<core::DiffusionBalancer<T>>();
    case BalancerKind::kDimensionExchange:
      return std::make_unique<core::DimensionExchange<T>>();
    case BalancerKind::kRandomPartner:
      return std::make_unique<core::RandomPartnerBalancer<T>>();
    case BalancerKind::kAsync:
      return std::make_unique<core::AsyncDiffusion<T>>(
          spec.param > 0.0 ? spec.param : 0.5);
    case BalancerKind::kHeterogeneous:
      return std::make_unique<core::HeterogeneousDiffusion<T>>(
          hetero_speeds(n, spec.param > 0.0 ? spec.param : 4.0));
    case BalancerKind::kFos:
    case BalancerKind::kSos:
    case BalancerKind::kOps:
      if constexpr (std::is_same_v<T, double>) {
        if (spec.kind == BalancerKind::kFos)
          return std::make_unique<core::FirstOrderScheme>();
        if (spec.kind == BalancerKind::kSos) {
          // Explicit β (spec.param) dominates; otherwise the cached
          // optimal β when the caller holds one; otherwise auto.
          return std::make_unique<core::SecondOrderScheme>(
              spec.param > 0.0 ? std::optional<double>(spec.param) : sos_beta);
        }
        return std::make_unique<core::OptimalPolynomialScheme>();
      } else {
        LB_ASSERT_MSG(false, "continuous-only balancer paired with Tokens");
      }
  }
  LB_ASSERT_MSG(false, "unknown balancer kind");
  return nullptr;
}

std::unique_ptr<graph::GraphSequence> make_scenario(const ScenarioSpec& s,
                                                    const graph::Graph& base,
                                                    std::uint64_t seed) {
  switch (s.kind) {
    case ScenarioKind::kStatic:
      // A Graph copy shares the cached base's CSR: no per-cell copy.
      return graph::make_static_view(base);
    case ScenarioKind::kBernoulli:
      return graph::make_bernoulli_sequence(base, s.a, seed);
    case ScenarioKind::kMarkov:
      return graph::make_markov_failure_sequence(base, s.a, s.b, seed);
    case ScenarioKind::kChurn:
      return graph::make_churn_sequence(base, s.a, s.b, seed);
    case ScenarioKind::kPartition:
      return graph::make_partition_sequence(base, s.period);
    case ScenarioKind::kWave:
      return graph::make_failure_wave_sequence(base, s.period, s.speed);
  }
  LB_ASSERT_MSG(false, "unknown scenario kind");
  return nullptr;
}

graph::Graph build_base(const ExperimentPlan& plan, std::size_t graph_index) {
  util::Rng rng(graph_build_seed(plan, graph_index));
  const GraphSpec& spec = plan.graphs[graph_index];
  return graph::make_named(spec.family, spec.n, rng);
}

/// Per-base artifacts, lazily filled.  Entries are indexed by the plan's
/// graph axis and — because cells are sharded by graph index — each
/// entry is only ever touched by the one shard owning that base, so no
/// synchronization is needed (documented in campaign.hpp).
class ArtifactCache {
 public:
  void reset(std::size_t num_graphs) {
    graphs_.assign(num_graphs, std::nullopt);
    spectral_ = std::vector<linalg::SpectralCache>(num_graphs);
  }

  const graph::Graph& base(const ExperimentPlan& plan, std::size_t gi) {
    if (!graphs_[gi]) graphs_[gi] = build_base(plan, gi);
    return *graphs_[gi];
  }

  /// The base's SpectralCache — summary()/spectrum() are Tier-1 exact
  /// and share one decomposition (its solve is the cold linalg one), so
  /// every cell on the base shares one set of spectral artifacts and the
  /// trajectories still match the fresh oracle bit for bit.  Masked
  /// cells of the same base additionally share per-frame λ2 entries.
  linalg::SpectralCache& cache_for(std::size_t gi) { return spectral_[gi]; }

  linalg::SpectralSummary spectral(const ExperimentPlan& plan, std::size_t gi) {
    return spectral_[gi].summary(base(plan, gi));
  }

  /// λ2 per base from whichever of summary()/spectrum() filled its entry.
  std::vector<double> lambda2s() const {
    std::vector<double> out(spectral_.size(), 0.0);
    for (std::size_t i = 0; i < spectral_.size(); ++i) {
      if (!graphs_[i]) continue;
      if (auto s = spectral_[i].cached_summary(graphs_[i]->revision())) {
        out[i] = s->lambda2;
      }
    }
    return out;
  }

 private:
  std::vector<std::optional<graph::Graph>> graphs_;
  std::vector<linalg::SpectralCache> spectral_;
};

/// The cell body shared by every path (cached shard, cold shard, fresh
/// oracle): scenario + workload construction, target derivation, run.
template <class T>
CellResult run_cell_impl(const ExperimentPlan& plan, const Cell& cell,
                         const graph::Graph& base, core::Balancer<T>& balancer,
                         core::RunArena<T>& arena, util::ThreadPool* pool,
                         linalg::SpectralCache* spectral_cache) {
  const util::Stopwatch setup_watch;
  CellResult result;
  result.cell = cell;

  auto seq = make_scenario(plan.scenarios[cell.scenario], base,
                           scenario_seed(plan, cell));
  const std::size_t n = base.num_nodes();
  const WorkloadSpec& wl = plan.workloads[cell.workload];
  util::Rng workload_rng(workload_seed(plan, cell));
  const T total = static_cast<T>(wl.total_per_node * static_cast<double>(n));
  std::vector<T> load = workload::make_named<T>(wl.name, n, total, workload_rng);

  core::EngineConfig config = plan.engine;
  config.pool = pool;
  config.seed = engine_seed(plan, cell);
  // Open-system cells attach their traffic stream; the stream seed is
  // derived like the workload seed (balancer/scalar excluded), so cells
  // differing only in balancer face identical traffic.  kNone cells
  // leave config.stream null and run the exact closed-system path.
  std::unique_ptr<workload::Stream<T>> stream =
      workload::make_stream<T>(plan.streams[cell.stream], n,
                               stream_seed(plan, cell));
  config.stream = stream.get();
  // kCached passes the base's cache (Tier-1 exact on the schedule paths,
  // so the trajectory matches the nullptr cold oracle bit for bit); the
  // fresh/cold paths pass nullptr.  Safe under sharded execution too:
  // plan_round/step run on the round-loop thread only.
  config.spectral_cache = spectral_cache;
  // The stopping rule is relative: Φ <= ε · Φ(L⁰), with Φ(L⁰) from the
  // sequential summarize so every execution path derives the same target.
  config.target_potential = plan.epsilon * core::summarize(load).potential;
  result.setup_seconds = setup_watch.elapsed_seconds();

  const util::Stopwatch run_watch;
  const std::size_t domains =
      plan.shards.empty() ? 1 : plan.shards[cell.shard];
  if (domains > 1) {
    // Sharded execution is its own runtime (domain CSR slices, comm
    // engine) — the shared arena's amortized ledger is not reused, and
    // the RunResult is bit-identical to the arena path regardless.
    shard::ShardConfig shard_cfg;
    shard_cfg.domains = domains;
    result.run = shard::run(balancer, *seq, load, config, shard_cfg);
  } else {
    result.run = core::run(balancer, *seq, load, config, arena);
  }
  result.run_seconds = run_watch.elapsed_seconds();
  return result;
}

/// Scalar-dispatched fresh cell (the cold path).
template <class T>
CellResult run_cell_fresh_typed(const ExperimentPlan& plan, const Cell& cell,
                                util::ThreadPool* pool) {
  const util::Stopwatch build_watch;
  const graph::Graph base = build_base(plan, cell.graph);
  const double graph_seconds = build_watch.elapsed_seconds();

  auto balancer = make_balancer<T>(plan.balancers[cell.balancer],
                                   base.num_nodes(), std::nullopt);
  core::RunArena<T> arena;
  CellResult result = run_cell_impl(plan, cell, base, *balancer, arena, pool,
                                    /*spectral_cache=*/nullptr);
  result.setup_seconds += graph_seconds;
  return result;
}

/// One shard's reusable state (kCached): arenas whose blocked-round plan
/// is keyed on the base revision, and balancer instances keyed on
/// (balancer, graph, scenario) so spectral schedules survive across the
/// workload/scalar/seed axes while on_run_begin() wipes trajectory state.
struct ShardState {
  core::RunArena<double> real_arena;
  core::RunArena<std::int64_t> token_arena;
  using Key = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::map<Key, std::unique_ptr<core::Balancer<double>>> real_balancers;
  std::map<Key, std::unique_ptr<core::Balancer<std::int64_t>>> token_balancers;

  template <class T>
  core::RunArena<T>& arena() {
    if constexpr (std::is_same_v<T, double>) {
      return real_arena;
    } else {
      return token_arena;
    }
  }

  template <class T>
  std::map<Key, std::unique_ptr<core::Balancer<T>>>& balancers() {
    if constexpr (std::is_same_v<T, double>) {
      return real_balancers;
    } else {
      return token_balancers;
    }
  }
};

template <class T>
CellResult run_cell_cached(const ExperimentPlan& plan, const Cell& cell,
                           ArtifactCache& cache, ShardState& shard,
                           util::ThreadPool* pool) {
  const graph::Graph& base = cache.base(plan, cell.graph);
  const BalancerSpec& spec = plan.balancers[cell.balancer];

  const ShardState::Key key{cell.balancer, cell.graph, cell.scenario};
  auto& instances = shard.balancers<T>();
  auto it = instances.find(key);
  if (it == instances.end()) {
    // SOS on a static scenario takes its optimal β from the cached
    // spectral profile; summary() reads γ off the base's one shared
    // decomposition, the solve the cold diffusion_gamma runs, so the
    // value — and therefore the trajectory — matches the cold path's bit
    // for bit.
    std::optional<double> sos_beta;
    if constexpr (std::is_same_v<T, double>) {
      if (spec.kind == BalancerKind::kSos && spec.param <= 0.0) {
        // Auto-β SOS pairs only with static scenarios (plan filter), so
        // the base's cached spectrum IS the run's spectrum.
        sos_beta = core::SecondOrderScheme::optimal_beta(
            cache.spectral(plan, cell.graph).gamma);
      }
    }
    it = instances.emplace(key, make_balancer<T>(spec, base.num_nodes(), sos_beta))
             .first;
  }
  return run_cell_impl(plan, cell, base, *it->second, shard.arena<T>(), pool,
                       &cache.cache_for(cell.graph));
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignOptions options) : options_(options) {}

CellResult CampaignRunner::run_cell_fresh(const ExperimentPlan& plan,
                                          const Cell& cell,
                                          util::ThreadPool* pool) {
  return cell.scalar == Scalar::kReal
             ? run_cell_fresh_typed<double>(plan, cell, pool)
             : run_cell_fresh_typed<std::int64_t>(plan, cell, pool);
}

CampaignReport CampaignRunner::run(const ExperimentPlan& plan) {
  const util::Stopwatch wall;
  util::ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &util::ThreadPool::global();
  const std::vector<Cell> cells = plan.cells();

  CampaignReport report;
  report.cells.resize(cells.size());

  // Shard by graph axis: every cell of a base lands in the same shard,
  // making the shard the lock-free reuse domain for that base's cache
  // entries, balancer instances and arena CSR.
  const std::size_t num_shards = std::max<std::size_t>(pool->size(), 1);
  std::vector<std::vector<std::size_t>> shard_cells(num_shards);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    shard_cells[cells[i].graph % num_shards].push_back(i);
  }

  ArtifactCache cache;
  cache.reset(plan.graphs.size());

  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shard_cells[s].empty()) continue;
    pool->submit([&, s] {
      ShardState shard;
      for (std::size_t idx : shard_cells[s]) {
        const Cell& cell = cells[idx];
        if (options_.mode == ArtifactMode::kCold) {
          report.cells[idx] = run_cell_fresh(plan, cell, pool);
        } else if (cell.scalar == Scalar::kReal) {
          report.cells[idx] = run_cell_cached<double>(plan, cell, cache, shard, pool);
        } else {
          report.cells[idx] =
              run_cell_cached<std::int64_t>(plan, cell, cache, shard, pool);
        }
      }
    });
  }
  pool->wait_idle();

  if (options_.mode == ArtifactMode::kCached) {
    report.lambda2_per_graph = cache.lambda2s();
  }
  report.wall_seconds = wall.elapsed_seconds();
  return report;
}

}  // namespace lb::exp
