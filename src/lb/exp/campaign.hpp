// CampaignRunner: execute an ExperimentPlan's cells with per-cell run
// isolation and per-base artifact reuse.
//
// Two execution modes, bit-identical by contract (the RunIsolation and
// Campaign test suites enforce it):
//
//   kCold    every cell rebuilds everything from the plan: graph base,
//            balancer (spectral schedules recomputed inside the run),
//            scratch arena, blocked-round plan.  This is the fresh-engine
//            oracle — run_cell_fresh executes exactly one such cell —
//            and the baseline leg of the bench_campaign ablation.
//
//   kCached  artifacts that are pure functions of the base topology are
//            computed once per base and reused across every cell on it:
//            the Graph itself (built once per GraphSpec), the spectral
//            profile (λ2/γ → SOS's optimal β), OPS's eigenvalue schedule
//            (cached inside the reused balancer instance, keyed on the
//            graph revision), and the RunArena's blocked-round plan
//            (keyed on the same revision).  Trajectory state cannot leak
//            between cells: Engine::run calls Balancer::on_run_begin()
//            (the run-isolation protocol, DESIGN.md §6).
//
// Scheduling: cells are sharded by graph axis index (shard = graph % S
// over S = pool-size shards), one pool task per shard.  The shard is the
// reuse domain — arenas, balancer instances and cache entries for a
// given base are touched by exactly one shard, so the cache needs no
// locks — and cell results are a pure function of (plan, cell), so the
// report is bit-identical for every pool size, LB_THREADS included.
#pragma once

#include <cstdint>
#include <memory>

#include "lb/exp/plan.hpp"
#include "lb/exp/report.hpp"

namespace lb::util {
class ThreadPool;
}

namespace lb::exp {

enum class ArtifactMode : std::uint8_t { kCold, kCached };

struct CampaignOptions {
  ArtifactMode mode = ArtifactMode::kCached;
  /// Pool the shards (and every cell's kernels) execute on; nullptr
  /// means ThreadPool::global().
  util::ThreadPool* pool = nullptr;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Execute every cell of the plan; results arrive in plan.cells()
  /// order regardless of sharding.
  CampaignReport run(const ExperimentPlan& plan);

  /// The fresh-everything oracle for one cell: rebuilds the graph from
  /// its spec, constructs a fresh balancer and arena, runs, discards.
  /// Cached campaign cells must be bit-identical to this.  `pool` is
  /// the kernel pool (nullptr = global).
  static CellResult run_cell_fresh(const ExperimentPlan& plan, const Cell& cell,
                                   util::ThreadPool* pool = nullptr);

 private:
  CampaignOptions options_;
};

}  // namespace lb::exp
