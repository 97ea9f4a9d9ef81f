// CampaignReport: per-cell results plus replicate aggregation.
//
// Repeated stochastic dynamics are characterized over many independent
// trajectories, not single runs (cf. the repeated balls-into-bins and
// coalescence analyses in the paper's related work), so the report
// groups the plan's seed axis into replicate sets and summarizes each
// with util::RunningStats: mean/CI of rounds-to-ε, final-Φ statistics,
// and Φ-trajectory quantiles (Φ sampled at the 25/50/75% checkpoint of
// each replicate's own trajectory, then quantiled across replicates —
// requires EngineConfig::record_trace).  Emitters: per-cell CSV,
// aggregate CSV, and a machine-readable JSON artifact for the bench
// harness.
#pragma once

#include <string>
#include <vector>

#include "lb/core/engine.hpp"
#include "lb/exp/plan.hpp"
#include "lb/util/stats.hpp"

namespace lb::exp {

/// One executed grid cell.
struct CellResult {
  Cell cell;
  core::RunResult run;
  /// Cell-local setup: graph/scenario/workload/balancer construction and
  /// the initial summary.  In cold mode this includes the per-cell graph
  /// rebuild and (inside run.step_seconds) per-cell spectral work that
  /// the cached mode amortizes across the base's cells.
  double setup_seconds = 0.0;
  /// Engine::run wall clock.
  double run_seconds = 0.0;
};

/// One replicate group: every seed of a (graph, scenario, workload,
/// balancer, scalar) coordinate.
struct AggregateRow {
  Cell key;           ///< group coordinates (seed_index = 0)
  std::string label;  ///< "graph/scenario/workload/balancer/scalar"
  std::size_t replicates = 0;
  std::size_t reached = 0;  ///< replicates that hit Φ <= ε·Φ(L⁰)
  /// Rounds executed per replicate (the round budget when ε was missed).
  util::RunningStats rounds;
  util::RunningStats final_potential;
  // Φ-trajectory quantiles across replicates (0 without traces):
  double phi_q25_med = 0.0;  ///< median over replicates of Φ at 25% of the run
  double phi_q50_med = 0.0;  ///< ... at 50%
  double phi_q75_med = 0.0;  ///< ... at 75%
  double phi_q50_p10 = 0.0;  ///< 10th percentile of Φ at 50%
  double phi_q50_p90 = 0.0;  ///< 90th percentile of Φ at 50%
  /// λ2 of the base graph when the campaign's artifact cache computed its
  /// spectrum or summary — an OPS or an auto-β SOS cell ran on it (cached
  /// mode); 0 otherwise.
  double lambda2 = 0.0;
};

class CampaignReport {
 public:
  std::vector<CellResult> cells;  ///< plan.cells() order
  /// Whole campaign wall clock (artifact building included — the cached
  /// mode's one-time work is amortized into us_per_cell, keeping the
  /// cold-vs-cached comparison honest).
  double wall_seconds = 0.0;
  /// λ2 per graph axis index where the artifact cache holds a spectrum
  /// or a summary, whichever consumer filled it (0 where it holds
  /// neither); empty in cold mode.
  std::vector<double> lambda2_per_graph;

  double us_per_cell() const {
    return cells.empty() ? 0.0
                         : wall_seconds * 1e6 / static_cast<double>(cells.size());
  }

  /// Replicate aggregation in plan order (the seed axis is innermost, so
  /// each group is a contiguous run of cells).
  std::vector<AggregateRow> aggregate(const ExperimentPlan& plan) const;

  /// Per-cell CSV: one row per executed cell with timings.
  std::string cells_csv(const ExperimentPlan& plan) const;
  /// Aggregate CSV: one row per replicate group.
  std::string aggregate_csv(const ExperimentPlan& plan) const;
  /// Machine-readable campaign summary; returns false if the file could
  /// not be written.
  bool write_json(const ExperimentPlan& plan, const std::string& path) const;
};

}  // namespace lb::exp
