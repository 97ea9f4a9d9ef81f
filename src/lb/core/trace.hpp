// Per-round run traces: the raw series behind every convergence figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lb::core {

struct RoundRecord {
  std::size_t round = 0;        ///< 1-indexed, matching the paper
  double potential = 0.0;       ///< Φ after this round
  double discrepancy = 0.0;     ///< max − min after this round
  double transferred = 0.0;     ///< total load moved this round
  std::size_t active_edges = 0; ///< edges that moved a nonzero amount
  double step_us = 0.0;         ///< wall-clock µs in Balancer::step()
  /// Wall-clock µs computing the post-round summary *outside* step();
  /// ~0 when the balancer fused the metrics sweep into its apply phase.
  double metrics_us = 0.0;
  // Sharded-execution comm observability (lb/shard/): modeled, therefore
  // deterministic, unlike the two wall fields above.  Zero for
  // shared-memory rounds.
  std::uint64_t messages = 0;        ///< halo messages this round
  std::uint64_t boundary_bytes = 0;  ///< boundary payload bytes this round
  double halo_wait_us = 0.0;         ///< modeled critical-path halo wait
  // Open-system traffic (lb/workload/stream.hpp): APPLIED totals, i.e.
  // post departure clamping.  Zero for closed-system rounds; the CSV
  // columns appear only when the trace is marked open-system, so
  // zero-stream runs keep byte-identical output.
  double arrivals = 0.0;    ///< Σ applied arrivals this round
  double departures = 0.0;  ///< Σ applied departures this round
  double net_load = 0.0;    ///< cumulative Σ(arrivals − departures) so far
};

class Trace {
 public:
  void reserve(std::size_t rounds) { records_.reserve(rounds); }
  /// Release the capacity past size(): a finished run keeps its rounds,
  /// not its reserved budget.  A no-op when the trace is full.
  void shrink_to_fit() { records_.shrink_to_fit(); }
  void add(RoundRecord r) { records_.push_back(r); }

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  const RoundRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<RoundRecord>& records() const { return records_; }

  /// Potential series (index 0 = after round 1).
  std::vector<double> potentials() const;

  /// First round whose potential is <= target; 0 if never reached.
  std::size_t first_round_at_or_below(double target_potential) const;

  /// Mark this trace as recording an open-system run: to_csv appends
  /// the arrivals,departures,net_load columns.  Off by default so
  /// closed-system CSVs stay byte-identical to pre-stream output
  /// (golden comparisons, bench ablation CSVs).
  void set_open_system(bool open) { open_system_ = open; }
  bool open_system() const { return open_system_; }

  /// CSV with header round,potential,discrepancy,transferred,
  /// active_edges,step_us,metrics_us,messages,boundary_bytes,halo_wait_us
  /// (plus ,arrivals,departures,net_load when open_system()).
  std::string to_csv() const;

 private:
  std::vector<RoundRecord> records_;
  bool open_system_ = false;
};

}  // namespace lb::core
