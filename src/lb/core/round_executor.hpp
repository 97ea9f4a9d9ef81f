// The round driver both engines share (DESIGN.md §1), and the executor
// seam that separates them.  Internal: the public entry points are
// core::run (engine.hpp) and shard::run (shard/sharded_engine.hpp); each
// builds its executor and hands it to run_rounds().
//
// run_rounds() owns the run's policy — run isolation, the stream replay
// and its Φ baseline, the summary request and fallback, the invariant
// layer's conservation and ledger checks, the trace, and the stopping
// rules.  An executor owns only what differs between the engines: how a
// stream delta lands on the load vector and how a round is stepped.
#pragma once

#include <cstddef>
#include <vector>

#include "lb/core/engine.hpp"

namespace lb::workload {
template <class T>
struct StreamDelta;
}

namespace lb::core {

template <class T>
class RoundContext;

template <class T>
class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// Label of the conservation check ("engine", "shard").
  virtual const char* name() const = 0;
  /// Every round, after the frame/epoch bookkeeping and before the
  /// stream delta.  `checking` is the run's invariant-layer switch.
  virtual void begin_round(const graph::TopologyFrame& /*frame*/, bool /*checking*/) {}
  /// Land one round's stream delta on `load` (called only for nonempty
  /// deltas, after the loop tallied it).
  virtual void apply_delta(const workload::StreamDelta<T>& delta,
                           std::vector<T>& load) = 0;
  /// Execute one synchronous round.  Timed by the loop as step time.
  virtual StepStats step(Balancer<T>& balancer, RoundContext<T>& ctx,
                         std::vector<T>& load, std::size_t round, bool checking) = 0;
  /// Add executor-owned fields to the round's trace record (tracing only).
  virtual void record(RoundRecord& /*rec*/) {}
  /// Fill executor-owned RunResult fields.  Called on every exit,
  /// including the already-at-target exit before round 1.
  virtual void finish(RunResult& /*result*/) {}
};

/// The one round loop (DESIGN.md §1): runs `balancer` on `seq` until the
/// target, a stall, or the round budget, stepping rounds through `exec`.
template <class T>
RunResult run_rounds(Balancer<T>& balancer, graph::GraphSequence& seq,
                     std::vector<T>& load, const EngineConfig& config,
                     RunArena<T>& arena, RoundExecutor<T>& exec);

}  // namespace lb::core
