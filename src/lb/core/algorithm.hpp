// The balancing-algorithm interface shared by Algorithm 1, Algorithm 2 and
// every baseline.  One synchronous round = one step() call.  A balancer
// whose round is a flow rule (diffusion, FOS, SOS, dimension exchange)
// writes it once, as plan_round()'s FlowProgram; step()'s default runs
// that program, and the sharded engine runs the same program per domain.
// The others (async, heterogeneous, random partner, OPS) override step().
//
// Contract for implementations:
//   * step() reads the load vector as the round-start state L^{t-1},
//     computes all transfer amounts from that snapshot, and applies them —
//     the concurrent semantics of the paper (§4, Algorithm 1).
//   * Total load is conserved exactly (tested as a property for every
//     algorithm).
//   * For T = Tokens only integral amounts move and no entry goes
//     negative.
//   * Randomized algorithms draw exclusively from the context's Rng so
//     runs are reproducible.
//   * Parallel kernels run on the context's pool and must be bit-identical
//     to their sequential fallback at every pool size (the blocked-round /
//     fixed-chunk determinism contract, DESIGN.md §2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/graph/graph.hpp"
#include "lb/util/rng.hpp"

namespace lb::core {

template <class T>
class RoundContext;
template <class T>
class RunArena;
template <class T>
struct FlowProgram;

/// What one round did, for traces and convergence detection.
struct StepStats {
  double transferred = 0.0;     ///< total load moved (absolute amounts)
  std::size_t active_edges = 0; ///< edges that moved a nonzero amount
  std::size_t links = 0;        ///< links considered (|E| or matching size)
};

template <class T>
class Balancer {
 public:
  Balancer();
  virtual ~Balancer();

  /// Human-readable algorithm name for tables ("diffusion-cont", ...).
  virtual std::string name() const = 0;

  /// Execute one synchronous round on `load` within `ctx` (graph view,
  /// rng, thread pool, shared scratch arena and blocked-round plan — see
  /// round_context.hpp).  Implementations whose apply phase sweeps every
  /// node should honour a requested fused summary via
  /// ctx.publish_summary(); the engine falls back to a standalone
  /// deterministic reduction otherwise.
  ///
  /// Default: plan_round() into the arena's program and run it in shared
  /// memory — a kAllEdges program as run_blocked_round with its post, a
  /// kMatching one as the matched pairs in matching order.  A balancer
  /// that neither plans nor overrides this aborts, naming itself.
  virtual StepStats step(RoundContext<T>& ctx, std::vector<T>& load);

  /// Deprecated pre-RoundContext signature, kept because a large body of
  /// tests and benches exercises it as the equivalence oracle.  Builds a
  /// context over the global pool and a lazily-created balancer-owned
  /// arena, then dispatches to the context step() — so both signatures
  /// execute the exact same kernels.  New code should construct a
  /// RoundContext (or use engine::run) instead.
  StepStats step(const graph::Graph& g, std::vector<T>& load, util::Rng& rng);

  /// True if the algorithm ignores `g` and builds its own communication
  /// pattern (Algorithm 2's random partners).
  virtual bool uses_network() const { return true; }

  /// Describe this round as a FlowProgram — a pure per-edge flow rule
  /// plus optional structure (see flow_program.hpp) — and return true;
  /// step()'s default then runs it in shared memory, and the sharded
  /// engine (lb/shard/) runs the identical arithmetic through its
  /// ownership/halo machinery.  All round-consumed RNG draws (matchings)
  /// and trajectory-state updates (SOS's L^{t-1} flag, dimension
  /// exchange's round-robin counter) happen HERE, once per round, so
  /// both executors consume identical streams.  Default: not plannable —
  /// such a balancer overrides step(), which the sharded engine then
  /// calls for its rounds (shared-memory execution, zero modeled comm).
  virtual bool plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
    (void)ctx;
    (void)program;
    return false;
  }

  /// The network's topology epoch changed (dynamic sequences): drop any
  /// cached per-graph views.  The arena's blocked-round plan re-keys
  /// itself on graph::Graph::revision(), so most implementations no
  /// longer need this; it remains for balancers with private per-graph
  /// caches.
  virtual void on_topology_changed() {}

  /// A new Engine::run is starting: discard every piece of *trajectory*
  /// state carried between rounds (SOS's L^{t-1}, OPS's schedule
  /// position, dimension exchange's round-robin counter) so a reused
  /// balancer produces runs bit-identical to a fresh instance's.  Caches
  /// that are pure functions of the topology (spectral schedules,
  /// per-revision denominators, CSR views) are deliberately KEPT — that
  /// reuse is the campaign layer's amortization (DESIGN.md §6).  The
  /// engine calls this before round 1; the legacy step() shim never does
  /// (manual stepping has no run boundary).  Default: no state, no-op.
  virtual void on_run_begin() {}

 private:
  // Arena backing the deprecated step() shim; untouched when callers go
  // through RoundContext.
  std::unique_ptr<RunArena<T>> legacy_arena_;
};

using ContinuousBalancer = Balancer<double>;
using DiscreteBalancer = Balancer<std::int64_t>;

}  // namespace lb::core
