// The round-based simulation engine: runs a Balancer over a (possibly
// dynamic) network until the potential target, a stall, or the round
// budget is hit.  This is the substrate substitution for the paper's
// abstract message-passing machine — the theorems speak about synchronous
// rounds, which is exactly what the engine executes (see DESIGN.md §1).
#pragma once

#include <cstdint>

#include "lb/core/algorithm.hpp"
#include "lb/core/steady_state.hpp"
#include "lb/core/trace.hpp"
#include "lb/graph/dynamic.hpp"

namespace lb::util {
class ThreadPool;
}

namespace lb::linalg {
class SpectralCache;
enum class SpectralGuard : std::uint8_t;
}

namespace lb::workload {
class StreamBase;
}

namespace lb::core {

template <class T>
class RunArena;

/// How the engine computes the per-round Φ/discrepancy observability.
enum class MetricsPath : std::uint8_t {
  /// The deterministic fixed-chunk parallel reduction (core/metrics.hpp),
  /// fused into the balancer's apply sweep whenever the balancer supports
  /// it (RoundContext fused-summary protocol) and computed standalone —
  /// still parallel and chunk-deterministic — otherwise.  Φ is measured
  /// against a *running* average: the run-start ℓ̄ while the total is
  /// invariant (every closed-system round; exact for Tokens), re-derived
  /// from the stream ledger whenever open-system traffic changes the
  /// total (DESIGN.md §11).  With no stream attached this reduces to the
  /// historical fixed run-start baseline bit for bit.  Bit-identical
  /// results at every pool size.  The only path: a pool of one worker is
  /// the sequential run.
  kFusedParallel,
};

struct EngineConfig {
  std::size_t max_rounds = 1'000'000;
  /// Stop as soon as Φ <= this value.
  double target_potential = 1e-12;
  /// Stop after this many consecutive rounds with zero transfers (the
  /// discrete fixed point: every edge's floored flow is 0).  0 disables.
  std::size_t stall_rounds = 3;
  /// Record the full per-round trace.  When false the engine skips all
  /// trace bookkeeping and computes only what termination needs: Φ per
  /// round, and min/max once at run end for the final discrepancy.
  bool record_trace = true;
  std::uint64_t seed = 42;
  MetricsPath metrics = MetricsPath::kFusedParallel;
  /// Pool the run executes on; nullptr means ThreadPool::global().  The
  /// determinism contract (DESIGN.md §2) guarantees bit-identical
  /// RunResults for any pool size here, LB_THREADS included.
  util::ThreadPool* pool = nullptr;
  /// Run the lb::check invariant layer (DESIGN.md §8): per-round
  /// conservation, mask well-formedness after epoch changes; the sharded
  /// engine adds halo-mirror equality, domain-plan CSR well-formedness,
  /// flow antisymmetry, and comm accounting.  ORed with the LB_CHECK
  /// environment variable.  Violations throw check::InvariantViolation;
  /// results are unchanged when no violation fires (checks only read
  /// engine state).
  bool check_invariants = false;
  /// Shared spectral cache (DESIGN.md §10), exposed to balancers through
  /// RoundContext::spectral_cache().  Consumers that bind schedules to
  /// spectral quantities (SOS auto-β, OPS) use its Tier-1 exact paths,
  /// which return bit-identical values to a cold compute — so a run with
  /// a cache is bit-identical to one without, just cheaper on repeats.
  /// nullptr (the default) keeps every balancer on its cold path; the
  /// campaign runner's kCold oracle relies on that.
  linalg::SpectralCache* spectral_cache = nullptr;
  /// Open-system traffic (DESIGN.md §11): a workload::Stream<T> whose
  /// per-round arrival/departure delta the engine applies at the top of
  /// every round, before the balancer plans flows.  Must be (or wrap) a
  /// Stream<T> matching the run's scalar type — the engine asserts on a
  /// mismatch.  nullptr (the default) is the closed system: the run
  /// executes the exact pre-stream code path, bit for bit.  The engine
  /// reset()s the stream at run start; pure per-round derivation
  /// (stream.hpp) makes the same stream object safely reusable across
  /// runs and bit-identical across pools and shard counts.
  workload::StreamBase* stream = nullptr;
};

/// Communication accounting for one ownership domain of a sharded run
/// (lb/shard/).  All three fields are *modeled* deterministic quantities
/// — message/byte counts from the halo protocol, wait from the per-link
/// latency/bandwidth config — never wall clock, so they are part of the
/// bit-identity surface (unlike the *_seconds fields below).
struct DomainCommStats {
  std::uint64_t messages = 0;        ///< halo messages received
  std::uint64_t boundary_bytes = 0;  ///< boundary payload bytes received
  double halo_wait_us = 0.0;         ///< modeled wait at halo barriers
};

struct RunResult {
  bool reached_target = false;
  bool stalled = false;
  /// True when any spectral profiling attached to this run (dynamic
  /// runner lambda2 tracking) was skipped by a linalg scale guard
  /// instead of computed.
  bool spectral_skipped = false;
  /// Which guard fired when spectral_skipped is set: the dense-path
  /// ceiling (max_spectral_n) or the Lanczos ceiling
  /// (max_lanczos_spectral_n).  kNone (0) when nothing was skipped.
  linalg::SpectralGuard spectral_guard{};
  std::size_t rounds = 0;           ///< rounds actually executed
  double initial_potential = 0.0;
  double final_potential = 0.0;
  double final_discrepancy = 0.0;
  Trace trace;                      ///< empty unless record_trace
  // Sharded-execution observability (lb/shard/): zero/empty for
  // shared-memory runs and for K=1 (a single domain has no links).
  std::size_t domains = 0;          ///< K; 0 = shared-memory engine
  std::size_t sharded_rounds = 0;   ///< rounds run via the domain path
                                    ///< (others fell back to step())
  DomainCommStats comm;             ///< totals across all domains
  std::vector<DomainCommStats> domain_comm;  ///< per-domain breakdown
  // Open-system observability (lb/workload/stream.hpp): applied stream
  // totals and the steady-state reduction.  All default/invalid for
  // closed-system runs (open_system == false).
  bool open_system = false;          ///< a stream was attached to the run
  double stream_arrivals = 0.0;      ///< Σ applied arrivals over the run
  double stream_departures = 0.0;    ///< Σ applied departures (clamped)
  metrics::SteadyStateReport steady; ///< valid only when open_system
  // Wall-clock observability (seconds; excluded from determinism claims).
  double total_seconds = 0.0;       ///< whole run, setup included
  double step_seconds = 0.0;        ///< Σ Balancer::step() time
  double metrics_seconds = 0.0;     ///< Σ out-of-step summary time
};

/// Run `balancer` on the dynamic network `seq`, mutating `load` in place.
/// Calls Balancer::on_run_begin() before round 1 (the run-isolation
/// contract: reused balancers behave exactly like fresh ones).
template <class T>
RunResult run(Balancer<T>& balancer, graph::GraphSequence& seq, std::vector<T>& load,
              const EngineConfig& config = {});

/// As above, but executing against a caller-owned RunArena instead of a
/// run-local one.  The arena's scratch buffers and blocked-round plan
/// (keyed on the graph revision) survive across runs, so back-to-back
/// runs on the same base graph skip the plan rebuild — the campaign
/// layer's per-cell amortization (lb/exp/).  Results are bit-identical to
/// the run-local-arena overload.
template <class T>
RunResult run(Balancer<T>& balancer, graph::GraphSequence& seq, std::vector<T>& load,
              const EngineConfig& config, RunArena<T>& arena);

/// Convenience wrapper for a fixed network.
template <class T>
RunResult run_static(Balancer<T>& balancer, const graph::Graph& g, std::vector<T>& load,
                     const EngineConfig& config = {});

}  // namespace lb::core
