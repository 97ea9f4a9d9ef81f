#include "lb/core/engine.hpp"

#include "lb/check/invariants.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/round_executor.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/stream.hpp"

namespace lb::core {

namespace {

/// The shared-memory executor: the balancer steps the whole load vector.
template <class T>
class SharedMemoryExecutor final : public RoundExecutor<T> {
 public:
  const char* name() const override { return "engine"; }
  void apply_delta(const workload::StreamDelta<T>& delta,
                   std::vector<T>& load) override {
    workload::apply_stream_delta(delta, load);
  }
  StepStats step(Balancer<T>& balancer, RoundContext<T>& ctx, std::vector<T>& load,
                 std::size_t /*round*/, bool /*checking*/) override {
    return balancer.step(ctx, load);
  }
};

}  // namespace

template <class T>
RunResult run_rounds(Balancer<T>& balancer, graph::GraphSequence& seq,
                     std::vector<T>& load, const EngineConfig& config,
                     RunArena<T>& arena, RoundExecutor<T>& exec) {
  LB_ASSERT_MSG(load.size() == seq.num_nodes(), "load vector does not match network");
  util::Rng rng(config.seed);
  const util::Stopwatch run_watch;

  // Run isolation: trajectory state from a previous run (SOS's L^{t-1},
  // OPS's schedule position, ...) must not leak into this one.  The arena
  // holds no trajectory state, so a caller-owned one needs no reset.
  balancer.on_run_begin();

  // Open-system traffic (DESIGN.md §11): the stream rides the config
  // type-erased; re-type it here and replay it from round 1.  Every
  // stream-touching branch below is guarded on `stream != nullptr`, so a
  // closed-system run executes the exact pre-stream code path.
  workload::Stream<T>* stream = nullptr;
  if (config.stream != nullptr) {
    stream = dynamic_cast<workload::Stream<T>*>(config.stream);
    LB_ASSERT_MSG(stream != nullptr,
                  "EngineConfig::stream scalar type does not match the run");
    stream->reset();
  }

  util::ThreadPool* pool =
      config.pool != nullptr ? config.pool : &util::ThreadPool::global();

  // Invariant checking (DESIGN.md §8): opt-in via config or LB_CHECK=1.
  // Everything below under `checking` only *reads* engine state, so the
  // trajectory is bit-identical with checks on or off.
  const bool checking = config.check_invariants || check::env_enabled();
  check::ConservationBaseline<T> baseline;
  if (checking) baseline = check::conservation_baseline(load);

  RunResult result;
  result.open_system = stream != nullptr;

  // Run-start summary.  Every later Φ is measured against a running
  // average: with no stream the total is invariant under every balancer
  // (exactly for Tokens, up to float drift for Real), the paper's Φ is
  // stated against that fixed ℓ̄, and `run_average` never moves; with a
  // stream attached it is re-derived from the applied ledger whenever the
  // total changes.  For n <= kSummaryChunkWidth the parallel summary is
  // bit-identical to the sequential one.
  const LoadSummary<T> initial = summarize_parallel(load, pool);
  double run_average = initial.average;
  // Open-system ledger: the running total behind the Φ baseline and the
  // cumulative applied net for the ledgered conservation check.  Both
  // come from the central sequential tally (stream.hpp), so every
  // substrate derives the same values.
  T running_total = initial.total;
  T net_stream{};
  result.initial_potential = initial.potential;

  if (stream == nullptr && result.initial_potential <= config.target_potential) {
    result.reached_target = true;
    result.final_potential = result.initial_potential;
    result.final_discrepancy = initial.discrepancy;
    exec.finish(result);
    result.total_seconds = run_watch.elapsed_seconds();
    return result;
  }

  if (config.record_trace) {
    result.trace.reserve(std::min<std::size_t>(config.max_rounds, 4096));
    result.trace.set_open_system(stream != nullptr);
  }
  // Without a trace only Φ matters per round; min/max are computed once
  // at run end for the terminal discrepancy.  An attached stream forces
  // the full summary: the steady-state reducer needs per-round extrema.
  const SummaryMode mode = (config.record_trace || stream != nullptr)
                               ? SummaryMode::kFull
                               : SummaryMode::kPotentialOnly;

  metrics::SteadyState steady;

  const auto finish = [&](RunResult& r) {
    if (!config.record_trace && stream == nullptr) {
      r.final_discrepancy =
          summarize_deterministic(load, run_average, pool, SummaryMode::kExtremaOnly,
                                  arena.summary_parts())
              .discrepancy;
    }
    if (stream != nullptr) r.steady = steady.finalize();
    // The trace was reserved for the round budget; an early stop keeps
    // only the rounds it ran (a campaign report holds every cell's).
    r.trace.shrink_to_fit();
    exec.finish(r);
    r.total_seconds = run_watch.elapsed_seconds();
  };

  std::size_t consecutive_idle = 0;
  // Topology epoch = (base revision, mask revision): static rounds move
  // neither, materializing sequences mint a new base revision per
  // rebuild, masked sequences keep the base and bump only the mask.
  std::uint64_t base_epoch = 0;  // no frame seen yet (revisions are nonzero)
  std::uint64_t mask_epoch = 0;
  for (std::size_t round = 1; round <= config.max_rounds; ++round) {
    const graph::TopologyFrame& frame = seq.frame_at(round);
    // The arena's round plan re-keys itself on the base revision; the
    // balancer hook remains for private per-graph caches.
    if (frame.base_revision() != base_epoch || frame.mask_revision() != mask_epoch) {
      balancer.on_topology_changed();
      const graph::TorusShape& shape = frame.base().torus_shape();
      if (checking && frame.base_revision() != base_epoch && !shape.empty()) {
        // New base with a torus shape: the stencil round trusts it.
        check::check_torus_shape(frame.base(), shape.rows, shape.cols);
      }
      base_epoch = frame.base_revision();
      mask_epoch = frame.mask_revision();
      if (checking && frame.mask() != nullptr) {
        // Mask commit: recount alive bitmap vs the incremental summaries.
        check::check_mask(*frame.mask());
      }
    }
    // Executor setup (the sharded owner map) precedes the stream delta,
    // whose owner-filtered apply it feeds.
    exec.begin_round(frame, checking);

    // The stream delta lands at a fixed point in the round: after the
    // frame/epoch bookkeeping, before the balancer plans any flow — the
    // balancer always reacts to traffic that is already on the nodes.
    workload::AppliedStream<T> applied{};
    bool delta_applied = false;
    if (stream != nullptr) {
      const workload::StreamDelta<T>& delta = stream->delta_at(round);
      if (!delta.empty()) {
        applied = workload::tally_stream_delta(delta, load);
        exec.apply_delta(delta, load);
        delta_applied = true;
        const T net = applied.net();
        if (net != T{}) {
          // Re-derive the Φ/K baseline only when the total actually
          // moved, so empty-net rounds keep the closed-system bytes.
          running_total += net;
          run_average = static_cast<double>(running_total) /
                        static_cast<double>(load.size());
        }
        net_stream += net;
        result.stream_arrivals += static_cast<double>(applied.arrivals);
        result.stream_departures += static_cast<double>(applied.departures);
      }
    }

    RoundContext<T> ctx(frame, rng, pool, arena);
    ctx.set_spectral_cache(config.spectral_cache);
    ctx.request_summary(mode, run_average);

    util::Stopwatch watch;
    const StepStats stats = exec.step(balancer, ctx, load, round, checking);
    const double step_us = watch.elapsed_seconds() * 1e6;
    ++result.rounds;

    // Post-round observability: the balancer's fused summary when it
    // published one, the standalone deterministic reduction otherwise
    // (bit-identical either way).
    watch.reset();
    const LoadSummary<T> summary =
        ctx.has_summary() ? ctx.summary()
                          : summarize_deterministic(load, run_average, pool, mode,
                                                    arena.summary_parts());
    const double metrics_us = watch.elapsed_seconds() * 1e6;
    result.step_seconds += step_us * 1e-6;
    result.metrics_seconds += metrics_us * 1e-6;

    if (checking) {
      check::check_conservation(baseline, load, round, stats.links, exec.name(),
                                net_stream);
    }

    if (stream != nullptr) {
      steady.observe(round, summary.potential, summary.discrepancy,
                     static_cast<double>(summary.max),
                     static_cast<double>(applied.arrivals),
                     static_cast<double>(applied.departures));
    }

    if (config.record_trace) {
      RoundRecord rec{round, summary.potential, summary.discrepancy,
                      stats.transferred, stats.active_edges, step_us,
                      metrics_us};
      exec.record(rec);
      if (stream != nullptr) {
        rec.arrivals = static_cast<double>(applied.arrivals);
        rec.departures = static_cast<double>(applied.departures);
        rec.net_load = static_cast<double>(net_stream);
      }
      result.trace.add(rec);
      result.final_discrepancy = summary.discrepancy;
    } else if (stream != nullptr) {
      result.final_discrepancy = summary.discrepancy;
    }
    result.final_potential = summary.potential;

    if (summary.potential <= config.target_potential) {
      result.reached_target = true;
      finish(result);
      return result;
    }
    // A round where traffic landed is never idle, even if the balancer
    // chose not to move anything — the stall exit is for settled closed
    // systems and drained streams, not for live churn.
    if (stats.transferred == 0.0 && !delta_applied) {
      ++consecutive_idle;
      if (config.stall_rounds > 0 && consecutive_idle >= config.stall_rounds) {
        result.stalled = true;
        finish(result);
        return result;
      }
    } else {
      consecutive_idle = 0;
    }
  }
  finish(result);
  return result;
}

template <class T>
RunResult run(Balancer<T>& balancer, graph::GraphSequence& seq, std::vector<T>& load,
              const EngineConfig& config, RunArena<T>& arena) {
  SharedMemoryExecutor<T> exec;
  return run_rounds(balancer, seq, load, config, arena, exec);
}

template <class T>
RunResult run(Balancer<T>& balancer, graph::GraphSequence& seq, std::vector<T>& load,
              const EngineConfig& config) {
  RunArena<T> arena;
  return run(balancer, seq, load, config, arena);
}

template <class T>
RunResult run_static(Balancer<T>& balancer, const graph::Graph& g, std::vector<T>& load,
                     const EngineConfig& config) {
  // The sequence's copy of `g` shares its CSR, so nothing is rebuilt.
  auto seq = graph::make_static_view(g);
  return run(balancer, *seq, load, config);
}

#define LB_INSTANTIATE(T)                                                           \
  template RunResult run_rounds<T>(Balancer<T>&, graph::GraphSequence&,             \
                                   std::vector<T>&, const EngineConfig&,            \
                                   RunArena<T>&, RoundExecutor<T>&);                \
  template RunResult run<T>(Balancer<T>&, graph::GraphSequence&, std::vector<T>&,   \
                            const EngineConfig&, RunArena<T>&);                     \
  template RunResult run<T>(Balancer<T>&, graph::GraphSequence&, std::vector<T>&,   \
                            const EngineConfig&);                                   \
  template RunResult run_static<T>(Balancer<T>&, const graph::Graph&,               \
                                   std::vector<T>&, const EngineConfig&);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::core
