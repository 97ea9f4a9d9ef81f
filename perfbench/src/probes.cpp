#include "probes.hpp"

#include <cstring>
#include <memory>

#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/steady_state.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/ownership.hpp"

namespace perfbench {
namespace {

template <class T>
const std::vector<T>& loads_of(const LayerInputs& in, std::size_t i) {
  if constexpr (std::is_integral_v<T>) {
    return in.token_loads[i];
  } else {
    return in.real_loads[i];
  }
}

/// Probe loops on small graphs run more rounds so each probe measures a
/// few milliseconds of work rather than timer noise.
std::size_t rounds_for(const LayerInputs& in, std::size_t n) {
  return std::max<std::size_t>(in.rounds, std::min<std::size_t>(256, (1u << 16) / n));
}

/// Copy bandwidth (bytes read + written per second, GB/s) of memcpy
/// between two `bytes`-sized arrays, median over repeated copies.
double copy_gbps(std::size_t bytes, double min_seconds) {
  const std::unique_ptr<char[]> src(new char[bytes]);
  const std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> gbps;
  const std::int64_t start = now_ns();
  while (gbps.size() < 3 || (seconds_since(start) < min_seconds && gbps.size() < 1000)) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.get(), src.get(), bytes);
    const double dt = seconds_since(t0);
    src.get()[gbps.size() % bytes] = dst.get()[bytes - 1 - gbps.size() % bytes];  // keep the copies live
    gbps.push_back(2.0 * static_cast<double>(bytes) / dt * 1e-9);
  }
  return median(gbps);
}

template <class T>
void roofline(const LayerInputs& in, Outcome& out) {
  std::size_t ws = 0, bytes_model = 0;
  for (const lb::graph::Graph* g : in.graphs) {
    const std::size_t n = g->num_nodes(), m = g->num_edges();
    // Engine state of a round: topology, ledger CSR, three node vectors
    // (load, snapshot, initial copy) and two edge vectors (flows, denominators).
    ws += g->memory_bytes() + 4 * (n + 1) + 10 * m + 3 * n * sizeof(T) + 16 * m;
    // Computed bytes of one single-worker fused round: stream the edge
    // list and the per-edge denominators once, read and write the load
    // and the snapshot once each.
    bytes_model += (sizeof(lb::graph::Edge) + sizeof(double)) * m + 4 * sizeof(T) * n;
  }
  const double bytes_per_round =
      static_cast<double>(bytes_model) / static_cast<double>(in.graphs.size());
  // The DRAM probe's two arrays together are 4x the last-level cache.
  const std::size_t llc = llc_bytes();
  std::size_t dram = llc > 0 ? 2 * llc : (std::size_t{512} << 20);
  if (in.small) dram = std::size_t{32} << 20;
  const std::size_t ws_array = std::max<std::size_t>(ws / 2, 64 << 10);
  const double gbps_dram = copy_gbps(dram, 0.5);
  const double gbps_ws = copy_gbps(ws_array, 0.2);
  out.note("copy probe: dram arrays 2 x " + std::to_string(dram >> 20) + " MiB (LLC " +
           std::to_string(llc >> 20) + " MiB), working-set arrays 2 x " +
           std::to_string(ws_array >> 10) + " KiB");
  out.add("core.bytes_per_round", bytes_per_round, "B");
  out.add("core.copy_gbps", gbps_dram, "GB/s");
  out.add("core.copy_gbps_ws", gbps_ws, "GB/s");
  const double step_s = in.step_us_p50 * 1e-6;
  out.add("core.roofline_pct",
          step_s > 0.0 ? 100.0 * bytes_per_round / (step_s * gbps_ws * 1e9) : 0.0, "%");
}

template <class T>
void summary(const LayerInputs& in, Outcome& out, Tracer& tr) {
  std::vector<lb::core::SummaryPartial<T>> parts;
  for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
    const std::vector<T>& load = loads_of<T>(in, gi);
    const double average = lb::core::summarize(load).average;
    const std::size_t reps = rounds_for(in, load.size());
    for (std::size_t r = 0; r < reps; ++r) {
      Scope s(&tr, "metrics.summarize_deterministic");
      lb::core::summarize_deterministic(load, average, in.pool_one,
                                        lb::core::SummaryMode::kFull, parts);
    }
  }
  out.add("metrics.summary_us", median(tr.durations_us("metrics.summarize_deterministic")),
          "us");
}

}  // namespace

void probe_graph(const LayerInputs& in, Outcome& out, Tracer& tr) {
  for (int rep = 0; rep < 3; ++rep) {
    Scope s(&tr, "graph.build");
    in.rebuild_graphs();
  }
  std::size_t bytes = 0, nodes = 0;
  for (const lb::graph::Graph* g : in.graphs) {
    bytes += g->memory_bytes();
    nodes += g->num_nodes();
  }
  out.add("graph.build_ms", median(tr.durations_us("graph.build")) * 1e-3, "ms");
  out.add("graph.bytes_per_node", static_cast<double>(bytes) / static_cast<double>(nodes),
          "B");
}

/// The multi-pass parallel round, split: plan_round, compute_edge_flows,
/// accumulate_flow_totals, FlowLedger::apply_with_summary — at pool-hw.
void probe_kernel(const LayerInputs& in, Outcome& out, Tracer& tr) {
  std::size_t ledger_bytes = 0, nodes = 0, rounds = 0;
  for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
    const lb::graph::Graph& g = *in.graphs[gi];
    std::vector<double> load = in.real_loads[gi];
    lb::core::FlowLedger ledger;
    for (int rep = 0; rep < 3; ++rep) {
      Scope s(&tr, "core.ledger_build");
      ledger.rebuild(g);
    }
    ledger_bytes += ledger.memory_bytes();
    nodes += g.num_nodes();

    lb::core::DiffusionBalancer<double> balancer;
    lb::core::RunArena<double> arena;
    lb::util::Rng rng(in.seed);
    const lb::graph::TopologyFrame frame(g);
    lb::core::FlowProgram<double> program;
    const double average = lb::core::summarize(load).average;
    lb::core::LoadSummary<double> summary;
    const std::size_t r_end = rounds_for(in, g.num_nodes());
    for (std::size_t r = 0; r < r_end; ++r, ++rounds) {
      Scope round(&tr, "round");
      lb::core::RoundContext<double> ctx(frame, rng, in.pool_hw, arena);
      lb::core::StepStats stats;
      program.reset();
      {
        Scope s(&tr, "core.plan");
        balancer.plan_round(ctx, program);
      }
      {
        Scope s(&tr, "core.flows");
        lb::core::compute_edge_flows(g, load, arena.flows(), in.pool_hw, program.flow);
      }
      {
        Scope s(&tr, "core.totals");
        lb::core::accumulate_flow_totals<double>(arena.flows(), stats);
      }
      {
        Scope s(&tr, "core.apply");
        ledger.apply_with_summary(g, arena.flows(), load, in.pool_hw, average,
                                  lb::core::SummaryMode::kFull, arena.summary_parts(),
                                  summary);
      }
    }
  }
  const double per_round = 1.0 / static_cast<double>(rounds);
  out.add("core.flows_us", sum(tr.durations_us("core.flows")) * per_round, "us");
  out.add("core.totals_us", sum(tr.durations_us("core.totals")) * per_round, "us");
  out.add("core.apply_us", sum(tr.durations_us("core.apply")) * per_round, "us");
  out.add("core.ledger_build_ms",
          median(tr.durations_us("core.ledger_build")) * 1e-3 *
              static_cast<double>(in.graphs.size()),
          "ms");
  out.add("core.ledger_bytes_per_node",
          static_cast<double>(ledger_bytes) / static_cast<double>(nodes), "B");
}

void probe_roofline(const LayerInputs& in, Outcome& out) {
  if (in.tokens) {
    roofline<std::int64_t>(in, out);
  } else {
    roofline<double>(in, out);
  }
}

void probe_summary(const LayerInputs& in, Outcome& out, Tracer& tr) {
  if (in.tokens) {
    summary<std::int64_t>(in, out, tr);
  } else {
    summary<double>(in, out, tr);
  }
}

void probe_steady(const std::vector<ReplayRound>& rounds, Outcome& out) {
  lb::core::metrics::SteadyState steady;
  long long allocs = 0;
  double seconds = 0.0;
  {
    AllocScope counted;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const ReplayRound& r = rounds[i];
      steady.observe(i + 1, r.potential, r.discrepancy, r.max_load, r.arrivals,
                     r.departures);
    }
    seconds = seconds_since(start);
    allocs = counted.count();
  }
  const double per_round = 1.0 / static_cast<double>(std::max<std::size_t>(1, rounds.size()));
  out.add("metrics.steady_observe_us", seconds * 1e6 * per_round, "us");
  out.add("metrics.steady_allocs", static_cast<double>(allocs) * per_round, "count");
}

void probe_shard_plans(const LayerInputs& in, Outcome& out, Tracer& tr) {
  std::size_t cut = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Scope s(&tr, "shard.plan_build");
    cut = 0;
    for (const lb::graph::Graph* g : in.graphs) {
      const lb::shard::OwnershipMap map =
          lb::shard::OwnershipMap::build(*g, kDomains, kPartitionPolicy);
      lb::shard::HaloExchange::build(*g, map);
      cut += map.cut_edges();
    }
  }
  out.add("shard.plan_build_ms", median(tr.durations_us("shard.plan_build")) * 1e-3, "ms");
  out.add("shard.cut_edges", static_cast<double>(cut), "count");
}

void probe_linalg(const LayerInputs& in, Outcome& out, Tracer& tr) {
  std::size_t solves = 0;
  for (const lb::graph::Graph* g : in.graphs) {
    lb::linalg::SpectralCache cache;
    {
      Scope s(&tr, "linalg.summary");
      cache.summary(*g);
    }
    solves += cache.stats().summary_solves + cache.stats().lambda2_solves();
  }
  out.add("linalg.summary_ms", sum(tr.durations_us("linalg.summary")) * 1e-3, "ms");
  out.add("linalg.solves", static_cast<double>(solves), "count");
}

/// Empty-bodied dispatch at the workload's chunk counts on pool-hw: one
/// fixed-chunk summary sweep plus one edge-parallel flow fill per call.
void probe_dispatch(const LayerInputs& in, Outcome& out, Tracer& tr) {
  const std::function<void(std::size_t, std::size_t, std::size_t)> chunk_body =
      [](std::size_t, std::size_t, std::size_t) {};
  const std::function<void(std::size_t, std::size_t)> range_body = [](std::size_t,
                                                                      std::size_t) {};
  for (const lb::graph::Graph* g : in.graphs) {
    const std::int64_t start = now_ns();
    for (std::size_t rep = 0; rep < 50 || seconds_since(start) < 0.02; ++rep) {
      Scope s(&tr, "util.dispatch");
      lb::util::for_fixed_chunks(in.pool_hw, g->num_nodes(), lb::core::kSummaryChunkWidth,
                                 chunk_body);
      in.pool_hw->parallel_for(0, g->num_edges(), 2048, range_body);
    }
  }
  out.add("util.dispatch_us", median(tr.durations_us("util.dispatch")), "us");
}

}  // namespace perfbench
