// The traced replay: the engine's round loop re-driven from outside the
// library, one public layer call at a time, with a span around each.
//
// replay_run() mirrors core::run / shard::run round for round: the same
// frame/epoch bookkeeping, the same stream tally-then-apply, the same
// summary request, the same stopping rules.  Only the step differs by
// executor: SharedExecutor calls Balancer::step (the shared-memory
// engine), ShardExecutor plans the round and replays the K-domain halo
// protocol through sim::CommEngine with the halo plans' exact lists (the
// sharded engine).  The replay is verified against the library's own
// RunResult (verify_replay), so its spans time the real program's work.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/round_context.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/sim/comm.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/stream.hpp"

namespace perfbench {

using Scope = Tracer::Scope;

/// The sharded workload's domains and partitioner.
inline constexpr std::size_t kDomains = 4;
inline constexpr auto kPartitionPolicy = lb::shard::PartitionPolicy::kGreedyEdgeCut;

/// One replayed round, as verification and the SteadyState probe see it.
struct ReplayRound {
  double potential = 0.0;
  double discrepancy = 0.0;
  double max_load = 0.0;
  double arrivals = 0.0;
  double departures = 0.0;
  std::size_t active_edges = 0;
  std::size_t links = 0;
};

struct Replay {
  lb::core::RunResult result;
  std::vector<ReplayRound> rounds;
  std::uint64_t messages = 0;      ///< CommEngine replay totals
  std::uint64_t bytes = 0;
  std::size_t stream_events = 0;   ///< delta entries applied
  double wall_seconds = 0.0;
};

/// Deliberate faults, for the benchmark's self-tests only.
struct ReplayFaults {
  std::size_t skip_delta_round = 0;  ///< 0 = none
};

/// Per-domain pack/unpack scratch for the halo protocol.
template <class T>
struct HaloScratch {
  std::vector<std::vector<T>> halo_load;
  std::vector<std::vector<T>> node_buf;
  std::vector<std::vector<double>> flow_buf;

  void reset(std::size_t domains, std::size_t n) {
    halo_load.assign(domains, std::vector<T>(n, T{}));
    node_buf.assign(domains, {});
    flow_buf.assign(domains, {});
  }
};

/// One all-edges round through the halo protocol: superstep 1 ships each
/// domain's boundary loads (send_nodes), owners compute their edges'
/// flows, superstep 2 ships the boundary flows (send_flow_edges) back,
/// and every domain gathers its nodes' rows.  Same payloads, order and
/// arithmetic as the sharded engine.
template <class T>
lb::core::StepStats halo_round(const lb::shard::HaloExchange& halo,
                               const std::vector<std::uint32_t>& owner,
                               lb::sim::CommEngine& comm, HaloScratch<T>& sc,
                               const lb::graph::Graph& g,
                               const lb::core::FlowProgram<T>& program,
                               std::vector<double>& flows, std::vector<T>& load,
                               Tracer* tr) {
  using lb::shard::DomainPlan;
  using lb::shard::HaloLink;
  const auto& edges = g.edges();
  const std::size_t K = halo.domains();
  flows.resize(edges.size());
  lb::core::StepStats stats;
  stats.links = program.links;

  {
    Scope s(tr, "sim.send");
    for (std::size_t d = 0; d < K; ++d) {
      std::vector<T>& buf = sc.node_buf[d];
      for (const HaloLink& l : halo.plan(d).links) {
        if (l.send_nodes.empty()) continue;
        buf.clear();
        for (lb::graph::NodeId v : l.send_nodes) buf.push_back(load[v]);
        comm.send(d, l.peer, buf.data(), buf.size());
      }
    }
  }
  {
    Scope s(tr, "sim.deliver");
    comm.deliver();
  }
  {
    Scope s(tr, "sim.recv");
    for (std::size_t d = 0; d < K; ++d) {
      std::vector<T>& buf = sc.node_buf[d];
      for (const HaloLink& l : halo.plan(d).links) {
        if (l.recv_nodes.empty()) continue;
        buf.resize(l.recv_nodes.size());
        comm.recv(l.peer, d, buf.data(), buf.size());
        for (std::size_t i = 0; i < l.recv_nodes.size(); ++i) {
          sc.halo_load[d][l.recv_nodes[i]] = buf[i];
        }
      }
    }
  }
  {
    Scope s(tr, "core.flows");
    for (std::size_t d = 0; d < K; ++d) {
      const std::vector<T>& remote = sc.halo_load[d];
      for (const std::uint32_t k : halo.plan(d).owned_edges) {
        const lb::graph::Edge& e = edges[k];
        const T lv = owner[e.v] == static_cast<std::uint32_t>(d) ? load[e.v] : remote[e.v];
        flows[k] = program.flow(k, e, static_cast<double>(load[e.u]),
                                static_cast<double>(lv));
      }
    }
  }
  {
    Scope s(tr, "sim.send");
    for (std::size_t d = 0; d < K; ++d) {
      std::vector<double>& fbuf = sc.flow_buf[d];
      for (const HaloLink& l : halo.plan(d).links) {
        fbuf.clear();
        for (const std::uint32_t k : l.send_flow_edges) fbuf.push_back(flows[k]);
        if (!fbuf.empty()) comm.send(d, l.peer, fbuf.data(), fbuf.size());
      }
    }
  }
  {
    Scope s(tr, "sim.deliver");
    comm.deliver();
  }
  {
    Scope s(tr, "core.totals");
    lb::core::accumulate_flow_totals<T>(flows, stats);
  }
  {
    Scope s(tr, "sim.recv");
    for (std::size_t d = 0; d < K; ++d) {
      std::vector<double>& fbuf = sc.flow_buf[d];
      for (const HaloLink& l : halo.plan(d).links) {
        const std::size_t count = l.recv_flow_edges.size();
        if (count == 0) continue;
        fbuf.resize(count);
        comm.recv(l.peer, d, fbuf.data(), count);
        for (std::size_t i = 0; i < count; ++i) flows[l.recv_flow_edges[i]] = fbuf[i];
      }
    }
  }
  {
    Scope s(tr, "core.apply");
    for (std::size_t d = 0; d < K; ++d) {
      const DomainPlan& plan = halo.plan(d);
      for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
        const lb::graph::NodeId u = plan.nodes[i];
        const T before = load[u];
        T value = before;
        for (std::size_t p = plan.row_ptr[i]; p < plan.row_ptr[i + 1]; ++p) {
          const double f = flows[plan.edge_idx[p]];
          if (f == 0.0) continue;
          if constexpr (std::is_integral_v<T>) {
            value += static_cast<T>(plan.sign[p] * f);
          } else {
            value += static_cast<T>(plan.sign[p]) * static_cast<T>(f);
          }
        }
        load[u] = program.post ? program.post(u, value, before) : value;
      }
    }
  }
  return stats;
}

/// The shared-memory engine's step: Balancer::step on the whole vector.
template <class T>
struct SharedExecutor {
  void begin_round(const lb::graph::TopologyFrame&) {}
  void apply_delta(const lb::workload::StreamDelta<T>& delta, std::vector<T>& load) {
    lb::workload::apply_stream_delta(delta, load);
  }
  lb::core::StepStats step(lb::core::Balancer<T>& balancer, lb::core::RoundContext<T>& ctx,
                           std::vector<T>& load, lb::core::RunArena<T>&, Tracer*) {
    return balancer.step(ctx, load);
  }
  std::uint64_t messages() const { return 0; }
  std::uint64_t bytes() const { return 0; }
};

/// The sharded engine's step: plan_round, then the halo protocol over K
/// ownership domains; rounds the balancer cannot plan fall back to step().
template <class T>
struct ShardExecutor {
  ShardExecutor(std::size_t k, lb::shard::PartitionPolicy p) : domains(k), policy(p), comm(k) {}

  void begin_round(const lb::graph::TopologyFrame& frame) {
    if (map.valid_for(frame.base(), domains, policy)) return;
    map = lb::shard::OwnershipMap::build(frame.base(), domains, policy);
    halo = lb::shard::HaloExchange::build(frame.base(), map);
    scratch.reset(domains, frame.num_nodes());
  }
  void apply_delta(const lb::workload::StreamDelta<T>& delta, std::vector<T>& load) {
    for (std::size_t d = 0; d < domains; ++d) {
      lb::workload::apply_stream_delta_owned(delta, load, map.owners(),
                                             static_cast<std::uint32_t>(d));
    }
  }
  lb::core::StepStats step(lb::core::Balancer<T>& balancer, lb::core::RoundContext<T>& ctx,
                           std::vector<T>& load, lb::core::RunArena<T>& arena, Tracer* tr) {
    program.reset();
    bool planned = false;
    {
      Scope s(tr, "core.plan");
      planned = balancer.plan_round(ctx, program);
    }
    if (!planned) return balancer.step(ctx, load);
    LB_ASSERT_MSG(program.support == lb::core::FlowProgram<T>::Support::kAllEdges &&
                      !ctx.masked(),
                  "the sharded replay covers unmasked all-edges rounds");
    const lb::core::StepStats stats = halo_round(halo, map.owners(), comm, scratch,
                                                 ctx.frame().base(), program,
                                                 arena.flows(), load, tr);
    arena.invalidate_snapshot();
    return stats;
  }
  std::uint64_t messages() const { return comm.grand_totals().messages; }
  std::uint64_t bytes() const { return comm.grand_totals().boundary_bytes; }

  std::size_t domains;
  lb::shard::PartitionPolicy policy;
  lb::shard::OwnershipMap map;
  lb::shard::HaloExchange halo;
  lb::sim::CommEngine comm;
  HaloScratch<T> scratch;
  lb::core::FlowProgram<T> program;
};

/// Re-drive one engine run from outside the library (see file comment).
template <class T, class Exec>
Replay replay_run(lb::core::Balancer<T>& balancer, lb::graph::GraphSequence& seq,
                  std::vector<T>& load, const lb::core::EngineConfig& config, Exec& exec,
                  Tracer* tr, const ReplayFaults& faults = {}) {
  using lb::core::LoadSummary;
  using lb::core::SummaryMode;
  LB_ASSERT_MSG(config.metrics == lb::core::MetricsPath::kFusedParallel,
                "the replay mirrors the fused metrics path");
  const std::int64_t start = now_ns();
  Replay out;
  lb::core::RunResult& result = out.result;
  lb::util::Rng rng(config.seed);
  lb::core::RunArena<T> arena;
  balancer.on_run_begin();

  lb::workload::Stream<T>* stream = nullptr;
  if (config.stream != nullptr) {
    stream = dynamic_cast<lb::workload::Stream<T>*>(config.stream);
    LB_ASSERT_MSG(stream != nullptr, "stream scalar type does not match the run");
    stream->reset();
  }
  lb::util::ThreadPool* pool =
      config.pool != nullptr ? config.pool : &lb::util::ThreadPool::global();
  result.open_system = stream != nullptr;

  const LoadSummary<T> initial = lb::core::summarize_parallel(load, pool);
  double run_average = initial.average;
  T running_total = initial.total;
  result.initial_potential = initial.potential;
  if (stream == nullptr && initial.potential <= config.target_potential) {
    result.reached_target = true;
    result.final_potential = initial.potential;
    result.final_discrepancy = initial.discrepancy;
    out.wall_seconds = seconds_since(start);
    return out;
  }
  const SummaryMode mode = (config.record_trace || stream != nullptr)
                               ? SummaryMode::kFull
                               : SummaryMode::kPotentialOnly;
  const auto finish = [&] {
    if (!config.record_trace && stream == nullptr) {
      result.final_discrepancy =
          lb::core::summarize_deterministic(load, run_average, pool,
                                            SummaryMode::kExtremaOnly,
                                            arena.summary_parts())
              .discrepancy;
    }
    out.messages = exec.messages();
    out.bytes = exec.bytes();
    out.wall_seconds = seconds_since(start);
  };

  std::size_t idle = 0;
  std::uint64_t base_epoch = 0;
  std::uint64_t mask_epoch = 0;
  for (std::size_t round = 1; round <= config.max_rounds; ++round) {
    Scope round_span(tr, "round");
    const lb::graph::TopologyFrame* frame_ptr = nullptr;
    {
      Scope s(tr, "graph.frame");
      frame_ptr = &seq.frame_at(round);
    }
    const lb::graph::TopologyFrame& frame = *frame_ptr;
    if (frame.base_revision() != base_epoch || frame.mask_revision() != mask_epoch) {
      balancer.on_topology_changed();
      base_epoch = frame.base_revision();
      mask_epoch = frame.mask_revision();
    }
    {
      Scope s(tr, "shard.ensure");
      exec.begin_round(frame);
    }

    lb::workload::AppliedStream<T> applied{};
    bool delta_applied = false;
    if (stream != nullptr) {
      const lb::workload::StreamDelta<T>* delta = nullptr;
      {
        Scope s(tr, "workload.delta");
        delta = &stream->delta_at(round);
      }
      if (!delta->empty() && round != faults.skip_delta_round) {
        {
          Scope s(tr, "workload.apply");
          applied = lb::workload::tally_stream_delta(*delta, load);
          exec.apply_delta(*delta, load);
        }
        arena.invalidate_snapshot();
        delta_applied = true;
        const T net = applied.net();
        if (net != T{}) {
          running_total += net;
          run_average =
              static_cast<double>(running_total) / static_cast<double>(load.size());
        }
        result.stream_arrivals += static_cast<double>(applied.arrivals);
        result.stream_departures += static_cast<double>(applied.departures);
        out.stream_events += delta->arrivals.size() + delta->departures.size();
      }
    }

    lb::core::RoundContext<T> ctx(frame, rng, pool, arena);
    ctx.set_spectral_cache(config.spectral_cache);
    ctx.request_summary(mode, run_average);
    lb::core::StepStats stats;
    {
      Scope s(tr, "core.step");
      stats = exec.step(balancer, ctx, load, arena, tr);
    }
    ++result.rounds;

    LoadSummary<T> summary;
    {
      Scope s(tr, "metrics.summary");
      summary = ctx.has_summary()
                    ? ctx.summary()
                    : lb::core::summarize_deterministic(load, run_average, pool, mode,
                                                        arena.summary_parts());
    }
    out.rounds.push_back({summary.potential, summary.discrepancy,
                          static_cast<double>(summary.max),
                          static_cast<double>(applied.arrivals),
                          static_cast<double>(applied.departures), stats.active_edges,
                          stats.links});
    if (config.record_trace || stream != nullptr) {
      result.final_discrepancy = summary.discrepancy;
    }
    result.final_potential = summary.potential;

    if (summary.potential <= config.target_potential) {
      result.reached_target = true;
      finish();
      return out;
    }
    if (stats.transferred == 0.0 && !delta_applied) {
      ++idle;
      if (config.stall_rounds > 0 && idle >= config.stall_rounds) {
        result.stalled = true;
        finish();
        return out;
      }
    } else {
      idle = 0;
    }
  }
  finish();
  return out;
}

/// The three traffic checks of a traced run.  Each compares the replay
/// with the library's own RunResult for the same inputs.
struct ReplayVerdict {
  bool rounds_ok = true;  ///< rounds, per-round Φ (when traced), final Φ/K, loads
  bool comm_ok = true;    ///< CommEngine replay messages/bytes == RunResult::comm
  bool stream_ok = true;  ///< applied totals == RunResult::stream_arrivals/departures
  std::vector<std::string> why;

  bool ok() const { return rounds_ok && comm_ok && stream_ok; }
};

/// `reference` is the library's result; `ref_load`/`replay_load` the final
/// load vectors (either may be null when the entry point keeps them).
template <class T>
ReplayVerdict verify_replay(const lb::core::RunResult& reference, const Replay& replay,
                            const std::vector<T>* ref_load,
                            const std::vector<T>* replay_load) {
  ReplayVerdict v;
  const lb::core::RunResult& r = replay.result;
  if (r.rounds != reference.rounds ||
      bits_of(r.final_potential) != bits_of(reference.final_potential) ||
      bits_of(r.final_discrepancy) != bits_of(reference.final_discrepancy)) {
    v.rounds_ok = false;
    v.why.push_back("rounds/final Φ/K differ (" + std::to_string(r.rounds) + " vs " +
                    std::to_string(reference.rounds) + " rounds)");
  }
  const auto& records = reference.trace.records();
  if (!records.empty()) {
    bool same = records.size() == replay.rounds.size();
    for (std::size_t i = 0; same && i < records.size(); ++i) {
      same = bits_of(records[i].potential) == bits_of(replay.rounds[i].potential);
    }
    if (!same) {
      v.rounds_ok = false;
      v.why.push_back("per-round Φ differs");
    }
  }
  if (ref_load != nullptr && replay_load != nullptr &&
      hash_loads(*ref_load) != hash_loads(*replay_load)) {
    v.rounds_ok = false;
    v.why.push_back("final loads differ");
  }
  if (replay.messages != reference.comm.messages ||
      replay.bytes != reference.comm.boundary_bytes) {
    v.comm_ok = false;
    v.why.push_back("comm replay " + std::to_string(replay.messages) + " msgs/" +
                    std::to_string(replay.bytes) + " B vs RunResult " +
                    std::to_string(reference.comm.messages) + "/" +
                    std::to_string(reference.comm.boundary_bytes));
  }
  if (bits_of(r.stream_arrivals) != bits_of(reference.stream_arrivals) ||
      bits_of(r.stream_departures) != bits_of(reference.stream_departures)) {
    v.stream_ok = false;
    v.why.push_back("stream replay totals differ");
  }
  return v;
}

}  // namespace perfbench
