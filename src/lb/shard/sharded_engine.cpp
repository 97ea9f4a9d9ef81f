#include "lb/shard/sharded_engine.hpp"

#include <algorithm>
#include <cstdint>

#include "lb/check/invariants.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/round_executor.hpp"
#include "lb/shard/halo.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/stream.hpp"

namespace lb::shard {

namespace {

/// Run fn(d) for every domain, on the pool when it has workers to give.
/// One domain per chunk: domains are the unit of independence here.
template <class Fn>
void for_each_domain(util::ThreadPool* pool, std::size_t domains, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || domains <= 1) {
    for (std::size_t d = 0; d < domains; ++d) fn(d);
    return;
  }
  pool->parallel_for(0, domains, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t d = lo; d < hi; ++d) fn(d);
  });
}

/// Per-run sharded state: the ownership/halo tables (rebuilt when the
/// base topology epoch moves — mask churn never rebuilds), the comm
/// engine (lives for the whole run; totals are cumulative), and per-
/// domain scratch.
template <class T>
struct Runtime {
  Runtime(std::size_t domains, const ShardConfig& cfg) : comm(domains), prev(domains) {
    comm.set_default_link(cfg.default_link);
    for (const LinkOverride& o : cfg.link_overrides) {
      comm.set_link(o.from, o.to, o.config);
    }
    halo_load.resize(domains);
    node_buf.resize(domains);
    flow_buf.resize(domains);
    local_pairs.resize(domains);
    remote_out.resize(domains);
    remote_in.resize(domains);
  }

  /// Returns true when the tables were rebuilt for a new base epoch, so
  /// the caller can re-validate its own per-epoch state (the invariant
  /// layer re-checks halo mirrors and domain plans exactly then).
  bool ensure(const graph::Graph& base, const ShardConfig& cfg) {
    if (map.valid_for(base, cfg.domains, cfg.policy)) return false;
    map = OwnershipMap::build(base, cfg.domains, cfg.policy);
    halo = HaloExchange::build(base, map);
    for (std::vector<T>& h : halo_load) h.assign(base.num_nodes(), T{});
    // Allocation audit (DESIGN.md §9): size the pack/unpack scratch to the
    // largest link payload now, so the per-round clear()/push_back cycles
    // never grow a buffer mid-run.
    for (std::size_t d = 0; d < halo_load.size(); ++d) {
      std::size_t max_nodes = 0, max_flows = 0;
      for (const HaloLink& l : halo.plan(d).links) {
        max_nodes = std::max({max_nodes, l.send_nodes.size(), l.recv_nodes.size()});
        max_flows =
            std::max({max_flows, l.send_flow_edges.size(), l.recv_flow_edges.size()});
      }
      node_buf[d].reserve(max_nodes);
      flow_buf[d].reserve(max_flows);
    }
    return true;
  }

  OwnershipMap map;
  HaloExchange halo;
  sim::CommEngine comm;
  std::vector<sim::CommTotals> prev;           // totals at last round boundary
  std::vector<std::vector<T>> halo_load;       // per domain: remote loads by node id
  std::vector<std::vector<T>> node_buf;        // per domain pack/unpack scratch
  std::vector<std::vector<double>> flow_buf;   // per domain flow payload scratch
  // kMatching per-round work lists (rebuilt each matching round).
  std::vector<std::vector<std::uint32_t>> local_pairs;
  std::vector<std::vector<std::uint32_t>> remote_out;  // this domain owns e.u
  std::vector<std::vector<std::uint32_t>> remote_in;   // this domain owns e.v
};

/// One kAllEdges round: the halo protocol around the standard
/// compute-flows / gather-apply round shape.
template <class T>
core::StepStats step_all_edges(core::RoundContext<T>& ctx,
                               const core::FlowProgram<T>& program,
                               std::vector<T>& load, Runtime<T>& rt,
                               util::ThreadPool* pool) {
  const graph::TopologyFrame& frame = ctx.frame();
  const auto& edges = frame.base().edges();
  const bool masked = frame.masked();
  const std::size_t K = rt.map.domains();
  const auto& owner = rt.map.owners();
  std::vector<double>& flows = ctx.arena().flows();
  flows.resize(edges.size());

  core::StepStats stats;
  stats.links = program.links;

  // Phase A: every domain ships its boundary nodes' round-start loads.
  // Node halos are a function of the topology alone (not of the round's
  // mask): a dead boundary edge still carries its endpoint load, keeping
  // the payload schedule deterministic per topology epoch.
  for_each_domain(pool, K, [&](std::size_t d) {
    const DomainPlan& plan = rt.halo.plan(d);
    std::vector<T>& buf = rt.node_buf[d];
    for (const HaloLink& l : plan.links) {
      if (l.send_nodes.empty()) continue;
      buf.clear();
      for (graph::NodeId v : l.send_nodes) buf.push_back(load[v]);
      rt.comm.send(d, l.peer, buf.data(), buf.size());
    }
  });
  rt.comm.deliver();

  // Phase B: unpack halos, compute owned-edge flows from (local load,
  // halo copy) pairs, ship boundary flows back.  Edge k's slot is written
  // exclusively by owner(edges[k].u), so the shared flow vector needs no
  // synchronization beyond the phase barriers.
  for_each_domain(pool, K, [&](std::size_t d) {
    const DomainPlan& plan = rt.halo.plan(d);
    std::vector<T>& halo = rt.halo_load[d];
    std::vector<T>& buf = rt.node_buf[d];
    for (const HaloLink& l : plan.links) {
      if (l.recv_nodes.empty()) continue;
      buf.resize(l.recv_nodes.size());
      rt.comm.recv(l.peer, d, buf.data(), buf.size());
      for (std::size_t i = 0; i < l.recv_nodes.size(); ++i) {
        halo[l.recv_nodes[i]] = buf[i];
      }
    }
    for (const std::uint32_t k : plan.owned_edges) {
      if (masked && !frame.alive(k)) continue;
      const graph::Edge& e = edges[k];
      const T lv = owner[e.v] == static_cast<std::uint32_t>(d) ? load[e.v]
                                                               : halo[e.v];
      flows[k] = program.flow(k, e, static_cast<double>(load[e.u]),
                              static_cast<double>(lv));
    }
    std::vector<double>& fbuf = rt.flow_buf[d];
    for (const HaloLink& l : plan.links) {
      fbuf.clear();
      for (const std::uint32_t k : l.send_flow_edges) {
        if (masked && !frame.alive(k)) continue;
        fbuf.push_back(flows[k]);
      }
      if (!fbuf.empty()) rt.comm.send(d, l.peer, fbuf.data(), fbuf.size());
    }
  });
  rt.comm.deliver();

  // Round totals, centrally at the barrier: the fixed-chunk fold the
  // shared-memory round uses, so StepStats cannot depend on the domain
  // split.
  core::accumulate_flow_totals<T>(frame, flows, stats);

  // Phase C1: unpack received boundary flows.  A separate phase from the
  // gathers below so no domain reads a slot another is still writing.
  for_each_domain(pool, K, [&](std::size_t d) {
    const DomainPlan& plan = rt.halo.plan(d);
    std::vector<double>& fbuf = rt.flow_buf[d];
    for (const HaloLink& l : plan.links) {
      std::size_t count = 0;
      for (const std::uint32_t k : l.recv_flow_edges) {
        if (masked && !frame.alive(k)) continue;
        ++count;
      }
      if (count == 0) continue;
      fbuf.resize(count);
      rt.comm.recv(l.peer, d, fbuf.data(), count);
      std::size_t i = 0;
      for (const std::uint32_t k : l.recv_flow_edges) {
        if (masked && !frame.alive(k)) continue;
        flows[k] = fbuf[i++];
      }
    }
  });

  // Phase C2: domain-local apply sweeps.  Each owned node's row walk is
  // the FlowLedger gather restricted to alive edges — ascending incident
  // base edges, each share applied by add_flow — so the loads land bit for
  // bit on the oracle's.
  for_each_domain(pool, K, [&](std::size_t d) {
    const DomainPlan& plan = rt.halo.plan(d);
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
      const graph::NodeId u = plan.nodes[i];
      const T before = load[u];
      T value = before;
      const std::size_t row_end = plan.row_ptr[i + 1];
      for (std::size_t p = plan.row_ptr[i]; p < row_end; ++p) {
        const std::uint32_t k = plan.edge_idx[p];
        if (masked && !frame.alive(k)) continue;  // dead slot: may be stale
        core::add_flow(value, plan.sign[p] * flows[k]);
      }
      load[u] = program.post ? program.post(u, value, before) : value;
    }
  });
  return stats;
}

/// One kMatching round (dimension exchange): a vertex-disjoint edge set,
/// so each endpoint takes exactly one ±amount update.  Convention as for
/// owned edges: owner(e.u) computes the flow; owner(e.v) ships v's load
/// forward and applies the returned flow.
template <class T>
core::StepStats step_matching(core::RoundContext<T>& ctx,
                              const core::FlowProgram<T>& program,
                              std::vector<T>& load, Runtime<T>& rt,
                              util::ThreadPool* pool) {
  const auto& edges = ctx.frame().base().edges();
  const std::size_t K = rt.map.domains();
  const auto& owner = rt.map.owners();

  core::StepStats stats;
  stats.links = program.links;

  // Round totals centrally, in matching order from round-start loads —
  // the oracle's own accumulation sequence.  The matching is vertex-
  // disjoint, so these loads are exactly what each domain computes from
  // below; this pass only fixes the summation order of the double total.
  for (const std::uint32_t k : program.matched) {
    const graph::Edge& e = edges[k];
    core::count_flow<T>(stats, program.flow(k, e, static_cast<double>(load[e.u]),
                                            static_cast<double>(load[e.v])));
  }

  // Per-round work lists, in matching order.  Each (sender, receiver)
  // channel sees the same matched subsequence on both sides, so the
  // per-value sends below line up FIFO with the recvs.
  for (std::size_t d = 0; d < K; ++d) {
    rt.local_pairs[d].clear();
    rt.remote_out[d].clear();
    rt.remote_in[d].clear();
  }
  for (const std::uint32_t k : program.matched) {
    const graph::Edge& e = edges[k];
    const std::uint32_t a = owner[e.u];
    const std::uint32_t b = owner[e.v];
    if (a == b) {
      rt.local_pairs[a].push_back(k);
    } else {
      rt.remote_out[a].push_back(k);
      rt.remote_in[b].push_back(k);
    }
  }

  // Phase A: v-side domains ship their endpoint loads to the owners.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_in[d]) {
      const graph::Edge& e = edges[k];
      rt.comm.send(d, owner[e.u], &load[e.v], 1);
    }
  });
  rt.comm.deliver();

  // Phase B: owners compute each matched flow, apply u's side, and ship
  // the flow back (every matched cut edge ships, zero or not, keeping
  // message counts a function of the matching alone).  Local pairs apply
  // both sides at once, exactly like step()'s direct loop; every side
  // takes add_flow's per-edge update.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_out[d]) {
      const graph::Edge& e = edges[k];
      T lv{};
      rt.comm.recv(owner[e.v], d, &lv, 1);
      const double f = program.flow(k, e, static_cast<double>(load[e.u]),
                                    static_cast<double>(lv));
      rt.comm.send(d, owner[e.v], &f, 1);
      core::add_flow(load[e.u], -f);
    }
    for (const std::uint32_t k : rt.local_pairs[d]) {
      const graph::Edge& e = edges[k];
      const double f = program.flow(k, e, static_cast<double>(load[e.u]),
                                    static_cast<double>(load[e.v]));
      core::add_flow(load[e.u], -f);
      core::add_flow(load[e.v], f);
    }
  });
  rt.comm.deliver();

  // Phase C: v-side domains apply the received flows.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_in[d]) {
      const graph::Edge& e = edges[k];
      double f = 0.0;
      rt.comm.recv(owner[e.u], d, &f, 1);
      core::add_flow(load[e.v], f);
    }
  });
  return stats;
}

/// The domain executor (DESIGN.md §7): owns the ownership/halo tables
/// and the comm engine, lands stream deltas owner by owner, and steps
/// every round the balancer can plan through the halo protocol.
template <class T>
class DomainExecutor final : public core::RoundExecutor<T> {
 public:
  DomainExecutor(const ShardConfig& shard, util::ThreadPool* pool)
      : shard_(shard), pool_(pool), rt_(shard.domains, shard) {}

  const char* name() const override { return "shard"; }

  void begin_round(const graph::TopologyFrame& frame, bool checking) override {
    if (!rt_.ensure(frame.base(), shard_) || !checking) return;
    // Fresh ownership/halo tables: prove the routing invariants once per
    // base epoch, before any round executes against them.
    check::check_halo_mirrors(rt_.halo);
    for (std::size_t d = 0; d < shard_.domains; ++d) {
      check::check_domain_plan(frame.base(), rt_.map.owners(), d, rt_.halo.plan(d));
    }
  }

  /// Each domain applies exactly its owned slice of the (sorted,
  /// duplicate-free) delta, which composes to one apply_stream_delta over
  /// the whole vector — nodes are disjoint across domains and the
  /// arithmetic is per-node.  The loop tallied the ledger totals before
  /// this apply, so the running baseline matches the shared-memory run.
  void apply_delta(const workload::StreamDelta<T>& delta,
                   std::vector<T>& load) override {
    const auto& owner = rt_.map.owners();
    for_each_domain(pool_, shard_.domains, [&](std::size_t d) {
      workload::apply_stream_delta_owned(delta, load, owner,
                                         static_cast<std::uint32_t>(d));
    });
  }

  core::StepStats step(core::Balancer<T>& balancer, core::RoundContext<T>& ctx,
                       std::vector<T>& load, std::size_t round,
                       bool checking) override {
    program_.reset();
    if (!balancer.plan_round(ctx, program_)) {
      // Non-distributable round: shared-memory step() inside the sharded
      // run (zero comm; not counted in sharded_rounds).
      return balancer.step(ctx, load);
    }
    LB_ASSERT_MSG(program_.flow != nullptr, "planned round without a flow function");
    const bool matching = program_.support == core::FlowProgram<T>::Support::kMatching;
    std::vector<sim::CommTotals> before;
    std::vector<check::RoundCommExpectation> expected;
    if (checking) {
      // Round-start loads are what the domains will exchange, so the
      // antisymmetry probe sees exactly the values the protocol uses.
      const graph::TopologyFrame& frame = ctx.frame();
      check::check_flow_antisymmetry(program_, frame, load, round);
      before = snapshot_totals();
      expected = matching
                     ? check::expected_matching_round_comm<T>(
                           program_.matched, frame.base().edges(), rt_.map.owners(),
                           shard_.domains)
                     : check::expected_all_edges_round_comm<T>(rt_.halo.plans(), frame);
    }
    const core::StepStats stats = matching
                                      ? step_matching(ctx, program_, load, rt_, pool_)
                                      : step_all_edges(ctx, program_, load, rt_, pool_);
    if (checking) check::check_comm_accounting(expected, before, snapshot_totals(), round);
    ++sharded_rounds_;
    return stats;
  }

  /// The round's comm: totals since the previous traced round.
  void record(core::RoundRecord& rec) override {
    for (std::size_t d = 0; d < shard_.domains; ++d) {
      const sim::CommTotals& t = rt_.comm.totals(d);
      rec.messages += t.messages - rt_.prev[d].messages;
      rec.boundary_bytes += t.boundary_bytes - rt_.prev[d].boundary_bytes;
      rec.halo_wait_us += t.wait_us - rt_.prev[d].wait_us;
      rt_.prev[d] = t;
    }
  }

  void finish(core::RunResult& r) override {
    r.domains = shard_.domains;
    r.sharded_rounds = sharded_rounds_;
    r.domain_comm.resize(shard_.domains);
    for (std::size_t d = 0; d < shard_.domains; ++d) {
      const sim::CommTotals& t = rt_.comm.totals(d);
      r.domain_comm[d] = core::DomainCommStats{t.messages, t.boundary_bytes, t.wait_us};
      r.comm.messages += t.messages;
      r.comm.boundary_bytes += t.boundary_bytes;
      r.comm.halo_wait_us += t.wait_us;
    }
  }

 private:
  std::vector<sim::CommTotals> snapshot_totals() const {
    std::vector<sim::CommTotals> totals(shard_.domains);
    for (std::size_t d = 0; d < shard_.domains; ++d) totals[d] = rt_.comm.totals(d);
    return totals;
  }

  const ShardConfig& shard_;
  util::ThreadPool* pool_;
  Runtime<T> rt_;
  core::FlowProgram<T> program_;
  std::size_t sharded_rounds_ = 0;
};

}  // namespace

template <class T>
core::RunResult run(core::Balancer<T>& balancer, graph::GraphSequence& seq,
                    std::vector<T>& load, const core::EngineConfig& config,
                    const ShardConfig& shard) {
  LB_ASSERT_MSG(shard.domains >= 1, "need at least one ownership domain");
  LB_ASSERT_MSG(shard.domains <= seq.num_nodes(), "more domains than nodes");
  DomainExecutor<T> exec(
      shard, config.pool != nullptr ? config.pool : &util::ThreadPool::global());
  core::RunArena<T> arena;
  return core::run_rounds(balancer, seq, load, config, arena, exec);
}

template <class T>
core::RunResult run_static(core::Balancer<T>& balancer, const graph::Graph& g,
                           std::vector<T>& load, const core::EngineConfig& config,
                           const ShardConfig& shard) {
  // Non-owning: `g` outlives the run, so the graph is never copied.
  auto seq = graph::make_static_view(g);
  return run(balancer, *seq, load, config, shard);
}

#define LB_INSTANTIATE(T)                                                       \
  template core::RunResult run<T>(core::Balancer<T>&, graph::GraphSequence&,    \
                                  std::vector<T>&, const core::EngineConfig&,   \
                                  const ShardConfig&);                          \
  template core::RunResult run_static<T>(core::Balancer<T>&, const graph::Graph&, \
                                         std::vector<T>&, const core::EngineConfig&, \
                                         const ShardConfig&);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::shard
