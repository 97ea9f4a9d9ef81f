#include "lb/shard/sharded_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

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

/// A domain's owned nodes as its sweep takes them: a range when they are
/// consecutive, else the list itself.
core::detail::SweepNodes sweep_nodes(const std::vector<graph::NodeId>& nodes) {
  if (nodes.empty()) return {};
  const std::size_t lo = nodes.front();
  const std::size_t hi = std::size_t{nodes.back()} + 1;
  return {lo, hi, hi - lo == nodes.size() ? std::span<const graph::NodeId>() : nodes};
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
    // Each kind of scratch is one array, sliced by domain in domain order:
    // the compact halos, the staged cut shares, and pack buffers sized to
    // the domain's largest link payload — so no round grows a buffer
    // (allocation audit, DESIGN.md §9.4).
    const std::size_t K = map.domains();
    slice.assign(K + 1, Slice{});
    for (std::size_t d = 0; d < K; ++d) {
      const DomainPlan& plan = halo.plan(d);
      std::size_t halo_nodes = 0, max_nodes = 0, max_flows = 0;
      for (const HaloLink& l : plan.links) {
        halo_nodes += l.recv_nodes.size();
        max_nodes = std::max(max_nodes, l.send_nodes.size());
        max_flows =
            std::max({max_flows, l.send_flow_edges.size(), l.recv_flow_edges.size()});
      }
      slice[d + 1] = {slice[d].halo + halo_nodes, slice[d].shares + plan.cut_edges.size(),
                      slice[d].nodes + max_nodes, slice[d].flows + max_flows};
    }
    halo_load.resize(slice[K].halo);
    shares.resize(slice[K].shares);
    node_buf.resize(slice[K].nodes);
    flow_buf.resize(slice[K].flows);
    spanning_chunks = 0;
    const std::size_t n = base.num_nodes();
    for (std::size_t lo = 0; lo < n; lo += core::kSummaryChunkWidth) {
      const std::size_t hi = std::min(n, lo + core::kSummaryChunkWidth);
      if (!sweep_nodes(halo.plan(map.owner(static_cast<graph::NodeId>(lo))).nodes)
               .owns_all(lo, hi)) {
        ++spanning_chunks;
      }
    }
    return true;
  }

  struct Slice {
    std::size_t halo = 0;
    std::size_t shares = 0;
    std::size_t nodes = 0;
    std::size_t flows = 0;
  };

  OwnershipMap map;
  HaloExchange halo;
  sim::CommEngine comm;
  std::vector<sim::CommTotals> prev;  // totals at last round boundary
  std::vector<Slice> slice;           // where domain d's scratch slices begin
  std::vector<T> halo_load;           // each domain's compact halo
  std::vector<double> shares;         // each domain's staged cut shares
  std::vector<T> node_buf;            // load pack scratch
  std::vector<double> flow_buf;       // flow payload scratch
  std::size_t spanning_chunks = 0;    // summary chunks no domain owns whole
  // kMatching per-round work lists (rebuilt each matching round).
  std::vector<std::vector<std::uint32_t>> local_pairs;
  std::vector<std::vector<std::uint32_t>> remote_out;  // this domain owns e.u
  std::vector<std::vector<std::uint32_t>> remote_in;   // this domain owns e.v
};

/// Where a domain's cut flows come from: its halo.  Each cut entry's
/// share (−f on the u side, +f on the v side, 0 for a dead edge) is staged
/// in its slot, and the entry is outgoing when the domain owns its u.
template <class T>
struct StagedCuts {
  const std::vector<graph::Edge>& edges;
  const std::uint32_t* owner;
  std::uint32_t domain;
  const std::uint32_t* cut_edges;  // each cut entry's base edge
  const double* shares;            // each cut entry's staged share

  std::uint32_t edge(std::size_t j) const { return cut_edges[j]; }
  template <bool>
  bool apply(std::size_t j, T* out, T& moved) const {
    const graph::Edge& e = edges[cut_edges[j]];
    const bool outgoing = owner[e.u] == domain;
    core::add_flow(out[outgoing ? e.u : e.v], shares[j]);
    moved = static_cast<T>(-shares[j]);
    return outgoing;
  }
};

/// The barrier fold: the summary chunks no domain owns whole — they span
/// two or more, as under strided or refined partitions or K = n — counted
/// (count_chunk re-evaluates their flows) and finished once every sweep is
/// done, chunks in parallel.  Together with the sweeps this is the
/// fixed-chunk StepStats contract of fold_chunk_stats and the fixed-chunk
/// summary of fused_sweep_with_summary, so nothing depends on the domains.
/// A shared-memory block is whole chunks, so only the sharded round has
/// such chunks.
template <class T, class Rule>
void fold_spanning_chunks(const core::detail::AllEdgesRound<T>& round, const Rule& rule,
                          const Runtime<T>& rt, util::ThreadPool* pool) {
  util::for_fixed_chunks(pool, round.load.size(), core::kSummaryChunkWidth,
                         [&](std::size_t c, std::size_t lo, std::size_t hi) {
                           const DomainPlan& plan = rt.halo.plan(rt.map.owner(
                               static_cast<graph::NodeId>(lo)));
                           if (sweep_nodes(plan.nodes).owns_all(lo, hi)) return;
                           round.stats[c] = round.count_chunk(rule, c);
                           round.finish_nodes(c);
                         });
}

/// One kAllEdges round: the halo protocol around one sweep per domain.
/// Domains write only their own nodes' outputs, their whole chunks'
/// partials and their own scratch slices, so phases need no
/// synchronization beyond their barriers.  A cut flow is stored once per
/// side, in its entry's slot: −f where its owner stages it, the received
/// +f where its v's domain does.
template <class T, class Rule>
core::StepStats step_all_edges(core::RoundContext<T>& ctx, const core::FlowProgram<T>& program,
                               const Rule& rule, std::vector<T>& load, Runtime<T>& rt,
                               util::ThreadPool* pool) {
  const graph::TopologyFrame& frame = ctx.frame();
  const auto& edges = frame.base().edges();
  const bool masked = frame.masked();
  const std::size_t K = rt.map.domains();

  // Phase A: every domain ships its boundary nodes' round-start loads.
  // Node halos are a function of the topology alone (not of the round's
  // mask): a dead boundary edge still carries its endpoint load, keeping
  // the payload schedule deterministic per topology epoch.
  util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
    T* buf = rt.node_buf.data() + rt.slice[d].nodes;
    for (const HaloLink& l : rt.halo.plan(d).links) {
      for (std::size_t i = 0; i < l.send_nodes.size(); ++i) buf[i] = load[l.send_nodes[i]];
      rt.comm.send(d, l.peer, buf, l.send_nodes.size());
    }
  });
  rt.comm.deliver();

  // Phase B: unpack the halo (link by link, into the compact halo), then
  // evaluate every owned cut edge's flow from (own load, halo copy), stage
  // its u-side share −f and ship the flows back.
  util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
    const DomainPlan& plan = rt.halo.plan(d);
    T* halo = rt.halo_load.data() + rt.slice[d].halo;
    double* shares = rt.shares.data() + rt.slice[d].shares;
    double* buf = rt.flow_buf.data() + rt.slice[d].flows;
    std::size_t h = 0;
    for (const HaloLink& l : plan.links) {
      rt.comm.recv(l.peer, d, halo + h, l.recv_nodes.size());
      h += l.recv_nodes.size();
    }
    std::size_t s = 0;
    for (const HaloLink& l : plan.links) {
      std::size_t count = 0;
      for (const std::uint32_t k : l.send_flow_edges) {
        const std::uint32_t slot = plan.send_slots[s];
        const std::uint32_t v = plan.send_halo[s++];
        if (masked && !frame.alive(k)) {
          shares[slot] = 0.0;  // a zero share leaves its node unchanged
          continue;
        }
        const graph::Edge& e = edges[k];
        const double f = core::rule_flow(rule, k, e, static_cast<double>(load[e.u]),
                                         static_cast<double>(halo[v]));
        shares[slot] = -f;
        buf[count++] = f;
      }
      rt.comm.send(d, l.peer, buf, count);
    }
  });
  rt.comm.deliver();

  // Phase C: stage each received flow as its incoming entry's share, then
  // sweep, finishing the summary chunks the domain owns whole.
  const auto sweep = [&](const core::detail::AllEdgesRound<T>& round) {
    util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
      const DomainPlan& plan = rt.halo.plan(d);
      double* shares = rt.shares.data() + rt.slice[d].shares;
      double* buf = rt.flow_buf.data() + rt.slice[d].flows;
      std::size_t r = 0;
      for (const HaloLink& l : plan.links) {
        const std::size_t count =
            masked ? static_cast<std::size_t>(std::count_if(
                         l.recv_flow_edges.begin(), l.recv_flow_edges.end(),
                         [&](std::uint32_t k) { return frame.alive(k); }))
                   : l.recv_flow_edges.size();
        rt.comm.recv(l.peer, d, buf, count);
        std::size_t i = 0;
        for (const std::uint32_t k : l.recv_flow_edges) {
          shares[plan.recv_slots[r++]] = masked && !frame.alive(k) ? 0.0 : buf[i++];
        }
      }
      const StagedCuts<T> cuts{edges, rt.map.owners().data(), static_cast<std::uint32_t>(d),
                               plan.cut_edges.data(), shares};
      const core::detail::SweepNodes nodes = sweep_nodes(plan.nodes);
      const std::size_t entries = plan.cut_edges.size();
      if (masked) {
        core::detail::sweep_domain<true>(round, nodes, plan.runs, entries, rule, cuts);
      } else {
        core::detail::sweep_domain<false>(round, nodes, plan.runs, entries, rule, cuts);
      }
    });
    if (rt.spanning_chunks != 0) fold_spanning_chunks(round, rule, rt, pool);
  };
  core::StepStats total = core::detail::run_all_edges(
      ctx, load, &ctx.arena().round_plan(frame.base()), program.post, sweep);
  total.links = program.links;
  return total;
}

/// One kMatching round (dimension exchange): a vertex-disjoint edge set,
/// so each endpoint takes exactly one ±amount update.  Convention as for
/// owned edges: owner(e.u) computes the flow; owner(e.v) ships v's load
/// forward and applies the returned flow.
template <class T, class Rule>
core::StepStats step_matching(core::RoundContext<T>& ctx, const core::FlowProgram<T>& program,
                              const Rule& rule, std::vector<T>& load, Runtime<T>& rt,
                              util::ThreadPool* pool) {
  const auto& edges = ctx.frame().base().edges();
  const std::size_t K = rt.map.domains();
  const auto& owner = rt.map.owners();
  const auto flow = [&rule, &edges](std::uint32_t k, double lu, double lv) {
    return core::rule_flow(rule, k, edges[k], lu, lv);
  };

  core::StepStats stats;
  stats.links = program.links;

  // Round totals centrally, in matching order from round-start loads —
  // the oracle's own accumulation sequence.  The matching is vertex-
  // disjoint, so these loads are exactly what each domain computes from
  // below; this pass only fixes the summation order of the double total.
  for (const std::uint32_t k : program.matched) {
    const graph::Edge& e = edges[k];
    core::count_flow<T>(stats,
                        flow(k, static_cast<double>(load[e.u]), static_cast<double>(load[e.v])));
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
  util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
    for (const std::uint32_t k : rt.remote_in[d]) {
      const graph::Edge& e = edges[k];
      rt.comm.send(d, owner[e.u], &load[e.v], 1);
    }
  });
  rt.comm.deliver();

  // Phase B: owners compute each matched flow, apply u's side, and ship
  // the flow back (every matched cut edge ships, zero or not, keeping
  // message counts a function of the matching alone).  Local pairs apply
  // both sides at once, exactly like the shared-memory matching loop;
  // every side takes add_flow's per-edge update.
  util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
    for (const std::uint32_t k : rt.remote_out[d]) {
      const graph::Edge& e = edges[k];
      T lv{};
      rt.comm.recv(owner[e.v], d, &lv, 1);
      const double f = flow(k, static_cast<double>(load[e.u]), static_cast<double>(lv));
      rt.comm.send(d, owner[e.v], &f, 1);
      core::add_flow(load[e.u], -f);
    }
    for (const std::uint32_t k : rt.local_pairs[d]) {
      const graph::Edge& e = edges[k];
      const double f = flow(k, static_cast<double>(load[e.u]), static_cast<double>(load[e.v]));
      core::add_flow(load[e.u], -f);
      core::add_flow(load[e.v], f);
    }
  });
  rt.comm.deliver();

  // Phase C: v-side domains apply the received flows.
  util::for_fixed_chunks(pool, K, 1, [&](std::size_t d, std::size_t, std::size_t) {
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
    util::for_fixed_chunks(pool_, shard_.domains, 1, [&](std::size_t d, std::size_t, std::size_t) {
      workload::apply_stream_delta_owned(delta, load, owner,
                                         static_cast<std::uint32_t>(d));
    });
  }

  core::StepStats step(core::Balancer<T>& balancer, core::RoundContext<T>& ctx,
                       std::vector<T>& load, std::size_t round,
                       bool checking) override {
    core::FlowProgram<T>& program = ctx.arena().program();
    program.reset();
    if (!balancer.plan_round(ctx, program)) {
      // Non-distributable round: shared-memory step() inside the sharded
      // run (zero comm; not counted in sharded_rounds).
      return balancer.step(ctx, load);
    }
    LB_ASSERT_MSG(static_cast<bool>(program.flow), "planned round without a flow function");
    const bool matching = program.support == core::FlowProgram<T>::Support::kMatching;
    if (checking) {
      // Round-start loads are what the domains will exchange, so the
      // antisymmetry probe sees exactly the values the protocol uses.
      const graph::TopologyFrame& frame = ctx.frame();
      check::check_flow_antisymmetry(program, frame, load, round);
      snapshot_totals(before_);
      if (matching) {
        expected_ = check::expected_matching_round_comm<T>(
            program.matched, frame.base().edges(), rt_.map.owners(), shard_.domains);
      } else {
        check::expected_all_edges_round_comm<T>(rt_.halo.plans(), frame, expected_);
      }
    }
    // One dispatch on the rule per round; the round's kernel then runs
    // the concrete rule (a caller-written EdgeFn as its std::function).
    const core::StepStats stats = program.flow.visit([&](const auto& rule) {
      return matching ? step_matching(ctx, program, rule, load, rt_, pool_)
                      : step_all_edges(ctx, program, rule, load, rt_, pool_);
    });
    if (checking) {
      snapshot_totals(after_);
      check::check_comm_accounting(expected_, before_, after_, round);
      if (!matching) {
        check::check_cut_flows(rt_.halo.plans(), ctx.frame(), rt_.shares, round);
      }
    }
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
  void snapshot_totals(std::vector<sim::CommTotals>& totals) const {
    totals.resize(shard_.domains);
    for (std::size_t d = 0; d < shard_.domains; ++d) totals[d] = rt_.comm.totals(d);
  }

  const ShardConfig& shard_;
  util::ThreadPool* pool_;
  Runtime<T> rt_;
  std::size_t sharded_rounds_ = 0;
  // Checked rounds' comm accounting, reused round to round.
  std::vector<sim::CommTotals> before_;
  std::vector<sim::CommTotals> after_;
  std::vector<check::RoundCommExpectation> expected_;
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
  // The sequence's copy of `g` shares its CSR, so nothing is rebuilt.
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
