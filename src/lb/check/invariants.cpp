#include "lb/check/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lb::check {

namespace {

// Slack multiplier on the IEEE worst-case drift bound for continuous
// conservation.  The bound itself (ε·scale per paired ±f application) is
// already conservative; the slack absorbs the Σ|ℓ| scale being measured
// once at run start while loads spread during the run.
constexpr double kDriftSlack = 64.0;

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

[[noreturn]] void violated(const std::string& what) {
  throw InvariantViolation(what);
}

}  // namespace

bool env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("LB_CHECK");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

// ---------------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------------

template <class T>
ConservationBaseline<T> conservation_baseline(const std::vector<T>& load) {
  ConservationBaseline<T> b;
  double abs_sum = 0.0;
  for (const T v : load) {
    b.total += v;
    abs_sum += std::fabs(static_cast<double>(v));
  }
  b.abs_scale = std::max(1.0, abs_sum);
  return b;
}

template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where, T net_stream) {
  // Ledgered reference: what the books say the total must be now.
  const T expected = baseline.total + net_stream;
  T total{};
  for (const T v : load) total += v;
  if constexpr (std::is_integral_v<T>) {
    if (total != expected) {
      violated(format("conservation violated (%s): round %zu: total %" PRId64
                      " != ledgered total %" PRId64 " (run-start %" PRId64
                      " + net stream %" PRId64 "; delta %" PRId64
                      "); discrete load must be preserved to 0 ULP",
                      where, round, static_cast<std::int64_t>(total),
                      static_cast<std::int64_t>(expected),
                      static_cast<std::int64_t>(baseline.total),
                      static_cast<std::int64_t>(net_stream),
                      static_cast<std::int64_t>(total - expected)));
    }
  } else {
    const double drift =
        std::fabs(static_cast<double>(total) - static_cast<double>(expected));
    const double eps = std::numeric_limits<double>::epsilon();
    // The stream widens the natural error scale: the load that flowed
    // through the system contributes rounding error of its own order.
    const double scale =
        baseline.abs_scale + std::fabs(static_cast<double>(net_stream));
    const double allowed =
        kDriftSlack * eps * scale *
        (1.0 + static_cast<double>(round) * (static_cast<double>(links) + 1.0));
    if (!(drift <= allowed)) {  // !(<=) also catches NaN totals
      violated(format("conservation violated (%s): round %zu: total %.17g "
                      "drifted %.3g from ledgered total %.17g (run-start "
                      "%.17g + net stream %.17g; allowed %.3g for %zu links)",
                      where, round, static_cast<double>(total), drift,
                      static_cast<double>(expected),
                      static_cast<double>(baseline.total),
                      static_cast<double>(net_stream), allowed, links));
    }
  }
}

template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where) {
  check_conservation(baseline, load, round, links, where, T{});
}

// ---------------------------------------------------------------------------
// FlowProgram antisymmetry
// ---------------------------------------------------------------------------

template <class T>
void check_flow_antisymmetry(const core::FlowProgram<T>& program,
                             const graph::TopologyFrame& frame,
                             const std::vector<T>& load, std::size_t round) {
  if (!program.flow) {
    violated(format("flow antisymmetry: round %zu: planned program has no "
                    "flow function",
                    round));
  }
  const auto& edges = frame.base().edges();
  const auto check_edge = [&](std::size_t k) {
    const graph::Edge& e = edges[k];
    const double lu = static_cast<double>(load[e.u]);
    const double lv = static_cast<double>(load[e.v]);
    const double f = program.flow(k, e, lu, lv);
    const graph::Edge rev{e.v, e.u};
    const double g = program.flow(k, rev, lv, lu);
    if (!(g == -f)) {  // NaN on either side also lands here
      violated(format("flow antisymmetry violated: round %zu edge %zu "
                      "(%u,%u): flow(u,v)=%.17g but flow(v,u)=%.17g "
                      "(expected %.17g)",
                      round, k, e.u, e.v, f, g, -f));
    }
  };
  if (program.support == core::FlowProgram<T>::Support::kMatching) {
    for (const std::uint32_t k : program.matched) check_edge(k);
  } else {
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!frame.alive(k)) continue;
      check_edge(k);
    }
  }
}

// ---------------------------------------------------------------------------
// Halo mirror equality
// ---------------------------------------------------------------------------

namespace {

const shard::HaloLink* find_link(const shard::DomainPlan& plan,
                                 std::uint32_t peer) {
  for (const shard::HaloLink& l : plan.links) {
    if (l.peer == peer) return &l;
  }
  return nullptr;
}

template <class V>
void check_mirrored_list(const std::vector<V>& send, const std::vector<V>& recv,
                         std::size_t a, std::size_t b, const char* kind) {
  if (send.size() != recv.size()) {
    violated(format("halo mirror violated: domains (%zu,%zu): %s count %zu on "
                    "the sending side but %zu on the receiving side",
                    a, b, kind, send.size(), recv.size()));
  }
  for (std::size_t i = 0; i < send.size(); ++i) {
    if (send[i] != recv[i]) {
      violated(format("halo mirror violated: domains (%zu,%zu): %s entry %zu "
                      "is %llu on the sending side but %llu on the receiving "
                      "side",
                      a, b, kind, i,
                      static_cast<unsigned long long>(send[i]),
                      static_cast<unsigned long long>(recv[i])));
    }
  }
}

}  // namespace

void check_halo_mirrors(const std::vector<shard::DomainPlan>& plans) {
  for (std::size_t a = 0; a < plans.size(); ++a) {
    for (const shard::HaloLink& l : plans[a].links) {
      if (l.peer >= plans.size()) {
        violated(format("halo mirror violated: domain %zu links to "
                        "nonexistent peer %u",
                        a, l.peer));
      }
      const shard::HaloLink* m = find_link(plans[l.peer], static_cast<std::uint32_t>(a));
      if (m == nullptr) {
        violated(format("halo mirror violated: domain %zu links to peer %u "
                        "but the peer has no mirror link back",
                        a, l.peer));
      }
      check_mirrored_list(l.send_nodes, m->recv_nodes, a, l.peer, "load-node");
      check_mirrored_list(l.recv_nodes, m->send_nodes, a, l.peer, "load-node");
      check_mirrored_list(l.send_flow_edges, m->recv_flow_edges, a, l.peer,
                          "flow-edge");
      check_mirrored_list(l.recv_flow_edges, m->send_flow_edges, a, l.peer,
                          "flow-edge");
    }
  }
}

void check_halo_mirrors(const shard::HaloExchange& halo) {
  check_halo_mirrors(halo.plans());
}

namespace {

/// The sweep's tables of domain d's plan, rebuilt in one ascending pass
/// over the edges and compared entry by entry: every run, every cut
/// entry's base edge, and every cut edge's place in its link's flow
/// list, with its staging slot and compact-halo index.
void check_sweep_tables(const graph::Graph& base, const std::vector<std::uint32_t>& owner,
                        std::size_t d, const shard::DomainPlan& plan) {
  const auto& edges = base.edges();
  const std::size_t links = plan.links.size();
  // Per link: its first entry in send_slots/send_halo, in recv_slots and
  // in the compact halo, and how many of its flow edges the pass has met.
  std::vector<std::size_t> send_base(links + 1, 0), recv_base(links + 1, 0),
      halo_base(links + 1, 0), sent(links, 0), received(links, 0);
  for (std::size_t l = 0; l < links; ++l) {
    const shard::HaloLink& link = plan.links[l];
    send_base[l + 1] = send_base[l] + link.send_flow_edges.size();
    recv_base[l + 1] = recv_base[l] + link.recv_flow_edges.size();
    halo_base[l + 1] = halo_base[l] + link.recv_nodes.size();
  }
  if (plan.send_slots.size() != send_base[links] || plan.send_halo.size() != send_base[links] ||
      plan.recv_slots.size() != recv_base[links]) {
    violated(format("csr: domain %zu plan: send_slots/send_halo/recv_slots hold "
                    "%zu/%zu/%zu entries but its links list %zu sent and %zu "
                    "received flows",
                    d, plan.send_slots.size(), plan.send_halo.size(),
                    plan.recv_slots.size(), send_base[links], recv_base[links]));
  }
  const auto link_to = [&](std::uint32_t peer, std::size_t k) {
    const shard::HaloLink* link = find_link(plan, peer);
    if (link == nullptr) {
      violated(format("csr: domain %zu plan: cut edge %zu has no link to peer %u", d, k,
                      peer));
    }
    return static_cast<std::size_t>(link - plan.links.data());
  };

  std::size_t runs = 0;       // runs the pass has opened
  std::size_t cuts = 0;       // cut entries the pass has met
  bool in_run = false;        // edge k − 1 is a run edge
  std::size_t run_first = 0;  // the open run's first edge and cut entries before it
  std::size_t run_cuts = 0;
  const auto close_run = [&](std::size_t end) {
    const std::size_t r = runs - 1;
    if (r >= plan.runs.size() || plan.runs[r].first != run_first ||
        plan.runs[r].last != end || plan.runs[r].cuts_before != run_cuts) {
      violated(format("csr: domain %zu plan: sweep run %zu should cover edges [%zu, %zu) "
                      "after %zu cut entries",
                      d, r, run_first, end, run_cuts));
    }
    in_run = false;
  };
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge& e = edges[k];
    const bool own_u = owner[e.u] == d;
    const bool own_v = owner[e.v] == d;
    if (own_u && own_v) {
      if (!in_run) {
        ++runs;
        in_run = true;
        run_first = k;
        run_cuts = cuts;
      }
      continue;
    }
    if (in_run) close_run(k);
    if (!own_u && !own_v) continue;
    if (cuts >= plan.cut_edges.size() || plan.cut_edges[cuts] != k) {
      violated(format("csr: domain %zu plan: sweep cut entry %zu should be edge %zu", d,
                      cuts, k));
    }
    if (own_u) {
      // Shipped: the flow's slot in its link's send list, which names the
      // cut entry and v's place in the compact halo.
      const std::size_t l = link_to(owner[e.v], k);
      const shard::HaloLink& link = plan.links[l];
      const std::size_t i = sent[l]++;
      const auto halo = std::lower_bound(link.recv_nodes.begin(), link.recv_nodes.end(), e.v);
      if (i >= link.send_flow_edges.size() || link.send_flow_edges[i] != k ||
          halo == link.recv_nodes.end() || *halo != e.v ||
          plan.send_slots[send_base[l] + i] != cuts ||
          plan.send_halo[send_base[l] + i] !=
              halo_base[l] + static_cast<std::size_t>(halo - link.recv_nodes.begin())) {
        violated(format("csr: domain %zu plan: cut edge %zu (sweep cut entry %zu) is not "
                        "send entry %zu to peer %u with its staging slot and halo "
                        "index",
                        d, k, cuts, i, link.peer));
      }
    } else {
      const std::size_t l = link_to(owner[e.u], k);
      const shard::HaloLink& link = plan.links[l];
      const std::size_t i = received[l]++;
      if (i >= link.recv_flow_edges.size() || link.recv_flow_edges[i] != k ||
          plan.recv_slots[recv_base[l] + i] != cuts) {
        violated(format("csr: domain %zu plan: cut edge %zu (sweep cut entry %zu) is not "
                        "receive entry %zu from peer %u with its staging slot",
                        d, k, cuts, i, link.peer));
      }
    }
    ++cuts;
  }
  if (in_run) close_run(edges.size());
  if (runs != plan.runs.size() || cuts != plan.cut_edges.size()) {
    violated(format("csr: domain %zu plan: %zu sweep runs and %zu cut entries listed "
                    "but %zu and %zu expected",
                    d, plan.runs.size(), plan.cut_edges.size(), runs, cuts));
  }
  for (std::size_t l = 0; l < links; ++l) {
    if (sent[l] != plan.links[l].send_flow_edges.size() ||
        received[l] != plan.links[l].recv_flow_edges.size()) {
      violated(format("csr: domain %zu plan: the link to peer %u lists flow edges that "
                      "are not its cut edges",
                      d, plan.links[l].peer));
    }
  }
}

}  // namespace

void check_domain_plan(const graph::Graph& base,
                       const std::vector<std::uint32_t>& owner, std::size_t d,
                       const shard::DomainPlan& plan) {
  const auto& edges = base.edges();
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const graph::NodeId u = plan.nodes[i];
    if (u >= base.num_nodes() || owner[u] != d) {
      violated(format("csr: domain %zu plan row %zu: node %u is out of range "
                      "or not owned by the domain",
                      d, i, u));
    }
    if (i > 0 && plan.nodes[i - 1] >= u) {
      violated(format("csr: domain %zu plan: nodes not strictly ascending at "
                      "row %zu",
                      d, i));
    }
  }
  std::size_t expected_owned = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (owner[edges[k].u] != d) continue;
    if (expected_owned >= plan.owned_edges.size() ||
        plan.owned_edges[expected_owned] != k) {
      violated(format("csr: domain %zu plan: owned_edges diverges from the "
                      "ascending owner(e.u)==d sweep at base edge %zu",
                      d, k));
    }
    ++expected_owned;
  }
  if (expected_owned != plan.owned_edges.size()) {
    violated(format("csr: domain %zu plan: %zu owned edges listed but %zu "
                    "expected",
                    d, plan.owned_edges.size(), expected_owned));
  }
  if (plan.row_ptr.size() != plan.nodes.size() + 1 || plan.row_ptr.front() != 0 ||
      plan.row_ptr.back() != plan.edge_idx.size() ||
      plan.sign.size() != plan.edge_idx.size()) {
    violated(format("csr: domain %zu plan: row_ptr/edge_idx/sign shapes are "
                    "inconsistent",
                    d));
  }
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const graph::NodeId u = plan.nodes[i];
    if (plan.row_ptr[i] > plan.row_ptr[i + 1]) {
      violated(format("csr: domain %zu plan: row_ptr not monotone at row %zu",
                      d, i));
    }
    for (std::size_t p = plan.row_ptr[i]; p < plan.row_ptr[i + 1]; ++p) {
      const std::uint32_t k = plan.edge_idx[p];
      if (k >= edges.size()) {
        violated(format("csr: domain %zu plan row %zu: edge id %u out of "
                        "range",
                        d, i, k));
      }
      if (p > plan.row_ptr[i] && plan.edge_idx[p - 1] >= k) {
        violated(format("csr: domain %zu plan row %zu (node %u): incident "
                        "edge ids not strictly ascending at slot %zu",
                        d, i, u, p));
      }
      const graph::Edge& e = edges[k];
      if (e.u != u && e.v != u) {
        violated(format("csr: domain %zu plan row %zu: node %u is not an "
                        "endpoint of edge %u (%u,%u)",
                        d, i, u, k, e.u, e.v));
      }
      const int expected_sign = (e.u == u) ? -1 : 1;
      if (plan.sign[p] != expected_sign) {
        violated(format("csr: domain %zu plan row %zu: orientation sign for "
                        "edge %u (%u,%u) at node %u is %d, expected %d",
                        d, i, k, e.u, e.v, u, static_cast<int>(plan.sign[p]),
                        expected_sign));
      }
    }
  }
  check_sweep_tables(base, owner, d, plan);
}

void check_cut_flows(const std::vector<shard::DomainPlan>& plans,
                     const graph::TopologyFrame& frame, const std::vector<double>& shares,
                     std::size_t round) {
  std::size_t base = 0;  // domain d's first share
  for (std::size_t d = 0; d < plans.size(); ++d) {
    const shard::DomainPlan& plan = plans[d];
    // Each peer's first share, summed on the fly as the links' peers
    // ascend: O(K) per domain, as a round's deliver() is.
    std::size_t peer = 0, peer_base = 0;
    std::size_t r = 0;
    for (const shard::HaloLink& l : plan.links) {
      for (; peer < l.peer; ++peer) peer_base += plans[peer].cut_edges.size();
      // The owner's mirrored link sends l's flows in l's order; its send
      // entries start after those of its links to lower peers.
      const shard::DomainPlan& owner = plans[l.peer];
      std::size_t s = 0;
      for (const shard::HaloLink& m : owner.links) {
        if (m.peer == d) break;
        s += m.send_flow_edges.size();
      }
      for (const std::uint32_t k : l.recv_flow_edges) {
        const double received = shares[base + plan.recv_slots[r++]];
        const double staged = shares[peer_base + owner.send_slots[s++]];
        if (!frame.alive(k)) continue;
        if (std::bit_cast<std::uint64_t>(received) != std::bit_cast<std::uint64_t>(-staged)) {
          violated(format("cut flow violated: round %zu domain %zu edge %u from peer %u: "
                          "received %.17g but the owner staged %.17g",
                          round, d, k, l.peer, received, staged));
        }
      }
    }
    base += plan.cut_edges.size();
  }
}

// ---------------------------------------------------------------------------
// Comm accounting
// ---------------------------------------------------------------------------

template <class T>
void expected_all_edges_round_comm(const std::vector<shard::DomainPlan>& plans,
                                   const graph::TopologyFrame& frame,
                                   std::vector<RoundCommExpectation>& expected) {
  expected.assign(plans.size(), RoundCommExpectation{});
  for (std::size_t d = 0; d < plans.size(); ++d) {
    RoundCommExpectation& e = expected[d];
    for (const shard::HaloLink& l : plans[d].links) {
      // Phase A: one load payload per nonempty recv_nodes link.  Node
      // halos are a function of the topology alone, mask ignored
      // (sharded_engine.cpp phase A).
      if (!l.recv_nodes.empty()) {
        e.messages += 1;
        e.bytes += l.recv_nodes.size() * sizeof(T);
      }
      // Phase B: one flow payload per link with >= 1 alive incoming cut
      // edge; dead edges ship nothing.
      std::size_t alive = 0;
      for (const std::uint32_t k : l.recv_flow_edges) {
        if (frame.alive(k)) ++alive;
      }
      if (alive > 0) {
        e.messages += 1;
        e.bytes += alive * sizeof(double);
      }
    }
  }
}

template <class T>
std::vector<RoundCommExpectation> expected_matching_round_comm(
    std::span<const std::uint32_t> matched,
    const std::vector<graph::Edge>& edges,
    const std::vector<std::uint32_t>& owner, std::size_t domains) {
  std::vector<RoundCommExpectation> expected(domains);
  // Per-superstep nonempty-channel tracking: a channel that carries j
  // values in a superstep still counts as ONE message at the barrier.
  std::vector<std::uint8_t> channel_used(domains * domains, 0);
  const auto mark = [&](std::size_t from, std::size_t to, std::size_t bytes) {
    expected[to].bytes += bytes;
    std::uint8_t& used = channel_used[from * domains + to];
    if (used == 0) {
      used = 1;
      expected[to].messages += 1;
    }
  };
  // Phase A: v-side ships load[e.v] (one T) to owner(e.u) per cut edge.
  for (const std::uint32_t k : matched) {
    const graph::Edge& e = edges[k];
    if (owner[e.u] == owner[e.v]) continue;
    mark(owner[e.v], owner[e.u], sizeof(T));
  }
  std::fill(channel_used.begin(), channel_used.end(), 0);
  // Phase B: owner(e.u) ships the computed flow (one double) back.
  for (const std::uint32_t k : matched) {
    const graph::Edge& e = edges[k];
    if (owner[e.u] == owner[e.v]) continue;
    mark(owner[e.u], owner[e.v], sizeof(double));
  }
  return expected;
}

void check_comm_accounting(const std::vector<RoundCommExpectation>& expected,
                           const std::vector<sim::CommTotals>& before,
                           const std::vector<sim::CommTotals>& after,
                           std::size_t round) {
  for (std::size_t d = 0; d < expected.size(); ++d) {
    const std::uint64_t messages = after[d].messages - before[d].messages;
    const std::uint64_t bytes = after[d].boundary_bytes - before[d].boundary_bytes;
    if (messages != expected[d].messages) {
      violated(format("comm accounting violated: round %zu domain %zu: "
                      "received %" PRIu64 " messages, halo plan expects %" PRIu64,
                      round, d, messages, expected[d].messages));
    }
    if (bytes != expected[d].bytes) {
      violated(format("comm accounting violated: round %zu domain %zu: "
                      "received %" PRIu64 " boundary bytes, halo plan expects "
                      "%" PRIu64,
                      round, d, bytes, expected[d].bytes));
    }
  }
}

// ---------------------------------------------------------------------------
// CSR / EdgeMask well-formedness
// ---------------------------------------------------------------------------

void check_csr_slice(const graph::Graph& base,
                     const util::IndexArray& row_ptr,
                     const std::vector<std::uint32_t>& edge_idx,
                     const std::vector<std::int8_t>& sign) {
  const std::size_t n = base.num_nodes();
  const auto& edges = base.edges();
  if (row_ptr.size() != n + 1 || row_ptr.front() != 0 ||
      row_ptr.back() != edge_idx.size() || sign.size() != edge_idx.size() ||
      edge_idx.size() != 2 * edges.size()) {
    violated(format("csr: ledger shapes inconsistent: %zu nodes, %zu edges, "
                    "row_ptr %zu entries, %zu incident slots, %zu signs",
                    n, edges.size(), row_ptr.size(), edge_idx.size(),
                    sign.size()));
  }
  std::vector<std::uint8_t> seen(edges.size(), 0);
  for (std::size_t u = 0; u < n; ++u) {
    const auto row_begin = static_cast<std::size_t>(row_ptr[u]);
    const auto row_end = static_cast<std::size_t>(row_ptr[u + 1]);
    if (row_begin > row_end) {
      violated(format("csr: ledger row_ptr not monotone at node %zu", u));
    }
    for (std::size_t p = row_begin; p < row_end; ++p) {
      const std::uint32_t k = edge_idx[p];
      if (k >= edges.size()) {
        violated(format("csr: ledger node %zu: edge id %u out of range", u, k));
      }
      if (p > row_begin && edge_idx[p - 1] >= k) {
        violated(format("csr: ledger node %zu: incident edge ids not strictly "
                        "ascending at slot %zu",
                        u, p));
      }
      const graph::Edge& e = edges[k];
      if (e.u != u && e.v != u) {
        violated(format("csr: ledger node %zu is not an endpoint of its "
                        "incident edge %u (%u,%u)",
                        u, k, e.u, e.v));
      }
      const int expected_sign = (e.u == u) ? -1 : 1;
      if (sign[p] != expected_sign) {
        violated(format("csr: ledger node %zu: orientation sign for edge %u "
                        "(%u,%u) is %d, expected %d",
                        u, k, e.u, e.v, static_cast<int>(sign[p]), expected_sign));
      }
      ++seen[k];
    }
  }
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (seen[k] != 2) {
      violated(format("csr: ledger edge %zu (%u,%u) appears %u times across "
                      "node rows, expected exactly 2",
                      k, edges[k].u, edges[k].v, seen[k]));
    }
  }
}

void check_ledger(const core::FlowLedger& ledger, const graph::Graph& base) {
  if (!ledger.valid_for(base)) {
    violated(format("csr: ledger checked against a graph it was not built "
                    "for (ledger %zu nodes / %zu edges, graph %zu / %zu)",
                    ledger.num_nodes(), ledger.num_edges(), base.num_nodes(),
                    base.num_edges()));
  }
  check_csr_slice(base, ledger.row_ptr(), ledger.edge_indices(), ledger.signs());
}

namespace {

/// The mask check's core, over accessors so neither overload copies the
/// mask: the alive-edge count, then each node's alive degree recounted
/// from its sorted neighbour list.  A node's edges to higher neighbours
/// are the next block of the ascending edge list, in neighbour order; an
/// edge to a lower neighbour sits in that neighbour's block and is looked
/// up.  Allocates nothing, so a checked run's mask commits stay off the
/// heap.
template <class AliveFn, class DegreeFn>
void check_mask_counts(const graph::Graph& base, const AliveFn& alive,
                       std::size_t claimed_alive_edges, const DegreeFn& claimed_degree,
                       std::size_t claimed_max, std::size_t claimed_min) {
  const auto& edges = base.edges();
  std::size_t alive_edges = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) alive_edges += alive(k) ? 1 : 0;
  if (alive_edges != claimed_alive_edges) {
    violated(format("edge mask inconsistent: bitmap has %zu alive edges but "
                    "the mask claims %zu",
                    alive_edges, claimed_alive_edges));
  }
  std::size_t max_deg = 0;
  std::size_t min_deg = 0;
  std::size_t up = 0;  // the first edge whose lower endpoint is u
  for (std::size_t u = 0; u < base.num_nodes(); ++u) {
    const auto node = static_cast<graph::NodeId>(u);
    std::size_t degree = 0;
    for (const graph::NodeId w : base.neighbors(node)) {
      const std::size_t k = w < node ? base.edge_index(w, node) : up++;
      degree += alive(k) ? 1 : 0;
    }
    if (degree != claimed_degree(u)) {
      violated(format("edge mask inconsistent: node %zu alive-degree is %zu "
                      "by recount but the mask claims %zu",
                      u, degree, claimed_degree(u)));
    }
    max_deg = std::max(max_deg, degree);
    min_deg = u == 0 ? degree : std::min(min_deg, degree);
  }
  if (max_deg != claimed_max || min_deg != claimed_min) {
    violated(format("edge mask inconsistent: recounted degree range [%zu,%zu] "
                    "but the mask claims [%zu,%zu]",
                    min_deg, max_deg, claimed_min, claimed_max));
  }
}

}  // namespace

void check_mask_arrays(const graph::Graph& base,
                       const std::vector<std::uint8_t>& alive,
                       std::size_t claimed_alive_edges,
                       const std::vector<std::uint32_t>& claimed_degrees,
                       std::size_t claimed_max, std::size_t claimed_min) {
  if (alive.size() != base.num_edges() || claimed_degrees.size() != base.num_nodes()) {
    violated(format("edge mask inconsistent: %zu alive bits for %zu base "
                    "edges, %zu degrees for %zu nodes",
                    alive.size(), base.num_edges(), claimed_degrees.size(),
                    base.num_nodes()));
  }
  check_mask_counts(
      base, [&](std::size_t k) { return alive[k] != 0; }, claimed_alive_edges,
      [&](std::size_t u) { return std::size_t{claimed_degrees[u]}; }, claimed_max,
      claimed_min);
}

void check_mask(const graph::EdgeMask& mask) {
  check_mask_counts(
      mask.base(), [&](std::size_t k) { return mask.alive(k); }, mask.alive_edges(),
      [&](std::size_t u) { return mask.alive_degree(static_cast<graph::NodeId>(u)); },
      mask.max_alive_degree(), mask.min_alive_degree());
}

// ---------------------------------------------------------------------------
// Torus shape
// ---------------------------------------------------------------------------

void check_torus_shape(const graph::Graph& g, std::size_t rows, std::size_t cols) {
  const std::size_t n = g.num_nodes();
  if (rows < 3 || cols < 3 || rows * cols != n) {
    violated(format("torus shape: %zu x %zu does not fit a simple torus of %zu nodes", rows,
                    cols, n));
  }
  const auto& edges = g.edges();
  std::size_t k = 0;  // the next edge of the closed-form emission
  const auto emit = [&](std::size_t u, std::size_t v) {
    if (k >= edges.size() || edges[k].u != u || edges[k].v != v) {
      violated(format("torus shape: %zu x %zu: edge %zu is not the closed-form (%zu,%zu)",
                      rows, cols, k, u, v));
    }
    ++k;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t u = r * cols + c;
      const std::size_t left = c > 0 ? u - 1 : u + cols - 1;
      const std::size_t right = c + 1 < cols ? u + 1 : u + 1 - cols;
      const std::size_t up = r > 0 ? u - cols : u + (rows - 1) * cols;
      const std::size_t down = r + 1 < rows ? u + cols : u - (rows - 1) * cols;
      std::size_t expected[4] = {left, right, up, down};
      std::sort(expected, expected + 4);
      const auto row = g.neighbors(static_cast<graph::NodeId>(u));
      if (row.size() != 4 || !std::equal(row.begin(), row.end(), expected)) {
        violated(format("torus shape: %zu x %zu: node %zu's neighbours are not its "
                        "closed-form {%zu, %zu, %zu, %zu}",
                        rows, cols, u, expected[0], expected[1], expected[2], expected[3]));
      }
      if (c + 1 < cols) emit(u, u + 1);
      if (c == 0) emit(u, u + cols - 1);
      if (r + 1 < rows) emit(u, u + cols);
      if (r == 0) emit(u, u + (rows - 1) * cols);
    }
  }
  if (k != edges.size()) {
    violated(format("torus shape: %zu x %zu emits %zu edges, the graph has %zu", rows, cols,
                    k, edges.size()));
  }
}

// ---------------------------------------------------------------------------

#define LB_INSTANTIATE(T)                                                      \
  template ConservationBaseline<T> conservation_baseline<T>(                   \
      const std::vector<T>&);                                                  \
  template void check_conservation<T>(const ConservationBaseline<T>&,          \
                                      const std::vector<T>&, std::size_t,      \
                                      std::size_t, const char*);               \
  template void check_conservation<T>(const ConservationBaseline<T>&,          \
                                      const std::vector<T>&, std::size_t,      \
                                      std::size_t, const char*, T);            \
  template void check_flow_antisymmetry<T>(const core::FlowProgram<T>&,        \
                                           const graph::TopologyFrame&,        \
                                           const std::vector<T>&, std::size_t); \
  template void expected_all_edges_round_comm<T>(                              \
      const std::vector<shard::DomainPlan>&, const graph::TopologyFrame&,      \
      std::vector<RoundCommExpectation>&);                                     \
  template std::vector<RoundCommExpectation> expected_matching_round_comm<T>(  \
      std::span<const std::uint32_t>, const std::vector<graph::Edge>&,         \
      const std::vector<std::uint32_t>&, std::size_t);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::check
