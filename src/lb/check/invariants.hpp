// Runtime invariant layer: the determinism/conservation contract of
// DESIGN.md §§2–7 as executable checks instead of prose.
//
// Every check here is a *redundant* recomputation of something the
// engine already believes — total load, halo mirror tables, CSR
// well-formedness, modeled message accounting — from first principles,
// so a silent bug in the fast paths (a dropped flow message, a flipped
// orientation sign, a stale alive-degree) trips a named diagnostic
// instead of corrupting results.  Checks are gated: the engines run them
// only when EngineConfig::check_invariants is set or the LB_CHECK
// environment variable is truthy, so release-path cost is one branch per
// round.
//
// Violations throw InvariantViolation with a message that names the
// invariant and the (round, edge, domain) coordinates of the failure —
// the mutation tests in tests/test_check.cpp assert on those names, so
// the checker itself is pinned against becoming a no-op (DESIGN.md §8).
//
// Layering: lb::check sits above core/graph/shard/sim and is called
// *from* the engines; nothing below includes it.  The low-level
// overloads that take raw arrays (check_csr_slice, check_mask_arrays,
// check_halo_mirrors on a plan vector) exist so the mutation tests can
// seed violations that the public APIs of the checked classes make
// unrepresentable.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/shard/halo.hpp"
#include "lb/sim/comm.hpp"

namespace lb::check {

/// Thrown by every check below on a contract violation.  The what()
/// string always begins with the invariant's name ("conservation",
/// "flow antisymmetry", "halo mirror", "cut flow", "comm accounting",
/// "csr", "edge mask", "torus shape") followed by round/edge/domain
/// coordinates.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// True when the LB_CHECK environment variable is set to anything but
/// "" or "0".  Read once per process; the engines OR this with
/// EngineConfig::check_invariants.
bool env_enabled();

// ---------------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------------

/// Run-start reference for the conservation check.  For Tokens the total
/// is exact and must be preserved to 0 ULP; for Real the reference also
/// carries Σ|ℓ_i| (the natural scale of per-round rounding error) so the
/// allowed drift can be stated in ULPs of the data rather than as an
/// arbitrary epsilon.
template <class T>
struct ConservationBaseline {
  T total{};               ///< left-to-right sequential sum
  double abs_scale = 1.0;  ///< max(1, Σ|ℓ_i|) at run start
};

template <class T>
ConservationBaseline<T> conservation_baseline(const std::vector<T>& load);

/// Verify total load is preserved after round `round`.  Discrete: the
/// int64 totals must be equal (0 ULP).  Continuous: each of the round's
/// ≤ `links` paired ±f applications contributes at most one rounding
/// error of order ε·scale, so the accumulated drift after R rounds is
/// bounded by kDriftSlack·ε·scale·(1 + R·(links+1)) — generous against
/// IEEE rounding, still ~10 orders of magnitude below one lost token.
template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where);

/// Ledgered conservation for open-system runs (DESIGN.md §11): the
/// balancer still conserves, but the stream moved the books, so the
/// invariant is post_total == pre_total + arrivals − departures.
/// `net_stream` is the cumulative APPLIED net (Σ arrivals − Σ applied
/// departures, from workload::tally_stream_delta) since the baseline was
/// taken.  Discrete stays 0 ULP; continuous widens the scale by |net| so
/// the drift bound tracks the load actually flowing through the system.
/// The closed-system check above is exactly this with net_stream == 0.
template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where, T net_stream);

// ---------------------------------------------------------------------------
// FlowProgram antisymmetry
// ---------------------------------------------------------------------------

/// Verify the program's flow function is orientation-antisymmetric on the
/// current load: for every in-support edge k = (u, v),
///   flow(k, {v, u}, ℓ_v, ℓ_u) == -flow(k, {u, v}, ℓ_u, ℓ_v)
/// bit for bit.  This is the property that makes "owner of e.u computes
/// the flow" a *convention* rather than a result-changing choice — a
/// flow function that secretly depends on endpoint order would produce
/// different trajectories under a different ownership map.  kAllEdges
/// programs are checked over every alive edge, kMatching programs over
/// the matched list.  Flows must be pure (flow_program.hpp), so the
/// extra evaluations cannot disturb the round.
template <class T>
void check_flow_antisymmetry(const core::FlowProgram<T>& program,
                             const graph::TopologyFrame& frame,
                             const std::vector<T>& load, std::size_t round);

// ---------------------------------------------------------------------------
// Halo mirror equality
// ---------------------------------------------------------------------------

/// Verify every link's send lists equal the peer's corresponding recv
/// lists entry for entry (and vice versa): the property that lets the
/// comm channels run as FIFOs with no per-message framing.  The vector
/// overload is the mutation-testable core; the HaloExchange overload
/// checks a live exchange.
void check_halo_mirrors(const std::vector<shard::DomainPlan>& plans);
void check_halo_mirrors(const shard::HaloExchange& halo);

/// Verify one domain plan against the base graph and ownership vector:
/// nodes ascending and owned by `d`; owned_edges exactly the ascending
/// base edges with owner(e.u) == d; the CSR slice well-formed (row_ptr
/// monotone and sized, incident edge ids ascending per row, each row's
/// node an endpoint of every listed edge, sign −1 exactly when the node
/// is the edge's u); and the sweep's tables equal to the ones an
/// ascending pass over the edges rebuilds — every run with its
/// cuts_before, every cut entry's base edge, and every cut edge at its
/// place in its link's flow list with its send_slots/send_halo or
/// recv_slots entry.
void check_domain_plan(const graph::Graph& base,
                       const std::vector<std::uint32_t>& owner, std::size_t d,
                       const shard::DomainPlan& plan);

/// Verify that every alive cut edge's share, as the v-side domain received
/// and staged it, is bit for bit the negation of the share its owner
/// staged (−f) after an all-edges sharded round — so a flow unpacked into
/// the wrong entry, or staged in the wrong sent slot, fails even when the
/// byte counts agree.  `shares` holds every domain's staged cut shares,
/// domain by domain in domain order, DomainPlan::cut_edges.size()
/// entries each; a sent share sits at its entry's send_slots index, a
/// received one at its recv_slots index.  The plans' links must mirror
/// (check_halo_mirrors).  Allocates nothing.
void check_cut_flows(const std::vector<shard::DomainPlan>& plans,
                     const graph::TopologyFrame& frame, const std::vector<double>& shares,
                     std::size_t round);

// ---------------------------------------------------------------------------
// Comm accounting
// ---------------------------------------------------------------------------

/// Expected modeled traffic INTO one domain over one round.
struct RoundCommExpectation {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Expectation for one kAllEdges halo round, derived from the plans and
/// the frame's alive mask alone: phase A delivers one load payload per
/// nonempty recv_nodes link (sizeof(T) per node), phase B one flow
/// payload per link with ≥ 1 alive recv_flow_edge (sizeof(double) per
/// alive edge).  Written into `expected` (one entry per domain), so a
/// checked round reuses the caller's buffer.
template <class T>
void expected_all_edges_round_comm(const std::vector<shard::DomainPlan>& plans,
                                   const graph::TopologyFrame& frame,
                                   std::vector<RoundCommExpectation>& expected);

/// Expectation for one kMatching round: phase A ships one T per matched
/// cut edge v-side → u-side, phase B one double back per such edge;
/// messages count nonempty (sender, receiver) channels per superstep.
template <class T>
std::vector<RoundCommExpectation> expected_matching_round_comm(
    std::span<const std::uint32_t> matched,
    const std::vector<graph::Edge>& edges,
    const std::vector<std::uint32_t>& owner, std::size_t domains);

/// Verify the comm engine's per-domain totals moved by exactly the
/// expected amount across the round: a dropped, duplicated or truncated
/// halo message shows up as a message-count or byte-count mismatch here.
void check_comm_accounting(const std::vector<RoundCommExpectation>& expected,
                           const std::vector<sim::CommTotals>& before,
                           const std::vector<sim::CommTotals>& after,
                           std::size_t round);

// ---------------------------------------------------------------------------
// CSR / EdgeMask well-formedness
// ---------------------------------------------------------------------------

/// Verify a FlowLedger-layout CSR over ALL of `base`'s nodes: row_ptr
/// monotone with the right endpoints, incident edge ids in range and
/// ascending per row, each row's node an endpoint with sign −1 exactly
/// when it is the edge's u, and every base edge appearing exactly twice
/// (once per endpoint).
void check_csr_slice(const graph::Graph& base,
                     const util::IndexArray& row_ptr,
                     const std::vector<std::uint32_t>& edge_idx,
                     const std::vector<std::int8_t>& sign);

/// Verify a live ledger (must be valid_for(base)).
void check_ledger(const core::FlowLedger& ledger, const graph::Graph& base);

/// Verify claimed mask summaries against a recount of the alive bitmap:
/// per-node alive-degrees, the alive-edge count, and the max/min
/// alive-degree.  The arrays overload is the mutation-testable form; both
/// run one recount, which allocates nothing.
void check_mask_arrays(const graph::Graph& base,
                       const std::vector<std::uint8_t>& alive,
                       std::size_t claimed_alive_edges,
                       const std::vector<std::uint32_t>& claimed_degrees,
                       std::size_t claimed_max, std::size_t claimed_min);

/// Verify a live mask after a commit (wired into the engines on every
/// mask-revision change), reading it in place: a checked churn run
/// allocates nothing per round for it.
void check_mask(const graph::EdgeMask& mask);

// ---------------------------------------------------------------------------
// Torus shape
// ---------------------------------------------------------------------------

/// Verify that `g` is the rows × cols torus the stencil round
/// (DESIGN.md §9.6) takes it for, in O(m): every node's closed-form
/// neighbours — left, right, up and down with wrap-around, sorted —
/// equal its CSR row, and the closed-form edge emission (each node's
/// right, wrap-right, down and wrap-down edge) equals g.edges() entry for
/// entry.  The engines call it once per base epoch on a base that
/// carries a TorusShape.
void check_torus_shape(const graph::Graph& g, std::size_t rows, std::size_t cols);

}  // namespace lb::check
