// E17: million-node substrate — µs/round and bytes/node along the
// n = 2^16 .. 2^21 trajectory (DESIGN.md §9).
//
// Every (n, balancer) cell runs a torus2d and its shape-less twin (the
// same edge list built through subgraph_with_edges, so no TorusShape).
// The torus's rounds take the torus stencil (DESIGN.md §9.6), the twin's
// the CSR blocked round.  The oracle is the twin as one block (block
// width 0 via the programmatic override — the "flat" leg); against it
// run the torus at pool 1 (the "blocked" leg), pool 2 and pool hw, the
// twin at its default width (the "csr" leg), and, untimed, both graphs
// invariant-checked (LB_CHECK-equivalent) and the twin at pool hw, so
// the CSR round's multi-worker bits stay gated at every n.  The bench
// *verifies* bit-identity — rounds, per-round Φ trace, final loads —
// before reporting any cost column, and exits nonzero on divergence, so
// it doubles as the scale determinism gate for CI (--quick keeps that
// gate cheap).
//
// Two substrate metrics ride along:
//   bytes/node  — measured resident topology bytes (Graph + a FlowLedger
//                 CSR) against the analytic legacy layout (8-byte offsets
//                 and row pointers, 8-byte signs), proving the compact
//                 uint32/int8 storage actually shrank the working set;
//   allocs/round — a global operator-new counting hook runs the blocked
//                 and csr pool-1 legs at R and 2R rounds; the difference
//                 divided by the extra rounds is the steady-state
//                 allocation rate (the larger of the two), which must be
//                 zero (the RunArena audit).  Nonzero fails the bench.
//
// µs/round is a whole run's wall time over its rounds, so it includes the
// per-run setup a fresh balancer and arena pay in round 1 (the CSR round's
// plan, first-touch of the arena's buffers).  The setup_ms column shows
// that share: the blocked pool-1 leg's round-1 step time minus the median
// step time of rounds 2..R.
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/stats.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/initial.hpp"

namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// Replaceable global allocation functions: count while the audit flag is
// up, delegate to malloc/free otherwise.  Only the pool-1 blocked and csr
// legs are audited (parallel_for legs allocate std::function state by
// design).
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Blocked-path overrides are process-global; scope them so an early
/// return can never leak a disabled width into a later leg.
struct WidthOverride {
  explicit WidthOverride(long long w) { lb::core::set_blocked_width_override(w); }
  ~WidthOverride() { lb::core::set_blocked_width_override(-1); }
};

/// Number of mismatched deterministic fields between two runs (0 =
/// bit-identical; wall-clock fields excluded by design).
template <class T>
std::size_t count_divergence(const lb::core::RunResult& oracle,
                             const lb::core::RunResult& run,
                             const std::vector<T>& oracle_load,
                             const std::vector<T>& run_load) {
  std::size_t bad = 0;
  if (oracle.rounds != run.rounds) ++bad;
  if (oracle.final_potential != run.final_potential) ++bad;
  if (oracle.final_discrepancy != run.final_discrepancy) ++bad;
  const auto& a = oracle.trace.records();
  const auto& b = run.trace.records();
  if (a.size() != b.size()) {
    ++bad;
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].potential != b[i].potential ||
          a[i].transferred != b[i].transferred) {
        ++bad;
        break;
      }
    }
  }
  if (oracle_load != run_load) ++bad;
  return bad;
}

/// Analytic bytes of the pre-§9 layout: 8-byte offsets/row pointers,
/// 8-byte signs, no second edge index.  The measured column must beat it.
double legacy_bytes_per_node(std::size_t n, std::size_t m) {
  const double graph_bytes = 8.0 * static_cast<double>(n + 1)   // offsets
                             + 4.0 * 2.0 * static_cast<double>(m)  // adjacency
                             + 8.0 * static_cast<double>(m);       // edges
  const double ledger_bytes = 8.0 * static_cast<double>(n + 1)     // row_ptr
                              + 4.0 * 2.0 * static_cast<double>(m)  // edge_idx
                              + 8.0 * 2.0 * static_cast<double>(m); // signs
  return (graph_bytes + ledger_bytes) / static_cast<double>(n);
}

struct CellResult {
  std::size_t n = 0;
  std::size_t edges = 0;
  std::string balancer;
  double us_flat = 0.0;
  double us_blocked = 0.0;
  double us_csr = 0.0;
  double us_pool2 = 0.0;
  double us_poolhw = 0.0;
  double bytes_per_node = 0.0;
  double legacy_bytes = 0.0;
  double allocs_per_round = 0.0;
  double setup_ms = 0.0;  // blocked pool-1 leg, best of reps
  std::size_t divergence = 0;
  lb::core::RunResult flat_run;     // kept for the ablation traces
  lb::core::RunResult blocked_run;
};

template <class T>
using MakeBalancer = std::function<std::unique_ptr<lb::core::Balancer<T>>()>;

/// Per-run setup paid inside round 1, in ms: round 1's step time minus the
/// median step time of rounds 2..R (0 when the run has no second round).
double setup_ms(const lb::core::RunResult& run) {
  const auto& records = run.trace.records();
  if (records.size() < 2) return 0.0;
  std::vector<double> steady;
  for (std::size_t i = 1; i < records.size(); ++i) steady.push_back(records[i].step_us);
  return (records[0].step_us - lb::util::quantile(std::move(steady), 0.5)) * 1e-3;
}

template <class T>
CellResult run_cell(const lb::graph::Graph& g, const lb::graph::Graph& twin,
                    const std::string& name, const MakeBalancer<T>& make,
                    const std::vector<T>& load0, std::size_t rounds, std::uint64_t seed,
                    bool audit_allocs, std::size_t reps) {
  CellResult cell;
  cell.n = g.num_nodes();
  cell.edges = g.num_edges();
  cell.balancer = name;

  {
    lb::core::FlowLedger ledger;
    ledger.rebuild(g);
    cell.bytes_per_node =
        static_cast<double>(g.memory_bytes() + ledger.memory_bytes()) /
        static_cast<double>(g.num_nodes());
  }
  cell.legacy_bytes = legacy_bytes_per_node(g.num_nodes(), g.num_edges());

  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  cfg.seed = seed;

  // One timed run on `graph`; the caller owns best-of selection.
  auto timed = [&](const lb::graph::Graph& graph, lb::util::ThreadPool& pool, bool checked,
                   double& best_s, std::vector<T>& load_out) {
    cfg.pool = &pool;
    cfg.check_invariants = checked;
    auto alg = make();
    load_out = load0;
    const lb::util::Stopwatch watch;
    lb::core::RunResult run = lb::core::run_static(*alg, graph, load_out, cfg);
    const double wall = watch.elapsed_seconds();
    if (best_s <= 0.0 || wall < best_s) best_s = wall;
    cfg.check_invariants = false;
    return run;
  };

  // Best-of-`reps`, with the legs INTERLEAVED inside each repetition:
  // every repetition is bit-identical (that is the whole determinism
  // contract), so the minimum wall time per leg is the cleanest estimate
  // of its kernel cost — it sheds first-touch page faults and scheduler
  // noise — and interleaving means slow machine phases (throttling,
  // noisy neighbours on a shared core) hit every leg alike instead of
  // biasing whichever leg happens to run later.
  double flat_s = 0.0, blocked_s = 0.0, csr_s = 0.0, pool2_s = 0.0, poolhw_s = 0.0;
  std::vector<T> flat_load;
  double ignored = 0.0;
  // A leg's run against the oracle, on the repetition that gates.
  const auto gate = [&](bool last, const lb::core::RunResult& run, const std::vector<T>& load) {
    if (last) cell.divergence += count_divergence(cell.flat_run, run, flat_load, load);
  };
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const bool last = rep + 1 == reps;
    {
      // Single-block CSR oracle, sequential.
      WidthOverride flat(0);
      lb::util::ThreadPool pool(1);
      cell.flat_run = timed(twin, pool, false, flat_s, flat_load);
    }
    {
      // Blocked leg: the torus's single-worker round, the stencil.
      lb::util::ThreadPool pool(1);
      std::vector<T> load;
      cell.blocked_run = timed(g, pool, false, blocked_s, load);
      const double setup = setup_ms(cell.blocked_run);
      cell.setup_ms = rep == 0 ? setup : std::min(cell.setup_ms, setup);
      gate(last, cell.blocked_run, load);
    }
    {
      // CSR leg: the twin at the default block width.
      lb::util::ThreadPool pool(1);
      std::vector<T> load;
      gate(last, timed(twin, pool, false, csr_s, load), load);
    }
    {
      lb::util::ThreadPool pool(2);
      std::vector<T> load;
      gate(last, timed(g, pool, false, pool2_s, load), load);
    }
    {
      lb::util::ThreadPool pool(0);  // hardware concurrency
      std::vector<T> load;
      gate(last, timed(g, pool, false, poolhw_s, load), load);
    }
    if (last) {
      // Untimed, so one repetition suffices for the identity gate: both
      // rounds invariant-checked (same as LB_CHECK=1 in the environment),
      // and the CSR round on every hardware worker.
      for (const lb::graph::Graph* graph : {&g, &twin}) {
        lb::util::ThreadPool pool(1);
        std::vector<T> checked_load;
        gate(last, timed(*graph, pool, true, ignored, checked_load), checked_load);
      }
      lb::util::ThreadPool pool(0);
      std::vector<T> load;
      gate(last, timed(twin, pool, false, ignored, load), load);
    }
  }
  const double denom =
      cell.flat_run.rounds > 0 ? static_cast<double>(cell.flat_run.rounds) : 1.0;
  cell.us_flat = flat_s * 1e6 / denom;
  cell.us_blocked = blocked_s * 1e6 / denom;
  cell.us_csr = csr_s * 1e6 / denom;
  cell.us_pool2 = pool2_s * 1e6 / denom;
  cell.us_poolhw = poolhw_s * 1e6 / denom;

  if (audit_allocs) {
    // Steady-state allocation rate of the pool-1 blocked and csr legs:
    // run at R and at 2R rounds with the counting hook armed; identical
    // setup cancels and the difference is pure per-round allocation.
    lb::util::ThreadPool pool(1);
    cfg.pool = &pool;
    auto measure = [&](const lb::graph::Graph& graph, std::size_t r) {
      cfg.max_rounds = r;
      auto alg = make();
      std::vector<T> load = load0;
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      lb::core::RunResult run = lb::core::run_static(*alg, graph, load, cfg);
      g_count_allocs.store(false, std::memory_order_relaxed);
      return std::pair<long long, std::size_t>(
          g_alloc_count.load(std::memory_order_relaxed), run.rounds);
    };
    for (const lb::graph::Graph* graph : {&g, &twin}) {
      const auto [a1, r1] = measure(*graph, rounds);
      const auto [a2, r2] = measure(*graph, 2 * rounds);
      const double rate =
          r2 > r1 ? static_cast<double>(a2 - a1) / static_cast<double>(r2 - r1) : 0.0;
      cell.allocs_per_round = std::max(cell.allocs_per_round, rate);
    }
    cfg.max_rounds = rounds;
  }
  return cell;
}

void write_json(const std::string& path, std::size_t rounds,
                const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\", \"rounds\": %zu,\n"
                  "  \"cells\": [\n", rounds);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        f,
        "    {\"n\": %zu, \"edges\": %zu, \"balancer\": \"%s\", "
        "\"us_per_round_flat\": %.3f, \"us_per_round_blocked\": %.3f, "
        "\"us_per_round_csr\": %.3f, "
        "\"us_per_round_pool2\": %.3f, \"us_per_round_poolhw\": %.3f, "
        "\"setup_ms\": %.3f, "
        "\"bytes_per_node\": %.2f, \"legacy_bytes_per_node\": %.2f, "
        "\"allocs_per_round\": %.3f, \"identical\": %d}%s\n",
        c.n, c.edges, c.balancer.c_str(), c.us_flat, c.us_blocked, c.us_csr, c.us_pool2,
        c.us_poolhw, c.setup_ms, c.bytes_per_node, c.legacy_bytes, c.allocs_per_round,
        c.divergence == 0 ? 1 : 0, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void write_trace_csv(const std::string& path, const lb::core::RunResult& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string csv = run.trace.to_csv();
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
}

/// 2^ceil(k/2) x 2^floor(k/2) torus: the square-ish power-of-two slice
/// the whole trajectory uses, so n is exactly 2^k at every point.
lb::graph::Graph make_scale_torus(std::size_t log2_n) {
  const std::size_t a = std::size_t{1} << ((log2_n + 1) / 2);
  const std::size_t b = std::size_t{1} << (log2_n / 2);
  return lb::graph::make_torus2d(a, b);
}

}  // namespace

int main(int argc, char** argv) {
  lb::util::Options opts(
      "E17: million-node substrate — torus stencil vs CSR µs/round, bytes/node, "
      "and the zero-allocation steady state, bit-identity enforced");
  opts.add_int("log2-min", 16, "smallest n as a power of two")
      .add_int("log2-max", 21, "largest n as a power of two")
      .add_int("rounds", 24, "rounds per leg")
      .add_int("reps", 3, "repetitions per leg; best (min) time is kept")
      .add_int("seed", 42, "engine RNG seed")
      .add_flag("quick", "CI smoke: n = 2^12..2^13, 10 rounds")
      .add_flag("csv", "emit CSV instead of a table")
      .add_string("json", "", "write machine-readable summary JSON here")
      .add_string("ablation-dir", "",
                  "write ablation_scale_{blocked,flat}.csv trace pair here");
  opts.parse(argc, argv);

  const bool quick = opts.get_flag("quick");
  const std::size_t log2_min =
      quick ? 12 : static_cast<std::size_t>(opts.get_int("log2-min"));
  const std::size_t log2_max =
      quick ? 13 : static_cast<std::size_t>(opts.get_int("log2-max"));
  const std::size_t rounds =
      quick ? 10 : static_cast<std::size_t>(opts.get_int("rounds"));
  const std::size_t reps =
      quick ? 1
            : std::max<std::size_t>(
                  1, static_cast<std::size_t>(opts.get_int("reps")));
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const bool csv = opts.get_flag("csv");

  if (!csv) {
    lb::bench::banner(
        "E17: million-node substrate",
        "torus stencil and CSR blocked rounds along n = 2^k; every leg "
        "bit-identical to the flat CSR oracle or the bench fails",
        seed);
  }

  std::vector<CellResult> cells;
  std::size_t divergent = 0;
  double worst_alloc_rate = 0.0;
  for (std::size_t k = log2_min; k <= log2_max; ++k) {
    const lb::graph::Graph g = make_scale_torus(k);
    const lb::graph::Graph twin = lb::graph::subgraph_with_edges(g, g.edges(), "twin");
    const std::size_t n = g.num_nodes();

    lb::util::Rng wrng(seed + k);
    const auto cont0 = lb::workload::bimodal<double>(
        n, 1000.0 * static_cast<double>(n), wrng);
    const auto disc0 = lb::workload::uniform_random<std::int64_t>(
        n, static_cast<std::int64_t>(1000 * n), wrng);

    const MakeBalancer<double> diffusion_cont = [] {
      return lb::core::make_diffusion_continuous();
    };
    const MakeBalancer<double> fos = [] { return lb::core::make_fos_continuous(); };
    const MakeBalancer<double> sos = [] { return lb::core::make_sos(1.5); };
    const MakeBalancer<std::int64_t> diffusion_disc = [] {
      return lb::core::make_diffusion_discrete();
    };

    const std::size_t first = cells.size();
    cells.push_back(run_cell<double>(g, twin, "diffusion-cont", diffusion_cont, cont0, rounds,
                                     seed, /*audit=*/true, reps));
    cells.push_back(run_cell<double>(g, twin, "fos", fos, cont0, rounds, seed,
                                     /*audit=*/false, reps));
    cells.push_back(run_cell<double>(g, twin, "sos", sos, cont0, rounds, seed,
                                     /*audit=*/false, reps));
    cells.push_back(run_cell<std::int64_t>(g, twin, "diffusion-disc", diffusion_disc, disc0,
                                           rounds, seed, /*audit=*/true, reps));
    for (std::size_t i = first; i < cells.size(); ++i) {
      divergent += cells[i].divergence;
      if (cells[i].allocs_per_round > worst_alloc_rate) {
        worst_alloc_rate = cells[i].allocs_per_round;
      }
      if (cells[i].divergence != 0) {
        std::fprintf(stderr,
                     "DIVERGENCE: n=%zu %s differs from the flat oracle "
                     "(%zu mismatched fields)\n",
                     cells[i].n, cells[i].balancer.c_str(),
                     cells[i].divergence);
      }
    }
  }

  lb::util::Table table({"n", "balancer", "us/rd flat", "us/rd blocked", "us/rd csr",
                         "us/rd pool2", "us/rd poolhw", "setup ms", "B/node",
                         "B/node legacy", "allocs/rd", "identical"});
  for (const CellResult& c : cells) {
    table.row()
        .add(static_cast<std::int64_t>(c.n))
        .add(c.balancer)
        .add(c.us_flat, 3)
        .add(c.us_blocked, 3)
        .add(c.us_csr, 3)
        .add(c.us_pool2, 3)
        .add(c.us_poolhw, 3)
        .add(c.setup_ms, 3)
        .add(c.bytes_per_node, 2)
        .add(c.legacy_bytes, 2)
        .add(c.allocs_per_round, 3)
        .add(c.divergence == 0 ? 1 : 0);
  }
  lb::bench::emit(table,
                  "scale trajectory (torus stencil and CSR legs vs the flat CSR oracle)",
                  csv);

  if (!opts.get_string("json").empty()) {
    write_json(opts.get_string("json"), rounds, cells);
  }
  if (!opts.get_string("ablation-dir").empty()) {
    // Trace pair from the largest diffusion-cont cell: blocked (the
    // stencil) vs flat (the single-block CSR oracle).
    for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
      if (it->balancer == "diffusion-cont") {
        const std::string dir = opts.get_string("ablation-dir");
        write_trace_csv(dir + "/ablation_scale_blocked.csv", it->blocked_run);
        write_trace_csv(dir + "/ablation_scale_flat.csv", it->flat_run);
        break;
      }
    }
  }

  bool failed = false;
  if (divergent != 0) {
    std::fprintf(stderr, "bench_scale: FAILED — stencil/csr/parallel/checked legs "
                         "diverged from the flat oracle\n");
    failed = true;
  }
  if (worst_alloc_rate > 0.0) {
    std::fprintf(stderr,
                 "bench_scale: FAILED — a pool-1 leg allocates %.3f "
                 "times/round in steady state (expected 0)\n",
                 worst_alloc_rate);
    failed = true;
  }
  return failed ? 1 : 0;
}
