// lint-fixture-path: core/clean_blocked_sweep.cpp
// Clean fixture: the blocked round (DESIGN.md §9.2), the distilled idiom
// behind run_blocked_round_into.  Each block is one for_fixed_chunks
// task: it seeds its slice of `out`, applies its incoming cut edges,
// sweeps its own edges chunk by chunk, and stores one partial per chunk.
// Every write is either to the block's own disjoint slice of `out`
// (subscripted), to a per-chunk partial slot (subscripted), or to a
// locally declared accumulator — so LD003/LD004 must stay silent on the
// ±flow updates, the cursor loops, the local partial's `+=`/`++`, and the
// partial stores.  This pins the heuristics against false positives on
// the substrate's hottest loop.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

struct Edge {
  std::size_t u;
  std::size_t v;
};

struct Partial {
  double moved = 0.0;
  std::size_t active = 0;
};

struct ThreadPool;

template <class Fn>
void for_fixed_chunks(ThreadPool* pool, std::size_t n, std::size_t width, Fn&& fn);

// Distilled blocked round: `chunk_begin[c]` is chunk c's first edge (edges
// sorted by canonical u < v), `cuts[b]` block b's incoming cut edges.
void blocked_round(ThreadPool* pool, const std::vector<Edge>& edges,
                   const std::vector<double>& load, std::vector<double>& out,
                   const std::vector<std::size_t>& chunk_begin,
                   const std::vector<std::vector<std::size_t>>& cuts,
                   std::vector<Partial>& partials, std::size_t width,
                   std::size_t chunk_width) {
  for_fixed_chunks(pool, load.size(), width, [&](std::size_t b, std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) out[u] = load[u];
    for (const std::size_t k : cuts[b]) {
      out[edges[k].v] += 0.25 * (load[edges[k].u] - load[edges[k].v]);
    }
    double outside = 0.0;  // absorbs shares of edges leaving the block
    for (std::size_t c = lo / chunk_width; c * chunk_width < hi; ++c) {
      Partial p;
      for (std::size_t k = chunk_begin[c]; k < chunk_begin[c + 1]; ++k) {
        const Edge& e = edges[k];
        const double f = 0.25 * (load[e.u] - load[e.v]);
        out[e.u] -= f;
        (e.v < hi ? out[e.v] : outside) += f;
        p.moved += std::fabs(f);
        ++p.active;
      }
      partials[c] = p;
    }
  });
}
