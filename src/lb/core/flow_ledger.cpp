#include "lb/core/flow_ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <new>

#include "lb/util/assert.hpp"

namespace lb::core {

namespace {

std::size_t round_up_to_chunk(unsigned long long width) {
  const auto w = static_cast<std::size_t>(width);
  return ((w + kSummaryChunkWidth - 1) / kSummaryChunkWidth) * kSummaryChunkWidth;
}

// Override state: -1 = no override (the default width applies).
std::atomic<long long> g_block_width_override{-1};

/// Calls fn(k, b, opens, cut) for every edge k = (u, v) in ascending
/// order: b is u's block of `width` nodes, `opens` marks the block's first
/// edge, and `cut` an edge whose v lies in a later block.  No division per
/// edge: edges ascend in u, so the end of u's block only moves forward.
template <class Fn>
void for_each_edge_by_block(const std::vector<graph::Edge>& edges, std::size_t width, Fn&& fn) {
  std::size_t b = 0;
  for (std::size_t k = 0, end = width; k < edges.size(); ++k) {
    bool opens = k == 0;
    for (; edges[k].u >= end; end += width) {
      ++b;
      opens = true;
    }
    fn(k, b, opens, edges[k].v >= end);
  }
}

}  // namespace

std::size_t blocked_round_width() {
  const long long override_width = g_block_width_override.load(std::memory_order_relaxed);
  if (override_width < 0) return 16384;  // 128 KiB of int64 loads: L2-resident
  return override_width == 0 ? std::size_t{0}
                             : round_up_to_chunk(static_cast<unsigned long long>(override_width));
}

void set_blocked_width_override(long long width) {
  g_block_width_override.store(width < 0 ? -1 : width, std::memory_order_relaxed);
}

void BlockedRoundPlan::rebuild(const graph::Graph& base, std::size_t width) {
  LB_ASSERT_MSG(width > 0 && width % kSummaryChunkWidth == 0,
                "block width must be a positive summary-chunk multiple");
  LB_ASSERT_MSG(base.num_edges() <= std::numeric_limits<std::uint32_t>::max(),
                "the blocked round stores 32-bit edge ids");
  const auto& edges = base.edges();
  const std::size_t n = base.num_nodes();
  revision_ = base.revision();
  width_ = width;
  chunks_ = summary_chunk_count(n);
  blocks_ = (n + width - 1) / width;
  // Blocks are whole summary chunks, so a cut edge's receiving block is
  // its v's chunk (a shift) over the chunks per block.
  const std::size_t chunks_per_block = width / kSummaryChunkWidth;
  const auto block_of = [chunks_per_block](graph::NodeId v) {
    return (v / kSummaryChunkWidth) / chunks_per_block;
  };

  // A cut edge is an entry of both its blocks, and a run starts at every
  // uncut edge that opens its block or follows a cut one.
  const auto count = [&](auto&& on_cut, auto&& on_run) {
    bool after_cut = false;
    for_each_edge_by_block(edges, width, [&](std::size_t k, std::size_t b, bool opens, bool cut) {
      if (cut) {
        on_cut(b, block_of(edges[k].v));
      } else if (opens || after_cut) {
        on_run(b);
      }
      after_cut = cut;
    });
  };
  std::size_t cuts = 0;
  std::size_t runs = 0;
  count([&](std::size_t, std::size_t) { ++cuts; }, [&](std::size_t) { ++runs; });
  const std::size_t words = chunks_ + 1 + 2 * (blocks_ + 1) + 2 * cuts;
  const std::size_t bytes = words * sizeof(std::uint32_t) + runs * sizeof(SweepRun);
  if (bytes > capacity_) {
    storage_.reset(new std::byte[bytes]);
    capacity_ = bytes;
  }
  words_ = ::new (storage_.get()) std::uint32_t[words]();
  runs_ = ::new (storage_.get() + words * sizeof(std::uint32_t)) SweepRun[runs];
  std::uint32_t* chunk_begin = words_;
  std::uint32_t* cut_ptr = chunk_begin + chunks_ + 1;
  std::uint32_t* run_ptr = cut_ptr + blocks_ + 1;
  std::uint32_t* cut_ids = run_ptr + blocks_ + 1;

  // Chunk slices: chunk_begin[c] is the first edge with u ≥ c·1024, found
  // by binary search in the sorted edge list.
  for (std::size_t c = 0; c < chunks_; ++c) {
    const graph::Edge first{static_cast<graph::NodeId>(c * kSummaryChunkWidth), 0};
    chunk_begin[c] = static_cast<std::uint32_t>(
        std::lower_bound(edges.begin(), edges.end(), first) - edges.begin());
  }
  chunk_begin[chunks_] = static_cast<std::uint32_t>(edges.size());

  // Entries and runs per block, prefix-summed into starts.
  count(
      [&](std::size_t bu, std::size_t bv) {
        ++cut_ptr[bu + 1];
        ++cut_ptr[bv + 1];
      },
      [&](std::size_t b) { ++run_ptr[b + 1]; });
  for (std::size_t b = 0; b < blocks_; ++b) {
    cut_ptr[b + 1] += cut_ptr[b];
    run_ptr[b + 1] += run_ptr[b];
  }

  // Fill in ascending edge order, each block's entries through its own
  // cursor: a block's incoming entries all precede its first edge, so
  // they land before its outgoing ones.  Runs come out block by block, so
  // one cursor writes them; a run records its block's cursor, made
  // relative once the cursors are shifted back to the starts.
  SweepRun* run = runs_;
  SweepRun* open = nullptr;
  for_each_edge_by_block(edges, width, [&](std::size_t k, std::size_t b, bool opens, bool cut) {
    const auto id = static_cast<std::uint32_t>(k);
    if (open != nullptr && (opens || cut)) {
      open->last = id;
      open = nullptr;
    }
    if (cut) {
      cut_ids[cut_ptr[b]++] = id;
      cut_ids[cut_ptr[block_of(edges[k].v)]++] = id;
    } else if (open == nullptr) {
      open = run++;
      *open = {id, id, cut_ptr[b]};
    }
  });
  if (open != nullptr) open->last = static_cast<std::uint32_t>(edges.size());
  for (std::size_t b = blocks_; b > 0; --b) cut_ptr[b] = cut_ptr[b - 1];
  cut_ptr[0] = 0;
  for (std::size_t b = 0; b < blocks_; ++b) {
    for (std::size_t r = run_ptr[b]; r < run_ptr[b + 1]; ++r) runs_[r].cuts_before -= cut_ptr[b];
  }
}

void FlowLedger::rebuild(const graph::Graph& g) {
  LB_ASSERT_MSG(g.num_edges() <= std::numeric_limits<std::uint32_t>::max(),
                "flow ledger stores 32-bit edge ids");
  num_nodes_ = g.num_nodes();
  num_edges_ = g.num_edges();
  revision_ = g.revision();

  const auto& edges = g.edges();
  const std::size_t slots = 2 * num_edges_;
  std::vector<std::size_t> cursor(num_nodes_ + 1, 0);
  for (const graph::Edge& e : edges) {
    ++cursor[e.u + 1];
    ++cursor[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) cursor[i] += cursor[i - 1];
  row_ptr_.assign_copy(cursor, slots);

  edge_idx_.resize(slots);
  sign_.resize(slots);
  cursor.pop_back();  // reuse the prefix as the per-row fill cursor
  // Iterating edges in ascending index order appends ascending ids to each
  // row — the order the apply phase relies on for bit-identity with the
  // sequential edge sweep.
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge& e = edges[k];
    edge_idx_[cursor[e.u]] = static_cast<std::uint32_t>(k);
    sign_[cursor[e.u]++] = -1;  // positive flow leaves u
    edge_idx_[cursor[e.v]] = static_cast<std::uint32_t>(k);
    sign_[cursor[e.v]++] = 1;
  }
}

template <class T>
void FlowLedger::apply(const graph::Graph& g, const std::vector<double>& flows,
                       std::vector<T>& load, util::ThreadPool* pool) const {
  LB_ASSERT_MSG(valid_for(g), "apply with a ledger built for another topology");
  LB_ASSERT_MSG(flows.size() == num_edges_, "flow vector does not match ledger");
  LB_ASSERT_MSG(load.size() == num_nodes_, "load vector does not match ledger");
  const auto gather = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) load[u] = gather_node(u, flows, load);
  };
  if (pool != nullptr) {
    pool->parallel_for(0, num_nodes_, 256, gather);
  } else {
    gather(0, num_nodes_);
  }
}

template <class T>
void FlowLedger::apply_with_summary(const graph::Graph& g,
                                    const std::vector<double>& flows,
                                    std::vector<T>& load, util::ThreadPool* pool,
                                    double average, SummaryMode mode,
                                    std::vector<SummaryPartial<T>>& parts,
                                    LoadSummary<T>& out) const {
  LB_ASSERT_MSG(valid_for(g), "apply with a ledger built for another topology");
  LB_ASSERT_MSG(flows.size() == num_edges_, "flow vector does not match ledger");
  LB_ASSERT_MSG(load.size() == num_nodes_, "load vector does not match ledger");
  out = fused_sweep_with_summary<T>(pool, num_nodes_, average, mode, parts,
                                    [&](std::size_t u) {
                                      const T value = gather_node(u, flows, load);
                                      load[u] = value;
                                      return value;
                                    });
}

template <class T>
void accumulate_flow_totals(const std::vector<double>& flows, StepStats& stats) {
  for (const double f : flows) count_flow<T>(stats, f);
}

#define LB_INSTANTIATE(T)                                                      \
  template void FlowLedger::apply<T>(const graph::Graph&,                      \
                                     const std::vector<double>&,               \
                                     std::vector<T>&, util::ThreadPool*) const;\
  template void FlowLedger::apply_with_summary<T>(                             \
      const graph::Graph&, const std::vector<double>&, std::vector<T>&,        \
      util::ThreadPool*, double, SummaryMode, std::vector<SummaryPartial<T>>&, \
      LoadSummary<T>&) const;                                                  \
  template void accumulate_flow_totals<T>(const std::vector<double>&, StepStats&);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::core
