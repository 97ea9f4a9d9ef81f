#include "lb/graph/dynamic.hpp"

#include <cstdio>
#include <numeric>
#include <sstream>

#include "lb/graph/matching.hpp"
#include "lb/util/assert.hpp"

namespace lb::graph {

namespace {

/// Rebuild `out` as "<base>@<tag>k)" without steady-state allocations
/// (the capacity is reused across rounds).  `tag` carries its own
/// opening, e.g. "@bern(k=".
void format_label(std::string& out, const std::string& base, const char* tag,
                  std::size_t k) {
  out.clear();
  out += base;
  out += tag;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%zu)", k);
  out += buf;
}

class StaticSequence final : public GraphSequence {
 public:
  explicit StaticSequence(Graph g) : g_(std::move(g)), frame_(g_) {}

  std::size_t num_nodes() const override { return g_.num_nodes(); }
  const TopologyFrame& frame_at(std::size_t) override { return frame_; }
  const Graph& at_round(std::size_t) override { return g_; }
  void reset() override {}
  std::string name() const override { return "static[" + g_.name() + "]"; }

 private:
  Graph g_;
  TopologyFrame frame_;
};

class PeriodicSequence final : public GraphSequence {
 public:
  explicit PeriodicSequence(std::vector<Graph> graphs) : graphs_(std::move(graphs)) {
    LB_ASSERT_MSG(!graphs_.empty(), "periodic sequence needs at least one graph");
    for (const Graph& g : graphs_) {
      LB_ASSERT_MSG(g.num_nodes() == graphs_.front().num_nodes(),
                    "all graphs in a sequence must share the node set");
    }
  }

  std::size_t num_nodes() const override { return graphs_.front().num_nodes(); }

  const TopologyFrame& frame_at(std::size_t k) override {
    frame_ = TopologyFrame(at_round(k));
    return frame_;
  }

  const Graph& at_round(std::size_t k) override {
    LB_ASSERT_MSG(k >= 1, "rounds are 1-indexed");
    return graphs_[(k - 1) % graphs_.size()];
  }

  void reset() override {}

  std::string name() const override {
    std::ostringstream os;
    os << "periodic[";
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      os << (i ? "," : "") << graphs_[i].name();
    }
    os << "]";
    return os.str();
  }

 private:
  std::vector<Graph> graphs_;
  TopologyFrame frame_;
};

/// Shared scaffolding for the masked (subgraph-of-a-fixed-base) models:
/// base graph + edge mask + ordered-round bookkeeping + replayable seed.
class MaskedSequence : public GraphSequence {
 public:
  MaskedSequence(Graph base, std::uint64_t seed)
      : base_(std::move(base)), seed_(seed), rng_(seed), mask_(base_) {}

  std::size_t num_nodes() const override { return base_.num_nodes(); }

  void reset() override {
    rng_ = util::Rng(seed_);
    next_round_ = 1;
    reset_mask();
  }

 protected:
  /// Restore the mask to its pre-round-1 state (default: all alive).
  virtual void reset_mask() {
    mask_.fill(true);
    mask_.commit();
  }

  void check_order(std::size_t k) {
    LB_ASSERT_MSG(k == next_round_, "rounds must be requested in order");
    ++next_round_;
  }

  const TopologyFrame& publish(const char* tag, std::size_t k) {
    format_label(label_, base_.name(), tag, k);
    frame_ = TopologyFrame(mask_, &label_);
    return frame_;
  }

  Graph base_;
  std::uint64_t seed_;
  util::Rng rng_;
  EdgeMask mask_;
  TopologyFrame frame_;
  std::string label_;
  std::size_t next_round_ = 1;
};

class BernoulliSequence final : public MaskedSequence {
 public:
  BernoulliSequence(Graph base, double keep_prob, std::uint64_t seed)
      : MaskedSequence(std::move(base), seed), keep_(keep_prob) {
    LB_ASSERT_MSG(keep_ >= 0.0 && keep_ <= 1.0, "keep probability must lie in [0,1]");
  }

  const TopologyFrame& frame_at(std::size_t k) override {
    check_order(k);
    const std::size_t m = base_.num_edges();
    for (std::size_t i = 0; i < m; ++i) {
      mask_.set_alive(i, rng_.next_bool(keep_));
    }
    mask_.commit();
    return publish("@bern(k=", k);
  }

  std::string name() const override {
    std::ostringstream os;
    os << "bernoulli[" << base_.name() << ",p=" << keep_ << "]";
    return os.str();
  }

 private:
  double keep_;
};

class MarkovFailureSequence final : public MaskedSequence {
 public:
  MarkovFailureSequence(Graph base, double fail_prob, double recover_prob,
                        std::uint64_t seed)
      : MaskedSequence(std::move(base), seed), fail_(fail_prob), recover_(recover_prob) {
    LB_ASSERT_MSG(fail_ >= 0.0 && fail_ <= 1.0, "fail probability must lie in [0,1]");
    LB_ASSERT_MSG(recover_ >= 0.0 && recover_ <= 1.0,
                  "recover probability must lie in [0,1]");
  }

  const TopologyFrame& frame_at(std::size_t k) override {
    check_order(k);
    const std::size_t m = base_.num_edges();
    // The mask itself is the chain state: every edge starts UP.
    for (std::size_t i = 0; i < m; ++i) {
      const bool up =
          mask_.alive(i) ? !rng_.next_bool(fail_) : rng_.next_bool(recover_);
      mask_.set_alive(i, up);
    }
    mask_.commit();
    return publish("@markov(k=", k);
  }

  std::string name() const override {
    std::ostringstream os;
    os << "markov[" << base_.name() << ",fail=" << fail_ << ",recover=" << recover_
       << "]";
    return os.str();
  }

 private:
  double fail_, recover_;
};

class ChurnSequence final : public MaskedSequence {
 public:
  ChurnSequence(Graph base, double alive_fraction, double turnover,
                std::uint64_t seed)
      : MaskedSequence(std::move(base), seed),
        alive_fraction_(alive_fraction),
        turnover_(turnover) {
    LB_ASSERT_MSG(alive_fraction_ >= 0.0 && alive_fraction_ <= 1.0,
                  "alive fraction must lie in [0,1]");
    LB_ASSERT_MSG(turnover_ >= 0.0 && turnover_ <= 1.0,
                  "turnover rate must lie in [0,1]");
    const auto m = static_cast<double>(base_.num_edges());
    turnover_edges_ = static_cast<std::size_t>(turnover_ * m + 0.5);
    target_dead_ = base_.num_edges() -
                   static_cast<std::size_t>(alive_fraction_ * m + 0.5);
    init_lists();
  }

  const TopologyFrame& frame_at(std::size_t k) override {
    check_order(k);
    if (k > 1) {
      for (std::size_t i = 0; i < turnover_edges_ && !alive_list_.empty(); ++i) {
        kill_random();
      }
      for (std::size_t i = 0; i < turnover_edges_ && !dead_list_.empty(); ++i) {
        revive_random();
      }
      mask_.commit();
    }
    return publish("@churn(k=", k);
  }

  std::string name() const override {
    std::ostringstream os;
    os << "churn[" << base_.name() << ",alive=" << alive_fraction_
       << ",turnover=" << turnover_ << "]";
    return os.str();
  }

 protected:
  void reset_mask() override {
    init_lists();
  }

 private:
  void init_lists() {
    mask_.fill(true);
    alive_list_.resize(base_.num_edges());
    std::iota(alive_list_.begin(), alive_list_.end(), 0u);
    dead_list_.clear();
    for (std::size_t i = 0; i < target_dead_ && !alive_list_.empty(); ++i) {
      kill_random();
    }
    mask_.commit();
  }

  // Remove-by-swap: edges are only ever picked uniformly at random, so
  // no id -> position index is needed.
  static std::uint32_t remove_at(std::vector<std::uint32_t>& list, std::size_t idx) {
    const std::uint32_t e = list[idx];
    list[idx] = list.back();
    list.pop_back();
    return e;
  }

  void kill_random() {
    const std::uint32_t e =
        remove_at(alive_list_, rng_.next_below(alive_list_.size()));
    dead_list_.push_back(e);
    mask_.set_alive(e, false);
  }

  void revive_random() {
    const std::uint32_t e =
        remove_at(dead_list_, rng_.next_below(dead_list_.size()));
    alive_list_.push_back(e);
    mask_.set_alive(e, true);
  }

  double alive_fraction_, turnover_;
  std::size_t turnover_edges_ = 0;
  std::size_t target_dead_ = 0;
  std::vector<std::uint32_t> alive_list_, dead_list_;
};

class PartitionSequence final : public MaskedSequence {
 public:
  PartitionSequence(Graph base, std::size_t period)
      : MaskedSequence(std::move(base), /*seed=*/0), period_(period) {
    LB_ASSERT_MSG(period_ >= 1, "partition period must be at least 1");
    const auto half = static_cast<NodeId>(base_.num_nodes() / 2);
    const auto& edges = base_.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if ((edges[i].u < half) != (edges[i].v < half)) {
        cut_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  const TopologyFrame& frame_at(std::size_t k) override {
    check_order(k);
    const bool partitioned = ((k - 1) / period_) % 2 == 1;
    if (partitioned != cut_down_) {
      for (const std::uint32_t e : cut_) mask_.set_alive(e, !partitioned);
      cut_down_ = partitioned;
      mask_.commit();
    }
    return publish("@part(k=", k);
  }

  std::string name() const override {
    std::ostringstream os;
    os << "partition[" << base_.name() << ",period=" << period_ << "]";
    return os.str();
  }

 protected:
  void reset_mask() override {
    MaskedSequence::reset_mask();
    cut_down_ = false;
  }

 private:
  std::size_t period_;
  std::vector<std::uint32_t> cut_;
  bool cut_down_ = false;
};

class FailureWaveSequence final : public MaskedSequence {
 public:
  FailureWaveSequence(Graph base, std::size_t width, std::size_t speed)
      : MaskedSequence(std::move(base), /*seed=*/0), width_(width), speed_(speed) {
    LB_ASSERT_MSG(width_ < base_.num_nodes(),
                  "failure-wave width must leave at least one node up");
    // Node -> incident base-edge ids (CSR), for incremental mask updates.
    const std::size_t n = base_.num_nodes();
    const auto& edges = base_.edges();
    inc_offsets_.assign(n + 1, 0);
    for (const Edge& e : edges) {
      ++inc_offsets_[e.u + 1];
      ++inc_offsets_[e.v + 1];
    }
    for (std::size_t i = 1; i <= n; ++i) inc_offsets_[i] += inc_offsets_[i - 1];
    inc_edges_.resize(2 * edges.size());
    std::vector<std::size_t> cursor(inc_offsets_.begin(), inc_offsets_.end() - 1);
    for (std::size_t idx = 0; idx < edges.size(); ++idx) {
      inc_edges_[cursor[edges[idx].u]++] = static_cast<std::uint32_t>(idx);
      inc_edges_[cursor[edges[idx].v]++] = static_cast<std::uint32_t>(idx);
    }
    down_.assign(n, 0);
  }

  const TopologyFrame& frame_at(std::size_t k) override {
    check_order(k);
    const std::size_t n = base_.num_nodes();
    const std::size_t pos = ((k - 1) * speed_) % n;
    bool changed = false;
    // Flip node membership, then refresh the incident edges of every
    // flipped node from the final down flags (an edge is dead iff either
    // endpoint is down).
    changed_nodes_.clear();
    for (std::size_t u = 0; u < n; ++u) {
      const bool in_window = (u + n - pos) % n < width_;
      if (in_window != (down_[u] != 0)) {
        down_[u] = in_window ? 1 : 0;
        changed_nodes_.push_back(static_cast<NodeId>(u));
        changed = true;
      }
    }
    const auto& edges = base_.edges();
    for (const NodeId u : changed_nodes_) {
      for (std::size_t p = inc_offsets_[u]; p < inc_offsets_[u + 1]; ++p) {
        const std::uint32_t e = inc_edges_[p];
        mask_.set_alive(e, down_[edges[e].u] == 0 && down_[edges[e].v] == 0);
      }
    }
    if (changed) mask_.commit();
    return publish("@wave(k=", k);
  }

  std::string name() const override {
    std::ostringstream os;
    os << "wave[" << base_.name() << ",width=" << width_ << ",speed=" << speed_
       << "]";
    return os.str();
  }

 protected:
  void reset_mask() override {
    MaskedSequence::reset_mask();
    std::fill(down_.begin(), down_.end(), 0);
  }

 private:
  std::size_t width_, speed_;
  std::vector<std::size_t> inc_offsets_;
  std::vector<std::uint32_t> inc_edges_;
  std::vector<std::uint8_t> down_;
  std::vector<NodeId> changed_nodes_;
};

class MatchingSequence final : public GraphSequence {
 public:
  MatchingSequence(Graph base, std::uint64_t seed)
      : base_(std::move(base)), seed_(seed), rng_(seed) {}

  std::size_t num_nodes() const override { return base_.num_nodes(); }

  const TopologyFrame& frame_at(std::size_t k) override {
    frame_ = TopologyFrame(at_round(k));
    return frame_;
  }

  const Graph& at_round(std::size_t k) override {
    LB_ASSERT_MSG(k == next_round_, "rounds must be requested in order");
    ++next_round_;
    const Matching m = matching_edges(
        base_, random_maximal_matching(TopologyFrame(base_), rng_, scratch_));
    std::ostringstream name;
    name << base_.name() << "@match(k=" << k << ")";
    current_ = subgraph_with_edges(base_, m, name.str());
    return current_;
  }

  void reset() override {
    rng_ = util::Rng(seed_);
    next_round_ = 1;
  }

  std::string name() const override { return "matching[" + base_.name() + "]"; }

 private:
  Graph base_;
  std::uint64_t seed_;
  util::Rng rng_;
  MatchingScratch scratch_;  // the draw's rows, built once for base_
  Graph current_;
  TopologyFrame frame_;
  std::size_t next_round_ = 1;
};

class MaterializedViewSequence final : public GraphSequence {
 public:
  MaterializedViewSequence(GraphSequence& inner, std::unique_ptr<GraphSequence> owned)
      : inner_(&inner), owned_(std::move(owned)) {}

  std::size_t num_nodes() const override { return inner_->num_nodes(); }

  const TopologyFrame& frame_at(std::size_t k) override {
    const TopologyFrame& inner_frame = inner_->frame_at(k);
    if (!inner_frame.masked()) {
      // Static/periodic/matching rounds: the pre-mask code returned
      // stored (or already materialized) graphs, so pass them through.
      frame_ = TopologyFrame(inner_frame.base());
      return frame_;
    }
    // Masked rounds: reproduce the pre-mask idiom faithfully — ONE
    // GraphBuilder::build() per round, even when the mask did not change
    // (the old stochastic sequences rebuilt unconditionally).  When the
    // mask moved, view() just built fresh and is used as-is; when it
    // did not, view() is a cache hit and the build is forced by hand so
    // the baseline never skips the cost it is meant to measure.
    const std::uint64_t revision = inner_frame.mask_revision();
    const Graph& cached = inner_frame.view();
    if (revision != last_mask_revision_) {
      last_mask_revision_ = revision;
      frame_ = TopologyFrame(cached);
    } else {
      current_ = subgraph_with_edges(cached, cached.edges(), cached.name());
      frame_ = TopologyFrame(current_);
    }
    return frame_;
  }

  const Graph& at_round(std::size_t k) override { return inner_->at_round(k); }

  void reset() override {
    inner_->reset();
    last_mask_revision_ = 0;
  }

  std::string name() const override {
    return "materialized[" + inner_->name() + "]";
  }

 private:
  GraphSequence* inner_;
  std::unique_ptr<GraphSequence> owned_;
  TopologyFrame frame_;
  Graph current_;
  std::uint64_t last_mask_revision_ = 0;
};

}  // namespace

std::unique_ptr<GraphSequence> make_static_sequence(Graph g) {
  return std::make_unique<StaticSequence>(std::move(g));
}

std::unique_ptr<GraphSequence> make_static_view(const Graph& g) {
  return make_static_sequence(g);
}

std::unique_ptr<GraphSequence> make_periodic_sequence(std::vector<Graph> graphs) {
  return std::make_unique<PeriodicSequence>(std::move(graphs));
}

std::unique_ptr<GraphSequence> make_bernoulli_sequence(Graph base, double keep_prob,
                                                       std::uint64_t seed) {
  return std::make_unique<BernoulliSequence>(std::move(base), keep_prob, seed);
}

std::unique_ptr<GraphSequence> make_markov_failure_sequence(Graph base, double fail_prob,
                                                            double recover_prob,
                                                            std::uint64_t seed) {
  return std::make_unique<MarkovFailureSequence>(std::move(base), fail_prob,
                                                 recover_prob, seed);
}

std::unique_ptr<GraphSequence> make_matching_sequence(Graph base, std::uint64_t seed) {
  return std::make_unique<MatchingSequence>(std::move(base), seed);
}

std::unique_ptr<GraphSequence> make_churn_sequence(Graph base, double alive_fraction,
                                                   double turnover, std::uint64_t seed) {
  return std::make_unique<ChurnSequence>(std::move(base), alive_fraction, turnover,
                                         seed);
}

std::unique_ptr<GraphSequence> make_partition_sequence(Graph base, std::size_t period) {
  return std::make_unique<PartitionSequence>(std::move(base), period);
}

std::unique_ptr<GraphSequence> make_failure_wave_sequence(Graph base, std::size_t width,
                                                          std::size_t speed) {
  return std::make_unique<FailureWaveSequence>(std::move(base), width, speed);
}

std::unique_ptr<GraphSequence> make_materialized_view(GraphSequence& inner) {
  return std::make_unique<MaterializedViewSequence>(inner, nullptr);
}

std::unique_ptr<GraphSequence> make_materialized(std::unique_ptr<GraphSequence> inner) {
  GraphSequence& ref = *inner;
  return std::make_unique<MaterializedViewSequence>(ref, std::move(inner));
}

}  // namespace lb::graph
