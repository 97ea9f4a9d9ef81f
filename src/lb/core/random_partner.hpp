// Algorithm 2 of the paper (§6): random balancing partners.
//
//   1. every node i picks a partner j uniformly at random; the link
//      (i, j) joins the round's link multiset E;
//   2. every link (i, j) with ℓ_i > ℓ_j moves (ℓ_i − ℓ_j)/(4·max(d_i,d_j))
//      from i to j, where d(i) is i's number of balancing partners this
//      round (own pick + picks received).
//
// Unlike Algorithm 1 this needs no network: it is neighbourhood balancing
// over a random graph redrawn every round, and a node picked by many
// others performs many concurrent balancing actions — the hard case the
// paper's technique is built for (Lemma 9 shows both endpoints of a link
// have ≤ 5 partners with probability > 1/2, which drives Lemma 11's
// E[Φ^{t+1}] ≤ (19/20)·Φ^t and Theorem 12's topology-free O(log Φ) time).
//
// The discrete variant floors every transfer (§6.2, Lemma 13/Theorem 14).
#pragma once

#include <memory>

#include "lb/core/algorithm.hpp"

namespace lb::core {

/// One round's link structure: the multiset of links plus per-node degrees.
struct PartnerLinks {
  /// One entry per node i: the partner chosen by i (link (i, partner[i])).
  std::vector<graph::NodeId> partner;
  /// d(i): number of links incident to node i (multiplicity counted).
  std::vector<std::uint32_t> degree;
};

/// Sample the round's links into `links`, reusing its storage: each node
/// picks a partner uniformly from the other n−1 nodes.
void sample_partner_links(std::size_t n, util::Rng& rng, PartnerLinks& links);

/// The same sample, by value.  Exposed so the Lemma-9 Monte-Carlo bench
/// can reuse the exact production sampling path.
PartnerLinks sample_partner_links(std::size_t n, util::Rng& rng);

template <class T>
class RandomPartnerBalancer final : public Balancer<T> {
 public:
  RandomPartnerBalancer() = default;

  std::string name() const override {
    return std::is_integral_v<T> ? "randpartner-disc" : "randpartner-cont";
  }
  bool uses_network() const override { return false; }

  using Balancer<T>::step;
  StepStats step(RoundContext<T>& ctx, std::vector<T>& load) override;

 private:
  PartnerLinks links_;  // the round's links, storage reused across rounds
};

using ContinuousRandomPartner = RandomPartnerBalancer<double>;
using DiscreteRandomPartner = RandomPartnerBalancer<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_random_partner_continuous();
std::unique_ptr<DiscreteBalancer> make_random_partner_discrete();

}  // namespace lb::core
