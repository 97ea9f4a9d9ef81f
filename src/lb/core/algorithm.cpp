#include "lb/core/algorithm.hpp"

#include "lb/core/round_context.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

// Out of line so the unique_ptr<RunArena<T>> member can be declared over
// an incomplete type in the header.
template <class T>
Balancer<T>::Balancer() = default;

template <class T>
Balancer<T>::~Balancer() = default;

template <class T>
StepStats Balancer<T>::step(const graph::Graph& g, std::vector<T>& load,
                            util::Rng& rng) {
  if (!legacy_arena_) legacy_arena_ = std::make_unique<RunArena<T>>();
  RoundContext<T> ctx(g, rng, &util::ThreadPool::global(), *legacy_arena_);
  return step(ctx, load);
}

template class Balancer<double>;
template class Balancer<std::int64_t>;

}  // namespace lb::core
