// Fixed-size thread pool with a blocking parallel_for.
//
// The simulation engine uses this to compute per-edge transfer amounts and
// per-node load updates concurrently — the same "all nodes act at once"
// concurrency the paper's proof technique is designed to analyze.  The pool
// is deliberately simple (single mutex-protected queue): the work items the
// library submits are coarse-grained chunks, so queue contention is not a
// bottleneck, and simplicity keeps the concurrency auditable.
//
// Concurrency contract:
//   * parallel_for waits on a per-call completion latch, so concurrent
//     calls from different threads never block on each other's chunks;
//   * parallel_for called from inside a pool worker (nested parallelism)
//     runs the whole range inline — queueing chunks behind the caller's
//     own task would deadlock;
//   * an exception thrown by a chunk is captured and rethrown to the
//     parallel_for caller once the batch drains; an exception from a bare
//     submit() task is rethrown by the next wait_idle().  The pool itself
//     survives either way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lb::util {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers; 0 means hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Submit a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.  Rethrows the first
  /// exception thrown by a bare submit() task since the last wait_idle().
  void wait_idle();

  /// Run fn(i) for i in [begin, end), split into chunks of at least
  /// `grain` iterations, executed on the pool; blocks until done.
  /// Falls back to inline execution when the range is small, the pool has
  /// a single worker, or the caller is itself a pool worker (nested
  /// parallelism).  Rethrows the first chunk exception after the batch
  /// completes.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& chunk_fn);

  /// True when the calling thread is one of this pool's workers.
  bool in_worker_thread() const;

  /// Process-wide default pool.  Sized from the LB_THREADS environment
  /// variable when set to a positive integer (the CI thread-count matrix
  /// forces 1), otherwise to the machine.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;  // from bare submit() tasks
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for with an
/// element-wise functor.
void parallel_for_each(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t)>& fn);

/// Run chunk_fn(c, lo, hi) for every fixed-width chunk
/// [c·width, min(n, (c+1)·width)) of [0, n), executed on `pool` (inline
/// when pool is null or has one worker).
///
/// This is the substrate of every deterministic parallel reduction in the
/// library: chunk boundaries depend only on (n, width) — never on the
/// worker count or which worker picks up which chunk — so per-chunk
/// partial results combined in chunk-index order are bit-identical for
/// every pool size.  Contrast parallel_for, whose range splits depend on
/// size() and therefore must only be used for order-independent writes.
///
/// A template so the inline path calls chunk_fn directly: no
/// std::function is built, so single-worker sweeps allocate nothing
/// however much their lambda captures.  The pool path hands parallel_for
/// a one-reference closure, which fits std::function's inline buffer.
template <class ChunkFn>
void for_fixed_chunks(ThreadPool* pool, std::size_t n, std::size_t width,
                      ChunkFn&& chunk_fn) {
  if (n == 0) return;
  if (width == 0) width = 1;
  const std::size_t chunks = (n + width - 1) / width;
  const auto run_range = [&chunk_fn, n, width](std::size_t first, std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t lo = c * width;
      chunk_fn(c, lo, lo + width < n ? lo + width : n);
    }
  };
  if (pool == nullptr || pool->size() <= 1 || chunks == 1) {
    run_range(0, chunks);
    return;
  }
  pool->parallel_for(0, chunks, 1, [&run_range](std::size_t first, std::size_t last) {
    run_range(first, last);
  });
}

}  // namespace lb::util
