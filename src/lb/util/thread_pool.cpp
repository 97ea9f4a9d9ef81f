#include "lb/util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "lb/util/assert.hpp"

namespace lb::util {

namespace {

// Which pool (if any) owns the current thread; set once per worker.  Used
// to detect nested parallel_for calls, which must run inline: a worker
// waiting on chunks queued behind its own task would never see them run.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    LB_ASSERT_MSG(!stop_, "submit on a stopped pool");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    // The decrement must happen even if the task throws, or every later
    // wait_idle()/batch wait would hang on a count that never reaches 0.
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock lock(mutex_);
      if (err && !first_error_) first_error_ = err;
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n = end - begin;
  const std::size_t workers = size();
  if (workers <= 1 || n <= grain || in_worker_thread()) {
    chunk_fn(begin, end);
    return;
  }

  // Per-batch completion latch: concurrent parallel_for calls (and plain
  // submit() traffic) each wait on their own counter, never on the pool's
  // global in-flight count, so no caller blocks on foreign tasks.
  struct Batch {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };

  // At most a few chunks per worker beyond what grain demands.
  const std::size_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const std::size_t step = (n + chunks - 1) / chunks;

  Batch batch;
  batch.remaining = (n + step - 1) / step;
  for (std::size_t lo = begin; lo < end; lo += step) {
    const std::size_t hi = std::min(end, lo + step);
    submit([lo, hi, &chunk_fn, &batch] {
      std::exception_ptr err;
      try {
        chunk_fn(lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      std::unique_lock lock(batch.m);
      if (err && !batch.error) batch.error = err;
      if (--batch.remaining == 0) batch.cv.notify_all();
    });
  }

  std::unique_lock lock(batch.m);
  batch.cv.wait(lock, [&batch] { return batch.remaining == 0; });
  if (batch.error) {
    std::exception_ptr err = std::exchange(batch.error, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("LB_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

void parallel_for_each(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(0, n, grain, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace lb::util
