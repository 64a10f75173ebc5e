#pragma once
// A small work-stealing-free thread pool and parallel_for.
//
// Used exclusively to parallelize *independent* experiment cells
// (workload x scheme simulations) in the benchmark harness. Individual
// simulations are single-threaded and deterministic; parallelism never
// changes results, only wall-clock time.
//
// parallel_for dispatches chunked index ranges onto one process-wide
// shared pool (workers are spawned once, not per call) and the calling
// thread claims chunks too — so it makes progress even when the pool is
// saturated or smaller than the requested width, and n < threads or
// nested calls cannot deadlock. Jobs move through a ring of inline
// functions: enqueueing a chunk performs no heap allocation.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "tw/common/inline_function.hpp"

namespace tw {

/// Fixed-size thread pool executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Pool jobs keep captures up to 64 B inline (parallel_for's chunk jobs
  /// capture one pointer); a larger capture is a compile error.
  using Job = BasicInlineFunction<64>;

  /// Spawn `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool shared by all parallel_for calls. Created on
  /// first use with hardware_concurrency workers.
  static ThreadPool& shared();

  /// Enqueue a job. Thread-safe.
  void submit(Job job);

  /// Block until all submitted jobs have finished. If any job threw, the
  /// first exception (in completion order) is rethrown here and the
  /// pool's error state is cleared; the pool stays usable afterwards.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();
  void push_job(Job job);  // requires mu_ held
  Job pop_job();           // requires mu_ held, count_ > 0

  std::vector<std::thread> workers_;
  // FIFO ring of jobs; grows (rarely) by doubling.
  std::vector<Job> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Run fn(i) for i in [0, n) across the shared pool plus the calling
/// thread. fn must be safe to invoke concurrently for distinct i.
/// Exceptions thrown by fn propagate (first one wins) after all
/// iterations complete or abort. Returns only when every iteration has
/// finished, so per-call state may live on the caller's stack.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace tw
