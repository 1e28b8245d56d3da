// Fixed-size worker pool used to parallelize experiment sweeps across
// random graph instances and the placement daemon's background re-heal
// passes.
//
// Work items are indexed, and `parallel_for` partitions [0, n) dynamically
// (atomic counter) so stragglers balance out. Results are written into
// pre-sized slots, which keeps sweep output deterministic and independent
// of the number of workers — a requirement for reproducible figures.
//
// One process-wide pool (`global_thread_pool`, lazily built at first use)
// is shared by every parallel layer — the sweep, the benches' instance
// fan-outs and the placement daemon — instead of spinning a transient pool
// per call. Sharing is safe for determinism
// because every consumer assigns work to fixed slots; it is safe for
// liveness because a `parallel_for` issued from inside another
// `parallel_for` body (or any pool worker already draining one) runs its
// indices inline on the calling thread instead of re-entering the shared
// queue, which could otherwise deadlock with every worker waiting on tasks
// stuck behind its peers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace streamsched {

class ThreadPool {
 public:
  /// Creates `workers` threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Runs body(i) for each i in [0, n), distributing indices dynamically
  /// over the pool (the calling thread participates). Exceptions thrown by
  /// any body are captured; the first one is rethrown after all indices
  /// complete. Nested calls (from a body already draining a parallel_for
  /// on any pool) run inline on the calling thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Same, with total parallelism (drain jobs + the calling thread) capped
  /// at `max_workers`; 0 means uncapped. Lets callers honor a user-supplied
  /// thread budget on the shared pool without resizing it.
  void parallel_for(std::size_t n, std::size_t max_workers,
                    const std::function<void(std::size_t)>& body);

  /// Enqueues one fire-and-forget task (the placement daemon's background
  /// re-heal passes). The task runs on some pool worker; ordering between
  /// posted tasks follows the queue, but tasks posted while a parallel_for
  /// is in flight interleave with its drain jobs.
  void post(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// The process-wide shared pool, built on first use with one thread per
/// hardware core. Every layer that fans work out (sweep, benches, the
/// placement daemon) shares it, so a process never stacks transient
/// pools.
[[nodiscard]] ThreadPool& global_thread_pool();

/// Convenience: parallel_for over the shared global pool, capped at
/// `workers` total threads (0 = uncapped, i.e. hardware concurrency).
/// `workers == 1` executes inline (useful for debugging); results are
/// identical for every worker count for any caller that writes results
/// into fixed per-index slots.
void parallel_for_indices(std::size_t n, std::size_t workers,
                          const std::function<void(std::size_t)>& body);

}  // namespace streamsched
