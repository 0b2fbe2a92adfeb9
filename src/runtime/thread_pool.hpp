#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace nvp::runtime {

/// Fixed-size pool of worker threads with a caller-participating
/// `parallel_for` / `parallel_map` API.
///
/// `jobs` is the total concurrency *including the calling thread*: a pool
/// constructed with `jobs == 1` spawns no workers and runs every body inline
/// on the caller, which makes the serial path literally the same code as the
/// parallel one. The calling thread always participates in the loop, so a
/// nested `parallel_for` on a saturated pool degrades to inline execution
/// instead of deadlocking.
///
/// Exception policy: every exception thrown by a loop body is captured; once
/// a body has thrown, indices that have not started yet are skipped (indices
/// already in flight on other workers still finish, and their failures are
/// captured too). After the loop drains, a single captured exception is
/// rethrown unchanged on the calling thread; two or more are aggregated into
/// one fault::Error (category of the first failure) whose context lists
/// every body's message, so multi-point failures are not masked.
class ThreadPool {
 public:
  /// `jobs >= 1`: total concurrency including the caller (spawns jobs - 1
  /// workers). `jobs == 0` means "auto": resolve to default_jobs().
  explicit ThreadPool(std::size_t jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the calling thread).
  std::size_t jobs() const;

  /// Runs body(i) for every i in [0, n), dynamically load-balanced across
  /// the pool. Blocks until all indices are done (or abandoned after an
  /// exception); rethrows on the caller per the exception policy above.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Maps `fn` over `items` and returns the results in input order
  /// regardless of the execution schedule. The result type must be
  /// default-constructible.
  template <typename T, typename F>
  auto parallel_map(const std::vector<T>& items, F&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<F&, const T&>>> {
    using R = std::decay_t<std::invoke_result_t<F&, const T&>>;
    std::vector<R> results(items.size());
    parallel_for(items.size(),
                 [&](std::size_t i) { results[i] = fn(items[i]); });
    return results;
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True while the calling thread runs a task it took from the pool's queue
/// while waiting for its own parallel_for to finish (the stealing wait that
/// keeps nested loops deadlock-free). Such a task may belong to any loop, so
/// it can meet work that this thread started further down its own stack; a
/// thread in that state must never block on work another task is doing
/// (ShardedLruCache::get_or_compute computes inline instead of waiting).
bool in_stolen_task();

/// Effective default concurrency: the last set_default_jobs() value if one
/// was set, else the NVP_JOBS environment variable, else
/// std::thread::hardware_concurrency() (at least 1).
std::size_t default_jobs();

/// Overrides the default concurrency (the CLI's --jobs flag). `jobs == 0`
/// restores auto-detection. Takes effect on the next default_pool() access:
/// the shared pool is rebuilt when its size no longer matches.
void set_default_jobs(std::size_t jobs);

/// Process-wide shared pool sized to default_jobs(). Callers take a
/// snapshot, so a concurrent set_default_jobs() never destroys a pool that
/// is still executing.
std::shared_ptr<ThreadPool> default_pool();

/// parallel_for on the default pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// parallel_map on the default pool.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& items, F&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, const T&>>> {
  return default_pool()->parallel_map(items, std::forward<F>(fn));
}

}  // namespace nvp::runtime
