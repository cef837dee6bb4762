//===- batch/ThreadPool.h - One-queue thread pool ---------------*- C++-*-===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for the batch-verification engine and the qccd
/// daemon, built on one mechanism: a single FIFO of tasks drained by a
/// fixed set of workers.
///
/// Long-lived front ends (the qccd daemon) that produce work one job at a
/// time use `submit`. Closed index ranges (a batch run over a directory)
/// use `parallelFor`, which is a thin layer over the same queue: it
/// enqueues up to one helper task per worker, and the helpers claim
/// indices in order from a per-call atomic counter until the range is
/// exhausted. Claiming one index at a time load-balances by itself — a
/// worker stuck behind one heavy compilation simply claims nothing more
/// while the others drain the rest.
///
/// The per-call state is co-owned by its helpers, so a helper that only
/// starts after every index was claimed (even after `parallelFor`
/// returned) touches that state alone and never the caller's body.
///
//===----------------------------------------------------------------------===//

#ifndef QCC_BATCH_THREADPOOL_H
#define QCC_BATCH_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qcc {
namespace batch {

/// A fixed-size pool of worker threads draining one FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned threadCount() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// Runs Body(I) for every I in [0, N), distributed over the pool.
  /// Blocks until every item completed. Body must be safe to invoke
  /// concurrently from multiple threads on distinct indices.
  ///
  /// Precondition: not called from a task running on this pool (the
  /// caller blocks a worker the helpers may need).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Enqueues one standalone task for execution on a pool worker and
  /// returns immediately. Tasks run in FIFO order relative to each other.
  /// The destructor finishes every submitted task before joining (the
  /// shutdown discipline: cancel the work's supervisors first, then
  /// destroy the pool — a cancelled task drains at its next poll point).
  void submit(std::function<void()> Task);

  /// Blocks until no task is pending or running. Used by tests and by
  /// shutdown paths that must observe a quiesced pool.
  void waitTasksIdle();

  /// Tasks pending or running (snapshot, for tests).
  size_t taskCount() const;

private:
  void enqueue(std::function<void()> Task);
  void workerLoop();

  mutable std::mutex M; ///< Guards Tasks, RunningTasks and Stop.
  std::condition_variable WorkCv; ///< Wakes workers: a task or Stop.
  std::condition_variable IdleCv; ///< Wakes waitTasksIdle and parallelFor.
  std::deque<std::function<void()>> Tasks; ///< Queued, not yet started.
  unsigned RunningTasks = 0; ///< Tasks currently executing.
  bool Stop = false;

  std::vector<std::thread> Threads; ///< Declared last: uses all of the above.
};

} // namespace batch
} // namespace qcc

#endif // QCC_BATCH_THREADPOOL_H
