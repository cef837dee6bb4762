//===- batch/ThreadPool.cpp - One-queue thread pool -----------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "batch/ThreadPool.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <memory>

using namespace qcc;
using namespace qcc::batch;

ThreadPool::ThreadPool(unsigned NumThreads) {
  for (unsigned I = 0; I != std::max(NumThreads, 1u); ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> G(M);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    WorkCv.wait(L, [this] { return Stop || !Tasks.empty(); });
    // A shutdown (Stop) still finishes the queue, so a waiter blocked on
    // a task's completion can never be stranded — cancellation makes
    // tasks fast, the pool makes them run.
    if (Tasks.empty())
      return;
    std::function<void()> T = std::move(Tasks.front());
    Tasks.pop_front();
    ++RunningTasks;
    L.unlock();
    T();
    L.lock();
    if (--RunningTasks == 0 && Tasks.empty())
      IdleCv.notify_all();
  }
}

void ThreadPool::enqueue(std::function<void()> Task) {
  std::lock_guard<std::mutex> G(M);
  Tasks.push_back(std::move(Task));
  WorkCv.notify_one();
}

void ThreadPool::submit(std::function<void()> Task) {
  // "pool.submit": delay models a saturated queue (admission tests lean
  // on it to hold a job in flight deterministically); crash models a
  // process dying with work queued. Err/Short are meaningless for an
  // in-memory enqueue and are ignored — the task is always queued.
  (void)failpoint::fire("pool.submit");
  enqueue(std::move(Task));
}

void ThreadPool::waitTasksIdle() {
  std::unique_lock<std::mutex> L(M);
  IdleCv.wait(L, [this] { return Tasks.empty() && RunningTasks == 0; });
}

size_t ThreadPool::taskCount() const {
  std::lock_guard<std::mutex> G(M);
  return Tasks.size() + RunningTasks;
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  // One call's state, co-owned by its helpers. Body is dereferenced only
  // for a claimed index, and every index is finished before this call
  // returns, so a helper that starts late claims nothing and never
  // touches Body. N == 0 enqueues no helper and returns at once.
  struct Loop {
    const std::function<void(size_t)> *Body;
    size_t N;
    std::atomic<size_t> Next{0};     ///< Next index to claim.
    std::atomic<size_t> Finished{0}; ///< Indices whose Body returned.
  };
  auto S = std::make_shared<Loop>(&Body, N);
  auto Helper = [this, S] {
    for (size_t I; (I = S->Next.fetch_add(1)) < S->N;) {
      (*S->Body)(I);
      if (S->Finished.fetch_add(1) + 1 == S->N) {
        // Lock so the notify cannot fall between the caller's predicate
        // check and its wait.
        { std::lock_guard<std::mutex> G(M); }
        IdleCv.notify_all();
      }
    }
  };
  for (size_t H = std::min<size_t>(N, Threads.size()); H != 0; --H)
    enqueue(Helper);

  std::unique_lock<std::mutex> L(M);
  IdleCv.wait(L, [&S, N] { return S->Finished.load() == N; });
}
