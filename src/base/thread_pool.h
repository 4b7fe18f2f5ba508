// A small fixed-size worker pool with a blocking parallel-for.
//
// Built for the exhaustive checker (src/core/exhaustive.cpp), which expands
// BFS slices and takes frontier records on it: the unit of work is a pure
// function of index `i` writing only to its own output slot, and the caller
// needs a barrier at the end. Determinism is the caller's design: workers
// compute results into per-index slots, and the caller merges them in
// canonical index order, so the report produced is independent of
// scheduling (see docs/PERFORMANCE.md §6).
//
// A pool of size 1 spawns no threads and runs bodies inline, so serial
// configurations stay genuinely single-threaded.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sep {

class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread;
  // 0 means HardwareThreads(). The pool spawns threads - 1 workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes body(i) for every i in [0, n), in unspecified order on
  // unspecified threads (including the caller), and returns once all calls
  // completed. Not reentrant: body must not call ParallelFor on this pool.
  // Bodies must not throw.
  //
  // With no workers or a single iteration the loop runs inline on the
  // caller: no std::function is materialized, no task is posted and no
  // condition-variable round trip happens, so single-thread hosts pay plain
  // loop cost (BENCH_3's exhaustive_parallel_speedup 0.96 was exactly this
  // overhead). Only the pooled path type-erases the body.
  template <typename Body>
  void ParallelFor(std::size_t n, Body&& body) {
    if (n == 0) {
      return;
    }
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        body(i);
      }
      return;
    }
    const std::function<void(std::size_t)> fn = std::ref(body);
    ParallelForPooled(n, fn);
  }

  // Index of the calling thread within this pool's parallelism: 0 for the
  // thread that owns the pool (and runs inline / participates in jobs),
  // 1..workers for pool workers. Callers use it to pick a scratch slot that
  // is theirs for the duration of one ParallelFor body.
  static int CurrentWorkerIndex() { return worker_index_; }

  static int HardwareThreads();

 private:
  void ParallelForPooled(std::size_t n, const std::function<void(std::size_t)>& body);
  void WorkerMain(int index);

  static thread_local int worker_index_;

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals a new job epoch or shutdown
  std::condition_variable done_cv_;  // signals workers drained from a job
  std::uint64_t epoch_ = 0;          // bumped per ParallelFor (guarded by mu_)
  const std::function<void(std::size_t)>* body_ = nullptr;  // guarded by mu_
  std::size_t n_ = 0;                                       // guarded by mu_
  std::atomic<std::size_t> next_{0};
  int active_ = 0;  // workers still inside the current job (guarded by mu_)
  bool stop_ = false;
};

}  // namespace sep

#endif  // SRC_BASE_THREAD_POOL_H_
