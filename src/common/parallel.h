#ifndef DBSHERLOCK_COMMON_PARALLEL_H_
#define DBSHERLOCK_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbsherlock::common {

/// Resolves a parallelism request: 0 means "one lane per CPU this process
/// may run on" (its affinity mask, so `taskset -c 0` yields 1; never less
/// than 1); any other value is taken literally. 1 selects the exact serial
/// path (no pool involvement at all).
size_t EffectiveParallelism(size_t requested);

/// A small shared worker pool. Diagnosis code never uses it directly —
/// ParallelFor/ParallelMap below schedule onto the process-wide instance —
/// but servers run their blocking handlers, and the service its drains and
/// diagnoses, on private pools. A task on a private pool fans out through
/// ParallelFor like any other thread.
///
/// Idle workers are woken last-idle-first (LIFO): Submit wakes the worker
/// that went idle most recently. Under light load the same one or two
/// workers then serve back-to-back tasks, and only their malloc arenas
/// grow to a task's working set. A shared condition variable would wake
/// the longest-idle worker instead, rotating every task over every
/// worker and growing every worker's arena (DESIGN.md §15).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: tasks then only run when
  /// a caller drains them through ParallelFor's calling thread).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const;

  /// Workers currently parked waiting for a task.
  size_t idle_threads() const;

  /// Enqueues `task` and wakes the most recently idle worker, if any (a
  /// busy worker takes the task when it finishes its current one).
  void Submit(std::function<void()> task);

  /// Grows the pool to at least `num_threads` workers (never shrinks).
  void EnsureAtLeast(size_t num_threads);

  /// The process-wide pool, created on first use and sized to
  /// hardware_concurrency; grown on demand when a caller requests a higher
  /// explicit parallelism (benchmarks probe oversubscription this way).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  /// A parked worker's own wakeup; it lives on that worker's stack.
  struct Parked {
    std::condition_variable cv;
    bool listed = false;  // on idle_; cleared by whoever wakes it
  };

  mutable std::mutex mu_;
  std::deque<std::function<void()>> queue_;
  /// Parked workers, most recently idle at the back.
  std::vector<Parked*> idle_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// A reusable, long-lived parallel-execution handle. Constructing one
/// resolves the requested parallelism and grows the process-wide pool to
/// that size once; every Run() after that schedules onto the already-warm
/// workers, so a steady-state caller (e.g. the dbsherlockd append path)
/// performs zero thread creation and zero pool-growth locking per call.
/// ParallelFor/ParallelMap below are thin wrappers over a transient
/// runner, so both entry points share one fan-out implementation.
class ParallelRunner {
 public:
  /// `parallelism`: 0 = one lane per hardware thread, 1 = always serial.
  explicit ParallelRunner(size_t parallelism = 0);

  /// Lanes this runner fans out over (>= 1).
  size_t lanes() const { return lanes_; }

  /// Runs fn(0) .. fn(n-1) over min(lanes(), n) lanes. The calling thread
  /// always participates, so forward progress never depends on pool
  /// capacity; a call made from inside another Run's helper lane runs
  /// inline. Blocks until every index has run. Distinct indices may
  /// touch shared state only through distinct slots (write fn results
  /// into per-index storage; see ParallelMap).
  ///
  /// If any fn(i) throws, remaining unclaimed work is abandoned and the
  /// recorded exception with the lowest index is rethrown here, so the
  /// error surfaced does not depend on thread scheduling.
  void Run(size_t n, const std::function<void(size_t)>& fn) const;

 private:
  size_t lanes_;
};

/// One-shot convenience over ParallelRunner (see Run for the contract).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t parallelism = 0);

/// Ordered parallel map: returns {fn(0), ..., fn(n-1)} with results in
/// index order regardless of execution order, so parallel and serial runs
/// are bit-identical. R must be default-constructible.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, size_t parallelism = 0)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, parallelism);
  return out;
}

}  // namespace dbsherlock::common

#endif  // DBSHERLOCK_COMMON_PARALLEL_H_
