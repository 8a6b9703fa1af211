// A fixed-size worker pool for the portfolio engine. Deliberately minimal:
// FIFO queue, no work stealing — portfolio races submit coarse-grained
// tasks (one mapper run each), so scheduling finesse buys nothing. Shared
// across map() calls, so every race reuses warm threads.
//
// Exception contract: a task that throws never terminates a worker — the
// exception is captured in the task's shared state (std::packaged_task) and
// rethrown to the submitter when the future is awaited. A future dropped
// without get() simply discards the stored exception. Workers therefore
// only ever exit at pool destruction, after the queue has drained.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gridmap::engine {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(int threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Tasks submitted but not yet claimed by a worker (diagnostic; the value
  /// is stale the moment it returns).
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Schedules `task` and returns a future for its result. Exceptions thrown
  /// by the task (std::exception-derived or not) are stored and rethrown by
  /// future.get() — they never reach worker_loop, so no task can kill a
  /// worker or terminate the process.
  template <class F>
  std::future<std::invoke_result_t<F>> submit(F task) {
    using R = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(std::move(task));
    std::future<R> result = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push([packaged] { (*packaged)(); });
    }
    wake_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// A fork-join group of subtasks sharing a ThreadPool with other work.
/// run() enqueues a task (or executes it inline when the pool is null);
/// wait() blocks until every task of *this group* has finished — and while
/// blocked it pops and runs the group's still-unclaimed tasks on the calling
/// thread. That helping is what makes nested use safe: a pool worker that
/// forks subtasks onto its own pool and then joins them can always make
/// progress itself, so a pool saturated with joining parents never
/// deadlocks, and a parent never executes *unrelated* queued work (which
/// would silently charge someone else's run against its own budget).
///
/// Exception contract: a task that throws never escapes a worker; wait()
/// rethrows the exception of the lowest-index failed task after all tasks
/// finished, so which thread ran what never changes which error surfaces.
/// Single-shot: run() must not be called after wait(). The destructor
/// waits (swallowing task exceptions) if wait() was never reached — tasks
/// reference caller state, so the group must not outlive them.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool), state_(std::make_shared<State>()) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup();

  void run(std::function<void()> task);
  void wait();

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable all_done;
    std::deque<std::pair<std::size_t, std::function<void()>>> unclaimed;
    std::size_t outstanding = 0;                // claimed or unclaimed, not yet finished
    std::vector<std::exception_ptr> errors;     // slot per task, submission order

    /// Claims and runs one unclaimed task on the calling thread.
    bool run_one();
  };

  ThreadPool* pool_;
  std::shared_ptr<State> state_;  // shared with in-flight pool wrappers
  bool waited_ = false;
};

/// Splits [0, n) into `chunks` contiguous ranges of near-equal size and runs
/// `body(begin, end, chunk)` for each over a TaskGroup on `pool` (the caller
/// helps, so this is safe from inside a pool task). Range boundaries are a
/// pure function of (n, chunks) — never of timing — so callers can build
/// deterministic reductions keyed on the chunk index. A null pool or
/// chunks <= 1 degenerates to one inline call over the whole range.
void parallel_ranges(ThreadPool* pool, int n, int chunks,
                     const std::function<void(int, int, int)>& body);

}  // namespace gridmap::engine
