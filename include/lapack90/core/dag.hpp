// lapack90/core/dag.hpp
//
// A small dependency-graph task scheduler for the tiled factorizations
// (lapack/tiled.hpp). A TaskGraph is built once per factorization call —
// tile tasks with atomic dependency counts and explicit edges — and then
// drained by the existing thread pool via detail::parallel_run; the
// scheduler spawns no threads of its own.
//
// Design points:
//
//  * The graph is static: all tasks and edges are added single-threaded
//    before run(). add()/add_edge() are not thread-safe; run() is.
//  * Edges point forward (add_edge throws unless before < after), so
//    insertion order is topological and no cycle can be built. The serial
//    path — a one-worker team, or a run nested in a parallel region — is a
//    plain loop over the tasks in that order, with no mutex or ready
//    queue: the builder's program order, and the oracle the parallel drain
//    is tested against.
//  * Two priority levels for the parallel drain. High-priority tasks
//    (panel factorizations and the updates feeding the next panel) are
//    taken before normal ones, which is what produces panel lookahead: as
//    soon as the tiles feeding panel k+1 finish, the panel factors while
//    step-k trailing updates are still in flight.
//  * Determinism: the scheduler never splits or reorders a task's body,
//    so any topological execution order yields identical bits as long as
//    every pair of tasks touching the same memory is ordered by a path of
//    edges. The builders in lapack/tiled.hpp maintain exactly that
//    invariant (see DESIGN.md section 14).
//  * Cancellation: cancel(status) latches the first non-zero status and
//    makes every not-yet-executed task a no-op. The parallel drain still
//    releases dependency counters, so workers always terminate — a failed
//    tile-workspace probe surfaces INFO=-100 without deadlocking the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lapack90/core/parallel.hpp"
#include "lapack90/core/types.hpp"

namespace la {

class TaskGraph {
 public:
  using TaskId = idx;
  enum class Priority { Normal = 0, High = 1 };

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Number of tasks added so far.
  [[nodiscard]] idx size() const noexcept {
    return static_cast<idx>(nodes_.size());
  }

  /// Add a task. Build phase only (single-threaded, before run()).
  TaskId add(std::function<void()> fn, Priority pr = Priority::Normal) {
    nodes_.emplace_back(std::move(fn), pr == Priority::High);
    return static_cast<TaskId>(nodes_.size()) - 1;
  }

  /// Declare that `after` must not start until `before` has finished.
  /// Build phase only. Edges must point forward (0 <= before < after <
  /// size()); anything else throws std::invalid_argument.
  void add_edge(TaskId before, TaskId after) {
    if (before < 0 || before >= after || after >= size()) {
      throw std::invalid_argument(
          "TaskGraph::add_edge: edges must run from an earlier task to a "
          "later one");
    }
    nodes_[static_cast<std::size_t>(before)].succ.push_back(after);
    nodes_[static_cast<std::size_t>(after)].deps.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Latch `status` (first caller wins) and skip every task that has not
  /// started yet. Safe to call from inside a task.
  void cancel(idx status) noexcept {
    idx expected = 0;
    status_.compare_exchange_strong(expected, status,
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  /// True once cancel() has been called.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The latched cancellation status (0 when never cancelled).
  [[nodiscard]] idx status() const noexcept {
    return status_.load(std::memory_order_relaxed);
  }

  /// Execute the graph to completion and return status(). Workers come
  /// from the existing thread pool; the serial path (one worker, or nested
  /// in a parallel region) runs the tasks in insertion order on the
  /// calling thread; an empty graph returns immediately.
  idx run() {
    const idx ntasks = size();
    if (ntasks == 0) {
      return status();
    }
    const idx nt = std::min<idx>(num_threads(), ntasks);
    if (nt <= 1 || detail::in_parallel_region()) {
      // Program order: every edge points forward, so insertion order is
      // topological.
      for (Node& node : nodes_) {
        if (cancelled()) {
          break;
        }
        node.fn();
      }
      return status();
    }
    remaining_.store(ntasks, std::memory_order_relaxed);
    done_ = false;
    for (TaskId t = 0; t < ntasks; ++t) {
      if (nodes_[static_cast<std::size_t>(t)].deps.load(
              std::memory_order_relaxed) == 0) {
        push_ready(t);
      }
    }
    detail::parallel_run(nt, nt, [this](idx, int) { worker(); });
    return status();
  }

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> succ;
    std::atomic<idx> deps{0};
    bool high;
    Node(std::function<void()> f, bool h) : fn(std::move(f)), high(h) {}
  };

  void push_ready(TaskId t) {
    (nodes_[static_cast<std::size_t>(t)].high ? high_ : normal_).push_back(t);
  }

  // Caller holds mutex_ and has checked that a task is ready.
  TaskId pop_ready() {
    auto& q = high_.empty() ? normal_ : high_;
    const TaskId t = q.front();
    q.pop_front();
    return t;
  }

  [[nodiscard]] bool have_ready() const {
    return !high_.empty() || !normal_.empty();
  }

  /// Run one task body (unless cancelled), then release its successors.
  void execute(TaskId t) {
    Node& node = nodes_[static_cast<std::size_t>(t)];
    if (!cancelled_.load(std::memory_order_acquire)) {
      node.fn();
    }
    std::vector<TaskId> ready;
    for (const TaskId s : node.succ) {
      if (nodes_[static_cast<std::size_t>(s)].deps.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        ready.push_back(s);
      }
    }
    const bool finished =
        remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    if (!ready.empty() || finished) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const TaskId s : ready) {
          push_ready(s);
        }
        if (finished) {
          done_ = true;
        }
      }
      if (finished || ready.size() > 1) {
        cv_.notify_all();
      } else {
        cv_.notify_one();
      }
    }
  }

  /// Pool worker: pull ready tasks until the graph is drained.
  void worker() {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      cv_.wait(lk, [this] { return done_ || have_ready(); });
      if (done_ && !have_ready()) {
        return;
      }
      const TaskId t = pop_ready();
      lk.unlock();
      execute(t);
      lk.lock();
    }
  }

  std::deque<Node> nodes_;  // deque: Node is immovable (atomic member)
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<TaskId> high_;
  std::deque<TaskId> normal_;
  bool done_ = false;
  std::atomic<idx> remaining_{0};
  std::atomic<idx> status_{0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace la
