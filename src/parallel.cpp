// Thread runtime for the Level-3 BLAS — see include/lapack90/core/parallel.hpp.
//
// One backend sits behind detail::parallel_run: a persistent std::thread
// pool of hardware_threads() - 1 workers, spun up lazily on first use. The
// calling thread participates as tid 0, so a team never exceeds the
// hardware thread count. There is one team: a top-level call that finds
// it busy runs its chunks serially on its own thread instead of queueing
// behind the other call (a serve dispatcher never waits out an
// application's dense solve). The caller waits only for the workers that
// joined before it ran out of chunks, never for a late wake-up.

#include "lapack90/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace la {

idx hardware_threads() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<idx>(hc);
}

const char* thread_backend_name() noexcept {
  return hardware_threads() > 1 ? "std::thread" : "serial";
}

namespace detail {

namespace {

thread_local bool t_in_parallel = false;

}  // namespace

idx default_thread_count() noexcept {
  // Shared hardened reader (see detail::env_knob): a malformed or absurd
  // LAPACK90_NUM_THREADS falls back to hardware concurrency rather than,
  // e.g., LONG_MAX truncated to a negative team size.
  static const idx cached = [] {
    const idx n = env_knob("LAPACK90_NUM_THREADS", idx{1} << 15, 0);
    return n > 0 ? n : hardware_threads();
  }();
  return cached;
}

bool in_parallel_region() noexcept {
  return t_in_parallel;
}

namespace {

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  /// Run the chunks on the team. Returns false, having run nothing, when
  /// another top-level call holds the team.
  bool try_run(idx nchunks, idx nthreads,
               const std::function<void(idx, int)>& body) {
    std::unique_lock<std::mutex> team(team_mutex_, std::try_to_lock);
    if (!team.owns_lock()) {
      return false;
    }
    const idx want = std::min<idx>(nthreads - 1,
                                   static_cast<idx>(workers_.size()));
    {
      std::lock_guard<std::mutex> lk(mutex_);
      body_ = &body;
      nchunks_ = nchunks;
      next_.store(0, std::memory_order_relaxed);
      participants_ = want;
      open_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
    // The caller is tid 0 and works alongside the pool.
    t_in_parallel = true;
    drain(0);
    t_in_parallel = false;
    // Every chunk is claimed. Close the team so a worker that wakes from
    // now on goes back to sleep without touching body_, and wait only for
    // the workers already inside drain(): a slow wake-up never holds the
    // caller.
    std::unique_lock<std::mutex> lk(mutex_);
    open_ = false;
    done_cv_.wait(lk, [&] { return active_ == 0; });
    body_ = nullptr;
    return true;
  }

 private:
  ThreadPool() {
    const idx n = hardware_threads() - 1;
    workers_.reserve(static_cast<std::size_t>(n > 0 ? n : 0));
    for (idx w = 0; w < n; ++w) {
      workers_.emplace_back([this, w] { worker_loop(static_cast<int>(w)); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) {
      t.join();
    }
  }

  void drain(int tid) {
    for (idx i = next_.fetch_add(1, std::memory_order_relaxed); i < nchunks_;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      (*body_)(i, tid);
    }
  }

  void worker_loop(int windex) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      work_cv_.wait(lk, [&] {
        return stop_ || (generation_ != seen && windex < participants_);
      });
      if (stop_) {
        return;
      }
      seen = generation_;
      if (!open_) {
        continue;  // woke after the caller claimed every chunk
      }
      ++active_;
      lk.unlock();
      t_in_parallel = true;
      drain(windex + 1);
      t_in_parallel = false;
      lk.lock();
      if (--active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }

  std::mutex team_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(idx, int)>* body_ = nullptr;
  std::atomic<idx> next_{0};
  idx nchunks_ = 0;
  idx participants_ = 0;
  idx active_ = 0;  // workers inside drain() for the current generation
  std::uint64_t generation_ = 0;
  bool open_ = false;  // the current generation still admits workers
  bool stop_ = false;
};

}  // namespace

void parallel_run(idx nchunks, idx nthreads,
                  const std::function<void(idx, int)>& body) {
  if (hardware_threads() > 1 && nthreads > 1 &&
      ThreadPool::instance().try_run(nchunks, nthreads, body)) {
    return;
  }
  for (idx i = 0; i < nchunks; ++i) {
    body(i, 0);
  }
}

}  // namespace detail
}  // namespace la
