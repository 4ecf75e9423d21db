// Task-DAG scheduler (core/dag.hpp) and the tiled factorizations built on
// it (lapack/tiled.hpp). Two layers of coverage:
//
//  * TaskGraph semantics: every task runs exactly once, dependencies are
//    honored, backward edges are rejected, the serial path replays
//    insertion order, cancellation skips pending tasks without
//    deadlocking, empty graphs never touch the pool.
//  * Tiled getrf/potrf/geqrf: the 4- and 8-worker DAG runs bit-identical
//    to the 1-worker program-order run at a matched tile schedule (the
//    determinism contract of DESIGN.md section 14), degenerate shapes
//    against the unblocked reference (including INFO), NaN/Inf input
//    against the fork-join path's INFO, and the -100 workspace-injection
//    cancellation path.
//
// These suites ride the "dag" ctest label, the thread-matrix runs and the
// tsan preset (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lapack90/core/dag.hpp"
#include "test_utils.hpp"

namespace la::test {
namespace {

// ---------------------------------------------------------------------------
// RAII overrides: scheduler mode, tile size (all three routines), workers.
// ---------------------------------------------------------------------------

struct SchedulerGuard {
  TileScheduler prev;
  explicit SchedulerGuard(TileScheduler s) : prev(set_tile_scheduler(s)) {}
  ~SchedulerGuard() { set_tile_scheduler(prev); }
};

struct TileNbGuard {
  idx pg, pp, pq;
  explicit TileNbGuard(idx nb)
      : pg(set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, nb)),
        pp(set_env_override(EnvSpec::TileSize, EnvRoutine::potrf, nb)),
        pq(set_env_override(EnvSpec::TileSize, EnvRoutine::geqrf, nb)) {}
  ~TileNbGuard() {
    set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, pg);
    set_env_override(EnvSpec::TileSize, EnvRoutine::potrf, pp);
    set_env_override(EnvSpec::TileSize, EnvRoutine::geqrf, pq);
  }
};

struct ThreadsGuard {
  idx prev;
  explicit ThreadsGuard(idx nt) : prev(set_num_threads(nt)) {}
  ~ThreadsGuard() { set_num_threads(prev); }
};

template <Scalar T>
void expect_bitwise(const Matrix<T>& a, const Matrix<T>& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  idx mismatches = 0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      if (!(a(i, j) == b(i, j))) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what << ": " << mismatches
                           << " element(s) differ bitwise";
}

// ---------------------------------------------------------------------------
// TaskGraph semantics.
// ---------------------------------------------------------------------------

TEST(DagSchedulerTest, EmptyGraphReturnsWithoutRunning) {
  TaskGraph g;
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.run(), 0);
  EXPECT_FALSE(g.cancelled());
}

TEST(DagSchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskGraph g;
  constexpr idx kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<TaskGraph::TaskId> ids;
  for (idx i = 0; i < kTasks; ++i) {
    ids.push_back(g.add([&hits, i] {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }));
  }
  // Deterministic sparse edge pattern (always from lower to higher id).
  for (idx i = 0; i < kTasks; ++i) {
    if (i + 1 < kTasks && i % 2 == 0) {
      g.add_edge(ids[static_cast<std::size_t>(i)],
                 ids[static_cast<std::size_t>(i + 1)]);
    }
    if (i + 7 < kTasks) {
      g.add_edge(ids[static_cast<std::size_t>(i)],
                 ids[static_cast<std::size_t>(i + 7)]);
    }
  }
  EXPECT_EQ(g.run(), 0);
  for (idx i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(DagSchedulerTest, RespectsDependencyOrder) {
  TaskGraph g;
  std::mutex mu;
  std::vector<int> order;
  // Diamond fan: root -> 8 middles -> sink.
  const auto record = [&mu, &order](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
  };
  const TaskGraph::TaskId root = g.add([&] { record(0); });
  std::vector<TaskGraph::TaskId> mid;
  for (int i = 1; i <= 8; ++i) {
    mid.push_back(g.add([&record, i] { record(i); }));
    g.add_edge(root, mid.back());
  }
  const TaskGraph::TaskId sink = g.add([&] { record(9); });
  for (const auto t : mid) {
    g.add_edge(t, sink);
  }
  EXPECT_EQ(g.run(), 0);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order.front(), 0);  // root strictly first
  EXPECT_EQ(order.back(), 9);   // sink strictly last
}

TEST(DagSchedulerTest, SerialDrainReplaysInsertionOrder) {
  // Mixed priorities over two interleaved chains: the serial path ignores
  // priority and runs the tasks in the order they were added.
  const std::vector<int> program = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto build_and_run = [&program](std::vector<int>& order) {
    TaskGraph g;
    for (const int i : program) {
      const TaskGraph::TaskId id = g.add(
          [&order, i] { order.push_back(i); },
          i % 3 == 0 ? TaskGraph::Priority::Normal : TaskGraph::Priority::High);
      if (i >= 2) {
        g.add_edge(id - 2, id);
      }
    }
    EXPECT_EQ(g.run(), 0);
  };
  {
    ThreadsGuard one(1);
    std::vector<int> order;
    build_and_run(order);
    EXPECT_EQ(order, program) << "one-worker team";
  }
  // Nested: each chunk of a parallel_for drains its own graph serially.
  ThreadsGuard four(4);
  std::vector<std::vector<int>> orders(8);
  std::atomic<int> nested{0};
  parallel_for(8, [&](idx c, int) {
    if (detail::in_parallel_region()) {  // not on one hardware thread
      nested.fetch_add(1, std::memory_order_relaxed);
      build_and_run(orders[static_cast<std::size_t>(c)]);
    }
  });
  if (nested.load() == 0) {
    GTEST_SKIP() << "parallel_for never entered a parallel region here";
  }
  for (const auto& order : orders) {
    if (!order.empty()) {
      EXPECT_EQ(order, program) << "nested inside parallel_for";
    }
  }
}

TEST(DagSchedulerTest, AddEdgeRejectsEdgesThatDoNotPointForward) {
  TaskGraph g;
  std::atomic<int> ran{0};
  const TaskGraph::TaskId a = g.add([&ran] { ran.fetch_add(1); });
  const TaskGraph::TaskId b = g.add([&ran] { ran.fetch_add(1); });
  EXPECT_THROW(g.add_edge(b, a), std::invalid_argument);  // later -> earlier
  EXPECT_THROW(g.add_edge(a, a), std::invalid_argument);  // self edge
  EXPECT_THROW(g.add_edge(a, b + 1), std::invalid_argument);  // unknown id
  EXPECT_THROW(g.add_edge(-1, b), std::invalid_argument);
  g.add_edge(a, b);
  // Rejected edges leave no dependency behind: both tasks still run once.
  EXPECT_EQ(g.run(), 0);
  EXPECT_EQ(ran.load(), 2);
}

TEST(DagSchedulerTest, CancelSkipsPendingAndSurfacesStatus) {
  TaskGraph g;
  std::atomic<int> ran{0};
  std::vector<TaskGraph::TaskId> ids;
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    ids.push_back(g.add([&g, &ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) {
        g.cancel(-100);
      }
    }));
    if (i > 0) {
      g.add_edge(ids[static_cast<std::size_t>(i - 1)],
                 ids[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(g.run(), -100);  // terminates: no deadlock, counters drained
  EXPECT_TRUE(g.cancelled());
  EXPECT_EQ(g.status(), -100);
  EXPECT_EQ(ran.load(), 4);  // chain order: tasks after the canceller skip
  // The first latched status wins over later cancellations.
  TaskGraph g2;
  g2.cancel(-7);
  g2.cancel(-100);
  EXPECT_EQ(g2.status(), -7);
}

// ---------------------------------------------------------------------------
// Tiled factorizations.
// ---------------------------------------------------------------------------

template <Scalar T>
class TiledFactorTest : public ::testing::Test {};
TYPED_TEST_SUITE(TiledFactorTest, AllTypes);

// The bit-identity oracle: a one-worker run executes the task graph in the
// builder's program order (core/dag.hpp), and the 4- and 8-worker DAG
// drains must reproduce it bit for bit.
TYPED_TEST(TiledFactorTest, GetrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  SchedulerGuard sg(TileScheduler::TiledDag);
  TileNbGuard nb(64);
  Iseed seed = seed_for(601);
  for (auto [m, n] : {std::pair<idx, idx>{200, 200}, {200, 150}, {150, 200},
                      {257, 193}}) {
    const Matrix<T> a0 = random_matrix<T>(m, n, seed);
    const idx k = std::min(m, n);
    const auto factor = [&](idx workers, Matrix<T>& f,
                            std::vector<idx>& piv) {
      ThreadsGuard tg(workers);
      f = a0;
      piv.assign(static_cast<std::size_t>(k), -1);
      ASSERT_EQ(lapack::getrf(m, n, f.data(), f.ld(), piv.data()), 0);
    };
    Matrix<T> ref(m, n), cur(m, n);
    std::vector<idx> pref, pcur;
    factor(1, ref, pref);
    for (const idx workers : {idx{4}, idx{8}}) {
      factor(workers, cur, pcur);
      expect_bitwise(cur, ref, "dag factors vs 1-worker program order");
      EXPECT_EQ(pcur, pref);
    }
    // And the result is a genuine LU of a0: solve a square system through
    // the factors (square case only).
    if (m == n) {
      Matrix<T> x = random_matrix<T>(n, 2, seed);
      const Matrix<T> b = multiply(a0, x);
      Matrix<T> y = b;
      ASSERT_EQ(lapack::getrs(Trans::NoTrans, n, 2, ref.data(), ref.ld(),
                              pref.data(), y.data(), y.ld()),
                0);
      EXPECT_LT(solve_ratio(a0, y, b), real_t<T>(30));
    }
  }
}

TYPED_TEST(TiledFactorTest, PotrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  SchedulerGuard sg(TileScheduler::TiledDag);
  TileNbGuard nb(64);
  Iseed seed = seed_for(602);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const idx n : {idx{200}, idx{257}}) {
      const Matrix<T> a0 = random_spd<T>(n, seed);
      const auto factor = [&](idx workers, Matrix<T>& f) {
        ThreadsGuard tg(workers);
        f = a0;
        ASSERT_EQ(lapack::potrf(uplo, n, f.data(), f.ld()), 0);
      };
      Matrix<T> ref(n, n), cur(n, n);
      factor(1, ref);
      for (const idx workers : {idx{4}, idx{8}}) {
        factor(workers, cur);
        expect_bitwise(cur, ref, "dag potrf vs 1-worker program order");
      }
      // Solve through the factors to pin correctness.
      Matrix<T> x = random_matrix<T>(n, 2, seed);
      const Matrix<T> b = multiply(a0, x);
      Matrix<T> y = b;
      ASSERT_EQ(lapack::potrs(uplo, n, 2, ref.data(), ref.ld(), y.data(),
                              y.ld()),
                0);
      EXPECT_LT(solve_ratio(a0, y, b), real_t<T>(30));
    }
  }
}

TYPED_TEST(TiledFactorTest, GeqrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  SchedulerGuard sg(TileScheduler::TiledDag);
  TileNbGuard nb(64);
  Iseed seed = seed_for(603);
  for (auto [m, n] :
       {std::pair<idx, idx>{200, 150}, {150, 200}, {257, 257}}) {
    const Matrix<T> a0 = random_matrix<T>(m, n, seed);
    const idx k = std::min(m, n);
    const auto factor = [&](idx workers, Matrix<T>& f,
                            std::vector<T>& tau) {
      ThreadsGuard tg(workers);
      f = a0;
      tau.assign(static_cast<std::size_t>(k), T(0));
      ASSERT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), 0);
    };
    Matrix<T> ref(m, n), cur(m, n);
    std::vector<T> tref, tcur;
    factor(1, ref, tref);
    for (const idx workers : {idx{4}, idx{8}}) {
      factor(workers, cur, tcur);
      expect_bitwise(cur, ref, "dag geqrf vs 1-worker program order");
      EXPECT_EQ(tcur, tref);
    }
    // Reconstruct Q R and compare against the input (tall/square shapes).
    if (m >= n) {
      Matrix<T> q = ref;
      lapack::orgqr(m, n, k, q.data(), q.ld(), tref.data());
      Matrix<T> r(n, n);
      lapack::lacpy(lapack::Part::Upper, n, n, ref.data(), ref.ld(),
                    r.data(), r.ld());
      EXPECT_LE(max_diff(multiply(q, r), a0), tol<T>() * real_t<T>(m + n));
      EXPECT_LE(orthogonality(q), tol<T>() * real_t<T>(m));
    }
  }
}

TYPED_TEST(TiledFactorTest, DegenerateShapesNeverBuildGraphs) {
  using T = TypeParam;
  SchedulerGuard sg(TileScheduler::TiledDag);
  TileNbGuard nb(64);
  Iseed seed = seed_for(604);
  // k = 0: quick return, INFO 0, nothing touched.
  T dummy = T(42);
  idx pdummy = -3;
  EXPECT_EQ(lapack::tiled::getrf<T>(0, 0, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::tiled::getrf<T>(0, 5, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::tiled::getrf<T>(5, 0, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::tiled::potrf<T>(Uplo::Lower, 0, &dummy, 1), 0);
  EXPECT_EQ(lapack::tiled::geqrf<T>(0, 0, &dummy, 1, &dummy), 0);
  EXPECT_EQ(lapack::tiled::geqrf<T>(0, 7, &dummy, 1, &dummy), 0);
  EXPECT_EQ(dummy, T(42));
  EXPECT_EQ(pdummy, -3);
  // Single tile (nb >= k): bitwise identical to the unblocked reference,
  // including INFO for a singular input.
  {
    TileNbGuard big(1 << 12);
    const idx n = 96;
    Matrix<T> a = random_matrix<T>(n, n, seed);
    a(7, 7) = T(0);
    for (idx i = 0; i < n; ++i) {
      a(i, 20) = T(0);  // exactly-zero column -> deterministic INFO
    }
    Matrix<T> t = a, u = a;
    std::vector<idx> pt(n), pu(n);
    const idx it = lapack::tiled::getrf(n, n, t.data(), t.ld(), pt.data());
    const idx iu = lapack::getf2(n, n, u.data(), u.ld(), pu.data());
    EXPECT_EQ(it, iu);
    EXPECT_EQ(pt, pu);
    expect_bitwise(t, u, "single-tile getrf vs getf2");
  }
  // Multi-tile singular input: INFO matches the unblocked reference.
  {
    const idx n = 200;
    Matrix<T> a = random_matrix<T>(n, n, seed);
    for (idx i = 0; i < n; ++i) {
      a(i, 130) = T(0);  // lands in the third 64-wide panel
    }
    Matrix<T> t = a, u = a;
    std::vector<idx> pt(n), pu(n);
    const idx it = lapack::getrf(n, n, t.data(), t.ld(), pt.data());
    const idx iu = lapack::getf2(n, n, u.data(), u.ld(), pu.data());
    EXPECT_EQ(it, iu);
    EXPECT_EQ(it, 131);  // 1-based first zero pivot
  }
  // Non-positive-definite potrf: INFO matches the legacy blocked path.
  {
    const idx n = 200;
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Matrix<T> a = random_spd<T>(n, seed);
      a(150, 150) = T(-1000);
      Matrix<T> t = a, u = a;
      idx il, id;
      {
        SchedulerGuard legacy(TileScheduler::ForkJoin);
        il = lapack::potrf(uplo, n, u.data(), u.ld());
      }
      id = lapack::potrf(uplo, n, t.data(), t.ld());
      EXPECT_EQ(id, il);
      EXPECT_EQ(id, 151);
    }
  }
}

TYPED_TEST(TiledFactorTest, WorkspaceInjectionCancelsDagWithoutDeadlock) {
  using T = TypeParam;
  TileNbGuard nb(32);
  Iseed seed = seed_for(605);
  const idx m = 200, n = 160;
  const Matrix<T> a0 = random_matrix<T>(m, n, seed);
  const idx k = std::min(m, n);
  SchedulerGuard sg(TileScheduler::TiledDag);
  // Reference result with no injection active.
  Matrix<T> ref = a0;
  std::vector<T> tref(static_cast<std::size_t>(k), T(0));
  ASSERT_EQ(lapack::geqrf(m, n, ref.data(), ref.ld(), tref.data()), 0);
  // Inject one workspace failure: the first tile task's probe trips,
  // cancels the remaining graph, and INFO = -100 surfaces.
  Matrix<T> f = a0;
  std::vector<T> tau(static_cast<std::size_t>(k), T(0));
  inject_alloc_failures(1);
  EXPECT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), -100);
  inject_alloc_failures(0);
  // The pool survived the cancellation: an immediate retry completes and
  // reproduces the reference bitwise.
  f = a0;
  std::fill(tau.begin(), tau.end(), T(0));
  ASSERT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), 0);
  expect_bitwise(f, ref, "geqrf after cancelled run");
  EXPECT_EQ(tau, tref);
}

TYPED_TEST(TiledFactorTest, NonFiniteInputTerminatesWithForkJoinInfo) {
  // NaN or +-Inf at one interior position of a four-tile problem: every
  // tiled driver returns, with the fork-join path's INFO at 1 and 4
  // workers (the values are listed in DESIGN.md section 14).
  using T = TypeParam;
  using R = real_t<T>;
  TileNbGuard nb(64);
  Iseed seed = seed_for(606);
  const idx n = 200, bi = 150, bj = 70;  // below the diagonal
  ASSERT_TRUE(lapack::tiled::enabled(EnvRoutine::geqrf, n, n));
  const Matrix<T> g0 = random_matrix<T>(n, n, seed);
  const Matrix<T> s0 = random_spd<T>(n, seed);
  const char* const drivers[] = {"getrf", "potrf lower", "potrf upper",
                                 "geqrf"};
  for (const R bad : {std::numeric_limits<R>::quiet_NaN(),
                      std::numeric_limits<R>::infinity(),
                      -std::numeric_limits<R>::infinity()}) {
    for (int d = 0; d < 4; ++d) {
      const auto info_of = [&](TileScheduler sched, idx workers) {
        SchedulerGuard sg(sched);
        ThreadsGuard tg(workers);
        Matrix<T> a = d == 1 || d == 2 ? s0 : g0;
        (d == 2 ? a(bj, bi) : a(bi, bj)) = T(bad);  // the triangle read
        std::vector<idx> piv(static_cast<std::size_t>(n));
        std::vector<T> tau(static_cast<std::size_t>(n));
        idx info = 0;
        within_timeout(drivers[d], [&] {
          info = d == 0   ? lapack::getrf(n, n, a.data(), a.ld(), piv.data())
                 : d == 1 ? lapack::potrf(Uplo::Lower, n, a.data(), a.ld())
                 : d == 2 ? lapack::potrf(Uplo::Upper, n, a.data(), a.ld())
                          : lapack::geqrf(n, n, a.data(), a.ld(), tau.data());
        });
        return info;
      };
      const idx fork_join = info_of(TileScheduler::ForkJoin, 1);
      for (const idx workers : {idx{1}, idx{4}}) {
        EXPECT_EQ(info_of(TileScheduler::TiledDag, workers), fork_join)
            << drivers[d] << " with " << bad << " at " << workers
            << " worker(s)";
      }
    }
  }
}

TEST(TiledEnvTest, TileKnobDefaultsAndOverrides) {
  // LAPACK90_TILE_NB default (the test environment does not set it) and
  // the per-routine override round trip.
  EXPECT_EQ(ilaenv(EnvSpec::TileSize, EnvRoutine::getrf, 0), 128);
  const idx prev = set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, 48);
  EXPECT_EQ(ilaenv(EnvSpec::TileSize, EnvRoutine::getrf, 0), 48);
  EXPECT_EQ(ilaenv(EnvSpec::TileSize, EnvRoutine::potrf, 0), 128);
  set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, prev);
  EXPECT_EQ(ilaenv(EnvSpec::TileSize, EnvRoutine::getrf, 0), 128);
  // Scheduler: task-DAG by default, round-trips through the typed setter.
  EXPECT_EQ(ilaenv(EnvSpec::TileScheduler, EnvRoutine::getrf, 0), 3);
  EXPECT_EQ(tile_scheduler(), TileScheduler::TiledDag);
  const TileScheduler sprev = set_tile_scheduler(TileScheduler::ForkJoin);
  EXPECT_EQ(sprev, TileScheduler::TiledDag);
  EXPECT_EQ(tile_scheduler(), TileScheduler::ForkJoin);
  EXPECT_EQ(set_tile_scheduler(sprev), TileScheduler::ForkJoin);
  EXPECT_EQ(tile_scheduler(), TileScheduler::TiledDag);
  // The retired barrier id (an old tuning file, or a raw override) runs
  // the DAG.
  const idx raw =
      set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf, 2);
  EXPECT_EQ(tile_scheduler(), TileScheduler::TiledDag);
  set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf, raw);
}

TEST(TiledEnvTest, SetTileSchedulerWinsOverTheRetiredEnvVar) {
  // The scheduler's former environment variable is no longer read, so an
  // exported value cannot turn the fork-join arm of an A/B measurement
  // back into the DAG.
  const char* const retired = "LAPACK90_TILE_SCHEDULER";
  ASSERT_EQ(::setenv(retired, "3", 1), 0);
  detail::refresh_env_cache();
  const TileScheduler prev = set_tile_scheduler(TileScheduler::ForkJoin);
  EXPECT_EQ(tile_scheduler(), TileScheduler::ForkJoin);
  EXPECT_FALSE(lapack::tiled::enabled(EnvRoutine::getrf, 300, 300));
  set_tile_scheduler(prev);
  ASSERT_EQ(::unsetenv(retired), 0);
  detail::refresh_env_cache();
}

TEST(TiledEnvTest, DispatchGateRespectsCrossoverAndTileCount) {
  // Below the legacy crossover (128 for getrf) the gate stays closed even
  // though nb would allow two tiles.
  const idx prev = set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, 16);
  EXPECT_FALSE(lapack::tiled::enabled(EnvRoutine::getrf, 100, 100));
  EXPECT_TRUE(lapack::tiled::enabled(EnvRoutine::getrf, 300, 300));
  set_env_override(EnvSpec::TileSize, EnvRoutine::getrf, prev);
  // Single tile at the default nb=128: closed.
  EXPECT_FALSE(lapack::tiled::enabled(EnvRoutine::getrf, 128, 128));
  EXPECT_TRUE(lapack::tiled::enabled(EnvRoutine::getrf, 300, 300));
  // Fork-join selection closes the gate everywhere.
  SchedulerGuard sg(TileScheduler::ForkJoin);
  EXPECT_FALSE(lapack::tiled::enabled(EnvRoutine::getrf, 300, 300));
}

}  // namespace
}  // namespace la::test
