// Nonsymmetric eigenproblem tests: balancing, Hessenberg reduction, the
// Schur QR iteration, eigenvector back-substitution, reordering, and the
// generalized driver.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class R>
class NonsymRealTest : public ::testing::Test {};
TYPED_TEST_SUITE(NonsymRealTest, RealTypes);

template <class T>
class NonsymComplexTest : public ::testing::Test {};
TYPED_TEST_SUITE(NonsymComplexTest, ComplexTypes);

TYPED_TEST(NonsymRealTest, GehrdOrghrSimilarity) {
  using R = TypeParam;
  Iseed seed = seed_for(141);
  const idx n = 20;
  const Matrix<R> a = random_matrix<R>(n, n, seed);
  Matrix<R> h = a;
  std::vector<R> tau(n - 1);
  lapack::gehrd(n, 0, n - 1, h.data(), h.ld(), tau.data());
  Matrix<R> q = h;
  lapack::orghr(n, 0, n - 1, q.data(), q.ld(), tau.data());
  EXPECT_LE(orthogonality(q), tol<R>() * R(n));
  Matrix<R> hh(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= std::min<idx>(j + 1, n - 1); ++i) {
      hh(i, j) = h(i, j);
    }
  }
  Matrix<R> qh = multiply(q, hh);
  Matrix<R> rec = multiply(qh, q, Trans::NoTrans, Trans::Trans);
  EXPECT_LE(max_diff(rec, a), tol<R>(R(100)) * R(n));
}

TYPED_TEST(NonsymRealTest, HseqrProducesRealSchurForm) {
  using R = TypeParam;
  Iseed seed = seed_for(142);
  const idx n = 30;
  const Matrix<R> a = random_matrix<R>(n, n, seed);
  Matrix<R> t = a;
  Matrix<R> vs(n, n);
  std::vector<R> wr(n);
  std::vector<R> wi(n);
  idx sdim = 0;
  ASSERT_EQ(lapack::gees(Job::Vec, n, t.data(), t.ld(), sdim, wr.data(),
                         wi.data(), vs.data(), vs.ld(),
                         [](R, R) { return false; }, false),
            0);
  // A = Z T Z^T and Z orthogonal.
  EXPECT_LE(orthogonality(vs), tol<R>(R(10)) * R(n));
  Matrix<R> zt = multiply(vs, t);
  Matrix<R> rec = multiply(zt, vs, Trans::NoTrans, Trans::Trans);
  EXPECT_LE(max_diff(rec, a), tol<R>(R(300)) * R(n));
  // Quasi-triangular structure: no two consecutive subdiagonals.
  for (idx j = 0; j < n - 2; ++j) {
    if (t(j + 1, j) != R(0)) {
      EXPECT_EQ(t(j + 2, j + 1), R(0));
    }
    EXPECT_EQ(j + 2 < n ? t(j + 2, j) : R(0), R(0));
  }
  // Trace invariant.
  R trace(0);
  R wsum(0);
  for (idx i = 0; i < n; ++i) {
    trace += a(i, i);
    wsum += wr[i];
  }
  EXPECT_NEAR(trace, wsum, tol<R>(R(1000)) * R(n));
  // Complex eigenvalues come in conjugate pairs.
  for (idx i = 0; i < n; ++i) {
    if (wi[i] > R(0)) {
      ASSERT_LT(i + 1, n);
      EXPECT_EQ(wr[i], wr[i + 1]);
      EXPECT_EQ(wi[i], -wi[i + 1]);
      ++i;
    }
  }
}

TYPED_TEST(NonsymRealTest, GeevRightAndLeftEigenvectors) {
  using R = TypeParam;
  using C = std::complex<R>;
  Iseed seed = seed_for(143);
  const idx n = 28;
  const Matrix<R> a = random_matrix<R>(n, n, seed);
  Matrix<R> t = a;
  Matrix<R> vl(n, n);
  Matrix<R> vr(n, n);
  std::vector<R> wr(n);
  std::vector<R> wi(n);
  ASSERT_EQ(lapack::geev(Job::Vec, Job::Vec, n, t.data(), t.ld(), wr.data(),
                         wi.data(), vl.data(), vl.ld(), vr.data(), vr.ld()),
            0);
  const R anorm = lapack::lange(Norm::One, n, n, a.data(), a.ld());
  for (idx k = 0; k < n; ++k) {
    if (wi[k] < R(0)) {
      continue;  // second of a pair, covered with the first
    }
    std::vector<C> v(n);
    std::vector<C> u(n);
    const C lam(wr[k], wi[k]);
    for (idx i = 0; i < n; ++i) {
      v[i] = wi[k] == R(0) ? C(vr(i, k), 0) : C(vr(i, k), vr(i, k + 1));
      u[i] = wi[k] == R(0) ? C(vl(i, k), 0) : C(vl(i, k), vl(i, k + 1));
    }
    // Right: A v = lam v.
    R worst(0);
    for (idx i = 0; i < n; ++i) {
      C s(0);
      for (idx j = 0; j < n; ++j) {
        s += a(i, j) * v[j];
      }
      worst = std::max(worst, std::abs(s - lam * v[i]));
    }
    EXPECT_LE(worst, tol<R>(R(300)) * anorm) << "k=" << k;
    // Left: u^H A = lam u^H.
    R worstl(0);
    for (idx j = 0; j < n; ++j) {
      C s(0);
      for (idx i = 0; i < n; ++i) {
        s += std::conj(u[i]) * a(i, j);
      }
      worstl = std::max(worstl, std::abs(s - lam * std::conj(u[j])));
    }
    EXPECT_LE(worstl, tol<R>(R(300)) * anorm) << "k=" << k;
  }
}

TYPED_TEST(NonsymRealTest, GeesOrderingMovesSelectedToTop) {
  using R = TypeParam;
  Iseed seed = seed_for(144);
  const idx n = 26;
  const Matrix<R> a = random_matrix<R>(n, n, seed);
  Matrix<R> t = a;
  Matrix<R> vs(n, n);
  std::vector<R> wr(n);
  std::vector<R> wi(n);
  idx sdim = 0;
  ASSERT_EQ(lapack::gees(Job::Vec, n, t.data(), t.ld(), sdim, wr.data(),
                         wi.data(), vs.data(), vs.ld(),
                         [](R re, R) { return re < R(0); }, true),
            0);
  EXPECT_GT(sdim, 0);
  for (idx k = 0; k < sdim; ++k) {
    EXPECT_LT(wr[k], R(0)) << "k=" << k;
  }
  for (idx k = sdim; k < n; ++k) {
    EXPECT_GE(wr[k], R(0)) << "k=" << k;
  }
  // Factorization still valid after reordering.
  Matrix<R> zt = multiply(vs, t);
  Matrix<R> rec = multiply(zt, vs, Trans::NoTrans, Trans::Trans);
  EXPECT_LE(max_diff(rec, a), tol<R>(R(2000)) * R(n));
}

TYPED_TEST(NonsymRealTest, GebalHandlesGradedMatrix) {
  using R = TypeParam;
  Iseed seed = seed_for(145);
  const idx n = 12;
  Matrix<R> a = random_matrix<R>(n, n, seed);
  // Grade rows/columns badly.
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      a(i, j) *= std::pow(R(2), R(i) - R(j));
    }
  }
  Matrix<R> t = a;
  std::vector<R> wr(n);
  std::vector<R> wi(n);
  ASSERT_EQ(lapack::geev(Job::NoVec, Job::NoVec, n, t.data(), t.ld(),
                         wr.data(), wi.data(), static_cast<R*>(nullptr), 1,
                         static_cast<R*>(nullptr), 1),
            0);
  // Graded similarity transform leaves the spectrum of the ungraded base
  // unchanged — sanity-check via trace.
  R trace(0);
  R wsum(0);
  for (idx i = 0; i < n; ++i) {
    trace += a(i, i);
    wsum += wr[i];
  }
  EXPECT_NEAR(trace, wsum, tol<R>(R(10000)) * (std::abs(trace) + R(1)));
}

TYPED_TEST(NonsymRealTest, GeevKnownSpectrum) {
  using R = TypeParam;
  Iseed seed = seed_for(146);
  const idx n = 15;
  // Companion-like: build A = Q D Q^T with known real eigenvalues by
  // similarity from a random orthogonal basis (nonsymmetric via two
  // different transforms would change the spectrum, so use symmetric
  // construction but feed it to the nonsymmetric solver).
  std::vector<R> evals(n);
  for (idx i = 0; i < n; ++i) {
    evals[i] = R(i + 1);
  }
  Matrix<R> a(n, n);
  lapack::lagsy(n, evals.data(), a.data(), a.ld(), seed);
  Matrix<R> t = a;
  std::vector<R> wr(n);
  std::vector<R> wi(n);
  ASSERT_EQ(lapack::geev(Job::NoVec, Job::NoVec, n, t.data(), t.ld(),
                         wr.data(), wi.data(), static_cast<R*>(nullptr), 1,
                         static_cast<R*>(nullptr), 1),
            0);
  std::sort(wr.begin(), wr.end());
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(wr[i], evals[i], tol<R>(R(3000)));
    EXPECT_NEAR(wi[i], R(0), tol<R>(R(3000)));
  }
}

TYPED_TEST(NonsymComplexTest, GeevComplexResiduals) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(147);
  const idx n = 24;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> t = a;
  Matrix<T> vl(n, n);
  Matrix<T> vr(n, n);
  Vector<T> w(n);
  ASSERT_EQ(lapack::geev(Job::Vec, Job::Vec, n, t.data(), t.ld(), w.data(),
                         vl.data(), vl.ld(), vr.data(), vr.ld()),
            0);
  const R anorm = lapack::lange(Norm::One, n, n, a.data(), a.ld());
  for (idx k = 0; k < n; ++k) {
    R worst(0);
    for (idx i = 0; i < n; ++i) {
      T s(0);
      for (idx j = 0; j < n; ++j) {
        s += a(i, j) * vr(j, k);
      }
      worst = std::max(worst, R(std::abs(s - w[k] * vr(i, k))));
    }
    EXPECT_LE(worst, tol<T>(R(300)) * anorm);
    R worstl(0);
    for (idx j = 0; j < n; ++j) {
      T s(0);
      for (idx i = 0; i < n; ++i) {
        s += std::conj(vl(i, k)) * a(i, j);
      }
      worstl = std::max(worstl, R(std::abs(s - w[k] * std::conj(vl(j, k)))));
    }
    EXPECT_LE(worstl, tol<T>(R(300)) * anorm);
  }
}

TYPED_TEST(NonsymComplexTest, GeesComplexSchurWithOrdering) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(148);
  const idx n = 22;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> t = a;
  Matrix<T> vs(n, n);
  Vector<T> w(n);
  idx sdim = 0;
  ASSERT_EQ(lapack::gees(Job::Vec, n, t.data(), t.ld(), sdim, w.data(),
                         vs.data(), vs.ld(),
                         [](T z) { return real_part(z) < real_t<T>(0); },
                         true),
            0);
  for (idx k = 0; k < sdim; ++k) {
    EXPECT_LT(real_part(w[k]), R(0));
  }
  for (idx k = sdim; k < n; ++k) {
    EXPECT_GE(real_part(w[k]), R(0));
  }
  // T strictly upper triangular below the diagonal.
  for (idx j = 0; j < n; ++j) {
    for (idx i = j + 1; i < n; ++i) {
      EXPECT_EQ(t(i, j), T(0));
    }
  }
  Matrix<T> zt = multiply(vs, t);
  Matrix<T> rec = multiply(zt, vs, Trans::NoTrans, Trans::ConjTrans);
  EXPECT_LE(max_diff(rec, a), tol<T>(R(2000)) * R(n));
}

TYPED_TEST(NonsymRealTest, GegvSolvesGeneralizedProblem) {
  using R = TypeParam;
  Iseed seed = seed_for(149);
  const idx n = 18;
  const Matrix<R> a = random_matrix<R>(n, n, seed);
  Matrix<R> b = random_matrix<R>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    b(i, i) += R(4);  // keep B well conditioned
  }
  Matrix<R> ac = a;
  Matrix<R> bc = b;
  std::vector<R> ar(n);
  std::vector<R> ai(n);
  std::vector<R> beta(n);
  Matrix<R> vr(n, n);
  ASSERT_EQ(lapack::gegv(Job::NoVec, Job::Vec, n, ac.data(), ac.ld(),
                         bc.data(), bc.ld(), ar.data(), ai.data(),
                         beta.data(), static_cast<R*>(nullptr), 1, vr.data(),
                         vr.ld()),
            0);
  // A v = lambda B v for real eigenvalues.
  const R scale = lapack::lange(Norm::One, n, n, a.data(), a.ld()) +
                  lapack::lange(Norm::One, n, n, b.data(), b.ld());
  for (idx k = 0; k < n; ++k) {
    if (ai[k] != R(0)) {
      continue;
    }
    const R lam = ar[k] / beta[k];
    R worst(0);
    for (idx i = 0; i < n; ++i) {
      R av(0);
      R bv(0);
      for (idx j = 0; j < n; ++j) {
        av += a(i, j) * vr(j, k);
        bv += b(i, j) * vr(j, k);
      }
      worst = std::max(worst, std::abs(av - lam * bv));
    }
    EXPECT_LE(worst, tol<R>(R(10000)) * scale);
  }
}

// ---------------------------------------------------------------------------
// non-finite input: balancing must stop, the drivers must return INFO

template <class T>
class NonsymNonFiniteTest : public ::testing::Test {};
TYPED_TEST_SUITE(NonsymNonFiniteTest, AllTypes);

TYPED_TEST(NonsymNonFiniteTest, BalancingAndEigendriversStopOnNanAndInf) {
  using T = TypeParam;
  using R = real_t<T>;
  const idx n = 8;
  Iseed seed = seed_for(171);
  const Matrix<T> a0 = random_matrix<T>(n, n, seed);
  // An off-diagonal and a diagonal position: the scaling loop's row and
  // column sums skip the diagonal, so it needs its own check.
  const std::pair<idx, idx> spots[] = {{5, 2}, {3, 3}};
  for (const auto& [bi, bj] : spots) {
    for (const R bad : {std::numeric_limits<R>::quiet_NaN(),
                        std::numeric_limits<R>::infinity(),
                        -std::numeric_limits<R>::infinity()}) {
      SCOPED_TRACE(::testing::Message() << bad << " at (" << bi << "," << bj
                                        << ")");
      Matrix<T> a = a0;
      a(bi, bj) = T(bad);

      idx bal_info = 0;
      Matrix<T> ab = a;
      within_timeout("gebal", [&] {
        bal_info = lapack::gebal(n, ab.data(), ab.ld()).info;
      });
      EXPECT_EQ(bal_info, -3);

      idx geev_info = 0;
      idx geevx_info = 0;
      idx f90_info = 0;
      idx f90x_info = 0;
      Matrix<T> ag = a, ax = a, af = a, afx = a;
      Matrix<T> vl(n, n), vr(n, n);
      std::vector<R> scale(n), rconde(n), rcondv(n);
      idx ilo = 0, ihi = 0;
      R abnrm(0);
      if constexpr (is_complex_v<T>) {
        std::vector<T> w(n);
        Vector<T> wv(n);
        within_timeout("geev", [&] {
          geev_info = lapack::geev(Job::Vec, Job::Vec, n, ag.data(), ag.ld(),
                                   w.data(), vl.data(), vl.ld(), vr.data(),
                                   vr.ld());
        });
        within_timeout("geevx", [&] {
          geevx_info = lapack::geevx(Job::Vec, Job::Vec, n, ax.data(), ax.ld(),
                                     w.data(), vl.data(), vl.ld(), vr.data(),
                                     vr.ld(), ilo, ihi, scale.data(), abnrm,
                                     rconde.data(), rcondv.data());
        });
        within_timeout("LA_GEEV", [&] {
          f90::geev(af, wv, nullptr, nullptr, &f90_info);
        });
        within_timeout("LA_GEEVX", [&] {
          f90::geevx(afx, wv, nullptr, nullptr, nullptr, nullptr, {}, nullptr,
                     {}, {}, &f90x_info);
        });
      } else {
        std::vector<R> wr(n), wi(n);
        Vector<R> wrv(n), wiv(n);
        within_timeout("geev", [&] {
          geev_info = lapack::geev(Job::Vec, Job::Vec, n, ag.data(), ag.ld(),
                                   wr.data(), wi.data(), vl.data(), vl.ld(),
                                   vr.data(), vr.ld());
        });
        within_timeout("geevx", [&] {
          geevx_info = lapack::geevx(Job::Vec, Job::Vec, n, ax.data(), ax.ld(),
                                     wr.data(), wi.data(), vl.data(), vl.ld(),
                                     vr.data(), vr.ld(), ilo, ihi, scale.data(),
                                     abnrm, rconde.data(), rcondv.data());
        });
        within_timeout("LA_GEEV", [&] {
          f90::geev(af, wrv, wiv, nullptr, nullptr, &f90_info);
        });
        within_timeout("LA_GEEVX", [&] {
          f90::geevx(afx, wrv, wiv, nullptr, nullptr, nullptr, nullptr, {},
                     nullptr, {}, {}, &f90x_info);
        });
      }
      EXPECT_EQ(geev_info, -4);   // argument 4 of xGEEV: A
      EXPECT_EQ(geevx_info, -4);
      EXPECT_EQ(f90_info, -1);    // argument 1 of LA_GEEV: A
      EXPECT_EQ(f90x_info, -1);
    }
  }
}

}  // namespace
}  // namespace la::test
