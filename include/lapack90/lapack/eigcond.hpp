// lapack90/lapack/eigcond.hpp
//
// Expert nonsymmetric eigendrivers with condition estimation — the
// substrate under LA_GEEVX and LA_GEESX:
//
//   geevx   eigenvalues/vectors + balancing info + reciprocal condition
//           numbers: RCONDE(i) = |y_i^H x_i| (the classic eigenvalue
//           condition via unit left/right eigenvectors) and RCONDV(i)
//           estimated from the Schur resolvent (xTRSNA scheme, realized
//           with the Higham estimator on a complexified Schur form)
//   geesx   Schur factorization + ordering + RCONDE/RCONDV for the
//           selected cluster (xTRSEN formulas via trsyl)
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/conest.hpp"
#include "lapack90/lapack/nonsymeig.hpp"
#include "lapack90/lapack/trsyl.hpp"

namespace la::lapack {

namespace detail {

/// Estimate sep(lambda_i, T-without-row/col-i) = 1/||inv(T~ - lambda I)||
/// for a complex upper triangular T: the reciprocal right-eigenvector
/// condition number used by geevx. Returns 0 when the resolvent is
/// numerically singular.
template <ComplexScalar C>
real_t<C> resolvent_sep(idx n, const C* t, idx ldt, idx skip, C lambda) {
  using R = real_t<C>;
  const idx k = n - 1;
  if (k == 0) {
    return Machine<R>::huge_val();
  }
  const R smin =
      std::max(safmin<C>(), eps<C>() * lanhs(Norm::One, n, t, ldt));
  auto full = [&](idx p) { return p < skip ? p : p + 1; };
  // (T~ - lambda) x = v back-substitution; T~ is T with row/col `skip`
  // removed (still upper triangular).
  auto solve_n = [&](C* v) {
    for (idx i = k - 1; i >= 0; --i) {
      const idx fi = full(i);
      C s = v[i];
      for (idx j = i + 1; j < k; ++j) {
        s -= t[static_cast<std::size_t>(full(j)) * ldt + fi] * v[j];
      }
      C den = t[static_cast<std::size_t>(fi) * ldt + fi] - lambda;
      if (abs1(den) < smin) {
        den = C(smin);
      }
      v[i] = ladiv(s, den);
    }
  };
  auto solve_h = [&](C* v) {
    for (idx i = 0; i < k; ++i) {
      const idx fi = full(i);
      C s = v[i];
      for (idx j = 0; j < i; ++j) {
        s -= std::conj(t[static_cast<std::size_t>(fi) * ldt + full(j)]) *
             v[j];
      }
      C den =
          std::conj(t[static_cast<std::size_t>(fi) * ldt + fi] - lambda);
      if (abs1(den) < smin) {
        den = C(smin);
      }
      v[i] = ladiv(s, den);
    }
  };
  const R est = norm1_estimate<C>(k, solve_n, solve_h);
  return est > R(0) ? R(1) / est : R(0);
}

}  // namespace detail

/// Expert driver (xGEEVX semantics, 'B' balancing): eigenvalues, optional
/// left/right eigenvectors, balancing data, and reciprocal condition
/// numbers. rconde/rcondv may be null. Complex element types. INFO as for
/// geev: -4 when balancing meets a NaN or Inf in A (ilo/ihi/scale/abnrm
/// are then left at their defaults).
template <ComplexScalar T>
idx geevx(Job jobvl, Job jobvr, idx n, T* a, idx lda, T* w, T* vl, idx ldvl,
          T* vr, idx ldvr, idx& ilo, idx& ihi, real_t<T>* scale,
          real_t<T>& abnrm, real_t<T>* rconde, real_t<T>* rcondv) {
  using R = real_t<T>;
  ilo = 0;
  ihi = n - 1;
  abnrm = R(0);
  if (n == 0) {
    return 0;
  }
  const bool wantcond = rconde != nullptr || rcondv != nullptr;
  auto bal = gebal(n, a, lda);
  if (bal.info != 0) {
    return -4;  // A holds a NaN or Inf
  }
  ilo = bal.ilo;
  ihi = bal.ihi;
  if (scale != nullptr) {
    std::copy(bal.scale.begin(), bal.scale.end(), scale);
  }
  abnrm = lange(Norm::Frobenius, n, n, a, lda);
  std::vector<T> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, bal.ilo, bal.ihi, a, lda, tau.data());
  const bool wantv = jobvl == Job::Vec || jobvr == Job::Vec || wantcond;
  std::vector<T> z;
  if (wantv) {
    z.assign(static_cast<std::size_t>(n) * n, T(0));
    lacpy(Part::All, n, n, a, lda, z.data(), n);
    orghr(n, bal.ilo, bal.ihi, z.data(), n, tau.data());
  }
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, T(0), T(0), a + 2, lda);
  }
  const idx info = hseqr(n, bal.ilo, bal.ihi, a, lda, w,
                         wantv ? z.data() : static_cast<T*>(nullptr), n);
  if (info != 0) {
    return info;
  }
  // Eigenvectors: condition numbers need both sides even if not requested.
  std::vector<T> vls;
  std::vector<T> vrs;
  T* vlp = jobvl == Job::Vec ? vl : nullptr;
  T* vrp = jobvr == Job::Vec ? vr : nullptr;
  idx lvl = jobvl == Job::Vec ? ldvl : n;
  idx lvr = jobvr == Job::Vec ? ldvr : n;
  if (wantcond && vlp == nullptr) {
    vls.assign(static_cast<std::size_t>(n) * n, T(0));
    vlp = vls.data();
  }
  if (wantcond && vrp == nullptr) {
    vrs.assign(static_cast<std::size_t>(n) * n, T(0));
    vrp = vrs.data();
  }
  if (vlp != nullptr || vrp != nullptr) {
    if (vlp != nullptr) {
      lacpy(Part::All, n, n, z.data(), n, vlp, lvl);
    }
    if (vrp != nullptr) {
      lacpy(Part::All, n, n, z.data(), n, vrp, lvr);
    }
    trevc(n, a, lda, vlp, lvl, vrp, lvr);
  }
  if (rconde != nullptr) {
    // RCONDE(i) = |y_i^H x_i| with unit-norm Schur-basis eigenvectors —
    // computed before back-transformation (balancing changes the vectors
    // but the condition numbers refer to the balanced problem, as in
    // xGEEVX).
    for (idx i = 0; i < n; ++i) {
      const T dot = blas::dotc(n, vlp + static_cast<std::size_t>(i) * lvl, 1,
                               vrp + static_cast<std::size_t>(i) * lvr, 1);
      rconde[i] = std::min(R(1), R(std::abs(dot)));
    }
  }
  if (rcondv != nullptr) {
    for (idx i = 0; i < n; ++i) {
      rcondv[i] = detail::resolvent_sep(n, a, lda, i, w[i]);
    }
  }
  if (jobvl == Job::Vec) {
    gebak(bal, n, n, vl, ldvl);
  }
  if (jobvr == Job::Vec) {
    gebak(bal, n, n, vr, ldvr);
  }
  return 0;
}

/// Real overload of geevx (WR/WI convention). RCONDE/RCONDV are computed
/// through a complexified copy of the real Schur form, so complex pairs
/// are handled uniformly.
template <RealScalar R>
idx geevx(Job jobvl, Job jobvr, idx n, R* a, idx lda, R* wr, R* wi, R* vl,
          idx ldvl, R* vr, idx ldvr, idx& ilo, idx& ihi, R* scale, R& abnrm,
          R* rconde, R* rcondv) {
  using C = std::complex<R>;
  ilo = 0;
  ihi = n - 1;
  abnrm = R(0);
  if (n == 0) {
    return 0;
  }
  const bool wantcond = rconde != nullptr || rcondv != nullptr;
  auto bal = gebal(n, a, lda);
  if (bal.info != 0) {
    return -4;  // A holds a NaN or Inf
  }
  ilo = bal.ilo;
  ihi = bal.ihi;
  if (scale != nullptr) {
    std::copy(bal.scale.begin(), bal.scale.end(), scale);
  }
  abnrm = lange(Norm::Frobenius, n, n, a, lda);
  std::vector<R> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, bal.ilo, bal.ihi, a, lda, tau.data());
  const bool wantv = jobvl == Job::Vec || jobvr == Job::Vec || wantcond;
  std::vector<R> z;
  if (wantv) {
    z.assign(static_cast<std::size_t>(n) * n, R(0));
    lacpy(Part::All, n, n, a, lda, z.data(), n);
    orghr(n, bal.ilo, bal.ihi, z.data(), n, tau.data());
  }
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, R(0), R(0), a + 2, lda);
  }
  const idx info = hseqr(n, bal.ilo, bal.ihi, a, lda, wr, wi,
                         wantv ? z.data() : static_cast<R*>(nullptr), n);
  if (info != 0) {
    return info;
  }
  std::vector<R> vls;
  std::vector<R> vrs;
  R* vlp = jobvl == Job::Vec ? vl : nullptr;
  R* vrp = jobvr == Job::Vec ? vr : nullptr;
  idx lvl = jobvl == Job::Vec ? ldvl : n;
  idx lvr = jobvr == Job::Vec ? ldvr : n;
  if (wantcond && vlp == nullptr) {
    vls.assign(static_cast<std::size_t>(n) * n, R(0));
    vlp = vls.data();
  }
  if (wantcond && vrp == nullptr) {
    vrs.assign(static_cast<std::size_t>(n) * n, R(0));
    vrp = vrs.data();
  }
  if (vlp != nullptr || vrp != nullptr) {
    if (vlp != nullptr) {
      lacpy(Part::All, n, n, z.data(), n, vlp, lvl);
    }
    if (vrp != nullptr) {
      lacpy(Part::All, n, n, z.data(), n, vrp, lvr);
    }
    trevc(n, a, lda, wr, wi, vlp, lvl, vrp, lvr);
  }
  if (rconde != nullptr) {
    // |y^H x| with the packed real/imaginary pair convention.
    idx i = 0;
    while (i < n) {
      if (wi[i] == R(0)) {
        const R dot =
            std::abs(blas::dotu(n, vlp + static_cast<std::size_t>(i) * lvl,
                                1, vrp + static_cast<std::size_t>(i) * lvr,
                                1));
        rconde[i] = std::min(R(1), dot);
        ++i;
      } else {
        C dot(0);
        for (idx r = 0; r < n; ++r) {
          const C y(vlp[static_cast<std::size_t>(i) * lvl + r],
                    vlp[static_cast<std::size_t>(i + 1) * lvl + r]);
          const C x(vrp[static_cast<std::size_t>(i) * lvr + r],
                    vrp[static_cast<std::size_t>(i + 1) * lvr + r]);
          dot += std::conj(y) * x;
        }
        const R v = std::min(R(1), std::abs(dot));
        rconde[i] = v;
        rconde[i + 1] = v;
        i += 2;
      }
    }
  }
  if (rcondv != nullptr) {
    // Complexify the quasi-triangular T once; each sep estimate then runs
    // on a genuinely triangular matrix. The 2x2 blocks contribute their
    // off-diagonals to the complex copy's subdiagonal; zeroing them after
    // extracting the eigenvalues keeps the resolvent triangular — the
    // standard estimator slack absorbs the perturbation.
    std::vector<C> tc(static_cast<std::size_t>(n) * n, C(0));
    for (idx j = 0; j < n; ++j) {
      for (idx i2 = 0; i2 <= std::min<idx>(j + 1, n - 1); ++i2) {
        tc[static_cast<std::size_t>(j) * n + i2] =
            C(a[static_cast<std::size_t>(j) * lda + i2], R(0));
      }
    }
    for (idx j = 0; j < n; ++j) {
      // Put the eigenvalues on the diagonal and drop subdiagonals.
      tc[static_cast<std::size_t>(j) * n + j] = C(wr[j], wi[j]);
      if (j > 0) {
        tc[static_cast<std::size_t>(j - 1) * n + j] = C(0);
      }
    }
    for (idx i2 = 0; i2 < n; ++i2) {
      rcondv[i2] =
          detail::resolvent_sep(n, tc.data(), n, i2, C(wr[i2], wi[i2]));
    }
  }
  if (jobvl == Job::Vec) {
    gebak(bal, n, n, vl, ldvl);
  }
  if (jobvr == Job::Vec) {
    gebak(bal, n, n, vr, ldvr);
  }
  return 0;
}

/// Expert Schur driver (xGEESX semantics): gees plus the reciprocal
/// condition numbers of the selected cluster — rconde for the average of
/// the selected eigenvalues (s of xTRSEN), rcondv for the right invariant
/// subspace (sep estimate). Complex element types.
template <ComplexScalar T, class Select>
idx geesx(Job jobvs, idx n, T* a, idx lda, idx& sdim, T* w, T* vs, idx ldvs,
          Select&& select, bool do_sort, real_t<T>* rconde,
          real_t<T>* rcondv) {
  using R = real_t<T>;
  const idx info = gees(jobvs, n, a, lda, sdim, w, vs, ldvs,
                        std::forward<Select>(select), do_sort);
  if (info != 0) {
    return info;
  }
  if (rconde != nullptr) {
    *rconde = R(1);
  }
  if (rcondv != nullptr) {
    *rcondv = Machine<R>::huge_val();
  }
  if ((rconde == nullptr && rcondv == nullptr) || sdim == 0 || sdim == n) {
    return 0;
  }
  const idx m = sdim;
  const idx n2 = n - m;
  if (rconde != nullptr) {
    // Solve T11 X - X T22 = scale * T12; s = scale / sqrt(scale^2+||X||^2).
    std::vector<T> x(static_cast<std::size_t>(m) * n2);
    lacpy(Part::All, m, n2, a + static_cast<std::size_t>(m) * lda, lda,
          x.data(), m);
    R sc(1);
    trsyl(Trans::NoTrans, Trans::NoTrans, -1, m, n2, a, lda,
          a + static_cast<std::size_t>(m) * lda + m, lda, x.data(), m, sc);
    const R xnorm = lange(Norm::Frobenius, m, n2, x.data(), m);
    *rconde = sc / lapy2(sc, xnorm);
  }
  if (rcondv != nullptr) {
    // sep(T11, T22) via the Higham estimator on the inverse Sylvester
    // operator (xTRSEN's JOB='V' path).
    auto solve = [&](T* v) {
      R sc(1);
      trsyl(Trans::NoTrans, Trans::NoTrans, -1, m, n2, a, lda,
            a + static_cast<std::size_t>(m) * lda + m, lda, v, m, sc);
    };
    auto solveh = [&](T* v) {
      R sc(1);
      trsyl(conj_trans_for<T>(), conj_trans_for<T>(), -1, m, n2, a, lda,
            a + static_cast<std::size_t>(m) * lda + m, lda, v, m, sc);
    };
    const R est = norm1_estimate<T>(m * n2, solve, solveh);
    *rcondv = est > R(0) ? R(1) / est : R(0);
  }
  return 0;
}

/// Real overload of geesx.
template <RealScalar R, class Select>
idx geesx(Job jobvs, idx n, R* a, idx lda, idx& sdim, R* wr, R* wi, R* vs,
          idx ldvs, Select&& select, bool do_sort, R* rconde, R* rcondv) {
  const idx info = gees(jobvs, n, a, lda, sdim, wr, wi, vs, ldvs,
                        std::forward<Select>(select), do_sort);
  if (info != 0) {
    return info;
  }
  if (rconde != nullptr) {
    *rconde = R(1);
  }
  if (rcondv != nullptr) {
    *rcondv = Machine<R>::huge_val();
  }
  if ((rconde == nullptr && rcondv == nullptr) || sdim == 0 || sdim == n) {
    return 0;
  }
  const idx m = sdim;
  const idx n2 = n - m;
  if (rconde != nullptr) {
    std::vector<R> x(static_cast<std::size_t>(m) * n2);
    lacpy(Part::All, m, n2, a + static_cast<std::size_t>(m) * lda, lda,
          x.data(), m);
    R sc(1);
    trsyl(Trans::NoTrans, Trans::NoTrans, -1, m, n2, a, lda,
          a + static_cast<std::size_t>(m) * lda + m, lda, x.data(), m, sc);
    const R xnorm = lange(Norm::Frobenius, m, n2, x.data(), m);
    *rconde = sc / lapy2(sc, xnorm);
  }
  if (rcondv != nullptr) {
    auto solve = [&](R* v) {
      R sc(1);
      trsyl(Trans::NoTrans, Trans::NoTrans, -1, m, n2, a, lda,
            a + static_cast<std::size_t>(m) * lda + m, lda, v, m, sc);
    };
    auto solveh = [&](R* v) {
      R sc(1);
      trsyl(Trans::Trans, Trans::Trans, -1, m, n2, a, lda,
            a + static_cast<std::size_t>(m) * lda + m, lda, v, m, sc);
    };
    const R est = norm1_estimate<R>(m * n2, solve, solveh);
    *rcondv = est > R(0) ? R(1) / est : R(0);
  }
  return 0;
}

}  // namespace la::lapack
