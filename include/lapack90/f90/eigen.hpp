// lapack90/f90/eigen.hpp
//
// F90_LAPACK eigenvalue and singular value drivers (paper Appendix G):
// standard (LA_SYEV family, LA_GEEV, LA_GEES, LA_GESVD), divide-and-
// conquer (LA_SYEVD family), expert (LA_SYEVX family), and generalized
// (LA_SYGV family, LA_GEGV, LA_GGSVD) problems.
//
// The ω convention of the paper ("ω is either WR, WI or W") maps onto
// overloads: real element types take (wr, wi) Vector pairs, complex ones
// take a single complex w Vector.
#pragma once

#include <functional>
#include <type_traits>
#include <span>
#include <vector>

#include "lapack90/core/banded.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/matrix.hpp"
#include "lapack90/core/packed.hpp"
#include "lapack90/f77/f77_lapack.hpp"
#include "lapack90/f90/linear.hpp"

namespace la::f90 {

/// LA_SYEV / LA_HEEV( A, W, JOBZ=jobz, UPLO=uplo, INFO=info ).
template <Scalar T>
void syev(Matrix<T>& a, Vector<real_t<T>>& w, Job jobz = Job::Vec,
          Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_syev(jobz, uplo, n, a.data(), a.ld(), w.data(), linfo);
  }
  erinfo(linfo, "LA_SYEV", info);
}

/// Hermitian alias (LA_HEEV).
template <Scalar T>
void heev(Matrix<T>& a, Vector<real_t<T>>& w, Job jobz = Job::Vec,
          Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  syev(a, w, jobz, uplo, info);
}

/// LA_SYEVD / LA_HEEVD — divide and conquer variant.
template <Scalar T>
void syevd(Matrix<T>& a, Vector<real_t<T>>& w, Job jobz = Job::Vec,
           Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_syevd(jobz, uplo, n, a.data(), a.ld(), w.data(), linfo);
  }
  erinfo(linfo, "LA_SYEVD", info);
}

/// Hermitian alias (LA_HEEVD).
template <Scalar T>
void heevd(Matrix<T>& a, Vector<real_t<T>>& w, Job jobz = Job::Vec,
           Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  syevd(a, w, jobz, uplo, info);
}

/// LA_SYEVX / LA_HEEVX( A, W, UPLO=, VL=, VU=, IL=, IU=, M=, ABSTOL=,
/// INFO= ): selected eigenvalues (by value when vl/vu given, by 1-based
/// index when il/iu given, all otherwise) and optional eigenvectors in z.
template <Scalar T>
void syevx(Matrix<T>& a, Vector<real_t<T>>& w, std::type_identity_t<Matrix<T>>* z = nullptr,
           Uplo uplo = Uplo::Upper, const real_t<T>* vl = nullptr,
           const real_t<T>* vu = nullptr, idx il = 0, idx iu = 0,
           idx* m = nullptr, real_t<T> abstol = real_t<T>(-1),
           idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  idx mfound = 0;
  lapack::Range range = lapack::Range::All;
  if (vl != nullptr || vu != nullptr) {
    range = lapack::Range::Value;
  } else if (il > 0 || iu > 0) {
    range = lapack::Range::Index;
  }
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() < (range == lapack::Range::Index ? iu - il + 1 : 1) &&
             n > 0) {
    linfo = -2;
  } else if (range == lapack::Range::Index &&
             (il < 1 || iu > n || il > iu)) {
    linfo = -6;
  } else if (n > 0) {
    const R lvl = vl != nullptr ? *vl : -Machine<T>::huge_val();
    const R lvu = vu != nullptr ? *vu : Machine<T>::huge_val();
    std::vector<T> zbuf;
    T* zp = nullptr;
    idx ldz = 1;
    if (z != nullptr) {
      zp = z->data();
      ldz = z->ld();
      if (z->rows() != n) {
        linfo = -3;
      }
    }
    if (linfo == 0) {
      f77::la_syevx(z != nullptr ? Job::Vec : Job::NoVec, range, uplo, n,
                    a.data(), a.ld(), lvl, lvu, il, iu, abstol, mfound,
                    w.data(), zp, ldz, nullptr, linfo);
    }
  }
  if (m != nullptr) {
    *m = mfound;
  }
  erinfo(linfo, "LA_SYEVX", info);
}

/// LA_STEV( D, E, Z=z, INFO=info ): symmetric tridiagonal eigenproblem.
template <RealScalar R>
void stev(Vector<R>& d, Vector<R>& e, std::type_identity_t<Matrix<R>>* z = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = d.size();
  if (n > 0 && e.size() != n - 1) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -3;
  } else if (n > 0) {
    f77::la_stev(z != nullptr ? Job::Vec : Job::NoVec, n, d.data(), e.data(),
                 z != nullptr ? z->data() : nullptr,
                 z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_STEV", info);
}

/// LA_STEVD — divide and conquer variant.
template <RealScalar R>
void stevd(Vector<R>& d, Vector<R>& e, std::type_identity_t<Matrix<R>>* z = nullptr,
           idx* info = nullptr) {
  idx linfo = 0;
  const idx n = d.size();
  if (n > 0 && e.size() != n - 1) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -3;
  } else if (n > 0) {
    f77::la_stevd(z != nullptr ? Job::Vec : Job::NoVec, n, d.data(), e.data(),
                  z != nullptr ? z->data() : nullptr,
                  z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_STEVD", info);
}

/// LA_STEVX( D, E, W, Z=z, VL=, VU=, IL=, IU=, M=, ABSTOL=, INFO= ):
/// selected eigenpairs of a symmetric tridiagonal matrix.
template <RealScalar R>
void stevx(Vector<R>& d, Vector<R>& e, Vector<R>& w,
           std::type_identity_t<Matrix<R>>* z = nullptr,
           const std::type_identity_t<R>* vl = nullptr,
           const std::type_identity_t<R>* vu = nullptr, idx il = 0,
           idx iu = 0, idx* m = nullptr,
           std::type_identity_t<R> abstol = -1, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = d.size();
  idx mfound = 0;
  lapack::Range range = lapack::Range::All;
  if (vl != nullptr || vu != nullptr) {
    range = lapack::Range::Value;
  } else if (il > 0 || iu > 0) {
    range = lapack::Range::Index;
  }
  if (n > 0 && e.size() != n - 1) {
    linfo = -2;
  } else if (w.size() < (range == lapack::Range::Index ? iu - il + 1 : 1) &&
             n > 0) {
    linfo = -3;
  } else if (range == lapack::Range::Index && (il < 1 || iu > n || il > iu)) {
    linfo = -7;
  } else if (z != nullptr && z->rows() != n) {
    linfo = -4;
  } else if (n > 0) {
    const R lvl = vl != nullptr ? *vl : -Machine<R>::huge_val();
    const R lvu = vu != nullptr ? *vu : Machine<R>::huge_val();
    linfo = lapack::stevx(z != nullptr ? Job::Vec : Job::NoVec, range, n,
                          d.data(), e.data(), lvl, lvu, il, iu, abstol,
                          mfound, w.data(),
                          z != nullptr ? z->data() : nullptr,
                          z != nullptr ? z->ld() : 1);
  }
  if (m != nullptr) {
    *m = mfound;
  }
  erinfo(linfo, "LA_STEVX", info);
}

/// LA_SPEVD / LA_HPEVD( AP, W, UPLO=uplo, Z=z, INFO=info ) — divide and
/// conquer packed driver.
template <Scalar T>
void spevd(PackedMatrix<T>& ap, Vector<real_t<T>>& w,
           std::type_identity_t<Matrix<T>>* z = nullptr,
           idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  if (w.size() != n) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    linfo = lapack::spevd(z != nullptr ? Job::Vec : Job::NoVec, ap.uplo(), n,
                          ap.data(), w.data(),
                          z != nullptr ? z->data() : nullptr,
                          z != nullptr ? z->ld() : 1);
  }
  erinfo(linfo, "LA_SPEVD", info);
}

/// LA_SBEVD / LA_HBEVD( AB, W, UPLO=uplo, Z=z, INFO=info ) — divide and
/// conquer band driver.
template <Scalar T>
void sbevd(SymBandMatrix<T>& ab, Vector<real_t<T>>& w,
           std::type_identity_t<Matrix<T>>* z = nullptr,
           idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ab.n();
  if (w.size() != n) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    linfo = lapack::sbevd(z != nullptr ? Job::Vec : Job::NoVec, ab.uplo(), n,
                          ab.kd(), ab.data(), ab.ldab(), w.data(),
                          z != nullptr ? z->data() : nullptr,
                          z != nullptr ? z->ld() : 1);
  }
  erinfo(linfo, "LA_SBEVD", info);
}

/// LA_SPEV / LA_HPEV( AP, W, UPLO=uplo, Z=z, INFO=info ).
template <Scalar T>
void spev(PackedMatrix<T>& ap, Vector<real_t<T>>& w, std::type_identity_t<Matrix<T>>* z = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  if (w.size() != n) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_spev(z != nullptr ? Job::Vec : Job::NoVec, ap.uplo(), n,
                 ap.data(), w.data(), z != nullptr ? z->data() : nullptr,
                 z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_SPEV", info);
}

/// LA_SBEV / LA_HBEV( AB, W, UPLO=uplo, Z=z, INFO=info ).
template <Scalar T>
void sbev(SymBandMatrix<T>& ab, Vector<real_t<T>>& w, std::type_identity_t<Matrix<T>>* z = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ab.n();
  if (w.size() != n) {
    linfo = -2;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_sbev(z != nullptr ? Job::Vec : Job::NoVec, ab.uplo(), n, ab.kd(),
                 ab.data(), ab.ldab(), w.data(),
                 z != nullptr ? z->data() : nullptr,
                 z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_SBEV", info);
}

/// LA_GEEV( A, WR, WI, VL=vl, VR=vr, INFO=info ) — real element types.
template <RealScalar R>
void geev(Matrix<R>& a, Vector<R>& wr, Vector<R>& wi, std::type_identity_t<Matrix<R>>* vl = nullptr,
          std::type_identity_t<Matrix<R>>* vr = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (wr.size() != n || wi.size() != n) {
    linfo = -2;
  } else if (vl != nullptr && (vl->rows() != n || vl->cols() != n)) {
    linfo = -4;
  } else if (vr != nullptr && (vr->rows() != n || vr->cols() != n)) {
    linfo = -5;
  } else if (n > 0) {
    f77::la_geev(vl != nullptr ? Job::Vec : Job::NoVec,
                 vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 wr.data(), wi.data(), vl != nullptr ? vl->data() : nullptr,
                 vl != nullptr ? vl->ld() : 1,
                 vr != nullptr ? vr->data() : nullptr,
                 vr != nullptr ? vr->ld() : 1, linfo);
    if (linfo < 0) {
      linfo = -1;  // the F77 driver rejects only A: it holds a NaN or Inf
    }
  }
  erinfo(linfo, "LA_GEEV", info);
}

/// LA_GEEV( A, W, VL=vl, VR=vr, INFO=info ) — complex element types.
template <ComplexScalar T>
void geev(Matrix<T>& a, Vector<T>& w, std::type_identity_t<Matrix<T>>* vl = nullptr,
          std::type_identity_t<Matrix<T>>* vr = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (vl != nullptr && (vl->rows() != n || vl->cols() != n)) {
    linfo = -3;
  } else if (vr != nullptr && (vr->rows() != n || vr->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_geev(vl != nullptr ? Job::Vec : Job::NoVec,
                 vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 w.data(), vl != nullptr ? vl->data() : nullptr,
                 vl != nullptr ? vl->ld() : 1,
                 vr != nullptr ? vr->data() : nullptr,
                 vr != nullptr ? vr->ld() : 1, linfo);
    if (linfo < 0) {
      linfo = -1;  // the F77 driver rejects only A: it holds a NaN or Inf
    }
  }
  erinfo(linfo, "LA_GEEV", info);
}

/// LA_GEES( A, WR, WI, VS=vs, SELECT=select, SDIM=sdim, INFO=info ) —
/// real Schur factorization with optional eigenvalue ordering.
template <RealScalar R>
void gees(Matrix<R>& a, Vector<R>& wr, Vector<R>& wi, std::type_identity_t<Matrix<R>>* vs = nullptr,
          std::function<bool(std::type_identity_t<R>, std::type_identity_t<R>)> select = nullptr, idx* sdim = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx lsdim = 0;
  if (a.cols() != n) {
    linfo = -1;
  } else if (wr.size() != n || wi.size() != n) {
    linfo = -2;
  } else if (vs != nullptr && (vs->rows() != n || vs->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    auto sel = select ? select : [](R, R) { return false; };
    f77::la_gees(vs != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 lsdim, wr.data(), wi.data(),
                 vs != nullptr ? vs->data() : nullptr,
                 vs != nullptr ? vs->ld() : 1, sel,
                 static_cast<bool>(select), linfo);
  }
  if (sdim != nullptr) {
    *sdim = lsdim;
  }
  erinfo(linfo, "LA_GEES", info);
}

/// LA_GEES — complex element types.
template <ComplexScalar T>
void gees(Matrix<T>& a, Vector<T>& w, std::type_identity_t<Matrix<T>>* vs = nullptr,
          std::function<bool(std::type_identity_t<T>)> select = nullptr, idx* sdim = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx lsdim = 0;
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (vs != nullptr && (vs->rows() != n || vs->cols() != n)) {
    linfo = -3;
  } else if (n > 0) {
    auto sel = select ? select : [](T) { return false; };
    f77::la_gees(vs != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 lsdim, w.data(), vs != nullptr ? vs->data() : nullptr,
                 vs != nullptr ? vs->ld() : 1, sel,
                 static_cast<bool>(select), linfo);
  }
  if (sdim != nullptr) {
    *sdim = lsdim;
  }
  erinfo(linfo, "LA_GEES", info);
}

/// LA_GEEVX( A, WR, WI, VL=, VR=, BALANC-data, SCALE=, ABNRM=, RCONDE=,
/// RCONDV=, INFO= ) — real expert eigendriver (balancing always 'B', as
/// the paper's default catalog entry).
template <RealScalar R>
void geevx(Matrix<R>& a, Vector<R>& wr, Vector<R>& wi,
           std::type_identity_t<Matrix<R>>* vl = nullptr, std::type_identity_t<Matrix<R>>* vr = nullptr,
           idx* ilo = nullptr, idx* ihi = nullptr,
           std::span<std::type_identity_t<R>> scale = {},
           std::type_identity_t<R>* abnrm = nullptr,
           std::span<std::type_identity_t<R>> rconde = {},
           std::span<std::type_identity_t<R>> rcondv = {},
           idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx lilo = 0;
  idx lihi = n - 1;
  R labnrm(0);
  if (a.cols() != n) {
    linfo = -1;
  } else if (wr.size() != n || wi.size() != n) {
    linfo = -2;
  } else if (vl != nullptr && (vl->rows() != n || vl->cols() != n)) {
    linfo = -4;
  } else if (vr != nullptr && (vr->rows() != n || vr->cols() != n)) {
    linfo = -5;
  } else if (!scale.empty() && static_cast<idx>(scale.size()) != n) {
    linfo = -8;
  } else if (!rconde.empty() && static_cast<idx>(rconde.size()) != n) {
    linfo = -10;
  } else if (!rcondv.empty() && static_cast<idx>(rcondv.size()) != n) {
    linfo = -11;
  } else if (n > 0) {
    f77::la_geevx(vl != nullptr ? Job::Vec : Job::NoVec,
                  vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                  wr.data(), wi.data(),
                  vl != nullptr ? vl->data() : nullptr,
                  vl != nullptr ? vl->ld() : 1,
                  vr != nullptr ? vr->data() : nullptr,
                  vr != nullptr ? vr->ld() : 1, lilo, lihi,
                  scale.empty() ? nullptr : scale.data(), labnrm,
                  rconde.empty() ? nullptr : rconde.data(),
                  rcondv.empty() ? nullptr : rcondv.data(), linfo);
    if (linfo < 0) {
      linfo = -1;  // the F77 driver rejects only A: it holds a NaN or Inf
    }
  }
  if (ilo != nullptr) {
    *ilo = lilo;
  }
  if (ihi != nullptr) {
    *ihi = lihi;
  }
  if (abnrm != nullptr) {
    *abnrm = labnrm;
  }
  erinfo(linfo, "LA_GEEVX", info);
}

/// LA_GEEVX — complex element types (single W array).
template <ComplexScalar T>
void geevx(Matrix<T>& a, Vector<T>& w, std::type_identity_t<Matrix<T>>* vl = nullptr,
           std::type_identity_t<Matrix<T>>* vr = nullptr, idx* ilo = nullptr, idx* ihi = nullptr,
           std::span<real_t<T>> scale = {}, real_t<T>* abnrm = nullptr,
           std::span<real_t<T>> rconde = {},
           std::span<real_t<T>> rcondv = {}, idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  idx lilo = 0;
  idx lihi = n - 1;
  R labnrm(0);
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (vl != nullptr && (vl->rows() != n || vl->cols() != n)) {
    linfo = -3;
  } else if (vr != nullptr && (vr->rows() != n || vr->cols() != n)) {
    linfo = -4;
  } else if (!scale.empty() && static_cast<idx>(scale.size()) != n) {
    linfo = -7;
  } else if (!rconde.empty() && static_cast<idx>(rconde.size()) != n) {
    linfo = -9;
  } else if (!rcondv.empty() && static_cast<idx>(rcondv.size()) != n) {
    linfo = -10;
  } else if (n > 0) {
    f77::la_geevx(vl != nullptr ? Job::Vec : Job::NoVec,
                  vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                  w.data(), vl != nullptr ? vl->data() : nullptr,
                  vl != nullptr ? vl->ld() : 1,
                  vr != nullptr ? vr->data() : nullptr,
                  vr != nullptr ? vr->ld() : 1, lilo, lihi,
                  scale.empty() ? nullptr : scale.data(), labnrm,
                  rconde.empty() ? nullptr : rconde.data(),
                  rcondv.empty() ? nullptr : rcondv.data(), linfo);
    if (linfo < 0) {
      linfo = -1;  // the F77 driver rejects only A: it holds a NaN or Inf
    }
  }
  if (ilo != nullptr) {
    *ilo = lilo;
  }
  if (ihi != nullptr) {
    *ihi = lihi;
  }
  if (abnrm != nullptr) {
    *abnrm = labnrm;
  }
  erinfo(linfo, "LA_GEEVX", info);
}

/// LA_GEESX( A, WR, WI, VS=, SELECT=, SDIM=, RCONDE=, RCONDV=, INFO= ) —
/// real Schur with ordering and cluster condition numbers.
template <RealScalar R>
void geesx(Matrix<R>& a, Vector<R>& wr, Vector<R>& wi,
           std::type_identity_t<Matrix<R>>* vs = nullptr,
           std::function<bool(std::type_identity_t<R>, std::type_identity_t<R>)> select = nullptr, idx* sdim = nullptr,
           std::type_identity_t<R>* rconde = nullptr,
           std::type_identity_t<R>* rcondv = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx lsdim = 0;
  if (a.cols() != n) {
    linfo = -1;
  } else if (wr.size() != n || wi.size() != n) {
    linfo = -2;
  } else if (vs != nullptr && (vs->rows() != n || vs->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    auto sel = select ? select : [](R, R) { return false; };
    f77::la_geesx(vs != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                  lsdim, wr.data(), wi.data(),
                  vs != nullptr ? vs->data() : nullptr,
                  vs != nullptr ? vs->ld() : 1, sel,
                  static_cast<bool>(select), rconde, rcondv, linfo);
  }
  if (sdim != nullptr) {
    *sdim = lsdim;
  }
  erinfo(linfo, "LA_GEESX", info);
}

/// LA_GEESX — complex element types.
template <ComplexScalar T>
void geesx(Matrix<T>& a, Vector<T>& w, std::type_identity_t<Matrix<T>>* vs = nullptr,
           std::function<bool(std::type_identity_t<T>)> select = nullptr, idx* sdim = nullptr,
           real_t<T>* rconde = nullptr, real_t<T>* rcondv = nullptr,
           idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx lsdim = 0;
  if (a.cols() != n) {
    linfo = -1;
  } else if (w.size() != n) {
    linfo = -2;
  } else if (vs != nullptr && (vs->rows() != n || vs->cols() != n)) {
    linfo = -3;
  } else if (n > 0) {
    auto sel = select ? select : [](T) { return false; };
    f77::la_geesx(vs != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                  lsdim, w.data(), vs != nullptr ? vs->data() : nullptr,
                  vs != nullptr ? vs->ld() : 1, sel,
                  static_cast<bool>(select), rconde, rcondv, linfo);
  }
  if (sdim != nullptr) {
    *sdim = lsdim;
  }
  erinfo(linfo, "LA_GEESX", info);
}

/// LA_GESVD( A, S, U=u, VT=vt, INFO=info ): thin singular value
/// decomposition; S descending, U m x min(m,n), VT min(m,n) x n.
template <Scalar T>
void gesvd(Matrix<T>& a, Vector<real_t<T>>& s, std::type_identity_t<Matrix<T>>* u = nullptr,
           Matrix<T>* vt = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  if (s.size() != k) {
    linfo = -2;
  } else if (u != nullptr && (u->rows() != m || u->cols() != k)) {
    linfo = -3;
  } else if (vt != nullptr && (vt->rows() != k || vt->cols() != n)) {
    linfo = -4;
  } else if (k > 0) {
    f77::la_gesvd(u != nullptr ? Job::Vec : Job::NoVec,
                  vt != nullptr ? Job::Vec : Job::NoVec, m, n, a.data(),
                  a.ld(), s.data(), u != nullptr ? u->data() : nullptr,
                  u != nullptr ? u->ld() : 1,
                  vt != nullptr ? vt->data() : nullptr,
                  vt != nullptr ? vt->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_GESVD", info);
}

/// LA_SYGV / LA_HEGV( A, B, W, ITYPE=itype, JOBZ=jobz, UPLO=uplo,
/// INFO=info ): symmetric-definite generalized eigenproblem.
template <Scalar T>
void sygv(Matrix<T>& a, Matrix<T>& b, Vector<real_t<T>>& w, idx itype = 1,
          Job jobz = Job::Vec, Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n || b.cols() != n) {
    linfo = -2;
  } else if (w.size() != n) {
    linfo = -3;
  } else if (itype < 1 || itype > 3) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_sygv(itype, jobz, uplo, n, a.data(), a.ld(), b.data(), b.ld(),
                 w.data(), linfo);
  }
  erinfo(linfo, "LA_SYGV", info);
}

/// Hermitian alias (LA_HEGV).
template <Scalar T>
void hegv(Matrix<T>& a, Matrix<T>& b, Vector<real_t<T>>& w, idx itype = 1,
          Job jobz = Job::Vec, Uplo uplo = Uplo::Upper, idx* info = nullptr) {
  sygv(a, b, w, itype, jobz, uplo, info);
}

/// LA_SPGV( AP, BP, W, ITYPE=itype, Z=z, INFO=info ).
template <Scalar T>
void spgv(PackedMatrix<T>& ap, PackedMatrix<T>& bp, Vector<real_t<T>>& w,
          idx itype = 1, std::type_identity_t<Matrix<T>>* z = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  if (bp.n() != n || bp.uplo() != ap.uplo()) {
    linfo = -2;
  } else if (w.size() != n) {
    linfo = -3;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -5;
  } else if (n > 0) {
    f77::la_spgv(itype, z != nullptr ? Job::Vec : Job::NoVec, ap.uplo(), n,
                 ap.data(), bp.data(), w.data(),
                 z != nullptr ? z->data() : nullptr,
                 z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_SPGV", info);
}

/// LA_SBGV( AB, BB, W, Z=z, INFO=info ).
template <Scalar T>
void sbgv(SymBandMatrix<T>& ab, SymBandMatrix<T>& bb, Vector<real_t<T>>& w,
          std::type_identity_t<Matrix<T>>* z = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ab.n();
  if (bb.n() != n || bb.uplo() != ab.uplo()) {
    linfo = -2;
  } else if (w.size() != n) {
    linfo = -3;
  } else if (z != nullptr && (z->rows() != n || z->cols() != n)) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_sbgv(z != nullptr ? Job::Vec : Job::NoVec, ab.uplo(), n, ab.kd(),
                 bb.kd(), ab.data(), ab.ldab(), bb.data(), bb.ldab(),
                 w.data(), z != nullptr ? z->data() : nullptr,
                 z != nullptr ? z->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_SBGV", info);
}

/// LA_GEGV( A, B, ALPHAR, ALPHAI, BETA, VL=vl, VR=vr, INFO=info ) — real.
template <RealScalar R>
void gegv(Matrix<R>& a, Matrix<R>& b, Vector<R>& alphar, Vector<R>& alphai,
          Vector<R>& beta, std::type_identity_t<Matrix<R>>* vl = nullptr, std::type_identity_t<Matrix<R>>* vr = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n || b.cols() != n) {
    linfo = -2;
  } else if (alphar.size() != n || alphai.size() != n || beta.size() != n) {
    linfo = -3;
  } else if (n > 0) {
    f77::la_gegv(vl != nullptr ? Job::Vec : Job::NoVec,
                 vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 b.data(), b.ld(), alphar.data(), alphai.data(), beta.data(),
                 vl != nullptr ? vl->data() : nullptr,
                 vl != nullptr ? vl->ld() : 1,
                 vr != nullptr ? vr->data() : nullptr,
                 vr != nullptr ? vr->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_GEGV", info);
}

/// LA_GEGV( A, B, ALPHA, BETA, VL=vl, VR=vr, INFO=info ) — complex.
template <ComplexScalar T>
void gegv(Matrix<T>& a, Matrix<T>& b, Vector<T>& alpha, Vector<T>& beta,
          std::type_identity_t<Matrix<T>>* vl = nullptr, std::type_identity_t<Matrix<T>>* vr = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n || b.cols() != n) {
    linfo = -2;
  } else if (alpha.size() != n || beta.size() != n) {
    linfo = -3;
  } else if (n > 0) {
    f77::la_gegv(vl != nullptr ? Job::Vec : Job::NoVec,
                 vr != nullptr ? Job::Vec : Job::NoVec, n, a.data(), a.ld(),
                 b.data(), b.ld(), alpha.data(), beta.data(),
                 vl != nullptr ? vl->data() : nullptr,
                 vl != nullptr ? vl->ld() : 1,
                 vr != nullptr ? vr->data() : nullptr,
                 vr != nullptr ? vr->ld() : 1, linfo);
  }
  erinfo(linfo, "LA_GEGV", info);
}

/// LA_GGSVD( A, B, ALPHA, BETA, U=u, V=v, X=x, INFO=info ): generalized
/// SVD with the explicit-X layout (see lapack/ggsvd.hpp).
template <Scalar T>
void ggsvd(Matrix<T>& a, Matrix<T>& b, Vector<real_t<T>>& alpha,
           Vector<real_t<T>>& beta, std::type_identity_t<Matrix<T>>* u = nullptr,
           std::type_identity_t<Matrix<T>>* v = nullptr, std::type_identity_t<Matrix<T>>* x = nullptr,
           idx* info = nullptr) {
  idx linfo = 0;
  const idx m = a.rows();
  const idx n = a.cols();
  const idx p = b.rows();
  std::vector<T> ubuf;
  std::vector<T> vbuf;
  std::vector<T> xbuf;
  if (b.cols() != n) {
    linfo = -2;
  } else if (alpha.size() != n || beta.size() != n) {
    linfo = -3;
  } else if (u != nullptr && (u->rows() != m || u->cols() != n)) {
    linfo = -5;
  } else if (v != nullptr && (v->rows() != p || v->cols() != n)) {
    linfo = -6;
  } else if (x != nullptr && (x->rows() != n || x->cols() != n)) {
    linfo = -7;
  } else if (n > 0) {
    T* up = u != nullptr ? u->data() : nullptr;
    T* vp = v != nullptr ? v->data() : nullptr;
    T* xp = x != nullptr ? x->data() : nullptr;
    idx ldu = u != nullptr ? u->ld() : std::max<idx>(m, 1);
    idx ldv = v != nullptr ? v->ld() : std::max<idx>(p, 1);
    idx ldx = x != nullptr ? x->ld() : n;
    if (up == nullptr &&
        detail::allocate(ubuf, static_cast<std::size_t>(m) * n, linfo)) {
      up = ubuf.data();
    }
    if (linfo == 0 && vp == nullptr &&
        detail::allocate(vbuf,
                         static_cast<std::size_t>(std::max<idx>(p, 1)) * n,
                         linfo)) {
      vp = vbuf.data();
    }
    if (linfo == 0 && xp == nullptr &&
        detail::allocate(xbuf, static_cast<std::size_t>(n) * n, linfo)) {
      xp = xbuf.data();
    }
    if (linfo == 0) {
      f77::la_ggsvd(m, p, n, a.data(), a.ld(), b.data(), b.ld(), alpha.data(),
                    beta.data(), up, ldu, vp, ldv, xp, ldx, linfo);
    }
  }
  erinfo(linfo, "LA_GGSVD", info);
}

}  // namespace la::f90
