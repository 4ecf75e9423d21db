// dense_solve: large double-precision solves through the F90 interface,
// plus the dense layer probes of the traced run (f90/f77 overhead, lapack
// per-call times and rates, blas gemm ceilings, mixed precision).
#include <cmath>
#include <limits>
#include <vector>

#include "lapack90/lapack90.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using la::idx;
using la::Matrix;
using la::Vector;

struct Sizes {
  idx n;      // gesv / posv / mixed gesv order
  idx ls_m;   // gels rows
  idx ls_n;   // gels columns
  idx sy_n;   // syev order
  idx ex3_n;  // the paper's Example 3 order (nrhs = 2)
};

Sizes sizes_for(const Options& opt) {
  return opt.tiny ? Sizes{160, 320, 80, 48, 50}
                  : Sizes{2048, 4096, 1024, 512, 500};
}

constexpr double kEps = std::numeric_limits<double>::epsilon();
/// The LAPACK test suite's pass threshold for scaled residuals.
constexpr double kThresh = 30.0;

void fill_general(Rng& r, Matrix<double>& a) {
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      a(i, j) = r.sym();
    }
  }
}

/// Symmetric with entries in [-1, 1) and `shift` added on the diagonal
/// (shift = n makes it diagonally dominant, hence SPD).
void fill_symmetric(Rng& r, Matrix<double>& a, double shift) {
  const idx n = a.rows();
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) {
      const double v = r.sym();
      a(i, j) = v;
      a(j, i) = v;
    }
    a(j, j) += shift;
  }
}

double norm_inf(const Matrix<double>& a) {
  std::vector<double> rows(static_cast<std::size_t>(a.rows()), 0.0);
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      rows[static_cast<std::size_t>(i)] += std::abs(a(i, j));
    }
  }
  double m = 0.0;
  for (const double v : rows) {
    m = std::max(m, v);
  }
  return m;
}

double norm_one(const Matrix<double>& a) {
  double m = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    double s = 0.0;
    for (idx i = 0; i < a.rows(); ++i) {
      s += std::abs(a(i, j));
    }
    m = std::max(m, s);
  }
  return m;
}

double vec_inf(const double* v, idx n) {
  double m = 0.0;
  for (idx i = 0; i < n; ++i) {
    m = std::max(m, std::abs(v[i]));
  }
  return m;
}

/// r = b - A x (plain loops: the checker shares no code with the solver).
std::vector<double> residual(const Matrix<double>& a, const double* x,
                             const double* b) {
  std::vector<double> r(b, b + a.rows());
  for (idx j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    for (idx i = 0; i < a.rows(); ++i) {
      r[static_cast<std::size_t>(i)] -= a(i, j) * xj;
    }
  }
  return r;
}

/// ||b - A x||_inf / (||A||_inf ||x||_inf n eps).
double solve_ratio(const Matrix<double>& a, const double* x, const double* b) {
  const std::vector<double> r = residual(a, x, b);
  const idx n = a.rows();
  const double den =
      norm_inf(a) * vec_inf(x, n) * static_cast<double>(n) * kEps;
  return den > 0.0 ? vec_inf(r.data(), n) / den : 0.0;
}

/// Least squares optimality: ||A^T r||_inf /
/// (||A||_1 (||r||_inf + ||A||_inf ||x||_inf) m eps).
double lls_ratio(const Matrix<double>& a, const double* x, const double* b) {
  const std::vector<double> r = residual(a, x, b);
  const idx m = a.rows();
  const idx n = a.cols();
  double atr = 0.0;
  for (idx j = 0; j < n; ++j) {
    double s = 0.0;
    for (idx i = 0; i < m; ++i) {
      s += a(i, j) * r[static_cast<std::size_t>(i)];
    }
    atr = std::max(atr, std::abs(s));
  }
  const double den = norm_one(a) *
                     (vec_inf(r.data(), m) + norm_inf(a) * vec_inf(x, n)) *
                     static_cast<double>(m) * kEps;
  return den > 0.0 ? atr / den : 0.0;
}

/// syev: ||A Z - Z diag(w)||_1 / (||A||_1 n eps) and ||I - Z^T Z||_1 /
/// (n eps); returns the larger.
double eig_ratio(const Matrix<double>& a, const Matrix<double>& z,
                 const Vector<double>& w) {
  const idx n = a.rows();
  Matrix<double> az(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx k = 0; k < n; ++k) {
      const double zkj = z(k, j);
      for (idx i = 0; i < n; ++i) {
        az(i, j) += a(i, k) * zkj;
      }
    }
    for (idx i = 0; i < n; ++i) {
      az(i, j) -= z(i, j) * w[j];
    }
  }
  Matrix<double> ztz(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      double s = 0.0;
      for (idx k = 0; k < n; ++k) {
        s += z(k, i) * z(k, j);
      }
      ztz(i, j) = s - (i == j ? 1.0 : 0.0);
    }
  }
  const double dn = static_cast<double>(n) * kEps;
  const double res = norm_one(az) / (norm_one(a) * dn);
  const double orth = norm_one(ztz) / dn;
  return std::max(res, orth);
}

/// One round's fresh inputs, generated outside the timed region.
struct Round {
  Matrix<double> ge_a, ge_b, po_a, po_b, ls_a, ls_b, mx_a, mx_b, sy_a;
};

Round make_round(const Sizes& s, std::uint64_t seed, std::uint64_t round) {
  Rng r(seed * 0x100000001B3ULL + round);
  Round in{Matrix<double>(s.n, s.n),       Matrix<double>(s.n, 1),
           Matrix<double>(s.n, s.n),       Matrix<double>(s.n, 1),
           Matrix<double>(s.ls_m, s.ls_n), Matrix<double>(s.ls_m, 1),
           Matrix<double>(s.n, s.n),       Matrix<double>(s.n, 1),
           Matrix<double>(s.sy_n, s.sy_n)};
  fill_general(r, in.ge_a);
  fill_general(r, in.ge_b);
  fill_symmetric(r, in.po_a, static_cast<double>(s.n));
  fill_general(r, in.po_b);
  fill_general(r, in.ls_a);
  fill_general(r, in.ls_b);
  fill_general(r, in.mx_a);
  fill_general(r, in.mx_b);
  fill_symmetric(r, in.sy_a, 0.0);
  return in;
}

struct RoundTimes {
  double gesv = 0, posv = 0, gels = 0, mixed = 0, syev = 0;
};

/// Run the five F90 calls on `in` (overwritten), timing each, and check
/// every output against the saved originals. Returns the number of calls
/// that failed (nonzero INFO or a residual over the threshold).
int run_round(const Round& orig, RoundTimes& t, std::uint64_t op,
              bool perturb) {
  Round in = orig;
  idx info[5] = {0, 0, 0, 0, 0};
  Vector<double> w(in.sy_a.rows());
  Span round_span("dense.round", "workload", op);
  t.gesv = timed_ms("f90.gesv", "f90", op,
                    [&] { la::gesv(in.ge_a, in.ge_b, {}, &info[0]); });
  t.posv = timed_ms("f90.posv", "f90", op, [&] {
    la::posv(in.po_a, in.po_b, la::Uplo::Upper, &info[1]);
  });
  t.gels = timed_ms("f90.gels", "f90", op, [&] {
    la::gels(in.ls_a, in.ls_b, la::Trans::NoTrans, &info[2]);
  });
  t.mixed = timed_ms("mixed.gesv", "mixed", op, [&] {
    la::mixed::gesv(in.mx_a, in.mx_b, nullptr, &info[3]);
  });
  t.syev = timed_ms("f90.syev", "f90", op, [&] {
    la::syev(in.sy_a, w, la::Job::Vec, la::Uplo::Upper, &info[4]);
  });
  if (perturb) {
    in.ge_b(0, 0) = std::nextafter(in.ge_b(0, 0), 1e300) * (1.0 + 1e-6);
  }
  const double ratio[5] = {
      solve_ratio(orig.ge_a, in.ge_b.data(), orig.ge_b.data()),
      solve_ratio(orig.po_a, in.po_b.data(), orig.po_b.data()),
      lls_ratio(orig.ls_a, in.ls_b.data(), orig.ls_b.data()),
      solve_ratio(orig.mx_a, in.mx_b.data(), orig.mx_b.data()),
      eig_ratio(orig.sy_a, in.sy_a, w)};
  static const char* const names[5] = {"gesv", "posv", "gels", "mixed_gesv",
                                       "syev"};
  int bad = 0;
  for (int k = 0; k < 5; ++k) {
    if (info[k] != 0 || !(ratio[k] < kThresh)) {
      std::fprintf(stderr, "dense_solve: %s failed: info=%lld ratio=%.3g\n",
                   names[k], static_cast<long long>(info[k]), ratio[k]);
      ++bad;
    }
  }
  return bad;
}

}  // namespace

void run_dense_solve(const Options& opt, Report& rep) {
  const Sizes s = sizes_for(opt);
  // Set-up: the worker pool and the first call of each routine (its
  // thread-local workspaces), on inputs of the measured size.
  {
    const Round warm = make_round(s, opt.seed, ~0ULL);
    RoundTimes t;
    const int bad = run_round(warm, t, 0, false);
    rep.attempted += 5;
    rep.failed += static_cast<std::uint64_t>(bad);
    rep.correct = bad == 0;
  }
  rep.add("setup_s", setup_seconds(opt), "s");

  // Untraced measurement, then (traced run) the same again traced.
  auto measure = [&](double budget, bool traced,
                     std::vector<RoundTimes>& out) {
    const TraceScope scope(traced);
    const std::int64_t t0 = now_ns();
    std::uint64_t round = out.size();
    do {
      const Round in = make_round(s, opt.seed, round);
      RoundTimes t;
      const int bad =
          run_round(in, t, round + 1, opt.perturb && round == 0);
      rep.attempted += 5;
      rep.failed += static_cast<std::uint64_t>(bad);
      if (bad != 0) {
        rep.correct = false;
      }
      out.push_back(t);
      ++round;
    } while (secs_since(t0) < budget);
  };

  std::vector<RoundTimes> plain;
  std::vector<RoundTimes> traced;
  measure(workload_budget(opt), false, plain);
  if (opt.trace) {
    measure(workload_budget(opt), true, traced);
  }

  auto med = [](const std::vector<RoundTimes>& v, double RoundTimes::*f) {
    std::vector<double> x;
    for (const auto& t : v) {
      x.push_back(t.*f);
    }
    return median(x);
  };
  // A round (the five calls) is one job of the closed loop: the generic
  // end-to-end metrics are over round times; the per-routine medians are
  // the f90.*_ms rows of the traced run.
  auto round_us = [](const std::vector<RoundTimes>& v) {
    std::vector<double> x;
    for (const auto& t : v) {
      x.push_back((t.gesv + t.posv + t.gels + t.mixed + t.syev) * 1e3);
    }
    return x;
  };
  const std::vector<double> rounds = round_us(plain);
  const double p50 = median(rounds);
  rep.add("jobs_per_s", 5.0e6 / p50, "1/s");
  rep.add("latency_p50_us", p50, "us");
  rep.add("latency_p99_us", quantile(rounds, 0.99), "us");
  rep.note("dense_solve: " + std::to_string(plain.size()) +
           " untraced rounds of five calls; median ms gesv " +
           std::to_string(med(plain, &RoundTimes::gesv)) + " posv " +
           std::to_string(med(plain, &RoundTimes::posv)) + " gels " +
           std::to_string(med(plain, &RoundTimes::gels)) + " mixed_gesv " +
           std::to_string(med(plain, &RoundTimes::mixed)) + " syev " +
           std::to_string(med(plain, &RoundTimes::syev)) + "; n=" +
           std::to_string(s.n) + ", gels " + std::to_string(s.ls_m) + "x" +
           std::to_string(s.ls_n) + ", syev n=" + std::to_string(s.sy_n));
  std::string per_round = "dense_solve round ms:";
  for (const double v : rounds) {
    per_round += " " + std::to_string(static_cast<long>(v * 1e-3));
  }
  rep.note(per_round);
  if (opt.trace) {
    rep.add("trace.overhead_frac", median(round_us(traced)) / p50 - 1.0,
            "ratio");
  }
}

// ---------------------------------------------------------------------------
// Dense layer probes.

namespace {

/// Median of `reps` timings of f(copy-of-input) in ms; `prep` makes the
/// fresh operands before each timed call.
template <class Prep, class F>
double median_ms(int reps, Prep&& prep, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    prep();
    const std::int64_t t0 = now_ns();
    f();
    v.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(v);
}

template <class T>
double gemm_gflops(idx n, int reps, Rng& r) {
  Matrix<T> a(n, n), b(n, n), c(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      a(i, j) = static_cast<T>(r.sym());
      b(i, j) = static_cast<T>(r.sym());
    }
  }
  const double ms = median_ms(
      reps, [] {},
      [&] {
        Span sp(sizeof(T) == 8 ? "blas.dgemm" : "blas.sgemm", "blas");
        la::blas::gemm(la::Trans::NoTrans, la::Trans::NoTrans, n, n, n, T(1),
                       a.data(), a.ld(), b.data(), b.ld(), T(0), c.data(),
                       c.ld());
      });
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) / (ms * 1e6);
}

}  // namespace

void probe_dense_layers(const Options& opt, Report& rep) {
  const Sizes s = sizes_for(opt);
  const int reps = 3;
  const double workers = static_cast<double>(la::num_threads());
  Rng r(opt.seed ^ 0xD1B54A32D192ED03ULL);
  const double n = static_cast<double>(s.n);

  // blas: the gemm ceiling at the default worker count and at one worker.
  const double dgemm = gemm_gflops<double>(s.n, reps, r);
  const double sgemm = gemm_gflops<float>(s.n, reps, r);
  la::set_num_threads(1);
  const double dgemm1 = gemm_gflops<double>(s.n, 1, r);
  la::set_num_threads(0);
  rep.add("blas.dgemm_gflops", dgemm, "GFLOP/s");
  rep.add("blas.sgemm_gflops", sgemm, "GFLOP/s");
  rep.add("blas.dgemm_gflops_1w", dgemm1, "GFLOP/s");
  rep.add("blas.dgemm_scaling_eff", dgemm / (dgemm1 * workers), "ratio");

  // f90 -> lapack: each F90 driver against the lapack:: calls it makes,
  // on identical operands; the lapack calls are timed one by one.
  Round base = make_round(s, opt.seed, 0xF90);
  Round in = base;
  std::vector<idx> piv(static_cast<std::size_t>(s.n));
  idx info = 0;

  std::vector<double> f90_gesv, getrf, getrs;
  std::vector<double> f90_posv, potrf, potrs;
  std::vector<double> f90_gels, geqrf, ormqr_trsm;
  std::vector<double> f90_syev, sytrd, orgtr, steqr;
  const idx k = std::min(s.ls_m, s.ls_n);
  std::vector<double> tau(static_cast<std::size_t>(k));
  std::vector<double> d(static_cast<std::size_t>(s.sy_n));
  std::vector<double> e(static_cast<std::size_t>(s.sy_n));
  std::vector<double> tau_sy(static_cast<std::size_t>(s.sy_n));
  for (int rr = 0; rr < reps; ++rr) {
    in = base;
    f90_gesv.push_back(timed_ms("f90.gesv", "f90", 0, [&] {
      la::gesv(in.ge_a, in.ge_b, {}, &info);
    }));
    in = base;
    getrf.push_back(timed_ms("lapack.getrf", "lapack", 0, [&] {
      la::lapack::getrf(s.n, s.n, in.ge_a.data(), s.n, piv.data());
    }));
    getrs.push_back(timed_ms("lapack.getrs", "lapack", 0, [&] {
      la::lapack::getrs(la::Trans::NoTrans, s.n, idx{1}, in.ge_a.data(), s.n,
                        piv.data(), in.ge_b.data(), s.n);
    }));
    f90_posv.push_back(timed_ms("f90.posv", "f90", 0, [&] {
      la::posv(in.po_a, in.po_b, la::Uplo::Upper, &info);
    }));
    in.po_a = base.po_a;
    in.po_b = base.po_b;
    potrf.push_back(timed_ms("lapack.potrf", "lapack", 0, [&] {
      la::lapack::potrf(la::Uplo::Upper, s.n, in.po_a.data(), s.n);
    }));
    potrs.push_back(timed_ms("lapack.potrs", "lapack", 0, [&] {
      la::lapack::potrs(la::Uplo::Upper, s.n, idx{1}, in.po_a.data(), s.n,
                        in.po_b.data(), s.n);
    }));
    f90_gels.push_back(timed_ms("f90.gels", "f90", 0, [&] {
      la::gels(in.ls_a, in.ls_b, la::Trans::NoTrans, &info);
    }));
    in.ls_a = base.ls_a;
    in.ls_b = base.ls_b;
    geqrf.push_back(timed_ms("lapack.geqrf", "lapack", 0, [&] {
      la::lapack::geqrf(s.ls_m, s.ls_n, in.ls_a.data(), s.ls_m, tau.data());
    }));
    ormqr_trsm.push_back(timed_ms("lapack.ormqr_trsm", "lapack", 0, [&] {
      la::lapack::ormqr(la::Side::Left, la::Trans::Trans, s.ls_m, idx{1},
                        s.ls_n, in.ls_a.data(), s.ls_m, tau.data(),
                        in.ls_b.data(), s.ls_m);
      la::lapack::trtrs(la::Uplo::Upper, la::Trans::NoTrans,
                        la::Diag::NonUnit, s.ls_n, idx{1}, in.ls_a.data(),
                        s.ls_m, in.ls_b.data(), s.ls_m);
    }));
    {
      Matrix<double> sy = base.sy_a;
      Vector<double> w(s.sy_n);
      f90_syev.push_back(timed_ms("f90.syev", "f90", 0, [&] {
        la::syev(sy, w, la::Job::Vec, la::Uplo::Upper, &info);
      }));
    }
    sytrd.push_back(timed_ms("lapack.sytrd", "lapack", 0, [&] {
      la::lapack::sytrd(la::Uplo::Upper, s.sy_n, in.sy_a.data(), s.sy_n,
                        d.data(), e.data(), tau_sy.data());
    }));
    orgtr.push_back(timed_ms("lapack.orgtr", "lapack", 0, [&] {
      la::lapack::orgtr(la::Uplo::Upper, s.sy_n, in.sy_a.data(), s.sy_n,
                        tau_sy.data());
    }));
    steqr.push_back(timed_ms("lapack.steqr", "lapack", 0, [&] {
      la::lapack::steqr(la::Job::Vec, s.sy_n, d.data(), e.data(),
                        in.sy_a.data(), s.sy_n);
    }));
  }
  auto frac = [](const std::vector<double>& whole, double parts) {
    const double w = median(whole);
    return (w - parts) / w;
  };
  rep.add("f90.gesv_ms", median(f90_gesv), "ms");
  rep.add("f90.posv_ms", median(f90_posv), "ms");
  rep.add("f90.gels_ms", median(f90_gels), "ms");
  rep.add("f90.syev_ms", median(f90_syev), "ms");
  rep.add("f90.gesv_overhead_frac",
          frac(f90_gesv, median(getrf) + median(getrs)), "ratio");
  rep.add("f90.posv_overhead_frac",
          frac(f90_posv, median(potrf) + median(potrs)), "ratio");
  rep.add("f90.gels_overhead_frac",
          frac(f90_gels, median(geqrf) + median(ormqr_trsm)), "ratio");

  // The paper's Example 3 shape: F90 and F77 LA_GESV against lapack::gesv.
  {
    const idx n3 = s.ex3_n;
    Matrix<double> a0(n3, n3), b0(n3, 2);
    fill_general(r, a0);
    fill_general(r, b0);
    Matrix<double> a = a0, b = b0;
    std::vector<idx> p(static_cast<std::size_t>(n3));
    auto prep = [&] {
      a = a0;
      b = b0;
    };
    const int reps3 = opt.tiny ? 5 : 21;
    double t_lapack = 0, t_f90 = 0, t_f77 = 0;
    // Interleave the three so drift hits each alike.
    std::vector<double> vl, v9, v7;
    for (int rr = 0; rr < reps3; ++rr) {
      vl.push_back(median_ms(1, prep, [&] {
        Span sp("lapack.gesv", "lapack");
        la::lapack::gesv(n3, idx{2}, a.data(), n3, p.data(), b.data(), n3);
      }));
      v9.push_back(median_ms(1, prep, [&] {
        Span sp("f90.gesv_ex3", "f90");
        la::gesv(a, b, {}, &info);
      }));
      v7.push_back(median_ms(1, prep, [&] {
        Span sp("f77.la_gesv", "f77");
        la::f77::la_gesv(n3, idx{2}, a.data(), n3, p.data(), b.data(), n3,
                         info);
      }));
    }
    t_lapack = median(vl);
    t_f90 = median(v9);
    t_f77 = median(v7);
    rep.add("f90.ex3_overhead_frac", (t_f90 - t_lapack) / t_lapack, "ratio");
    rep.add("f77.ex3_overhead_frac", (t_f77 - t_lapack) / t_lapack, "ratio");
  }

  // lapack per-call times and rates against the gemm ceiling.
  const double ls_m = static_cast<double>(s.ls_m);
  const double ls_n = static_cast<double>(s.ls_n);
  const double getrf_fl = 2.0 / 3.0 * n * n * n;
  const double potrf_fl = n * n * n / 3.0;
  const double geqrf_fl =
      2.0 * ls_m * ls_n * ls_n - 2.0 / 3.0 * ls_n * ls_n * ls_n;
  const double getrf_ms = median(getrf);
  const double potrf_ms = median(potrf);
  const double geqrf_ms = median(geqrf);
  rep.add("lapack.getrf_ms", getrf_ms, "ms");
  rep.add("lapack.getrs_ms", median(getrs), "ms");
  rep.add("lapack.potrf_ms", potrf_ms, "ms");
  rep.add("lapack.potrs_ms", median(potrs), "ms");
  rep.add("lapack.geqrf_ms", geqrf_ms, "ms");
  rep.add("lapack.ormqr_trsm_ms", median(ormqr_trsm), "ms");
  rep.add("lapack.sytrd_ms", median(sytrd), "ms");
  rep.add("lapack.orgtr_ms", median(orgtr), "ms");
  rep.add("lapack.steqr_ms", median(steqr), "ms");
  const double getrf_gf = getrf_fl / (getrf_ms * 1e6);
  const double potrf_gf = potrf_fl / (potrf_ms * 1e6);
  const double geqrf_gf = geqrf_fl / (geqrf_ms * 1e6);
  rep.add("lapack.getrf_gflops", getrf_gf, "GFLOP/s");
  rep.add("lapack.potrf_gflops", potrf_gf, "GFLOP/s");
  rep.add("lapack.geqrf_gflops", geqrf_gf, "GFLOP/s");
  rep.add("lapack.getrf_of_dgemm", getrf_gf / dgemm, "ratio");
  rep.add("lapack.potrf_of_dgemm", potrf_gf / dgemm, "ratio");
  rep.add("lapack.geqrf_of_dgemm", geqrf_gf / dgemm, "ratio");

  // One-worker getrf.
  {
    Matrix<double> a = base.ge_a;
    la::set_num_threads(1);
    const double ms = timed_ms("lapack.getrf_1w", "lapack", 0, [&] {
      la::lapack::getrf(s.n, s.n, a.data(), s.n, piv.data());
    });
    la::set_num_threads(0);
    const double gf1 = getrf_fl / (ms * 1e6);
    rep.add("lapack.getrf_gflops_1w", gf1, "GFLOP/s");
    rep.add("lapack.getrf_scaling_eff", getrf_gf / (gf1 * workers), "ratio");
  }

  // Scheduler comparison: the legacy fork-join path through the public
  // switch, then the previous selection restored.
  {
    const la::TileScheduler prev =
        la::set_tile_scheduler(la::TileScheduler::ForkJoin);
    Matrix<double> a = base.ge_a;
    Matrix<double> q = base.ls_a;
    const double fj_getrf = median_ms(
        reps, [&] { a = base.ge_a; },
        [&] {
          Span sp("lapack.getrf_forkjoin", "lapack");
          la::lapack::getrf(s.n, s.n, a.data(), s.n, piv.data());
        });
    const double fj_geqrf = median_ms(
        reps, [&] { q = base.ls_a; },
        [&] {
          Span sp("lapack.geqrf_forkjoin", "lapack");
          la::lapack::geqrf(s.ls_m, s.ls_n, q.data(), s.ls_m, tau.data());
        });
    la::set_tile_scheduler(prev);
    rep.add("lapack.getrf_forkjoin_ms", fj_getrf, "ms");
    rep.add("lapack.geqrf_forkjoin_ms", fj_geqrf, "ms");
    rep.add("lapack.getrf_dag_over_forkjoin", getrf_ms / fj_getrf, "ratio");
    rep.add("lapack.geqrf_dag_over_forkjoin", geqrf_ms / fj_geqrf, "ratio");
  }

  // mixed: the single-precision factorization inside mixed gesv, timed on
  // its own; the rest of the mixed call is demotion + refinement.
  {
    Matrix<float> sa(s.n, s.n);
    std::vector<idx> sp(static_cast<std::size_t>(s.n));
    const double sgetrf = median_ms(
        reps,
        [&] {
          for (idx j = 0; j < s.n; ++j) {
            for (idx i = 0; i < s.n; ++i) {
              sa(i, j) = static_cast<float>(base.mx_a(i, j));
            }
          }
        },
        [&] {
          Span spn("mixed.sgetrf", "mixed");
          la::lapack::getrf(s.n, s.n, sa.data(), s.n, sp.data());
        });
    Matrix<double> ma = base.mx_a;
    Matrix<double> mb = base.mx_b;
    idx iter = 0;
    const double mixed = median_ms(
        reps,
        [&] {
          ma = base.mx_a;
          mb = base.mx_b;
        },
        [&] {
          Span spn("mixed.gesv", "mixed");
          la::mixed::gesv(ma, mb, &iter, &info);
        });
    rep.add("mixed.gesv_ms", mixed, "ms");
    rep.add("mixed.iter", static_cast<double>(iter), "count");
    rep.add("mixed.sgetrf_ms", sgetrf, "ms");
    rep.add("mixed.refine_ms", mixed - sgetrf, "ms");
    rep.add("mixed.sgetrf_of_sgemm", getrf_fl / (sgetrf * 1e6) / sgemm,
            "ratio");
  }
}

}  // namespace pb
