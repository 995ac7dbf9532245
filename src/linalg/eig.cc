#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace fedsc {

namespace {

double Pythag(double a, double b) { return std::hypot(a, b); }

// Householder reduction of the symmetric matrix in `z` to tridiagonal form
// (EISPACK tred2). On exit `d` holds the diagonal, `e` the subdiagonal
// (e[0] unused), and if accumulate is true `z` holds the orthogonal
// transformation; otherwise z's contents are scratch.
void Tred2(Matrix* zm, Vector* dv, Vector* ev, bool accumulate) {
  Matrix& z = *zm;
  Vector& d = *dv;
  Vector& e = *ev;
  const int64_t n = z.rows();
  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(n), 0.0);

  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int64_t k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[static_cast<size_t>(i)] = z(i, l);
      } else {
        for (int64_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[static_cast<size_t>(i)] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (int64_t j = 0; j <= l; ++j) {
          if (accumulate) z(j, i) = z(i, j) / h;
          g = 0.0;
          for (int64_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int64_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[static_cast<size_t>(j)] = g / h;
          f += e[static_cast<size_t>(j)] * z(i, j);
        }
        const double hh = f / (h + h);
        for (int64_t j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[static_cast<size_t>(j)] - hh * f;
          e[static_cast<size_t>(j)] = g;
          for (int64_t k = 0; k <= j; ++k) {
            z(j, k) -= f * e[static_cast<size_t>(k)] + g * z(i, k);
          }
        }
      }
    } else {
      e[static_cast<size_t>(i)] = z(i, l);
    }
    d[static_cast<size_t>(i)] = h;
  }
  if (accumulate) d[0] = 0.0;
  e[0] = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (accumulate) {
      if (d[static_cast<size_t>(i)] != 0.0) {
        for (int64_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (int64_t k = 0; k < i; ++k) g += z(i, k) * z(k, j);
          for (int64_t k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
        }
      }
      d[static_cast<size_t>(i)] = z(i, i);
      z(i, i) = 1.0;
      for (int64_t j = 0; j < i; ++j) {
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      d[static_cast<size_t>(i)] = z(i, i);
    }
  }
}

// QL with implicit shifts on a tridiagonal matrix (EISPACK tql2). If
// accumulate is true, rotations are applied to the columns of z.
Status Tql2(Vector* dv, Vector* ev, Matrix* zm, bool accumulate) {
  Vector& d = *dv;
  Vector& e = *ev;
  Matrix& z = *zm;
  const int64_t n = static_cast<int64_t>(d.size());
  if (n == 0) return Status::OK();
  for (int64_t i = 1; i < n; ++i) {
    e[static_cast<size_t>(i - 1)] = e[static_cast<size_t>(i)];
  }
  e[static_cast<size_t>(n - 1)] = 0.0;

  constexpr int kMaxIterations = 50;
  const double eps = std::numeric_limits<double>::epsilon();
  // EISPACK's running norm: an off-diagonal deflates once it is negligible
  // against the largest |d_l| + |e_l| seen so far, not against its two
  // neighbours, so a cluster of near-zero eigenvalues still splits off.
  double tst1 = 0.0;
  for (int64_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[static_cast<size_t>(l)]) +
                              std::fabs(e[static_cast<size_t>(l)]));
    int iterations = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        if (std::fabs(e[static_cast<size_t>(m)]) <= eps * tst1) break;
      }
      if (m != l) {
        if (iterations++ == kMaxIterations) {
          return Status::NotConverged("tql2 exceeded iteration limit");
        }
        double g = (d[static_cast<size_t>(l + 1)] - d[static_cast<size_t>(l)]) /
                   (2.0 * e[static_cast<size_t>(l)]);
        double r = Pythag(g, 1.0);
        g = d[static_cast<size_t>(m)] - d[static_cast<size_t>(l)] +
            e[static_cast<size_t>(l)] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int64_t i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[static_cast<size_t>(i)];
          const double b = c * e[static_cast<size_t>(i)];
          r = Pythag(f, g);
          e[static_cast<size_t>(i + 1)] = r;
          if (r == 0.0) {
            d[static_cast<size_t>(i + 1)] -= p;
            e[static_cast<size_t>(m)] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[static_cast<size_t>(i + 1)] - p;
          r = (d[static_cast<size_t>(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[static_cast<size_t>(i + 1)] = g + p;
          g = c * r - b;
          if (accumulate) {
            for (int64_t k = 0; k < n; ++k) {
              f = z(k, i + 1);
              z(k, i + 1) = s * z(k, i) + c * f;
              z(k, i) = c * z(k, i) - s * f;
            }
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[static_cast<size_t>(l)] -= p;
        e[static_cast<size_t>(l)] = g;
        e[static_cast<size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

Status CheckSquare(const Matrix& a) {
  if (a.rows() == 0 || a.rows() != a.cols()) {
    return Status::InvalidArgument("eigendecomposition needs a non-empty "
                                   "square matrix");
  }
  return Status::OK();
}

// --- Blocked (latrd/sytrd-style) tridiagonalization ---

// Columns per compact-WY panel; sets the rank-2b trailing-update grouping,
// so it is result-affecting inside the blocked path like kQrPanelWidth.
constexpr int64_t kEigPanelWidth = 32;

// The contract reads only the lower triangle; the blocked reduction wants a
// full symmetric working matrix so its trailing matvecs stream contiguous
// columns.
Matrix SymmetrizeFromLower(const Matrix& a) {
  Matrix z = a;
  const int64_t n = z.rows();
  for (int64_t j = 1; j < n; ++j) {
    for (int64_t i = 0; i < j; ++i) z(i, j) = z(j, i);
  }
  return z;
}

// p = A22 v where A22 is the trailing block [j1, n) x [j1, n) of z (at
// panel-start state) and v, p have length n - j1. Threaded over row ranges:
// each output element accumulates over columns in ascending order, so the
// sum order — and the bits — never depend on the thread count.
void TrailingMatvec(const Matrix& z, int64_t j1, const double* v, double* p,
                    int num_threads) {
  const int64_t n = z.rows();
  const int64_t len = n - j1;
  const int threads =
      len * len < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
  ParallelForRanges(0, len, threads, [&](int64_t r0, int64_t r1, int) {
    for (int64_t r = r0; r < r1; ++r) p[r] = 0.0;
    for (int64_t c = 0; c < len; ++c) {
      Axpy(v[c], z.ColData(j1 + c) + j1 + r0, p + r0, r1 - r0);
    }
  });
}

// Reduces the full symmetric matrix in `z` to tridiagonal form with panel
// accumulation: within a panel only the pivot column is updated (lazily,
// from the accumulated V and W), each reflector's two-sided contribution is
// captured as w = tau(Av - V(W^T v) - W(V^T v)) - (tau/2)(w^T v)v, and the
// trailing block gets one rank-2b update A22 -= V2 W2^T + W2 V2^T via two
// GEMMs. On exit d/e hold the tridiagonal (e[i] couples rows i-1 and i,
// e[0] = 0), taus[j] scales the reflector stored in column j of z (tail in
// rows [j+2, n), unit head at j+1 implicit).
void BlockedTridiagonalize(Matrix* zm, Vector* dv, Vector* ev, Vector* taus,
                           int num_threads) {
  Matrix& z = *zm;
  const int64_t n = z.rows();
  dv->assign(static_cast<size_t>(n), 0.0);
  ev->assign(static_cast<size_t>(n), 0.0);
  taus->assign(static_cast<size_t>(n), 0.0);
  Vector& d = *dv;
  Vector& e = *ev;

  for (int64_t s = 0; s < n - 2; s += kEigPanelWidth) {
    const int64_t j1 = std::min(s + kEigPanelWidth, n - 2);
    const int64_t b = j1 - s;
    // Full-length columns with exact zeros outside each reflector's
    // support, so the rank-2b update below is plain GEMM.
    Matrix vpan(n, b);
    Matrix wpan(n, b);
    for (int64_t j = s; j < j1; ++j) {
      const int64_t jj = j - s;
      double* col = z.ColData(j);
      // Lazy update of the pivot column with the panel's earlier
      // reflectors: A(j:n, j) -= V W(j,:)^T + W V(j,:)^T.
      for (int64_t c = 0; c < jj; ++c) {
        Axpy(-wpan(j, c), vpan.ColData(c) + j, col + j, n - j);
        Axpy(-vpan(j, c), wpan.ColData(c) + j, col + j, n - j);
      }
      d[static_cast<size_t>(j)] = col[j];
      const double tau = internal_qr::GenerateReflector(col, j + 1, n);
      (*taus)[static_cast<size_t>(j)] = tau;
      e[static_cast<size_t>(j + 1)] = col[j + 1];
      double* v = vpan.ColData(jj);
      v[j + 1] = 1.0;
      for (int64_t i = j + 2; i < n; ++i) v[i] = col[i];
      if (tau == 0.0) continue;  // H = I: w stays exactly zero
      double* w = wpan.ColData(jj);
      TrailingMatvec(z, j + 1, v + j + 1, w + j + 1, num_threads);
      const int64_t len = n - j - 1;
      for (int64_t c = 0; c < jj; ++c) {
        const double wv = Dot(wpan.ColData(c) + j + 1, v + j + 1, len);
        const double vv = Dot(vpan.ColData(c) + j + 1, v + j + 1, len);
        Axpy(-wv, vpan.ColData(c) + j + 1, w + j + 1, len);
        Axpy(-vv, wpan.ColData(c) + j + 1, w + j + 1, len);
      }
      Scal(tau, w + j + 1, len);
      const double alpha = -0.5 * tau * Dot(w + j + 1, v + j + 1, len);
      Axpy(alpha, v + j + 1, w + j + 1, len);
    }
    // Rank-2b trailing update on the block [j1, n) x [j1, n).
    const int64_t nt = n - j1;
    Matrix v2(nt, b);
    Matrix w2(nt, b);
    for (int64_t c = 0; c < b; ++c) {
      const double* vs = vpan.ColData(c) + j1;
      const double* ws = wpan.ColData(c) + j1;
      double* vd = v2.ColData(c);
      double* wd = w2.ColData(c);
      for (int64_t i = 0; i < nt; ++i) {
        vd[i] = vs[i];
        wd[i] = ws[i];
      }
    }
    Matrix upd(nt, nt);
    Gemm(Trans::kNo, Trans::kTrans, 1.0, v2, w2, 0.0, &upd, num_threads);
    Gemm(Trans::kNo, Trans::kTrans, 1.0, w2, v2, 1.0, &upd, num_threads);
    const int threads =
        nt * nt < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
    ParallelForRanges(0, nt, threads, [&](int64_t c0, int64_t c1, int) {
      for (int64_t c = c0; c < c1; ++c) {
        double* dst = z.ColData(j1 + c) + j1;
        const double* src = upd.ColData(c);
        for (int64_t i = 0; i < nt; ++i) dst[i] -= src[i];
      }
    });
  }
  d[static_cast<size_t>(n - 2)] = z(n - 2, n - 2);
  d[static_cast<size_t>(n - 1)] = z(n - 1, n - 1);
  e[static_cast<size_t>(n - 1)] = z(n - 1, n - 2);
  e[0] = 0.0;
}

// Q = H_0 H_1 ... H_{n-3} accumulated panel-by-panel in reverse order with
// the compact-WY helpers shared with blocked QR. When panel [s, j1) is
// applied, columns <= s of the running product are still unit vectors with
// support above row s + 1, so only the trailing corner updates.
Matrix AccumulateQ(const Matrix& z, const Vector& taus, int num_threads) {
  const int64_t n = z.rows();
  Matrix q = Matrix::Identity(n);
  if (n < 3) return q;
  const int64_t last = ((n - 3) / kEigPanelWidth) * kEigPanelWidth;
  for (int64_t s = last; s >= 0; s -= kEigPanelWidth) {
    const int64_t j1 = std::min(s + kEigPanelWidth, n - 2);
    const int64_t b = j1 - s;
    // Reflector s + jj has its unit head at global row s + jj + 1 — local
    // row jj of a block starting at row s + 1, the PanelV layout.
    Matrix v(n - s - 1, b);
    for (int64_t jj = 0; jj < b; ++jj) {
      const double* col = z.ColData(s + jj);
      v(jj, jj) = 1.0;
      for (int64_t i = s + jj + 2; i < n; ++i) v(i - s - 1, jj) = col[i];
    }
    const Matrix t = internal_qr::BuildCompactWyT(v, taus.data() + s);
    Matrix corner(n - s - 1, n - s - 1);
    for (int64_t c = s + 1; c < n; ++c) {
      const double* src = q.ColData(c);
      double* dst = corner.ColData(c - s - 1);
      for (int64_t i = s + 1; i < n; ++i) dst[i - s - 1] = src[i];
    }
    internal_qr::ApplyBlockReflector(v, t, /*transpose=*/false, &corner,
                                     num_threads);
    for (int64_t c = s + 1; c < n; ++c) {
      const double* src = corner.ColData(c - s - 1);
      double* dst = q.ColData(c);
      for (int64_t i = s + 1; i < n; ++i) dst[i] = src[i - s - 1];
    }
  }
  return q;
}

// Reduces `a` with the engine its order picks, counting the reduction work
// for the roofline join.
internal_eig::Tridiagonal Tridiagonalize(const Matrix& a, bool accumulate,
                                         int num_threads) {
  const int64_t n = a.rows();
  FEDSC_METRIC_COUNTER("linalg.eig.tridiag_flops")
      .Add((4 * n * n * n) / 3);
  if (n >= kBlockedEigCutoff) {
    return internal_eig::BlockedTridiagonal(a, accumulate, num_threads);
  }
  return internal_eig::Tred2Tridiagonal(a, accumulate);
}

}  // namespace

namespace internal_eig {

Tridiagonal Tred2Tridiagonal(const Matrix& a, bool accumulate) {
  Tridiagonal t;
  t.q = a;
  Tred2(&t.q, &t.d, &t.e, accumulate);
  if (!accumulate) t.q = Matrix();
  return t;
}

Tridiagonal BlockedTridiagonal(const Matrix& a, bool accumulate,
                               int num_threads) {
  FEDSC_CHECK(a.rows() >= 3) << "blocked tridiagonalization needs n >= 3";
  Tridiagonal t;
  Matrix work = SymmetrizeFromLower(a);
  Vector taus;
  BlockedTridiagonalize(&work, &t.d, &t.e, &taus, num_threads);
  if (accumulate) t.q = AccumulateQ(work, taus, num_threads);
  return t;
}

Result<EigResult> SolveTridiagonal(Tridiagonal t) {
  const bool accumulate = !t.q.empty();
  FEDSC_RETURN_NOT_OK(Tql2(&t.d, &t.e, &t.q, accumulate));
  EigResult result;
  if (!accumulate) {
    std::sort(t.d.begin(), t.d.end());
    result.values = std::move(t.d);
    return result;
  }
  // Sort ascending, permuting eigenvectors along.
  const int64_t n = t.q.rows();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
    return t.d[static_cast<size_t>(i)] < t.d[static_cast<size_t>(j)];
  });
  result.values.resize(static_cast<size_t>(n));
  result.vectors = Matrix(n, n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    result.values[static_cast<size_t>(j)] = t.d[static_cast<size_t>(src)];
    result.vectors.SetCol(j, t.q.ColData(src));
  }
  return result;
}

}  // namespace internal_eig

Result<EigResult> SymmetricEigen(const Matrix& a, const EigOptions& options) {
  FEDSC_RETURN_NOT_OK(CheckSquare(a));
  const bool blocked = a.rows() >= kBlockedEigCutoff;
  FEDSC_TRACE_SPAN("linalg/eig",
                   {{"n", a.rows()}, {"blocked", blocked ? 1 : 0}});
  FEDSC_METRIC_COUNTER("linalg.eig.calls").Increment();
  return internal_eig::SolveTridiagonal(
      Tridiagonalize(a, /*accumulate=*/true, options.num_threads));
}

Result<Vector> SymmetricEigenvalues(const Matrix& a,
                                    const EigOptions& options) {
  FEDSC_RETURN_NOT_OK(CheckSquare(a));
  const bool blocked = a.rows() >= kBlockedEigCutoff;
  FEDSC_TRACE_SPAN("linalg/eig",
                   {{"n", a.rows()}, {"blocked", blocked ? 1 : 0}});
  FEDSC_METRIC_COUNTER("linalg.eig.calls").Increment();
  FEDSC_ASSIGN_OR_RETURN(
      EigResult eig,
      internal_eig::SolveTridiagonal(
          Tridiagonalize(a, /*accumulate=*/false, options.num_threads)));
  return std::move(eig.values);
}

}  // namespace fedsc
