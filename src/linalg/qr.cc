#include "linalg/qr.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"

namespace fedsc {

namespace {

// target := (I - t v v^T) target on rows [j, m), v = [1; col[j+1..m)].
void ApplyReflector(const double* col, double t, double* target, int64_t j,
                    int64_t m) {
  double w = target[j] + Dot(col + j + 1, target + j + 1, m - j - 1);
  w *= t;
  target[j] -= w;
  Axpy(-w, col + j + 1, target + j + 1, m - j - 1);
}

// Explicit (m - j0) x b copy of the panel's reflectors: column jj holds
// reflector j0 + jj with its unit diagonal entry written out and zeros
// above, so the compact-WY products below are plain Gemm calls.
Matrix PanelV(const Matrix& work, int64_t j0, int64_t j1, int64_t m) {
  const int64_t b = j1 - j0;
  Matrix v(m - j0, b);
  for (int64_t jj = 0; jj < b; ++jj) {
    const double* col = work.ColData(j0 + jj);
    v(jj, jj) = 1.0;
    for (int64_t i = j0 + jj + 1; i < m; ++i) v(i - j0, jj) = col[i];
  }
  return v;
}

}  // namespace

namespace internal_qr {

double GenerateReflector(double* col, int64_t j, int64_t m) {
  const double alpha = col[j];
  const double xnorm = Norm2(col + j + 1, m - j - 1);
  if (xnorm == 0.0 && alpha >= 0.0) return 0.0;
  const double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  if (beta == 0.0) return 0.0;
  const double t = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (int64_t i = j + 1; i < m; ++i) col[i] *= inv;
  col[j] = beta;
  return t;
}

// Factor in place, then accumulate thin Q by applying reflectors last to
// first.
QrResult UnblockedQr(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t k = std::min(m, n);

  Matrix work = a;
  Vector tau(static_cast<size_t>(k), 0.0);
  for (int64_t j = 0; j < k; ++j) {
    double* col = work.ColData(j);
    const double t = GenerateReflector(col, j, m);
    tau[static_cast<size_t>(j)] = t;
    if (t == 0.0) continue;
    for (int64_t c = j + 1; c < n; ++c) {
      ApplyReflector(col, t, work.ColData(c), j, m);
    }
  }

  QrResult result;
  result.r = Matrix(k, n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i <= std::min(j, k - 1); ++i) {
      result.r(i, j) = work(i, j);
    }
  }

  result.q = Matrix(m, k);
  for (int64_t j = 0; j < k; ++j) result.q(j, j) = 1.0;
  for (int64_t j = k - 1; j >= 0; --j) {
    const double t = tau[static_cast<size_t>(j)];
    if (t == 0.0) continue;
    const double* v = work.ColData(j);
    for (int64_t c = 0; c < k; ++c) {
      ApplyReflector(v, t, result.q.ColData(c), j, m);
    }
  }
  return result;
}

// Compact-WY blocked QR: panels factor with the identical scalar reflector
// kernel, then the trailing matrix and the thin Q ride the packed Gemm
// engine through ApplyBlockReflector.
QrResult BlockedQr(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t k = std::min(m, n);

  Matrix work = a;
  Vector tau(static_cast<size_t>(k), 0.0);
  for (int64_t j0 = 0; j0 < k; j0 += kQrPanelWidth) {
    const int64_t j1 = std::min(j0 + kQrPanelWidth, k);
    // Panel factorization: reflectors apply only to the remaining panel
    // columns here; trailing columns wait for the blocked update.
    for (int64_t j = j0; j < j1; ++j) {
      double* col = work.ColData(j);
      const double t = GenerateReflector(col, j, m);
      tau[static_cast<size_t>(j)] = t;
      if (t == 0.0) continue;
      for (int64_t c = j + 1; c < j1; ++c) {
        ApplyReflector(col, t, work.ColData(c), j, m);
      }
    }
    if (j1 >= n) continue;
    const Matrix v = PanelV(work, j0, j1, m);
    const Matrix t = BuildCompactWyT(v, tau.data() + j0);
    // Trailing update C := (H_{j1-1} ... H_{j0}) C = (I - V T V^T)^T C on
    // rows [j0, m) of columns [j1, n).
    Matrix trailing(m - j0, n - j1);
    for (int64_t c = j1; c < n; ++c) {
      const double* src = work.ColData(c);
      double* dst = trailing.ColData(c - j1);
      for (int64_t i = j0; i < m; ++i) dst[i - j0] = src[i];
    }
    ApplyBlockReflector(v, t, /*transpose=*/true, &trailing, 1);
    for (int64_t c = j1; c < n; ++c) {
      const double* src = trailing.ColData(c - j1);
      double* dst = work.ColData(c);
      for (int64_t i = j0; i < m; ++i) dst[i] = src[i - j0];
    }
  }

  QrResult result;
  result.r = Matrix(k, n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i <= std::min(j, k - 1); ++i) {
      result.r(i, j) = work(i, j);
    }
  }

  // Thin Q = H_0 ... H_{k-1} I(m, k), block reflectors applied last panel to
  // first. When panel [j0, j1) is applied, columns < j0 of the running Q are
  // still unit vectors with support above row j0, so only the trailing
  // [j0, m) x [j0, k) corner needs updating.
  result.q = Matrix(m, k);
  for (int64_t j = 0; j < k; ++j) result.q(j, j) = 1.0;
  const int64_t last_panel = ((k - 1) / kQrPanelWidth) * kQrPanelWidth;
  for (int64_t j0 = last_panel; j0 >= 0; j0 -= kQrPanelWidth) {
    const int64_t j1 = std::min(j0 + kQrPanelWidth, k);
    const Matrix v = PanelV(work, j0, j1, m);
    const Matrix t = BuildCompactWyT(v, tau.data() + j0);
    Matrix corner(m - j0, k - j0);
    for (int64_t c = j0; c < k; ++c) {
      const double* src = result.q.ColData(c);
      double* dst = corner.ColData(c - j0);
      for (int64_t i = j0; i < m; ++i) dst[i - j0] = src[i];
    }
    ApplyBlockReflector(v, t, /*transpose=*/false, &corner, 1);
    for (int64_t c = j0; c < k; ++c) {
      const double* src = corner.ColData(c - j0);
      double* dst = result.q.ColData(c);
      for (int64_t i = j0; i < m; ++i) dst[i] = src[i - j0];
    }
  }
  return result;
}

Matrix BuildCompactWyT(const Matrix& v, const double* taus) {
  const int64_t mv = v.rows();
  const int64_t b = v.cols();
  Matrix t(b, b);
  Vector scratch(static_cast<size_t>(b), 0.0);
  for (int64_t j = 0; j < b; ++j) {
    const double tj = taus[j];
    t(j, j) = tj;
    if (j == 0 || tj == 0.0) continue;
    // scratch(0:j) = V(:, 0:j)^T v_j, then T(0:j, j) = -tau_j T(0:j, 0:j)
    // scratch — the standard forward compact-WY recurrence.
    for (int64_t c = 0; c < j; ++c) {
      scratch[static_cast<size_t>(c)] = Dot(v.ColData(c), v.ColData(j), mv);
    }
    for (int64_t i = 0; i < j; ++i) {
      double sum = 0.0;
      for (int64_t c = i; c < j; ++c) {
        sum += t(i, c) * scratch[static_cast<size_t>(c)];
      }
      t(i, j) = -tj * sum;
    }
  }
  return t;
}

void ApplyBlockReflector(const Matrix& v, const Matrix& t, bool transpose,
                         Matrix* c, int num_threads) {
  const int64_t b = v.cols();
  const int64_t nc = c->cols();
  Matrix w(b, nc);
  Gemm(Trans::kTrans, Trans::kNo, 1.0, v, *c, 0.0, &w, num_threads);
  // w := T w (transpose = false) or T^T w (transpose = true); T is upper
  // triangular so each column updates in place, ascending rows for T
  // (row i reads only rows >= i) and descending for T^T.
  const int threads =
      b * b * nc < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
  ParallelForRanges(0, nc, threads, [&](int64_t c0, int64_t c1, int) {
    for (int64_t col = c0; col < c1; ++col) {
      double* wc = w.ColData(col);
      if (transpose) {
        for (int64_t i = b - 1; i >= 0; --i) {
          double sum = 0.0;
          for (int64_t l = 0; l <= i; ++l) sum += t(l, i) * wc[l];
          wc[i] = sum;
        }
      } else {
        for (int64_t i = 0; i < b; ++i) {
          double sum = 0.0;
          for (int64_t l = i; l < b; ++l) sum += t(i, l) * wc[l];
          wc[i] = sum;
        }
      }
    }
  });
  Gemm(Trans::kNo, Trans::kNo, -1.0, v, w, 1.0, c, num_threads);
}

}  // namespace internal_qr

Result<QrResult> HouseholderQr(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("QR of an empty matrix");
  }
  const int64_t k = std::min(m, n);
  const bool blocked = n >= kBlockedQrMinCols && m * n >= kBlockedQrCutoff;
  FEDSC_TRACE_SPAN("linalg/qr",
                   {{"m", m}, {"n", n}, {"blocked", blocked ? 1 : 0}});
  FEDSC_METRIC_COUNTER("linalg.qr.calls").Increment();
  // Factorization flops, 2 k^2 (max(m, n) - k / 3); Q accumulation adds a
  // comparable level-3 term tracked by the Gemm counters on the blocked
  // path.
  FEDSC_METRIC_COUNTER("linalg.qr.flops")
      .Add(2 * k * k * std::max(m, n) - (2 * k * k * k) / 3);
  if (!blocked) return internal_qr::UnblockedQr(a);
  FEDSC_METRIC_COUNTER("linalg.qr.blocked_calls").Increment();
  return internal_qr::BlockedQr(a);
}

Matrix OrthonormalColumnBasis(const Matrix& a, double tol) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  if (m == 0 || n == 0) return Matrix(m, 0);

  double max_norm = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    max_norm = std::max(max_norm, Norm2(a.ColData(j), m));
  }
  if (max_norm == 0.0) return Matrix(m, 0);
  const double threshold = tol * max_norm;

  // Modified Gram-Schmidt with one re-orthogonalization pass; robust enough
  // for the moderately sized bases this library builds.
  std::vector<Vector> basis;
  for (int64_t j = 0; j < n; ++j) {
    Vector v = a.Col(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vector& q : basis) {
        const double proj = Dot(q.data(), v.data(), m);
        Axpy(-proj, q.data(), v.data(), m);
      }
    }
    const double norm = Norm2(v.data(), m);
    if (norm > threshold) {
      Scal(1.0 / norm, v.data(), m);
      basis.push_back(std::move(v));
      if (static_cast<int64_t>(basis.size()) == m) break;
    }
  }
  return Matrix::FromColumns(basis);
}

}  // namespace fedsc
