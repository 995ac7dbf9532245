#include "linalg/qr.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
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

}  // namespace internal_qr

Result<QrResult> HouseholderQr(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("QR of an empty matrix");
  }
  const int64_t k = std::min(m, n);
  FEDSC_TRACE_SPAN("linalg/qr", {{"m", m}, {"n", n}});
  FEDSC_METRIC_COUNTER("linalg.qr.calls").Increment();
  // Factorization flops, 2 k^2 (max(m, n) - k / 3); the thin-Q
  // accumulation is not counted.
  FEDSC_METRIC_COUNTER("linalg.qr.flops")
      .Add(2 * k * k * std::max(m, n) - (2 * k * k * k) / 3);

  // Factor in place, then accumulate thin Q by applying reflectors last to
  // first.
  Matrix work = a;
  Vector tau(static_cast<size_t>(k), 0.0);
  for (int64_t j = 0; j < k; ++j) {
    double* col = work.ColData(j);
    const double t = internal_qr::GenerateReflector(col, j, m);
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
