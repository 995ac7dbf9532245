#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/metrics.h"
#include "linalg/blas.h"

namespace fedsc {

namespace {

// At most kMaxSweeps sweeps; column pairs with |<a_p, a_q>| <= kTol *
// ||a_p|| * ||a_q|| count as orthogonal.
constexpr int kMaxSweeps = 60;
constexpr double kTol = 1e-12;

// Prescale's range: max |x| in [2^-kPrescaleExponent, 2^kPrescaleExponent].
constexpr int kPrescaleExponent = 250;

// Applies the Jacobi rotation for column pair (p, q), p < q, to the working
// copy (m rows) and the accumulated V (n rows). Returns false when the pair
// already counts as orthogonal (no rotation performed).
bool RotatePair(Matrix* work, Matrix* v, int64_t p, int64_t q, int64_t m,
                int64_t n) {
  double* cp = work->ColData(p);
  double* cq = work->ColData(q);
  const double app = Dot(cp, cp, m);
  const double aqq = Dot(cq, cq, m);
  const double apq = Dot(cp, cq, m);
  // sqrt(app) * sqrt(aqq), NOT sqrt(app * aqq): the product under- or
  // overflows for extremely scaled inputs (|x| ~ 1e-120 or 1e+120).
  if (std::fabs(apq) <= kTol * std::sqrt(app) * std::sqrt(aqq)) {
    return false;
  }

  // Rotation that zeroes the (p, q) entry of the implicit Gram matrix.
  const double zeta = (aqq - app) / (2.0 * apq);
  const double t = std::copysign(
      1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = c * t;
  for (int64_t i = 0; i < m; ++i) {
    const double wp = cp[i];
    cp[i] = c * wp - s * cq[i];
    cq[i] = s * wp + c * cq[i];
  }
  double* vp = v->ColData(p);
  double* vq = v->ColData(q);
  for (int64_t i = 0; i < n; ++i) {
    const double wp = vp[i];
    vp[i] = c * wp - s * vq[i];
    vq[i] = s * wp + c * vq[i];
  }
  return true;
}

// Shared post-processing once the columns of `work` are orthogonal: the
// singular values are the column norms, sorted descending; U columns are
// the normalized work columns and V rows follow the same permutation.
SvdResult FinishTall(Matrix work, Matrix v, int64_t m, int64_t n) {
  Vector sigma(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    sigma[static_cast<size_t>(j)] = Norm2(work.ColData(j), m);
  }
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
    return sigma[static_cast<size_t>(i)] > sigma[static_cast<size_t>(j)];
  });

  SvdResult result;
  result.u = Matrix(m, n);
  result.v = Matrix(n, n);
  result.s.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    const double sv = sigma[static_cast<size_t>(src)];
    result.s[static_cast<size_t>(j)] = sv;
    result.v.SetCol(j, v.ColData(src));
    if (sv > 0.0) {
      const double* col = work.ColData(src);
      double* u = result.u.ColData(j);
      const double inv = 1.0 / sv;
      for (int64_t i = 0; i < m; ++i) u[i] = col[i] * inv;
    }
    // sv == 0: the U column stays zero; callers truncate by rank.
  }
  return result;
}

}  // namespace

namespace internal_svd {

int Prescale(const Matrix& x, Matrix* scaled) {
  const double peak = x.MaxAbs();
  if (!(peak > 0.0) || !std::isfinite(peak) ||
      (peak >= std::ldexp(1.0, -kPrescaleExponent) &&
       peak <= std::ldexp(1.0, kPrescaleExponent))) {
    return 0;
  }
  int e = 0;
  std::frexp(peak, &e);
  *scaled = x;
  double* data = scaled->data();
  for (int64_t i = 0; i < scaled->size(); ++i) {
    data[i] = std::ldexp(data[i], -e);
  }
  return e;
}

}  // namespace internal_svd

Result<SvdResult> JacobiSvd(const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("SVD of an empty matrix");
  }
  FEDSC_METRIC_COUNTER("linalg.svd.calls").Increment();
  // RotatePair squares raw entries: out of range they would over- or
  // underflow, so sweep an exactly scaled copy and scale sigma back.
  Matrix scaled;
  const int e = internal_svd::Prescale(a, &scaled);
  const Matrix& x = e == 0 ? a : scaled;
  // A wide matrix is swept through its transpose, with U and V swapped back
  // at the end.
  const bool wide = x.rows() < x.cols();
  Matrix work = wide ? x.Transposed() : x;
  const int64_t m = work.rows();
  const int64_t n = work.cols();
  Matrix v = Matrix::Identity(n);

  // One-sided Jacobi: orthogonalize the columns of `work` by plane rotations
  // in cyclic (p, q) order, accumulating them into V.
  bool converged = false;
  int64_t rotations = 0;
  int sweeps = 0;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    converged = true;
    ++sweeps;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        if (RotatePair(&work, &v, p, q, m, n)) {
          converged = false;
          ++rotations;
        }
      }
    }
  }
  FEDSC_METRIC_COUNTER("linalg.svd.sweeps").Add(sweeps);
  FEDSC_METRIC_COUNTER("linalg.svd.rotations").Add(rotations);
  if (!converged) {
    return Status::NotConverged("Jacobi SVD did not converge within " +
                                std::to_string(kMaxSweeps) + " sweeps");
  }
  SvdResult result = FinishTall(std::move(work), std::move(v), m, n);
  if (wide) std::swap(result.u, result.v);
  for (double& sv : result.s) sv = std::ldexp(sv, e);
  return result;
}

int64_t NumericalRank(const Vector& s, double rel_tol) {
  if (s.empty() || s[0] <= 0.0) return 0;
  const double threshold = rel_tol * s[0];
  int64_t rank = 0;
  for (double sv : s) {
    if (sv > threshold) ++rank;
  }
  return rank;
}

Result<Matrix> PrincipalSubspace(const Matrix& a, int64_t rank,
                                 double rel_tol) {
  FEDSC_ASSIGN_OR_RETURN(SvdResult svd, JacobiSvd(a));
  int64_t r = rank > 0 ? std::min<int64_t>(rank, svd.u.cols())
                       : NumericalRank(svd.s, rel_tol);
  // Never keep a direction whose singular value is at roundoff level
  // (<= max(m, n) * eps * sigma_1, the LAPACK/NumPy numerical-rank
  // tolerance): its U column is rounding noise, not a direction the data
  // spans, and a fixed rank above the data's rank would otherwise return it.
  const double roundoff = static_cast<double>(std::max(a.rows(), a.cols())) *
                          std::numeric_limits<double>::epsilon() * svd.s[0];
  while (r > 0 && svd.s[static_cast<size_t>(r - 1)] <= roundoff) --r;
  if (r <= 0) {
    return Status::FailedPrecondition("matrix has numerical rank 0");
  }
  return svd.u.ColRange(0, r);
}

}  // namespace fedsc
