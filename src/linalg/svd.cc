#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace fedsc {

namespace {

// Applies the Jacobi rotation for column pair (p, q), p < q, to the working
// copy (m rows) and the accumulated V (n rows). Returns false when the pair
// already counts as orthogonal (no rotation performed). Reads and writes
// only columns p and q, so disjoint pairs are independent — the basis for
// the round-parallel sweep below.
bool RotatePair(Matrix* work, Matrix* v, int64_t p, int64_t q, int64_t m,
                int64_t n, double tol) {
  double* cp = work->ColData(p);
  double* cq = work->ColData(q);
  const double app = Dot(cp, cp, m);
  const double aqq = Dot(cq, cq, m);
  const double apq = Dot(cp, cq, m);
  // sqrt(app) * sqrt(aqq), NOT sqrt(app * aqq): the product under- or
  // overflows for extremely scaled inputs (|x| ~ 1e-120 or 1e+120).
  if (std::fabs(apq) <= tol * std::sqrt(app) * std::sqrt(aqq)) {
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

// Below this work size (rows * cols) the sweep stays in the classic cyclic
// (p, q) order and never fans out; at or above it the round-robin order
// runs (whose rounds are order-independent; see below). The two orders
// produce different low-order output bits, so results are discontinuous
// across this cutoff, but the pick never depends on num_threads.
constexpr int64_t kRoundRobinCutoff = 1 << 14;

}  // namespace

namespace internal_svd {

// Thin QR first, Jacobi sweeps on the small n x n R, U recovered with one
// GEMM. A = QR = Q (U_r S V^T), so U = Q U_r; zero columns of U_r (exactly
// zero singular values) stay exactly zero through the product.
Result<SvdResult> QrPreconditionedSvd(const Matrix& a,
                                      const SvdOptions& options) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  FEDSC_TRACE_SPAN("linalg/svd/precond_qr", {{"m", m}, {"n", n}});
  FEDSC_METRIC_COUNTER("linalg.svd.precond_qr").Increment();
  QrOptions qr_options;
  qr_options.num_threads = options.num_threads;
  FEDSC_ASSIGN_OR_RETURN(QrResult qr, HouseholderQr(a, qr_options));
  FEDSC_ASSIGN_OR_RETURN(SvdResult small, PlainJacobiSvd(qr.r, options));
  SvdResult result;
  result.u = Matrix(m, n);
  Gemm(Trans::kNo, Trans::kNo, 1.0, qr.q, small.u, 0.0, &result.u,
       options.num_threads);
  result.s = std::move(small.s);
  result.v = std::move(small.v);
  return result;
}

// One-sided Jacobi on a with m >= n: orthogonalizes the columns of a working
// copy by plane rotations, accumulating them into V.
//
// Large inputs visit pairs in round-robin (tournament) order: each sweep is
// n-1 rounds (n padded to even) of n/2 mutually disjoint column pairs — the
// circle method. Within a round every pair touches only its own two
// columns, so the pairs of a round can run on any number of threads in any
// order and the result is bit-identical to the serial sweep. The classic
// cyclic (p, q) order cannot be parallelized deterministically (later
// rotations read columns written by earlier ones inside one sweep), so
// small inputs — where threading could never pay for itself — keep it.
Result<SvdResult> PlainJacobiSvd(const Matrix& a, const SvdOptions& options) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  Matrix work = a;
  Matrix v = Matrix::Identity(n);

  if (m * n < kRoundRobinCutoff) {
    bool cyclic_converged = false;
    int64_t rotations = 0;
    int sweeps = 0;
    for (int sweep = 0; sweep < options.max_sweeps && !cyclic_converged;
         ++sweep) {
      cyclic_converged = true;
      ++sweeps;
      for (int64_t p = 0; p < n - 1; ++p) {
        for (int64_t q = p + 1; q < n; ++q) {
          if (RotatePair(&work, &v, p, q, m, n, options.tol)) {
            cyclic_converged = false;
            ++rotations;
          }
        }
      }
    }
    FEDSC_METRIC_COUNTER("linalg.svd.sweeps").Add(sweeps);
    FEDSC_METRIC_COUNTER("linalg.svd.rotations").Add(rotations);
    if (!cyclic_converged) {
      return Status::NotConverged("Jacobi SVD did not converge within " +
                                  std::to_string(options.max_sweeps) +
                                  " sweeps");
    }
    return FinishTall(std::move(work), std::move(v), m, n);
  }

  // Tournament schedule over positions 0..padded-1; position values >= n
  // are the bye introduced when n is odd.
  const int64_t padded = n + (n % 2);
  std::vector<int64_t> circle(static_cast<size_t>(padded));
  std::iota(circle.begin(), circle.end(), 0);
  std::vector<std::pair<int64_t, int64_t>> round_pairs;
  round_pairs.reserve(static_cast<size_t>(padded / 2));
  std::vector<uint8_t> rotated(static_cast<size_t>(padded / 2), 0);
  // Rotating 2 columns costs ~6m flops; cap the fan-out at something sane.
  const int threads = std::min(options.num_threads, 64);

  bool converged = false;
  int64_t rotations = 0;
  int sweeps = 0;
  for (int sweep = 0; sweep < options.max_sweeps && !converged; ++sweep) {
    converged = true;
    ++sweeps;
    std::iota(circle.begin(), circle.end(), 0);
    for (int64_t round = 0; round < padded - 1; ++round) {
      round_pairs.clear();
      for (int64_t i = 0; i < padded / 2; ++i) {
        int64_t p = circle[static_cast<size_t>(i)];
        int64_t q = circle[static_cast<size_t>(padded - 1 - i)];
        if (p >= n || q >= n) continue;  // bye
        if (p > q) std::swap(p, q);
        round_pairs.push_back({p, q});
      }

      std::fill(rotated.begin(), rotated.end(), 0);
      ParallelForRanges(
          0, static_cast<int64_t>(round_pairs.size()), threads,
          [&](int64_t k0, int64_t k1, int /*chunk*/) {
            for (int64_t k = k0; k < k1; ++k) {
              const auto [p, q] = round_pairs[static_cast<size_t>(k)];
              if (RotatePair(&work, &v, p, q, m, n, options.tol)) {
                rotated[static_cast<size_t>(k)] = 1;
              }
            }
          });
      for (size_t k = 0; k < round_pairs.size(); ++k) {
        if (rotated[k]) {
          converged = false;
          ++rotations;
        }
      }

      // Advance the circle: position 0 is fixed, everyone else shifts.
      const int64_t last = circle[static_cast<size_t>(padded - 1)];
      for (int64_t i = padded - 1; i > 1; --i) {
        circle[static_cast<size_t>(i)] = circle[static_cast<size_t>(i - 1)];
      }
      circle[1] = last;
    }
  }
  FEDSC_METRIC_COUNTER("linalg.svd.sweeps").Add(sweeps);
  FEDSC_METRIC_COUNTER("linalg.svd.rotations").Add(rotations);
  if (!converged) {
    return Status::NotConverged("Jacobi SVD did not converge within " +
                                std::to_string(options.max_sweeps) +
                                " sweeps");
  }
  return FinishTall(std::move(work), std::move(v), m, n);
}

}  // namespace internal_svd

namespace {

Result<SvdResult> JacobiSvdTall(const Matrix& a, const SvdOptions& options) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  if (n >= 2 && m >= kSvdPrecondMinAspect * n && m * n >= kSvdPrecondMinWork) {
    return internal_svd::QrPreconditionedSvd(a, options);
  }
  return internal_svd::PlainJacobiSvd(a, options);
}

}  // namespace

Result<SvdResult> JacobiSvd(const Matrix& a, const SvdOptions& options) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("SVD of an empty matrix");
  }
  FEDSC_METRIC_COUNTER("linalg.svd.calls").Increment();
  if (a.rows() >= a.cols()) return JacobiSvdTall(a, options);
  // Wide matrix: factor the transpose and swap U <-> V.
  FEDSC_ASSIGN_OR_RETURN(SvdResult t, JacobiSvdTall(a.Transposed(), options));
  SvdResult result;
  result.u = std::move(t.v);
  result.v = std::move(t.u);
  result.s = std::move(t.s);
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
