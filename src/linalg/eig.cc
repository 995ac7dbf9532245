#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace fedsc {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

double Pythag(double a, double b) { return std::hypot(a, b); }

// Householder reduction of the symmetric matrix in `z` to tridiagonal form
// (EISPACK tred2, without forming Q). On exit `d` holds the diagonal, `e`
// the subdiagonal (e[0] = 0), row i of `z` (columns < i) reflector i's
// vector u and h[i] its scale: H_i = I - u u^T / h[i], the identity when
// h[i] = 0.
void Tred2(Matrix* zm, Vector* dv, Vector* ev, Vector* hv) {
  Matrix& z = *zm;
  Vector& d = *dv;
  Vector& e = *ev;
  const int64_t n = z.rows();
  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(n), 0.0);
  hv->assign(static_cast<size_t>(n), 0.0);

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
    (*hv)[static_cast<size_t>(i)] = h;
  }
  e[0] = 0.0;
  for (int64_t i = 0; i < n; ++i) d[static_cast<size_t>(i)] = z(i, i);
}

// QL with implicit shifts on the n x n tridiagonal (d, e), values only
// (EISPACK tql2 without its rotation accumulation). e[i] couples rows i-1
// and i; e is scratch on exit and d holds the eigenvalues, unsorted.
Status Tql2(double* d, double* e, int64_t n) {
  if (n == 0) return Status::OK();
  for (int64_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr int kMaxIterations = 50;
  // EISPACK's running norm: an off-diagonal deflates once it is negligible
  // against the largest |d_l| + |e_l| seen so far, not against its two
  // neighbours, so a cluster of near-zero eigenvalues still splits off.
  double tst1 = 0.0;
  for (int64_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int iterations = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        if (std::fabs(e[m]) <= kEps * tst1) break;
      }
      if (m != l) {
        if (iterations++ == kMaxIterations) {
          return Status::NotConverged("tql2 exceeded iteration limit");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int64_t i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = Pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

// --- Sturm-count bisection (LAPACK dstebz/dlaebz) ---

// A block that contributes at most 1 / kBisectionShare of its values to a
// window bisects them; a larger share runs tql2 over the whole block. On a
// random symmetric matrix of order 60 / 120 / 296 / 510, bisecting a
// quarter of the values took 0.12 / 0.54 / 3.2 / 7.8 ms against tql2's
// 0.17 / 0.68 / 3.9 / 9.9 ms for all of them (best of 15, one thread,
// 4-vCPU AVX-512 Xeon).
constexpr int64_t kBisectionShare = 4;

// A block of at most this order always runs tql2 over all its values: the
// callers of tiny solves (a fleet_z2500 device's 12-point affinity, a
// local cluster's Gram) read two windows of one block, and one tql2 serves
// both for less than two bisections.
constexpr int64_t kTinyBlock = 16;

// Four bisection lanes share each pass over the block, one vector division
// serving all four shifts.
constexpr int kLanes = 4;
using Lanes = double __attribute__((vector_size(kLanes * sizeof(double))));
using LaneCounts =
    int64_t __attribute__((vector_size(kLanes * sizeof(int64_t))));

// The number of eigenvalues below each lane's shift in the order-m block
// (d, e2) with e2[i] = e_i^2 (e2[0] unused): the signs of the LDL^T pivots
// q_i = d_i - e2_i / q_{i-1} - x, a pivot at or below pivmin counted
// negative and clamped to -pivmin so no division overflows.
LaneCounts SturmCounts(const double* d, const double* e2, int64_t m,
                       Lanes x, double pivmin) {
  const Lanes high = {pivmin, pivmin, pivmin, pivmin};
  const Lanes low = -high;
  LaneCounts count = {0, 0, 0, 0};
  Lanes q = d[0] - x;
  for (int64_t i = 0;;) {
    const LaneCounts negative = q <= high;
    count -= negative;
    q = negative ? (q < low ? q : low) : q;
    if (++i == m) break;
    q = d[i] - e2[i] / q - x;
  }
  return count;
}

// The eigenvalues with ascending indices [lo, lo + w) of one unreduced
// block, each bisected on its own interval from the Gershgorin bounds
// [gl, gu] until it is narrower than max(atol, 2 eps |x|): the result for an
// index depends only on the block and the index, never on which lanes ran
// beside it.
void BisectValues(const double* d, const double* e2, int64_t m, double gl,
                  double gu, double atol, double pivmin, int64_t lo, int64_t w,
                  double* out) {
  for (int64_t base = 0; base < w; base += kLanes) {
    Lanes a = {gl, gl, gl, gl};
    Lanes b = {gu, gu, gu, gu};
    int64_t index[kLanes];
    bool done[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      index[l] = lo + std::min<int64_t>(base + l, w - 1);
      done[l] = base + l >= w;
    }
    // Each pass halves an interval of width at most 2 ||T||; 128 passes
    // reach the tolerance from any representable width.
    for (int pass = 0; pass < 128; ++pass) {
      bool all_done = true;
      for (int l = 0; l < kLanes; ++l) {
        if (done[l]) continue;
        const double tolerance =
            std::max(atol, 2.0 * kEps * std::max(std::fabs(a[l]),
                                                 std::fabs(b[l])));
        done[l] = b[l] - a[l] <= tolerance;
        all_done = all_done && done[l];
      }
      if (all_done) break;
      const Lanes mid = 0.5 * (a + b);
      const LaneCounts below = SturmCounts(d, e2, m, mid, pivmin);
      for (int l = 0; l < kLanes; ++l) {
        if (done[l]) continue;
        if (below[l] <= index[l]) {
          a[l] = mid[l];
        } else {
          b[l] = mid[l];
        }
      }
    }
    for (int l = 0; l < kLanes && base + l < w; ++l) {
      out[base + l] = 0.5 * (a[l] + b[l]);
    }
  }
}

// --- Inverse iteration (LAPACK dstein) ---

constexpr int kMaxInverseIterations = 5;
// Iterations run on after the iterate's growth first passes the test.
constexpr int kExtraInverseIterations = 2;
// Eigenvalues closer than this share of ||T_block|| form one cluster whose
// vectors are reorthogonalized against each other.
constexpr double kClusterTolerance = 1e-3;
constexpr uint64_t kInverseIterationSeed = 0x1e7e'5ee0ULL;

// P L U = T - s I for the order-m block (d, e) by partial pivoting (LAPACK
// dgttrf), with U's diagonal in a (its reciprocals in inv_a, so the solves
// multiply), its two superdiagonals in du, du2 and L's multipliers in dl. A
// pivot below `pivot_floor` in magnitude is raised to it, so the solve
// stays finite at an eigenvalue of T.
struct TridiagonalLu {
  Vector a, inv_a, du, du2, dl;
  std::vector<char> swapped;

  void Factor(const double* d, const double* e, int64_t m, double s,
              double pivot_floor) {
    a.resize(static_cast<size_t>(m));
    du.assign(static_cast<size_t>(m), 0.0);
    du2.assign(static_cast<size_t>(m), 0.0);
    dl.assign(static_cast<size_t>(m), 0.0);
    swapped.assign(static_cast<size_t>(m), 0);
    for (int64_t i = 0; i < m; ++i) {
      a[static_cast<size_t>(i)] = d[i] - s;
      if (i + 1 < m) {
        du[static_cast<size_t>(i)] = e[i + 1];
        dl[static_cast<size_t>(i)] = e[i + 1];
      }
    }
    for (int64_t i = 0; i + 1 < m; ++i) {
      const auto k = static_cast<size_t>(i);
      if (std::fabs(a[k]) >= std::fabs(dl[k])) {
        if (a[k] != 0.0) {
          const double fact = dl[k] / a[k];
          dl[k] = fact;
          a[k + 1] -= fact * du[k];
        }
      } else {
        const double fact = a[k] / dl[k];
        a[k] = dl[k];
        dl[k] = fact;
        const double temp = du[k];
        du[k] = a[k + 1];
        a[k + 1] = temp - fact * a[k + 1];
        if (i + 2 < m) {
          du2[k] = du[k + 1];
          du[k + 1] = -fact * du[k + 1];
        }
        swapped[k] = 1;
      }
    }
    inv_a.resize(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
      double& pivot = a[static_cast<size_t>(i)];
      if (std::fabs(pivot) < pivot_floor) {
        pivot = pivot < 0.0 ? -pivot_floor : pivot_floor;
      }
      inv_a[static_cast<size_t>(i)] = 1.0 / pivot;
    }
  }

  // x := (T - s I)^{-1} x.
  void Solve(double* x) const {
    const auto m = static_cast<int64_t>(a.size());
    for (int64_t i = 0; i + 1 < m; ++i) {
      const auto k = static_cast<size_t>(i);
      if (swapped[k]) {
        const double temp = x[i];
        x[i] = x[i + 1];
        x[i + 1] = temp - dl[k] * x[i];
      } else {
        x[i + 1] -= dl[k] * x[i];
      }
    }
    x[m - 1] *= inv_a[static_cast<size_t>(m - 1)];
    if (m > 1) {
      x[m - 2] = (x[m - 2] - du[static_cast<size_t>(m - 2)] * x[m - 1]) *
                 inv_a[static_cast<size_t>(m - 2)];
    }
    for (int64_t i = m - 3; i >= 0; --i) {
      const auto k = static_cast<size_t>(i);
      x[i] = (x[i] - du[k] * x[i + 1] - du2[k] * x[i + 2]) * inv_a[k];
    }
  }
};

int64_t ArgMaxAbs(const double* x, int64_t m) {
  int64_t best = 0;
  for (int64_t i = 1; i < m; ++i) {
    if (std::fabs(x[i]) > std::fabs(x[best])) best = i;
  }
  return best;
}

// Eigenvectors of the order-m unreduced block (d, e) (e[i] couples rows i-1
// and i) for its ascending eigenvalues lambda[0..w), whose ascending indices
// within the block are local[0..w); vector j goes to column j of the m x w
// column-major `out`. Each starts from a pseudo-random vector keyed by the
// block's first row and its index, and solves (T - lambda I) x = b until its
// growth shows convergence, reorthogonalized against the earlier vectors of
// its cluster. Each vector is normalized with its largest entry positive.
Status InverseIteration(const double* d, const double* e, int64_t m,
                        int64_t first_row, const double* lambda,
                        const int64_t* local, int64_t w, double* out) {
  if (m == 1) {
    out[0] = 1.0;
    return Status::OK();
  }
  double norm = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const double next = i + 1 < m ? std::fabs(e[i + 1]) : 0.0;
    norm = std::max(norm, std::fabs(d[i]) + (i > 0 ? std::fabs(e[i]) : 0.0) +
                              next);
  }
  const double cluster = kClusterTolerance * norm;
  const double growth = std::sqrt(0.1 / static_cast<double>(m));
  TridiagonalLu lu;
  int64_t group = 0;
  double previous = 0.0;
  for (int64_t j = 0; j < w; ++j) {
    double shift = lambda[j];
    if (j > 0) {
      // Separate (nearly) equal eigenvalues so each solve has its own shift.
      const double perturbation = 10.0 * std::fabs(kEps * shift);
      if (shift - previous < perturbation) shift = previous + perturbation;
      if (shift - previous > cluster) group = j;
    }
    previous = shift;
    double* x = out + j * m;
    Rng rng(MixSeeds(kInverseIterationSeed ^ static_cast<uint64_t>(first_row),
                     static_cast<uint64_t>(local[j])));
    for (int64_t i = 0; i < m; ++i) x[i] = rng.Uniform(-1.0, 1.0);
    lu.Factor(d, e, m, shift, kEps * norm);
    int checks = 0;
    bool converged = false;
    for (int it = 0; it < kMaxInverseIterations && !converged; ++it) {
      // Scale the right-hand side so a converged solve grows it past
      // `growth` without overflow.
      const double last_pivot = std::fabs(lu.a[static_cast<size_t>(m - 1)]);
      Scal(static_cast<double>(m) * std::max(kEps * norm, last_pivot) /
               std::fabs(x[ArgMaxAbs(x, m)]),
           x, m);
      lu.Solve(x);
      for (int64_t p = group; p < j; ++p) {
        const double* v = out + p * m;
        Axpy(-Dot(x, v, m), v, x, m);
      }
      const double peak = std::fabs(x[ArgMaxAbs(x, m)]);
      if (!std::isfinite(peak)) break;
      if (peak < growth) continue;
      converged = ++checks > kExtraInverseIterations;
    }
    if (!converged) {
      return Status::NotConverged("inverse iteration did not converge");
    }
    const double scale = 1.0 / Norm2(x, m);
    Scal(x[ArgMaxAbs(x, m)] < 0.0 ? -scale : scale, x, m);
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
// so it is result-affecting inside the blocked path.
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


// c := (I - V T V^T) c, with T from internal_eig::BuildCompactWyT: two
// Gemm calls around a small triangular multiply, bit-identical for every
// num_threads.
void ApplyBlockReflector(const Matrix& v, const Matrix& t, Matrix* c,
                         int num_threads) {
  const int64_t b = v.cols();
  const int64_t nc = c->cols();
  Matrix w(b, nc);
  Gemm(Trans::kTrans, Trans::kNo, 1.0, v, *c, 0.0, &w, num_threads);
  // w := T w; T is upper triangular, so each column updates in place in
  // ascending rows (row i reads only rows >= i).
  const int threads =
      b * b * nc < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
  ParallelForRanges(0, nc, threads, [&](int64_t c0, int64_t c1, int) {
    for (int64_t col = c0; col < c1; ++col) {
      double* wc = w.ColData(col);
      for (int64_t i = 0; i < b; ++i) {
        double sum = 0.0;
        for (int64_t l = i; l < b; ++l) sum += t(i, l) * wc[l];
        wc[i] = sum;
      }
    }
  });
  Gemm(Trans::kNo, Trans::kNo, -1.0, v, w, 1.0, c, num_threads);
}

// x := Q x for the n x k block z, through the kept reflectors. Blocked:
// Q = H_0 ... H_{n-3} applied panel by panel, last panel first, each panel
// as one compact-WY block reflector; a panel [s, j1) touches rows (s, n).
// Tred2: Q = H_{n-1} ... H_1, applied H_1 first, each a rank-1 update of
// rows [0, i).
void ApplyQ(const internal_eig::Tridiagonal& t, int num_threads, Matrix* z) {
  const int64_t n = z->rows();
  const int64_t k = z->cols();
  if (k == 0 || n < 2) return;
  if (t.blocked) {
    const int64_t last = ((n - 3) / kEigPanelWidth) * kEigPanelWidth;
    for (int64_t s = last; s >= 0; s -= kEigPanelWidth) {
      const int64_t j1 = std::min(s + kEigPanelWidth, n - 2);
      const int64_t b = j1 - s;
      // Reflector s + jj has its unit head at global row s + jj + 1: local
      // row jj of a block starting at row s + 1, with explicit zeros above.
      Matrix v(n - s - 1, b);
      for (int64_t jj = 0; jj < b; ++jj) {
        const double* col = t.reflectors.ColData(s + jj);
        v(jj, jj) = 1.0;
        for (int64_t i = s + jj + 2; i < n; ++i) v(i - s - 1, jj) = col[i];
      }
      const Matrix tw = internal_eig::BuildCompactWyT(v, t.scales.data() + s);
      Matrix rows(n - s - 1, k);
      for (int64_t c = 0; c < k; ++c) {
        std::copy(z->ColData(c) + s + 1, z->ColData(c) + n, rows.ColData(c));
      }
      ApplyBlockReflector(v, tw, &rows, num_threads);
      for (int64_t c = 0; c < k; ++c) {
        std::copy(rows.ColData(c), rows.ColData(c) + n - s - 1,
                  z->ColData(c) + s + 1);
      }
    }
    return;
  }
  Vector u(static_cast<size_t>(n));
  for (int64_t i = 1; i < n; ++i) {
    const double h = t.scales[static_cast<size_t>(i)];
    if (h == 0.0) continue;
    for (int64_t p = 0; p < i; ++p) {
      u[static_cast<size_t>(p)] = t.reflectors(i, p);
    }
    for (int64_t c = 0; c < k; ++c) {
      double* x = z->ColData(c);
      Axpy(-Dot(u.data(), x, i) / h, u.data(), x, i);
    }
  }
}

}  // namespace

namespace internal_eig {

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

Tridiagonal Tred2Tridiagonal(const Matrix& a) {
  Tridiagonal t;
  t.reflectors = a;
  Tred2(&t.reflectors, &t.d, &t.e, &t.scales);
  return t;
}

Tridiagonal BlockedTridiagonal(const Matrix& a, int num_threads) {
  FEDSC_CHECK(a.rows() >= 3) << "blocked tridiagonalization needs n >= 3";
  Tridiagonal t;
  t.reflectors = SymmetrizeFromLower(a);
  t.blocked = true;
  BlockedTridiagonalize(&t.reflectors, &t.d, &t.e, &t.scales, num_threads);
  return t;
}

}  // namespace internal_eig

SymmetricEigensolver::SymmetricEigensolver(internal_eig::Tridiagonal t,
                                           int num_threads)
    : t_(std::move(t)), num_threads_(num_threads) {
  const auto n = static_cast<int64_t>(t_.d.size());
  // Off-diagonals negligible against ||T|| split T; the eigenvalues move by
  // at most eps ||T||, the accuracy tql2's deflation works to.
  double norm = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double next =
        i + 1 < n ? std::fabs(t_.e[static_cast<size_t>(i + 1)]) : 0.0;
    norm = std::max(norm, std::fabs(t_.d[static_cast<size_t>(i)]) +
                              std::fabs(t_.e[static_cast<size_t>(i)]) + next);
  }
  e2_.assign(static_cast<size_t>(n), 0.0);
  double e2_max = 0.0;
  int64_t start = 0;
  for (int64_t i = 1; i <= n; ++i) {
    if (i < n && std::fabs(t_.e[static_cast<size_t>(i)]) > kEps * norm) {
      const double e = t_.e[static_cast<size_t>(i)];
      e2_[static_cast<size_t>(i)] = e * e;
      e2_max = std::max(e2_max, e * e);
      continue;
    }
    if (i < n) t_.e[static_cast<size_t>(i)] = 0.0;
    blocks_.emplace_back(start, i - start);
    start = i;
  }
  pivmin_ = std::numeric_limits<double>::min() * std::max(1.0, e2_max);
  block_cache_.resize(blocks_.size());
}

Result<SymmetricEigensolver> SymmetricEigensolver::Create(
    const Matrix& a, const EigOptions& options) {
  FEDSC_RETURN_NOT_OK(CheckSquare(a));
  const int64_t n = a.rows();
  const bool blocked = n >= kBlockedEigCutoff;
  FEDSC_TRACE_SPAN("linalg/eig", {{"n", n}, {"blocked", blocked ? 1 : 0}});
  FEDSC_METRIC_COUNTER("linalg.eig.calls").Increment();
  FEDSC_METRIC_COUNTER("linalg.eig.tridiag_flops").Add((4 * n * n * n) / 3);
  // An exact power-of-two scaling brings the largest entry into [1/2, 1),
  // so neither the reduction nor the Sturm counts' e_i^2 over- or
  // underflow; the eigenvalues scale back exactly.
  double peak = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = j; i < n; ++i) {
      const double v = a(i, j);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "eigendecomposition of a non-finite matrix");
      }
      peak = std::max(peak, std::fabs(v));
    }
  }
  int exponent = 0;
  if (peak > 0.0) std::frexp(peak, &exponent);
  // Clamped so that both 2^-exponent and 2^exponent are normal numbers; a
  // subnormal peak then scales to about 1e-9, still in range.
  exponent = std::clamp(exponent, -1000, 1000);
  const double down = std::ldexp(1.0, -exponent);
  Matrix scaled(n, n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = j; i < n; ++i) scaled(i, j) = a(i, j) * down;
  }
  SymmetricEigensolver solver(
      blocked ? internal_eig::BlockedTridiagonal(scaled, options.num_threads)
              : internal_eig::Tred2Tridiagonal(scaled),
      options.num_threads);
  solver.exponent_ = exponent;
  return solver;
}

Status SymmetricEigensolver::CheckWindow(int64_t first, int64_t count) const {
  if (first < 0 || count < 0 || first + count > size()) {
    return Status::InvalidArgument(
        "eigenvalue window [" + std::to_string(first) + ", " +
        std::to_string(first + count) + ") outside [0, " +
        std::to_string(size()) + ")");
  }
  return Status::OK();
}

Result<const Vector*> SymmetricEigensolver::BlockValues(size_t b, int64_t lo,
                                                        int64_t w) const {
  const auto [start, m] = blocks_[b];
  // A tiny block always runs tql2 over all its values, so every window on
  // it reads the one spectrum.
  if (m <= kTinyBlock) {
    lo = 0;
    w = m;
  }
  BlockCache& cache = block_cache_[b];
  if (cache.lo == lo && static_cast<int64_t>(cache.values.size()) == w) {
    return &cache.values;
  }
  const double* d = t_.d.data() + start;
  Vector values(static_cast<size_t>(w));
  if (m == 1) {
    values[0] = d[0];
  } else if (m > kTinyBlock && w * kBisectionShare <= m) {
    // Gershgorin bounds, widened by rounding's reach.
    const double* e = t_.e.data() + start;
    double gl = d[0];
    double gu = d[0];
    for (int64_t i = 0; i < m; ++i) {
      const double radius = (i > 0 ? std::fabs(e[i]) : 0.0) +
                            (i + 1 < m ? std::fabs(e[i + 1]) : 0.0);
      gl = std::min(gl, d[i] - radius);
      gu = std::max(gu, d[i] + radius);
    }
    const double bound = std::max(std::fabs(gl), std::fabs(gu));
    const double widen = 2.1 * kEps * bound * static_cast<double>(m);
    BisectValues(d, e2_.data() + start, m, gl - widen, gu + widen,
                 kEps * bound, pivmin_, lo, w, values.data());
  } else {
    Vector block_d(d, d + m);
    Vector block_e(t_.e.begin() + start, t_.e.begin() + start + m);
    block_e[0] = 0.0;
    FEDSC_RETURN_NOT_OK(Tql2(block_d.data(), block_e.data(), m));
    std::sort(block_d.begin(), block_d.end());
    std::copy(block_d.begin() + lo, block_d.begin() + lo + w, values.begin());
  }
  cache.lo = lo;
  cache.values = std::move(values);
  return &cache.values;
}

// The window's eigenvalues come from the blocks' extreme values: the top
// (or bottom) W of the whole spectrum are the top (bottom) W of the union of
// each block's top (bottom) min(W, order). The window is anchored at
// whichever end needs fewer.
Result<std::vector<SymmetricEigensolver::Entry>> SymmetricEigensolver::Window(
    int64_t first, int64_t count) const {
  const int64_t n = size();
  const bool from_top = n - first <= first + count;
  const int64_t want = from_top ? n - first : first + count;
  std::vector<Entry> entries;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const int64_t m = blocks_[b].second;
    const int64_t w = std::min(want, m);
    if (w == 0) continue;
    const int64_t lo = from_top ? m - w : 0;
    FEDSC_ASSIGN_OR_RETURN(const Vector* values, BlockValues(b, lo, w));
    // A tiny block's cache holds its whole spectrum.
    const int64_t offset = static_cast<int64_t>(values->size()) == m ? lo : 0;
    for (int64_t j = 0; j < w; ++j) {
      entries.push_back({(*values)[static_cast<size_t>(offset + j)],
                         static_cast<int64_t>(b), lo + j});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) {
              if (x.value != y.value) return x.value < y.value;
              if (x.block != y.block) return x.block < y.block;
              return x.local < y.local;
            });
  const int64_t offset = from_top
                             ? static_cast<int64_t>(entries.size()) - want
                             : want - count;
  return std::vector<Entry>(entries.begin() + offset,
                            entries.begin() + offset + count);
}

Result<Vector> SymmetricEigensolver::Values(int64_t first,
                                            int64_t count) const {
  FEDSC_RETURN_NOT_OK(CheckWindow(first, count));
  FEDSC_TRACE_SPAN("linalg/eig",
                   {{"n", size()}, {"window", count}, {"k", 0}});
  FEDSC_ASSIGN_OR_RETURN(const std::vector<Entry> entries,
                         Window(first, count));
  const double up = std::ldexp(1.0, exponent_);
  Vector values;
  values.reserve(static_cast<size_t>(count));
  for (const Entry& entry : entries) values.push_back(entry.value * up);
  return values;
}

Result<EigResult> SymmetricEigensolver::Pairs(int64_t first,
                                              int64_t count) const {
  FEDSC_RETURN_NOT_OK(CheckWindow(first, count));
  const int64_t n = size();
  FEDSC_TRACE_SPAN("linalg/eig",
                   {{"n", n}, {"window", count}, {"k", count}});
  FEDSC_METRIC_COUNTER("linalg.eig.vectors").Add(count);
  FEDSC_ASSIGN_OR_RETURN(const std::vector<Entry> entries,
                         Window(first, count));
  const double up = std::ldexp(1.0, exponent_);
  EigResult result;
  result.values.reserve(static_cast<size_t>(count));
  result.vectors = Matrix(n, count);
  // Per block, its entries (ascending, as the window is) and their columns.
  std::vector<std::vector<int64_t>> columns(blocks_.size());
  for (int64_t c = 0; c < count; ++c) {
    const Entry& entry = entries[static_cast<size_t>(c)];
    columns[static_cast<size_t>(entry.block)].push_back(c);
    result.values.push_back(entry.value * up);
  }
  Vector lambda;
  std::vector<int64_t> local;
  Vector block_vectors;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const std::vector<int64_t>& cols = columns[b];
    if (cols.empty()) continue;
    const auto [start, m] = blocks_[b];
    const auto w = static_cast<int64_t>(cols.size());
    lambda.clear();
    local.clear();
    for (int64_t c : cols) {
      lambda.push_back(entries[static_cast<size_t>(c)].value);
      local.push_back(entries[static_cast<size_t>(c)].local);
    }
    block_vectors.assign(static_cast<size_t>(m * w), 0.0);
    FEDSC_RETURN_NOT_OK(InverseIteration(
        t_.d.data() + start, t_.e.data() + start, m, start, lambda.data(),
        local.data(), w, block_vectors.data()));
    for (int64_t j = 0; j < w; ++j) {
      std::copy(block_vectors.begin() + j * m,
                block_vectors.begin() + (j + 1) * m,
                result.vectors.ColData(cols[static_cast<size_t>(j)]) + start);
    }
  }
  ApplyQ(t_, num_threads_, &result.vectors);
  return result;
}

int64_t SymmetricEigensolver::CountBelow(double x) const {
  const double shift = std::ldexp(x, -exponent_);
  const Lanes lanes = {shift, shift, shift, shift};
  int64_t count = 0;
  for (const auto& [start, m] : blocks_) {
    count += SturmCounts(t_.d.data() + start, e2_.data() + start, m, lanes,
                         pivmin_)[0];
  }
  return count;
}

Result<EigResult> SymmetricEigen(const Matrix& a, const EigOptions& options) {
  FEDSC_ASSIGN_OR_RETURN(SymmetricEigensolver solver,
                         SymmetricEigensolver::Create(a, options));
  return solver.Pairs(0, solver.size());
}

Result<Vector> SymmetricEigenvalues(const Matrix& a,
                                    const EigOptions& options) {
  FEDSC_ASSIGN_OR_RETURN(SymmetricEigensolver solver,
                         SymmetricEigensolver::Create(a, options));
  return solver.Values(0, solver.size());
}

}  // namespace fedsc
