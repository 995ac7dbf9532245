#include "sc/ssc_admm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "sc/affinity.h"

namespace fedsc {

namespace {

// mu = min_i max_{j != i} |x_j^T x_i|, from the Gram matrix. Column panels
// reduce to a per-chunk min-of-max, combined in chunk order below — min and
// max are exact in any order (the same reduction shape as the ADMM stopping
// rule), so the result is bit-identical for every thread count.
double MutualCoherenceFloor(const Matrix& gram, int num_threads) {
  const int64_t n = gram.rows();
  const int chunks =
      std::max(1, ParallelChunkCount(0, n, num_threads));
  std::vector<double> chunk_mu(static_cast<size_t>(chunks),
                               std::numeric_limits<double>::infinity());
  ParallelForRanges(0, n, num_threads,
                    [&](int64_t i0, int64_t i1, int chunk) {
                      double mu = std::numeric_limits<double>::infinity();
                      for (int64_t i = i0; i < i1; ++i) {
                        double max_abs = 0.0;
                        const double* col = gram.ColData(i);
                        for (int64_t j = 0; j < n; ++j) {
                          if (j != i) {
                            max_abs = std::max(max_abs, std::fabs(col[j]));
                          }
                        }
                        mu = std::min(mu, max_abs);
                      }
                      chunk_mu[static_cast<size_t>(chunk)] = mu;
                    });
  double mu = std::numeric_limits<double>::infinity();
  for (double v : chunk_mu) mu = std::min(mu, v);
  return mu;
}

double SoftThreshold(double v, double t) {
  if (v > t) return v - t;
  if (v < -t) return v + t;
  return 0.0;
}

// The SYRK-backed Gram costs nn*(nn+1)*kk flops (half the GEMM's
// 2*nn*kk*nn); recorded so --metrics-out makes the win visible.
void RecordGramFlops(int64_t nn, int64_t kk) {
  FEDSC_METRIC_COUNTER("sc.ssc_admm.gram_flops").Add(nn * (nn + 1) * kk);
}

// C-update over columns [j0, j1): soft-threshold Z + U at `threshold` with
// row pinned(j) held at zero, fold in the dual update U += Z - C, and leave
// the next Z-update input M = C - U + shift(j) in z. Returns the stopping
// rule's max(|C - C_prev|, |Z - C|) over those columns.
template <typename Pinned, typename Shift>
double ThresholdColumns(int64_t j0, int64_t j1, double threshold,
                        Pinned pinned, Shift shift, Matrix* c, Matrix* u,
                        Matrix* z) {
  double residual = 0.0;
  for (int64_t j = j0; j < j1; ++j) {
    double* cj = c->ColData(j);
    double* uj = u->ColData(j);
    double* zj = z->ColData(j);
    const int64_t zero_row = pinned(j);
    const double offset = shift(j);
    for (int64_t i = 0; i < c->rows(); ++i) {
      const double next =
          i == zero_row ? 0.0 : SoftThreshold(zj[i] + uj[i], threshold);
      const double gap = zj[i] - next;
      residual = std::max({residual, std::fabs(next - cj[i]), std::fabs(gap)});
      cj[i] = next;
      uj[i] += gap;
      zj[i] = next - uj[i] + offset;
    }
  }
  return residual;
}

// Reports a finished solve to `info` and the sc.ssc_admm.* metrics.
void RecordSolve(const char* solver, int iterations, double residual,
                 bool converged, SscAdmmInfo* info) {
  if (!converged) {
    FEDSC_LOG(Debug) << solver << " stopped at max_iterations with residual "
                     << residual;
  }
  if (info != nullptr) *info = {iterations, residual, converged};
  FEDSC_METRIC_COUNTER("sc.ssc_admm.solves").Increment();
  FEDSC_METRIC_COUNTER("sc.ssc_admm.iterations").Add(iterations);
  if (converged) FEDSC_METRIC_COUNTER("sc.ssc_admm.converged").Increment();
  FEDSC_METRIC_HISTOGRAM("sc.ssc_admm.iterations_per_solve").Record(iterations);
  // Last-writer-wins across concurrent device solves, hence kExecution.
  FEDSC_METRIC_GAUGE("sc.ssc_admm.last_residual", MetricKind::kExecution)
      .Set(residual);
}

// The Z-update shared by both solvers. Over a dictionary A (r x m: A = X on
// the exact solve, A = B on the sketched one) it solves
//   H Z = lambda A^T X_blk + rho M,   H = lambda A^T A + rho I,  M = C - U.
// The push-through identity H^{-1} A^T = A^T S^{-1}, S = rho I + lambda A A^T,
// plus Woodbury give Z = M + F^T (Y - K M), with
//   factored (r < m): K = lambda S^{-1} A, F = A, Y = lambda S^{-1} X_blk;
//   direct (r >= m):  K = I - rho H^{-1},  F = I, Y = lambda H^{-1} A^T X_blk.
// On the exact solve X_blk = A, so Y = K in both branches. An iteration costs
// two r x m x cols GEMMs (factored) or one m x m x cols GEMM (direct).
struct ZUpdate {
  const Matrix* a = nullptr;
  double lambda = 0.0;
  double rho = 0.0;
  bool factored = false;
  Matrix k;
  Matrix w;  // lambda S^{-1}, factored only

  // Y for the data columns x_blk (single-threaded: called per block).
  Matrix Target(const Matrix& x_blk) const {
    if (factored) return MatMul(w, x_blk);
    // lambda H^{-1} = (lambda / rho) (I - K).
    const Matrix g = MatMulTN(*a, x_blk);
    Matrix y = g;
    Gemm(Trans::kNo, Trans::kNo, -1.0, k, g, 1.0, &y);
    y *= lambda / rho;
    return y;
  }

  // H^{-1} 1 = (1/rho) (1 - F^T K 1), for the affine Sherman-Morrison step.
  Vector InverseOnes() const {
    const Vector ones(static_cast<size_t>(k.cols()), 1.0);
    Vector fk1 = Gemv(Trans::kNo, k, ones);
    if (factored) fk1 = Gemv(Trans::kTrans, *a, fk1);
    for (double& v : fk1) v = (1.0 - v) / rho;
    return fk1;
  }

  // *z holds M on entry and Z on exit; t is K.rows() x cols scratch.
  void Apply(const Matrix& y, Matrix* t, Matrix* z, int num_threads) const {
    *t = y;
    Gemm(Trans::kNo, Trans::kNo, -1.0, k, *z, 1.0, t, num_threads);
    if (factored) {
      Gemm(Trans::kTrans, Trans::kNo, 1.0, *a, *t, 1.0, z, num_threads);
    } else {
      *z += *t;
    }
  }
};

// Builds the operator for dictionary `a`. `gram` is A^T A when the caller
// already holds it (the exact solve builds it for mu), else empty; it is
// consumed either way.
Result<ZUpdate> BuildZUpdate(const Matrix& a, Matrix gram, double lambda,
                             double rho, int num_threads) {
  ZUpdate op;
  op.a = &a;
  op.lambda = lambda;
  op.rho = rho;
  op.factored = a.rows() < a.cols();
  if (op.factored) {
    gram = Matrix();
    Matrix s = OuterGram(a, num_threads);  // A A^T, via Syrk
    RecordGramFlops(a.rows(), a.cols());
    s *= lambda;
    for (int64_t i = 0; i < s.rows(); ++i) s(i, i) += rho;
    FEDSC_ASSIGN_OR_RETURN(op.w, SpdInverse(s));
    op.w *= lambda;
    op.k = Matrix(a.rows(), a.cols());
    Gemm(Trans::kNo, Trans::kNo, 1.0, op.w, a, 0.0, &op.k, num_threads);
    return op;
  }
  if (gram.empty()) {
    gram = Gram(a, num_threads);  // A^T A, via Syrk
    RecordGramFlops(a.cols(), a.rows());
  }
  gram *= lambda;  // H, in place
  for (int64_t i = 0; i < gram.rows(); ++i) gram(i, i) += rho;
  FEDSC_ASSIGN_OR_RETURN(op.k, SpdInverse(gram));
  op.k *= -rho;
  for (int64_t i = 0; i < op.k.rows(); ++i) op.k(i, i) += 1.0;
  return op;
}

}  // namespace

double SscLambda(const Matrix& x, double alpha, int num_threads) {
  return SscLambdaFromGram(Gram(x, num_threads), alpha, num_threads);
}

double SscLambdaFromGram(const Matrix& gram, double alpha, int num_threads) {
  const double mu = MutualCoherenceFloor(gram, num_threads);
  return mu > 0.0 ? alpha / mu : alpha;
}

Result<SparseMatrix> SscSelfExpression(const Matrix& x,
                                       const SscAdmmOptions& options,
                                       SscAdmmInfo* info) {
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  if (num_points < 2) {
    return Status::InvalidArgument("SSC needs at least 2 points");
  }
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  FEDSC_TRACE_SPAN("sc/ssc_admm", {{"points", num_points}, {"dim", n}});

  Matrix gram = Gram(x, options.num_threads);  // X^T X, via Syrk
  RecordGramFlops(num_points, n);
  const double mu = MutualCoherenceFloor(gram, options.num_threads);
  if (mu <= 0.0) {
    return Status::FailedPrecondition(
        "all points are mutually orthogonal; self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = options.rho > 0.0 ? options.rho : options.alpha;
  // A = X: the Gram goes into the direct operator or is freed here.
  FEDSC_ASSIGN_OR_RETURN(
      const ZUpdate op,
      BuildZUpdate(x, std::move(gram), lambda, rho, options.num_threads));

  Matrix c(num_points, num_points);
  Matrix u(num_points, num_points);
  // M = C - U [+ 1 (1 - u_affine)^T] into each Z-update, Z out of it.
  Matrix z(num_points, num_points);
  Matrix t(op.k.rows(), num_points);

  // Affine mode: Sherman-Morrison data for (lambda G + rho I + rho 1 1^T),
  // plus the scaled dual of the 1^T Z = 1^T constraint.
  Vector h_ones;          // H^{-1} 1
  double affine_scale = 0.0;  // rho / (1 + rho * 1^T H^{-1} 1)
  Vector u_affine;        // scaled dual, length N
  if (options.affine) {
    h_ones = op.InverseOnes();
    double dot_1h1 = 0.0;
    for (double v : h_ones) dot_1h1 += v;
    affine_scale = rho / (1.0 + rho * dot_1h1);
    u_affine.assign(static_cast<size_t>(num_points), 0.0);
    z.Fill(1.0);
  }

  Stopwatch deadline_timer;
  double residual = std::numeric_limits<double>::infinity();
  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    if (options.deadline_seconds > 0.0 &&
        deadline_timer.ElapsedSeconds() > options.deadline_seconds) {
      return Status::DeadlineExceeded("SSC ADMM exceeded its time budget of " +
                                      std::to_string(options.deadline_seconds) +
                                      "s");
    }
    op.Apply(op.k, &t, &z, options.num_threads);
    if (options.affine) {
      // Sherman-Morrison correction for the rho 1 1^T term,
      // Z -= (H^{-1} 1) * affine_scale * (1^T Z), then the dual update for
      // 1^T Z = 1^T.
      for (int64_t j = 0; j < num_points; ++j) {
        double* col = z.ColData(j);
        double colsum = 0.0;
        for (int64_t i = 0; i < num_points; ++i) colsum += col[i];
        Axpy(-affine_scale * colsum, h_ones.data(), col, num_points);
        colsum = 0.0;
        for (int64_t i = 0; i < num_points; ++i) colsum += col[i];
        u_affine[static_cast<size_t>(j)] += colsum - 1.0;
      }
    }

    // C-update with the diagonal pinned to zero. Column panels are
    // disjoint, and the stopping-rule maxima reduce per chunk then combine —
    // max is exact in any order, so the residual is bit-identical across
    // thread counts.
    const int chunks = std::max(
        1, ParallelChunkCount(0, num_points, options.num_threads));
    std::vector<double> chunk_residual(static_cast<size_t>(chunks), 0.0);
    ParallelForRanges(
        0, num_points, options.num_threads,
        [&](int64_t j0, int64_t j1, int chunk) {
          chunk_residual[static_cast<size_t>(chunk)] = ThresholdColumns(
              j0, j1, 1.0 / rho, [](int64_t j) { return j; },
              [&](int64_t j) {
                return options.affine
                           ? 1.0 - u_affine[static_cast<size_t>(j)]
                           : 0.0;
              },
              &c, &u, &z);
        });
    residual = *std::max_element(chunk_residual.begin(), chunk_residual.end());
    if (residual < options.tol) break;
  }
  const bool converged = residual < options.tol;
  // The break above skips the loop's increment, so count it explicitly.
  RecordSolve("SSC ADMM", converged ? iteration + 1 : iteration, residual,
              converged, info);
  return SparsifyCoefficients(c, options.top_k, options.drop_tol,
                              options.num_threads);
}

namespace {

// Column-block width for the sketched solve. A pure constant (never derived
// from the thread count): the per-block GEMM shapes, stopping decisions, and
// triplet order depend only on (N, kSketchBlockCols), so results are
// bit-identical for every thread count.
constexpr int64_t kSketchBlockCols = 256;

}  // namespace

Result<SparseMatrix> SscSketchedSelfExpression(const Matrix& x,
                                               const SketchResult& sketch,
                                               const SscAdmmOptions& options,
                                               SscAdmmInfo* info) {
  const Matrix& b = sketch.dictionary;
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  const int64_t num_atoms = b.cols();
  if (num_points < 1) {
    return Status::InvalidArgument("sketched SSC needs at least 1 point");
  }
  if (num_atoms < 1) {
    return Status::InvalidArgument("sketched SSC needs a non-empty "
                                   "dictionary");
  }
  if (b.rows() != n) {
    return Status::InvalidArgument(
        "dictionary ambient dim " + std::to_string(b.rows()) +
        " does not match data dim " + std::to_string(n));
  }
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  if (options.affine) {
    return Status::InvalidArgument(
        "the affine constraint is not supported on the sketched SSC path");
  }
  FEDSC_TRACE_SPAN("sc/ssc_admm_sketched",
                   {{"points", num_points}, {"atoms", num_atoms}, {"dim", n}});

  // Landmark sketches: atom index of each data column that is a landmark
  // (-1 otherwise); that atom's coefficient is pinned to zero.
  std::vector<int64_t> self_atom(static_cast<size_t>(num_points), -1);
  for (size_t a = 0; a < sketch.landmarks.size(); ++a) {
    self_atom[static_cast<size_t>(sketch.landmarks[a])] =
        static_cast<int64_t>(a);
  }

  // lambda = alpha / mu with mu = min_j max_a |b_a^T x_j| (self atom
  // excluded) — the dictionary/data analogue of Proposition 1's mutual
  // coherence floor. Min-of-max reduces exactly in any order.
  const int mu_chunks = std::max(
      1, ParallelChunkCount(0, num_points, options.num_threads));
  std::vector<double> chunk_mu(static_cast<size_t>(mu_chunks),
                               std::numeric_limits<double>::infinity());
  ParallelForRanges(
      0, num_points, options.num_threads,
      [&](int64_t j0, int64_t j1, int chunk) {
        Vector scores(static_cast<size_t>(num_atoms), 0.0);
        double mu = std::numeric_limits<double>::infinity();
        for (int64_t j = j0; j < j1; ++j) {
          Gemv(Trans::kTrans, 1.0, b, x.ColData(j), 0.0, scores.data());
          const int64_t forbidden = self_atom[static_cast<size_t>(j)];
          double max_abs = 0.0;
          for (int64_t a = 0; a < num_atoms; ++a) {
            if (a == forbidden) continue;
            max_abs = std::max(max_abs,
                               std::fabs(scores[static_cast<size_t>(a)]));
          }
          mu = std::min(mu, max_abs);
        }
        chunk_mu[static_cast<size_t>(chunk)] = mu;
      });
  double mu = std::numeric_limits<double>::infinity();
  for (double v : chunk_mu) mu = std::min(mu, v);
  if (!(mu > 0.0)) {
    return Status::FailedPrecondition(
        "every dictionary atom is orthogonal to some point; sketched "
        "self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = options.rho > 0.0 ? options.rho : options.alpha;

  // A = B: one Z-update operator shared by every block.
  FEDSC_ASSIGN_OR_RETURN(
      const ZUpdate op,
      BuildZUpdate(b, Matrix(), lambda, rho, options.num_threads));

  const int64_t num_blocks =
      (num_points + kSketchBlockCols - 1) / kSketchBlockCols;
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_blocks, options.num_threads))));
  std::vector<int> block_iterations(static_cast<size_t>(num_blocks), 0);
  std::vector<double> block_residual(static_cast<size_t>(num_blocks), 0.0);
  std::vector<char> block_converged(static_cast<size_t>(num_blocks), 0);
  std::atomic<bool> deadline_hit{false};
  Stopwatch deadline_timer;

  ParallelForRanges(0, num_blocks, options.num_threads, [&](int64_t blk0,
                                                            int64_t blk1,
                                                            int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    std::vector<int64_t> order(static_cast<size_t>(num_atoms));
    for (int64_t blk = blk0; blk < blk1; ++blk) {
      if (options.deadline_seconds > 0.0 &&
          deadline_timer.ElapsedSeconds() > options.deadline_seconds) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return;
      }
      const int64_t j0 = blk * kSketchBlockCols;
      const int64_t j1 = std::min(num_points, j0 + kSketchBlockCols);
      const int64_t nb = j1 - j0;
      const Matrix y = op.Target(x.ColRange(j0, j1));  // every iteration's Y

      Matrix c(num_atoms, nb);
      Matrix u(num_atoms, nb);
      Matrix z(num_atoms, nb);  // M = C - U in, Z out
      Matrix t(op.k.rows(), nb);
      double residual = std::numeric_limits<double>::infinity();
      int iteration = 0;
      for (; iteration < options.max_iterations; ++iteration) {
        op.Apply(y, &t, &z, 1);
        residual = ThresholdColumns(
            0, nb, 1.0 / rho,
            [&](int64_t jj) { return self_atom[static_cast<size_t>(j0 + jj)]; },
            [](int64_t) { return 0.0; }, &c, &u, &z);
        if (residual < options.tol) break;
      }
      const bool converged = residual < options.tol;
      block_iterations[static_cast<size_t>(blk)] =
          converged ? iteration + 1 : iteration;
      block_residual[static_cast<size_t>(blk)] = residual;
      block_converged[static_cast<size_t>(blk)] = converged ? 1 : 0;

      // Sparsify the block's columns in place (same top-k / drop-tol rule
      // as SparsifyCoefficients, over the d atoms).
      for (int64_t jj = 0; jj < nb; ++jj) {
        const int64_t j = j0 + jj;
        const double* col = c.ColData(jj);
        double max_abs = 0.0;
        for (int64_t a = 0; a < num_atoms; ++a) {
          max_abs = std::max(max_abs, std::fabs(col[a]));
        }
        if (max_abs <= 0.0) continue;
        const double drop = options.drop_tol * max_abs;
        if (options.top_k > 0 && options.top_k < num_atoms) {
          std::iota(order.begin(), order.end(), 0);
          const auto kth = order.begin() + options.top_k;
          std::nth_element(order.begin(), kth, order.end(),
                           [&](int64_t p, int64_t q) {
                             const double fp = std::fabs(col[p]);
                             const double fq = std::fabs(col[q]);
                             if (fp != fq) return fp > fq;
                             return p < q;
                           });
          std::sort(order.begin(), kth);
          for (auto it = order.begin(); it != kth; ++it) {
            const double v = col[*it];
            if (std::fabs(v) > drop) triplets.push_back({*it, j, v});
          }
        } else {
          for (int64_t a = 0; a < num_atoms; ++a) {
            const double v = col[a];
            if (std::fabs(v) > drop) triplets.push_back({a, j, v});
          }
        }
      }
    }
  });

  if (deadline_hit.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded(
        "sketched SSC ADMM exceeded its time budget of " +
        std::to_string(options.deadline_seconds) + "s");
  }

  int iterations = 0;
  double residual = 0.0;
  bool converged = true;
  for (int64_t blk = 0; blk < num_blocks; ++blk) {
    iterations = std::max(iterations,
                          block_iterations[static_cast<size_t>(blk)]);
    residual = std::max(residual, block_residual[static_cast<size_t>(blk)]);
    converged = converged && block_converged[static_cast<size_t>(blk)] != 0;
  }
  FEDSC_METRIC_COUNTER("sc.ssc_admm.sketched_solves").Increment();
  RecordSolve("sketched SSC ADMM", iterations, residual, converged, info);

  std::vector<Triplet> triplets;
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(num_atoms, num_points,
                                    std::move(triplets));
}

}  // namespace fedsc
