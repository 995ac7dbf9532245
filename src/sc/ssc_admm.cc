#include "sc/ssc_admm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

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
// max are exact in any order, so the result is bit-identical for every
// thread count.
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

// Residual balancing (Boyd et al. Section 3.4.1): every
// kRhoCheckInterval-th iteration, when one normalized residual exceeds the
// other by kRhoBalance (mu), rho moves by kRhoScale (tau) toward balance.
constexpr int kRhoCheckInterval = 10;
constexpr double kRhoBalance = 10.0;
constexpr double kRhoScale = 2.0;
// eps_abs = tol * kAbsTolScale (tol is eps_rel).
constexpr double kAbsTolScale = 1e-3;

// One column's squared-norm contributions to the stopping rule.
struct ColumnSums {
  double primal = 0.0;  // ||z - c||^2 (+ (1^T z - 1)^2 in affine mode)
  double dual = 0.0;    // ||c - c_prev||^2
  double z = 0.0;       // ||z||^2
  double c = 0.0;       // ||c||^2
  double u = 0.0;       // ||u||^2, after the dual update
};

// Boyd et al. Section 3.3 for a rows x sums.size() iterate:
//   r = ||Z - C||_F,  s = rho ||C - C_prev||_F,
//   eps_pri  = sqrt(rows * cols) eps_abs + eps_rel max(||Z||_F, ||C||_F),
//   eps_dual = sqrt(rows * cols) eps_abs + eps_rel rho ||U||_F.
// The per-column slots are summed serially in column order, so the result is
// bit-identical however the columns were split across threads.
struct Residuals {
  double primal = std::numeric_limits<double>::infinity();
  double dual = std::numeric_limits<double>::infinity();
  double primal_threshold = 0.0;
  double dual_threshold = 0.0;

  double PrimalRatio() const { return primal / primal_threshold; }
  double DualRatio() const { return dual / dual_threshold; }
  bool Converged() const { return PrimalRatio() <= 1.0 && DualRatio() <= 1.0; }
};

Residuals StoppingResiduals(const std::vector<ColumnSums>& sums, int64_t rows,
                            double rho, double tol) {
  ColumnSums total;
  for (const ColumnSums& col : sums) {
    total.primal += col.primal;
    total.dual += col.dual;
    total.z += col.z;
    total.c += col.c;
    total.u += col.u;
  }
  const double abs_term =
      std::sqrt(static_cast<double>(rows) * static_cast<double>(sums.size())) *
      tol * kAbsTolScale;
  Residuals r;
  r.primal = std::sqrt(total.primal);
  r.dual = rho * std::sqrt(total.dual);
  r.primal_threshold =
      abs_term + tol * std::max(std::sqrt(total.z), std::sqrt(total.c));
  r.dual_threshold = abs_term + tol * rho * std::sqrt(total.u);
  return r;
}

// The residual-balanced penalty for the next iterations (rho itself when the
// normalized residuals are within kRhoBalance of each other).
double BalancedRho(const Residuals& r, double rho) {
  if (r.PrimalRatio() > kRhoBalance * r.DualRatio()) return rho * kRhoScale;
  if (r.DualRatio() > kRhoBalance * r.PrimalRatio()) return rho / kRhoScale;
  return rho;
}

// Eight doubles as one GCC/Clang vector value. The lane count is fixed by
// the code, not by the host: the compiler lowers it to one zmm, two ymm or
// four xmm operations, and the stopping sums are added in the same order
// whatever vector width the build targets.
constexpr int64_t kLanes = 8;
using Lanes = double __attribute__((vector_size(8 * sizeof(double))));
using HalfLanes = double __attribute__((vector_size(4 * sizeof(double))));
using QuarterLanes = double __attribute__((vector_size(2 * sizeof(double))));
using LaneIndex = int64_t __attribute__((vector_size(8 * sizeof(int64_t))));
constexpr LaneIndex kLaneIndex = {0, 1, 2, 3, 4, 5, 6, 7};

Lanes LoadLanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreLanes(double* p, Lanes v) { std::memcpy(p, &v, sizeof(v)); }

// ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)): halves, then
// quarters, then the last pair. A fixed tree three adds deep; adding the
// lanes one after another would chain seven, which at 12-row columns costs
// more than the lanes save.
double SumLanes(Lanes v) {
  const HalfLanes half = __builtin_shufflevector(v, v, 0, 1, 2, 3) +
                         __builtin_shufflevector(v, v, 4, 5, 6, 7);
  const QuarterLanes quarter = __builtin_shufflevector(half, half, 0, 1) +
                               __builtin_shufflevector(half, half, 2, 3);
  return quarter[0] + quarter[1];
}

// C-update over columns [j0, j1): soft-threshold Z + U at `threshold` with
// row pinned(j) held at zero, fold in the dual update U += Z - C, and leave
// the next Z-update input M = C - U + shift(j) in z. Column j's stopping-rule
// sums go to sums[j]. Rows run kLanes at a time, then a scalar tail; the
// soft-threshold max(v - t, 0) + min(v + t, 0) is exact in both branches, so
// C, U and M carry the scalar loop's bits. The sums accumulate per lane and
// are combined by SumLanes before the tail rows join them in row order.
template <typename Pinned, typename Shift>
void ThresholdColumns(int64_t j0, int64_t j1, double threshold, Pinned pinned,
                      Shift shift, Matrix* c, Matrix* u, Matrix* z,
                      ColumnSums* sums) {
  const int64_t rows = c->rows();
  const int64_t vector_rows = rows / kLanes * kLanes;
  const Lanes zero = {};
  for (int64_t j = j0; j < j1; ++j) {
    double* cj = c->ColData(j);
    double* uj = u->ColData(j);
    double* zj = z->ColData(j);
    const int64_t zero_row = pinned(j);
    const double offset = shift(j);
    Lanes primal = zero, dual = zero, zsq = zero, csq = zero, usq = zero;
    for (int64_t i = 0; i < vector_rows; i += kLanes) {
      const Lanes zv = LoadLanes(zj + i);
      const Lanes v = zv + LoadLanes(uj + i);
      const Lanes above = v - threshold;
      const Lanes below = v + threshold;
      Lanes next =
          (above > zero ? above : zero) + (below < zero ? below : zero);
      // The pinned row's lane, if this block holds it, selected to zero.
      next = kLaneIndex == zero_row - i ? zero : next;
      const Lanes gap = zv - next;
      const Lanes step = next - LoadLanes(cj + i);
      const Lanes uv = LoadLanes(uj + i) + gap;
      primal += gap * gap;
      dual += step * step;
      zsq += zv * zv;
      csq += next * next;
      usq += uv * uv;
      StoreLanes(cj + i, next);
      StoreLanes(uj + i, uv);
      StoreLanes(zj + i, next - uv + offset);
    }
    ColumnSums col{SumLanes(primal), SumLanes(dual), SumLanes(zsq),
                   SumLanes(csq), SumLanes(usq)};
    for (int64_t i = vector_rows; i < rows; ++i) {
      const double next =
          i == zero_row ? 0.0 : SoftThreshold(zj[i] + uj[i], threshold);
      const double gap = zj[i] - next;
      const double step = next - cj[i];
      col.primal += gap * gap;
      col.dual += step * step;
      col.z += zj[i] * zj[i];
      col.c += next * next;
      cj[i] = next;
      uj[i] += gap;
      col.u += uj[i] * uj[i];
      zj[i] = next - uj[i] + offset;
    }
    sums[j] = col;
  }
}

// After rho changes by rho_old / rho_new = `ratio`: rescale the scaled dual
// over columns [j0, j1) and rebuild the Z-update input M = C - U + shift(j).
template <typename Shift>
void RescaleDual(int64_t j0, int64_t j1, double ratio, Shift shift,
                 const Matrix& c, Matrix* u, Matrix* z) {
  for (int64_t j = j0; j < j1; ++j) {
    const double* cj = c.ColData(j);
    double* uj = u->ColData(j);
    double* zj = z->ColData(j);
    const double offset = shift(j);
    for (int64_t i = 0; i < c.rows(); ++i) {
      uj[i] *= ratio;
      zj[i] = cj[i] - uj[i] + offset;
    }
  }
}

// Reports a finished solve to `info` and the sc.ssc_admm.* metrics.
void RecordSolve(const char* solver, const SscAdmmInfo& record,
                 SscAdmmInfo* info) {
  if (!record.converged) {
    FEDSC_LOG(Debug) << solver << " stopped at max_iterations with residual "
                     << record.final_residual << " of its threshold";
  }
  if (info != nullptr) *info = record;
  FEDSC_METRIC_COUNTER("sc.ssc_admm.solves").Increment();
  FEDSC_METRIC_COUNTER("sc.ssc_admm.iterations").Add(record.iterations);
  FEDSC_METRIC_COUNTER("sc.ssc_admm.rho_updates").Add(record.rho_updates);
  if (record.converged) {
    FEDSC_METRIC_COUNTER("sc.ssc_admm.converged").Increment();
  }
  FEDSC_METRIC_HISTOGRAM("sc.ssc_admm.iterations_per_solve")
      .Record(record.iterations);
  // Last-writer-wins across concurrent device solves, hence kExecution.
  FEDSC_METRIC_GAUGE("sc.ssc_admm.last_residual", MetricKind::kExecution)
      .Set(record.final_residual);
}

// The convergence record of a solve that stopped at `residuals`.
SscAdmmInfo MakeRecord(int iterations, const Residuals& residuals, double rho,
                       int rho_updates) {
  SscAdmmInfo record;
  record.iterations = iterations;
  record.primal_residual = residuals.primal;
  record.dual_residual = residuals.dual;
  record.primal_threshold = residuals.primal_threshold;
  record.dual_threshold = residuals.dual_threshold;
  record.final_residual =
      std::max(residuals.PrimalRatio(), residuals.DualRatio());
  record.final_rho = rho;
  record.rho_updates = rho_updates;
  record.converged = residuals.Converged();
  return record;
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
  // A A^T (factored) or A^T A (direct): the rho-free part of S or H, kept so
  // a rho change re-forms K without another Gram.
  std::shared_ptr<const Matrix> gram;
  Matrix k;
  Matrix w;  // lambda S^{-1}, factored only

  // The same operator at penalty `next_rho`.
  Result<ZUpdate> WithRho(double next_rho, int num_threads) const {
    ZUpdate op;
    op.a = a;
    op.lambda = lambda;
    op.rho = next_rho;
    op.factored = factored;
    op.gram = gram;
    Matrix s = *gram;  // S or H
    s *= lambda;
    for (int64_t i = 0; i < s.rows(); ++i) s(i, i) += next_rho;
    if (factored) {
      FEDSC_ASSIGN_OR_RETURN(op.w, SpdInverse(s));
      op.w *= lambda;
      op.k = Matrix(a->rows(), a->cols());
      Gemm(Trans::kNo, Trans::kNo, 1.0, op.w, *a, 0.0, &op.k, num_threads);
    } else {
      FEDSC_ASSIGN_OR_RETURN(op.k, SpdInverse(s));
      op.k *= -next_rho;
      for (int64_t i = 0; i < op.k.rows(); ++i) op.k(i, i) += 1.0;
    }
    return op;
  }

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

// Builds the operator for dictionary `a` at penalty `rho`. `gram` is A^T A
// when the caller already holds it (the exact solve builds it for mu), else
// empty; the direct branch keeps it, the factored one swaps it for A A^T.
Result<ZUpdate> BuildZUpdate(const Matrix& a, Matrix gram, double lambda,
                             double rho, int num_threads) {
  ZUpdate base;
  base.a = &a;
  base.lambda = lambda;
  base.factored = a.rows() < a.cols();
  if (base.factored) {
    gram = OuterGram(a, num_threads);  // A A^T, via Syrk
    RecordGramFlops(a.rows(), a.cols());
  } else if (gram.empty()) {
    gram = Gram(a, num_threads);  // A^T A, via Syrk
    RecordGramFlops(a.cols(), a.rows());
  }
  base.gram = std::make_shared<const Matrix>(std::move(gram));
  return base.WithRho(rho, num_threads);
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
  double rho = options.rho > 0.0 ? options.rho : options.alpha;
  // A = X: the direct operator keeps the Gram; the factored one frees it.
  FEDSC_ASSIGN_OR_RETURN(
      ZUpdate op,
      BuildZUpdate(x, std::move(gram), lambda, rho, options.num_threads));

  Matrix c(num_points, num_points);
  Matrix u(num_points, num_points);
  // M = C - U [+ 1 (1 - u_affine)^T] into each Z-update, Z out of it.
  Matrix z(num_points, num_points);
  Matrix t(op.k.rows(), num_points);

  // Affine mode: Sherman-Morrison data for (lambda G + rho I + rho 1 1^T),
  // plus the scaled dual of the 1^T Z = 1^T constraint and its residual.
  Vector h_ones;          // H^{-1} 1
  double affine_scale = 0.0;  // rho / (1 + rho * 1^T H^{-1} 1)
  Vector u_affine;        // scaled dual, length N
  Vector affine_gap;      // 1^T z_j - 1, length N
  const auto form_affine = [&] {
    h_ones = op.InverseOnes();
    double dot_1h1 = 0.0;
    for (double v : h_ones) dot_1h1 += v;
    affine_scale = rho / (1.0 + rho * dot_1h1);
  };
  if (options.affine) {
    form_affine();
    u_affine.assign(static_cast<size_t>(num_points), 0.0);
    affine_gap.assign(static_cast<size_t>(num_points), 0.0);
    z.Fill(1.0);
  }
  const auto pinned = [](int64_t j) { return j; };
  const auto shift = [&](int64_t j) {
    return options.affine ? 1.0 - u_affine[static_cast<size_t>(j)] : 0.0;
  };

  Stopwatch deadline_timer;
  std::vector<ColumnSums> sums(static_cast<size_t>(num_points));
  Residuals residuals;
  int rho_updates = 0;
  int iteration = 0;
  while (iteration < options.max_iterations) {
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
        affine_gap[static_cast<size_t>(j)] = colsum - 1.0;
        u_affine[static_cast<size_t>(j)] += colsum - 1.0;
      }
    }

    // C-update with the diagonal pinned to zero over disjoint column panels,
    // each column writing its own stopping-rule slot.
    ParallelForRanges(0, num_points, options.num_threads,
                      [&](int64_t j0, int64_t j1, int) {
                        ThresholdColumns(j0, j1, 1.0 / rho, pinned, shift, &c,
                                         &u, &z, sums.data());
                      });
    ++iteration;
    if (options.affine) {
      // The affine constraint is part of the primal residual.
      for (int64_t j = 0; j < num_points; ++j) {
        const double gap = affine_gap[static_cast<size_t>(j)];
        sums[static_cast<size_t>(j)].primal += gap * gap;
      }
    }
    residuals = StoppingResiduals(sums, num_points, rho, options.tol);
    if (residuals.Converged()) break;
    if (iteration % kRhoCheckInterval != 0 ||
        iteration == options.max_iterations) {
      continue;
    }
    const double next_rho = BalancedRho(residuals, rho);
    if (next_rho == rho) continue;
    FEDSC_ASSIGN_OR_RETURN(op, op.WithRho(next_rho, options.num_threads));
    const double ratio = rho / next_rho;
    rho = next_rho;
    ++rho_updates;
    if (options.affine) {
      for (double& v : u_affine) v *= ratio;
      form_affine();
    }
    ParallelForRanges(0, num_points, options.num_threads,
                      [&](int64_t j0, int64_t j1, int) {
                        RescaleDual(j0, j1, ratio, shift, c, &u, &z);
                      });
  }
  RecordSolve("SSC ADMM", MakeRecord(iteration, residuals, rho, rho_updates),
              info);
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
  const double initial_rho = options.rho > 0.0 ? options.rho : options.alpha;

  // A = B: one Z-update operator shared by every block until a block's own
  // rho moves away from initial_rho.
  FEDSC_ASSIGN_OR_RETURN(
      const ZUpdate shared_op,
      BuildZUpdate(b, Matrix(), lambda, initial_rho, options.num_threads));

  const int64_t num_blocks =
      (num_points + kSketchBlockCols - 1) / kSketchBlockCols;
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_blocks, options.num_threads))));
  std::vector<SscAdmmInfo> block_record(static_cast<size_t>(num_blocks));
  std::vector<Status> block_status(static_cast<size_t>(num_blocks));
  std::atomic<bool> deadline_hit{false};
  Stopwatch deadline_timer;

  ParallelForRanges(0, num_blocks, options.num_threads, [&](int64_t blk0,
                                                            int64_t blk1,
                                                            int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    std::vector<int64_t> order(static_cast<size_t>(num_atoms));
    std::vector<ColumnSums> sums;
    for (int64_t blk = blk0; blk < blk1; ++blk) {
      if (options.deadline_seconds > 0.0 &&
          deadline_timer.ElapsedSeconds() > options.deadline_seconds) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return;
      }
      const int64_t j0 = blk * kSketchBlockCols;
      const int64_t j1 = std::min(num_points, j0 + kSketchBlockCols);
      const int64_t nb = j1 - j0;
      const Matrix x_blk = x.ColRange(j0, j1);
      const ZUpdate* op = &shared_op;
      ZUpdate block_op;  // this block's operator once its rho moves
      Matrix y = op->Target(x_blk);  // every iteration's Y

      Matrix c(num_atoms, nb);
      Matrix u(num_atoms, nb);
      Matrix z(num_atoms, nb);  // M = C - U in, Z out
      Matrix t(op->k.rows(), nb);
      sums.assign(static_cast<size_t>(nb), ColumnSums());
      const auto pinned = [&](int64_t jj) {
        return self_atom[static_cast<size_t>(j0 + jj)];
      };
      const auto no_shift = [](int64_t) { return 0.0; };
      double rho = initial_rho;
      Residuals residuals;
      int rho_updates = 0;
      int iteration = 0;
      while (iteration < options.max_iterations) {
        op->Apply(y, &t, &z, 1);
        ThresholdColumns(0, nb, 1.0 / rho, pinned, no_shift, &c, &u, &z,
                         sums.data());
        ++iteration;
        residuals = StoppingResiduals(sums, num_atoms, rho, options.tol);
        if (residuals.Converged()) break;
        if (iteration % kRhoCheckInterval != 0 ||
            iteration == options.max_iterations) {
          continue;
        }
        const double next_rho = BalancedRho(residuals, rho);
        if (next_rho == rho) continue;
        auto reformed = shared_op.WithRho(next_rho, 1);
        if (!reformed.ok()) {
          block_status[static_cast<size_t>(blk)] = reformed.status();
          break;
        }
        block_op = std::move(reformed).value();
        op = &block_op;
        y = op->Target(x_blk);
        RescaleDual(0, nb, rho / next_rho, no_shift, c, &u, &z);
        rho = next_rho;
        ++rho_updates;
      }
      block_record[static_cast<size_t>(blk)] =
          MakeRecord(iteration, residuals, rho, rho_updates);

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
  for (const Status& status : block_status) {
    if (!status.ok()) return status;
  }

  // The solve's record is its worst block's (the first on ties), with the
  // iteration count of the longest block and every block's rho updates.
  SscAdmmInfo record = block_record.front();
  int iterations = 0;
  int rho_updates = 0;
  bool converged = true;
  for (const SscAdmmInfo& block : block_record) {
    if (block.final_residual > record.final_residual) record = block;
    iterations = std::max(iterations, block.iterations);
    rho_updates += block.rho_updates;
    converged = converged && block.converged;
  }
  record.iterations = iterations;
  record.rho_updates = rho_updates;
  record.converged = converged;
  FEDSC_METRIC_COUNTER("sc.ssc_admm.sketched_solves").Increment();
  RecordSolve("sketched SSC ADMM", record, info);

  std::vector<Triplet> triplets;
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(num_atoms, num_points,
                                    std::move(triplets));
}

}  // namespace fedsc
