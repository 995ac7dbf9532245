#include "sc/ssc_admm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"

namespace fedsc {

namespace {

// The largest |v[a]| over a in [0, n), a != skip.
double MaxAbsExcept(const double* v, int64_t n, int64_t skip) {
  double max_abs = 0.0;
  for (int64_t a = 0; a < n; ++a) {
    if (a != skip) max_abs = std::max(max_abs, std::fabs(v[a]));
  }
  return max_abs;
}

// min_j value(j) over j in [0, count): Proposition 1's mutual coherence
// floor mu, given each column's largest |score| against the atoms it may
// use (or a column block's min of those). Index ranges reduce to a per-chunk
// min, combined in chunk order; min and max are exact in any order, so the
// result is bit-identical for every thread count.
template <typename Value>
double ParallelMin(int64_t count, int num_threads, Value value) {
  const int chunks = std::max(1, ParallelChunkCount(0, count, num_threads));
  std::vector<double> chunk_mu(static_cast<size_t>(chunks),
                               std::numeric_limits<double>::infinity());
  ParallelForRanges(0, count, num_threads,
                    [&](int64_t j0, int64_t j1, int chunk) {
                      double mu = std::numeric_limits<double>::infinity();
                      for (int64_t j = j0; j < j1; ++j) {
                        mu = std::min(mu, value(j));
                      }
                      chunk_mu[static_cast<size_t>(chunk)] = mu;
                    });
  double mu = std::numeric_limits<double>::infinity();
  for (double v : chunk_mu) mu = std::min(mu, v);
  return mu;
}

// mu from the Gram matrix X^T X: column j may not use atom j.
double MutualCoherenceFloor(const Matrix& gram, int num_threads) {
  const int64_t n = gram.rows();
  return ParallelMin(n, num_threads, [&](int64_t j) {
    return MaxAbsExcept(gram.ColData(j), n, j);
  });
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
  FEDSC_METRIC_HISTOGRAM("sc.ssc_admm.dictionary_rows")
      .Record(record.dictionary_rows);
  // Last-writer-wins across concurrent device solves, hence kExecution.
  FEDSC_METRIC_GAUGE("sc.ssc_admm.last_residual", MetricKind::kExecution)
      .Set(record.final_residual);
}

// The convergence record of a solve over a `dictionary_rows`-row dictionary
// that stopped at `residuals`.
SscAdmmInfo MakeRecord(int64_t dictionary_rows, int iterations,
                       const Residuals& residuals, double rho,
                       int rho_updates) {
  SscAdmmInfo record;
  record.dictionary_rows = dictionary_rows;
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

// The Z-update over a dictionary A (r x m: A = X on the exact solve, A = B
// on the sketched one). It solves
//   H Z = lambda A^T X_blk + rho M,   H = lambda A^T A + rho I,  M = C - U.
// The push-through identity H^{-1} A^T = A^T S^{-1}, S = rho I + lambda A A^T,
// plus Woodbury give Z = M + F^T (Y - K M), with
//   factored (r < m): K = lambda S^{-1} A, F = A, Y = lambda S^{-1} X_blk;
//   direct (r >= m):  K = I - rho H^{-1},  F = I, Y = lambda H^{-1} A^T X_blk.
// On the exact solve X_blk = A, so Y = K in both branches. An iteration costs
// two r x m x cols GEMMs (factored) or one m x m x cols GEMM (direct). The
// matrices are shared, so a copy of the operator copies no data.
struct ZUpdate {
  const Matrix* a = nullptr;
  // A^T, when the caller holds it (the exact solve's Cholesky factor L of
  // X^T X, with A = R = L^T). The factored iteration then runs as
  // T = Y - K M and Z = M + L T (DESIGN.md section 4). On the AVX-512 tier
  // T's product has r <= 8 rows and takes the GEMM's thin-output route
  // (only K is packed, M is read in place), and Z's full 24 x 8 tiles
  // commit from registers (linalg/gemm_kernel.h), bit for bit the packed
  // path's result (BM_GemmZUpdate medians, DESIGN.md section 5).
  const Matrix* a_t = nullptr;
  double lambda = 0.0;
  double rho = 0.0;
  bool factored = false;
  // A A^T (factored) or A^T A (direct): the rho-free part of S or H, kept so
  // a rho change re-forms K without another Gram.
  std::shared_ptr<const Matrix> gram;
  std::shared_ptr<const Matrix> k;
  std::shared_ptr<const Matrix> w;  // lambda S^{-1}, factored only

  // The same operator at penalty `next_rho`.
  Result<ZUpdate> WithRho(double next_rho, int num_threads) const {
    ZUpdate op;
    op.a = a;
    op.lambda = lambda;
    op.rho = next_rho;
    op.factored = factored;
    op.a_t = a_t;
    op.gram = gram;
    Matrix s = *gram;  // S or H
    s *= lambda;
    for (int64_t i = 0; i < s.rows(); ++i) s(i, i) += next_rho;
    FEDSC_ASSIGN_OR_RETURN(Matrix inverse, SpdInverse(s));
    if (factored) {
      inverse *= lambda;
      Matrix k(a->rows(), a->cols());
      Gemm(Trans::kNo, Trans::kNo, 1.0, inverse, *a, 0.0, &k, num_threads);
      op.w = std::make_shared<const Matrix>(std::move(inverse));
      op.k = std::make_shared<const Matrix>(std::move(k));
    } else {
      inverse *= -next_rho;
      for (int64_t i = 0; i < inverse.rows(); ++i) inverse(i, i) += 1.0;
      op.k = std::make_shared<const Matrix>(std::move(inverse));
    }
    return op;
  }

  // Y for the data columns x_blk (single-threaded: called per block).
  Matrix Target(const Matrix& x_blk) const {
    if (factored) return MatMul(*w, x_blk);
    // lambda H^{-1} = (lambda / rho) (I - K).
    const Matrix g = MatMulTN(*a, x_blk);
    Matrix y = g;
    Gemm(Trans::kNo, Trans::kNo, -1.0, *k, g, 1.0, &y);
    y *= lambda / rho;
    return y;
  }

  // H^{-1} 1 = (1/rho) (1 - F^T K 1), for the affine Sherman-Morrison step.
  Vector InverseOnes() const {
    const Vector ones(static_cast<size_t>(k->cols()), 1.0);
    Vector fk1 = Gemv(Trans::kNo, *k, ones);
    if (factored) fk1 = Gemv(Trans::kTrans, *a, fk1);
    for (double& v : fk1) v = (1.0 - v) / rho;
    return fk1;
  }

  // *z holds M on entry and Z on exit; t is K.rows() x cols scratch.
  void Apply(const Matrix& y, Matrix* t, Matrix* z, int num_threads) const {
    *t = y;
    Gemm(Trans::kNo, Trans::kNo, -1.0, *k, *z, 1.0, t, num_threads);
    if (a_t != nullptr) {
      Gemm(Trans::kNo, Trans::kNo, 1.0, *a_t, *t, 1.0, z, num_threads);
    } else if (factored) {
      Gemm(Trans::kTrans, Trans::kNo, 1.0, *a, *t, 1.0, z, num_threads);
    } else {
      *z += *t;
    }
  }
};

// Builds the operator for dictionary `a` at penalty `rho`. `gram` is A^T A
// when the caller already holds it (the exact solve builds it for mu), else
// empty; the direct branch keeps it, the factored one swaps it for A A^T.
// `a_t`, when non-null, is A^T (factored dictionaries only).
Result<ZUpdate> BuildZUpdate(const Matrix& a, Matrix gram, double lambda,
                             double rho, int num_threads,
                             const Matrix* a_t = nullptr) {
  ZUpdate base;
  base.a = &a;
  base.a_t = a_t;
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

// The ADMM over one block of columns against op's dictionary A (m atoms):
// Z-update, affine correction, C-update with column j held off atom
// self_atom[j], the stopping rule, and residual balancing with its operator
// re-form and dual rescale. x_blk holds the block's data columns, so
// Y = Target(x_blk); it is null when the block is the dictionary itself
// (the exact solve, A = X), where Y = K. *c and *u hold the starting C and
// scaled dual U (m x cols), or are empty for a start from zero, and receive
// the final ones; returns the block's record. `clock` times the whole solve
// against options.deadline_seconds. Only the exact solve runs affine mode.
Result<SscAdmmInfo> SolveColumns(ZUpdate op, const Matrix* x_blk,
                                 const int64_t* self_atom,
                                 const SscAdmmOptions& options,
                                 int num_threads, const Stopwatch& clock,
                                 Matrix* c, Matrix* u) {
  const int64_t rows = op.a->cols();
  const int64_t cols = x_blk != nullptr ? x_blk->cols() : rows;
  Matrix target;  // Y, when it is not K
  if (x_blk != nullptr) target = op.Target(*x_blk);

  // M = C - U [+ 1 (1 - u_affine)^T] into each Z-update, Z out of it. A
  // warm start (never affine) forms its first M from its own C and U.
  Matrix z;
  if (c->empty()) {
    *c = Matrix(rows, cols);
    *u = Matrix(rows, cols);
    z = Matrix(rows, cols);
  } else {
    z = *c;
    z -= *u;
  }
  Matrix t(op.k->rows(), cols);

  // Affine mode: Sherman-Morrison data for (lambda G + rho I + rho 1 1^T),
  // plus the scaled dual of the 1^T Z = 1^T constraint and its residual.
  Vector h_ones;          // H^{-1} 1
  double affine_scale = 0.0;  // rho / (1 + rho * 1^T H^{-1} 1)
  Vector u_affine;        // scaled dual, length cols
  Vector affine_gap;      // 1^T z_j - 1, length cols
  const auto form_affine = [&] {
    h_ones = op.InverseOnes();
    double dot_1h1 = 0.0;
    for (double v : h_ones) dot_1h1 += v;
    affine_scale = op.rho / (1.0 + op.rho * dot_1h1);
  };
  if (options.affine) {
    form_affine();
    u_affine.assign(static_cast<size_t>(cols), 0.0);
    affine_gap.assign(static_cast<size_t>(cols), 0.0);
    z.Fill(1.0);
  }
  const auto pinned = [&](int64_t j) { return self_atom[j]; };
  const auto shift = [&](int64_t j) {
    return options.affine ? 1.0 - u_affine[static_cast<size_t>(j)] : 0.0;
  };

  std::vector<ColumnSums> sums(static_cast<size_t>(cols));
  Residuals residuals;
  int rho_updates = 0;
  int iteration = 0;
  while (iteration < options.max_iterations) {
    if (options.deadline_seconds > 0.0 &&
        clock.ElapsedSeconds() > options.deadline_seconds) {
      return Status::DeadlineExceeded("SSC ADMM exceeded its time budget of " +
                                      std::to_string(options.deadline_seconds) +
                                      "s");
    }
    op.Apply(x_blk != nullptr ? target : *op.k, &t, &z, num_threads);
    if (options.affine) {
      // Sherman-Morrison correction for the rho 1 1^T term,
      // Z -= (H^{-1} 1) * affine_scale * (1^T Z), then the dual update for
      // 1^T Z = 1^T.
      for (int64_t j = 0; j < cols; ++j) {
        double* col = z.ColData(j);
        double colsum = 0.0;
        for (int64_t i = 0; i < rows; ++i) colsum += col[i];
        Axpy(-affine_scale * colsum, h_ones.data(), col, rows);
        colsum = 0.0;
        for (int64_t i = 0; i < rows; ++i) colsum += col[i];
        affine_gap[static_cast<size_t>(j)] = colsum - 1.0;
        u_affine[static_cast<size_t>(j)] += colsum - 1.0;
      }
    }

    // C-update over disjoint column panels, each column writing its own
    // stopping-rule slot.
    ParallelForRanges(0, cols, num_threads, [&](int64_t j0, int64_t j1, int) {
      ThresholdColumns(j0, j1, 1.0 / op.rho, pinned, shift, c, u, &z,
                       sums.data());
    });
    ++iteration;
    if (options.affine) {
      // The affine constraint is part of the primal residual.
      for (int64_t j = 0; j < cols; ++j) {
        const double gap = affine_gap[static_cast<size_t>(j)];
        sums[static_cast<size_t>(j)].primal += gap * gap;
      }
    }
    residuals = StoppingResiduals(sums, rows, op.rho, options.tol);
    if (residuals.Converged()) break;
    if (iteration % kRhoCheckInterval != 0 ||
        iteration == options.max_iterations) {
      continue;
    }
    const double next_rho = BalancedRho(residuals, op.rho);
    if (next_rho == op.rho) continue;
    const double ratio = op.rho / next_rho;
    FEDSC_ASSIGN_OR_RETURN(op, op.WithRho(next_rho, num_threads));
    if (x_blk != nullptr) target = op.Target(*x_blk);
    ++rho_updates;
    if (options.affine) {
      for (double& v : u_affine) v *= ratio;
      form_affine();
    }
    ParallelForRanges(0, cols, num_threads, [&](int64_t j0, int64_t j1, int) {
      RescaleDual(j0, j1, ratio, shift, *c, u, &z);
    });
  }
  return MakeRecord(op.a->rows(), iteration, residuals, op.rho, rho_updates);
}

// Appends the entries of each column j of c, as column col_offset + j, whose
// |value| exceeds drop_tol times the column's largest |value|. An all-zero
// column adds nothing, and neither does an atom pinned to zero.
void AppendKeptEntries(const Matrix& c, int64_t col_offset, double drop_tol,
                       std::vector<Triplet>* triplets) {
  for (int64_t j = 0; j < c.cols(); ++j) {
    const double* col = c.ColData(j);
    const double max_abs = MaxAbsExcept(col, c.rows(), -1);
    if (max_abs <= 0.0) continue;
    const double drop = drop_tol * max_abs;
    for (int64_t a = 0; a < c.rows(); ++a) {
      if (std::fabs(col[a]) > drop) {
        triplets->push_back({a, col_offset + j, col[a]});
      }
    }
  }
}

// The N x k factor L with L L^T = X^T X for the exact solve, when the
// dictionary R = L^T costs fewer flops per iteration than X: the factored
// branch over k x N R costs 4 k N^2, against 2 N^3 for X's direct one
// (D >= N) or 4 D N^2 for its factored one (D < N). So R is taken when
// k < N / 2 or k < D; past that bound the factorization quits, having spent
// at most k^2 N flops. k is the Gram's numerical rank, cut where the
// remaining diagonal falls to max(D, N) eps max diag(G): rounding level, as
// in PrincipalSubspace.
std::optional<Matrix> ReducedFactor(const Matrix& gram, int64_t dim) {
  const int64_t num_points = gram.rows();
  const int64_t max_rank = dim >= num_points ? (num_points - 1) / 2 : dim - 1;
  if (max_rank < 1) return std::nullopt;
  double max_diag = 0.0;
  for (int64_t j = 0; j < num_points; ++j) {
    max_diag = std::max(max_diag, gram(j, j));
  }
  const double tol = static_cast<double>(std::max(dim, num_points)) *
                     std::numeric_limits<double>::epsilon() * max_diag;
  return PivotedCholeskyFactor(gram, tol, max_rank);
}

// Checks that `from`'s source map fits an N-point solve: one entry per
// point, each -1 or a distinct point of the stored N_prev x N_prev iterate.
Status CheckIterate(const SscAdmmIterate& from, int64_t num_points) {
  const int64_t stored = from.u.cols();
  if (static_cast<int64_t>(from.source.size()) != num_points ||
      from.u.rows() != stored || from.c.rows() != stored ||
      from.c.cols() != stored || !(from.rho > 0.0)) {
    return Status::InvalidArgument(
        "SSC warm start: the stored iterate does not fit " +
        std::to_string(num_points) + " points");
  }
  std::vector<bool> taken(static_cast<size_t>(stored), false);
  for (const int64_t s : from.source) {
    if (s < -1 || s >= stored || (s >= 0 && taken[static_cast<size_t>(s)])) {
      return Status::InvalidArgument(
          "SSC warm start: source entry " + std::to_string(s) +
          " is out of range or repeated");
    }
    if (s >= 0) taken[static_cast<size_t>(s)] = true;
  }
  return Status::OK();
}

// Scatters the stored C and U into the zeroed N x N c and u: entry (i, j)
// continues entry (source[i], source[j]) when both points carry over.
// Returns the number of points that do.
int64_t ScatterIterate(const SscAdmmIterate& from, Matrix* c, Matrix* u) {
  const int64_t num_points = c->cols();
  std::vector<int64_t> target(static_cast<size_t>(from.u.cols()), -1);
  int64_t carried = 0;
  for (int64_t j = 0; j < num_points; ++j) {
    const int64_t s = from.source[static_cast<size_t>(j)];
    if (s < 0) continue;
    target[static_cast<size_t>(s)] = j;
    ++carried;
    const double* from_col = from.u.ColData(s);
    double* to_col = u->ColData(j);
    for (int64_t i = 0; i < num_points; ++i) {
      const int64_t r = from.source[static_cast<size_t>(i)];
      if (r >= 0) to_col[i] = from_col[r];
    }
  }
  const SparseMatrix& stored = from.c;  // CSR: row = atom, column = point
  for (int64_t r = 0; r < stored.rows(); ++r) {
    const int64_t i = target[static_cast<size_t>(r)];
    if (i < 0) continue;
    for (int64_t k = stored.row_ptr()[static_cast<size_t>(r)];
         k < stored.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t j =
          target[static_cast<size_t>(stored.col_idx()[static_cast<size_t>(k)])];
      if (j >= 0) (*c)(i, j) = stored.values()[static_cast<size_t>(k)];
    }
  }
  return carried;
}

// Column-block width for the sketched solve. A pure constant (never derived
// from the thread count): the per-block GEMM shapes, stopping decisions, and
// triplet order depend only on (N, kSketchBlockCols), so results are
// bit-identical for every thread count.
constexpr int64_t kSketchBlockCols = 256;

}  // namespace

double SscLambda(const Matrix& x, double alpha, int num_threads) {
  return SscLambdaFromGram(Gram(x, num_threads), alpha, num_threads);
}

double SscLambdaFromGram(const Matrix& gram, double alpha, int num_threads) {
  const double mu = MutualCoherenceFloor(gram, num_threads);
  return mu > 0.0 ? alpha / mu : alpha;
}

double DictionaryCoherenceFloor(const Matrix& b, const Matrix& x,
                                const std::vector<int64_t>& self_atom,
                                int num_threads) {
  const int64_t num_atoms = b.cols();
  const int64_t num_points = x.cols();
  const int64_t num_blocks =
      (num_points + kSketchBlockCols - 1) / kSketchBlockCols;
  return ParallelMin(num_blocks, num_threads, [&](int64_t blk) {
    const int64_t j0 = blk * kSketchBlockCols;
    const int64_t j1 = std::min(num_points, j0 + kSketchBlockCols);
    Matrix scores(num_atoms, j1 - j0);
    Gemm(Trans::kTrans, Trans::kNo, 1.0, b, x.ColRange(j0, j1), 0.0, &scores);
    double mu = std::numeric_limits<double>::infinity();
    for (int64_t j = j0; j < j1; ++j) {
      mu = std::min(mu, MaxAbsExcept(scores.ColData(j - j0), num_atoms,
                                     self_atom[static_cast<size_t>(j)]));
    }
    return mu;
  });
}

Result<SparseMatrix> SscSelfExpression(const Matrix& x,
                                       const SscAdmmOptions& options,
                                       SscAdmmInfo* info,
                                       SscAdmmIterate* iterate) {
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  // The stored iterate is taken out, so every early return leaves *iterate
  // empty.
  SscAdmmIterate warm;
  if (iterate != nullptr) std::swap(warm, *iterate);
  if (num_points < 2) {
    return Status::InvalidArgument("SSC needs at least 2 points");
  }
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  const bool warm_start = !options.affine && !warm.source.empty();
  if (warm_start) FEDSC_RETURN_NOT_OK(CheckIterate(warm, num_points));
  TraceSpan span;
  if (TraceEnabled()) {
    span.Begin("sc/ssc_admm", {{"points", num_points}, {"dim", n}});
  }

  Matrix gram = Gram(x, options.num_threads);  // X^T X, via Syrk
  RecordGramFlops(num_points, n);
  const double mu = MutualCoherenceFloor(gram, options.num_threads);
  if (mu <= 0.0) {
    return Status::FailedPrecondition(
        "all points are mutually orthogonal; self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = warm_start         ? warm.rho
                     : options.rho > 0.0 ? options.rho
                                         : options.alpha;
  // The Lasso reads X only through X^T X, so a k x N R with R^T R = X^T X
  // poses the same problem; R is taken when its operator is cheaper than
  // X's. The direct operator keeps the Gram; the factored ones free it.
  const std::optional<Matrix> factor = ReducedFactor(gram, n);
  Matrix reduced;  // R = L^T
  if (factor) {
    reduced = factor->Transposed();
    gram = Matrix();
    FEDSC_METRIC_COUNTER("sc.ssc_admm.reduced_solves").Increment();
  }
  FEDSC_ASSIGN_OR_RETURN(
      ZUpdate op,
      BuildZUpdate(factor ? reduced : x, std::move(gram), lambda, rho,
                   options.num_threads, factor ? &*factor : nullptr));

  // One block of all N columns, so one stopping rule covers the whole solve.
  const std::vector<int64_t> self_atom = IdentitySelfAtoms(num_points);
  const Stopwatch clock;
  Matrix c;
  Matrix u;
  int64_t warm_columns = 0;
  if (warm_start) {
    // The warm iterate is built in the solve's own C and U; the stored one
    // is released before the first iteration.
    c = Matrix(num_points, num_points);
    u = Matrix(num_points, num_points);
    warm_columns = ScatterIterate(warm, &c, &u);
  }
  warm = SscAdmmIterate();
  FEDSC_ASSIGN_OR_RETURN(
      SscAdmmInfo record,
      SolveColumns(std::move(op), nullptr, self_atom.data(), options,
                   options.num_threads, clock, &c, &u));
  record.warm_columns = warm_columns;
  if (warm_start) FEDSC_METRIC_COUNTER("sc.ssc_admm.warm_starts").Increment();
  RecordSolve("SSC ADMM", record, info);

  // The dense U goes to *iterate or is freed before the CSR is built.
  const bool keep = iterate != nullptr && !options.affine;
  if (keep) {
    iterate->u = std::move(u);
    iterate->rho = record.final_rho;
  }
  u = Matrix();
  std::vector<Triplet> triplets;
  AppendKeptEntries(c, 0, options.drop_tol, &triplets);
  if (keep) iterate->c = SparsifyDense(c);
  c = Matrix();  // the dense N x N C is not kept while the CSR is built
  SparseMatrix coefficients = SparseMatrix::FromTriplets(
      num_points, num_points, std::move(triplets));
  if (TraceEnabled()) span.End({{"dictionary_rows", record.dictionary_rows}});
  return coefficients;
}

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
  FEDSC_ASSIGN_OR_RETURN(const std::vector<int64_t> self_atom,
                         SketchSelfAtoms(x, sketch, "SSC"));
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  if (options.affine) {
    return Status::InvalidArgument(
        "the affine constraint is not supported on the sketched SSC path");
  }
  FEDSC_TRACE_SPAN("sc/ssc_admm_sketched",
                   {{"points", num_points}, {"atoms", num_atoms}, {"dim", n}});

  // The dictionary/data analogue of Proposition 1's mutual coherence floor.
  const double mu =
      DictionaryCoherenceFloor(b, x, self_atom, options.num_threads);
  if (!(mu > 0.0)) {
    return Status::FailedPrecondition(
        "every dictionary atom is orthogonal to some point; sketched "
        "self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = options.rho > 0.0 ? options.rho : options.alpha;

  // One operator over B, shared by every block until a block's own rho moves.
  FEDSC_ASSIGN_OR_RETURN(
      const ZUpdate shared_op,
      BuildZUpdate(b, Matrix(), lambda, rho, options.num_threads));

  // The Lasso separates per column: single-threaded blocks of
  // kSketchBlockCols columns, each with its own stopping rule, fan out.
  const int64_t num_blocks =
      (num_points + kSketchBlockCols - 1) / kSketchBlockCols;
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_blocks, options.num_threads))));
  std::vector<SscAdmmInfo> block_record(static_cast<size_t>(num_blocks));
  std::vector<Status> block_status(static_cast<size_t>(num_blocks));
  const Stopwatch clock;
  ParallelForRanges(0, num_blocks, options.num_threads, [&](int64_t blk0,
                                                            int64_t blk1,
                                                            int chunk) {
    for (int64_t blk = blk0; blk < blk1; ++blk) {
      const int64_t j0 = blk * kSketchBlockCols;
      const int64_t j1 = std::min(num_points, j0 + kSketchBlockCols);
      const Matrix x_blk = x.ColRange(j0, j1);
      Matrix c;
      Matrix u;
      auto record =
          SolveColumns(shared_op, &x_blk, self_atom.data() + j0, options, 1,
                       clock, &c, &u);
      if (!record.ok()) {
        block_status[static_cast<size_t>(blk)] = record.status();
        return;
      }
      block_record[static_cast<size_t>(blk)] = *record;
      AppendKeptEntries(c, j0, options.drop_tol,
                        &chunk_triplets[static_cast<size_t>(chunk)]);
    }
  });
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
