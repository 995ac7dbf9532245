// google-benchmark microbenchmarks for the hand-built linear-algebra
// substrate: GEMM, QR, Cholesky, Jacobi SVD, symmetric eigensolver, and
// sparse SpMV.

#include <benchmark/benchmark.h>

#include "common/isa.h"
#include "common/rng.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/eig.h"
#include "linalg/gemm_kernel.h"
#include "linalg/qr.h"
#include "linalg/sparse.h"
#include "linalg/svd.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

Matrix RandomSymmetric(int64_t n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  a += a.Transposed();
  return a;
}

// Square GEMM through the default dispatcher (the blocked packed engine).
// items_per_second is flops, so the reported rate reads directly as FLOP/s.
void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

// Per-ISA micro-kernel sweep: the same blocked product on each
// runtime-dispatched tier. The label carries the tier so bench_baseline.sh
// can split the rates into the isa_dispatch section; tiers the host cannot
// execute are skipped, not faked.
void BM_GemmIsa(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int tier_index = static_cast<int>(state.range(1));
  const CpuIsa tiers[] = {CpuIsa::kGeneric, CpuIsa::kAvx2, CpuIsa::kAvx512};
  if (!CpuIsaSupported(tiers[tier_index])) {
    state.SkipWithError("tier unsupported on this host");
    return;
  }
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    c.Fill(0.0);
    BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &c, 1, tiers[tier_index]);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(CpuIsaName(tiers[tier_index]));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmIsa)->ArgsProduct({{512, 1024}, {0, 1, 2}});

// Thread-count sweep over the deterministic parallel GEMM; results are
// bit-identical across the sweep, only the wall time moves. Timed on the
// wall clock: CPU time of the main thread alone would credit the workers'
// time as free.
void BM_GemmNNThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c, threads);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNThreads)
    ->ArgsProduct({{64, 256, 512, 1024}, {1, 2, 4, 8}})
    ->UseRealTime();

void BM_GemmTN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kTrans, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256)->Arg(512);

// A^T B^T: the blocked engine absorbs the double transpose into packing.
void BM_GemmTT(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kTrans, Trans::kTrans, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel("packed");
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTT)->Arg(256)->Arg(512);

// The products of one SSC-ADMM Z-update on a round's devices, m x k x n:
// T = K M (8 x 120 x 120, 8 x 100 x 100, 30 x 510 x 510 at rank 30, a
// fleet device's 10 x 12 x 12), Z += L T with L = R^T (120 x 8 x 120,
// 100 x 8 x 100), a sketched block's K M (50 x 315 x 256) and its
// Z += B^T T (315 x 50 x 256, op(A) transposed). Arguments: m, k, n, route,
// trans_a (1: A is stored k x m and read transposed). Each shape runs on
// the AVX-512 tier as BlockedGemm routes it (route 0: thin output for <= 8
// rows, in-register commit of full tiles, remainder row tiles) and through
// the packed loop nest with every tile committed through the acc buffer
// (route 1). Five repetitions; DESIGN.md section 5 records the medians.
void BM_GemmZUpdate(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const bool routed = state.range(3) == 0;
  const Trans trans_a = state.range(4) == 1 ? Trans::kTrans : Trans::kNo;
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    state.SkipWithError("the AVX-512 tier is unsupported on this host");
    return;
  }
  Rng rng(5);
  const Matrix a = trans_a == Trans::kNo ? RandomMatrix(m, k, &rng)
                                         : RandomMatrix(k, m, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix c = RandomMatrix(m, n, &rng);
  for (auto _ : state) {
    if (routed) {
      BlockedGemm(trans_a, Trans::kNo, 1.0, a, b, &c, 1, CpuIsa::kAvx512);
    } else {
      internal_gemm::PackedGemm(trans_a, Trans::kNo, 1.0, a, b, &c, 1,
                                CpuIsa::kAvx512, /*register_commit=*/false);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(routed ? "routed" : "packed+buffered");
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmZUpdate)
    ->ArgsProduct({{8}, {120}, {120}, {0, 1}, {0}})
    ->ArgsProduct({{120}, {8}, {120}, {0, 1}, {0}})
    ->ArgsProduct({{8}, {100}, {100}, {0, 1}, {0}})
    ->ArgsProduct({{100}, {8}, {100}, {0, 1}, {0}})
    ->ArgsProduct({{30}, {510}, {510}, {0, 1}, {0}})
    ->ArgsProduct({{10}, {12}, {12}, {0, 1}, {0}})
    ->ArgsProduct({{50}, {315}, {256}, {0, 1}, {0}})
    ->ArgsProduct({{315}, {50}, {256}, {0, 1}, {1}})
    ->Repetitions(5);

// A small K M (8 x 24 x 24, a 24-point rank-8 device's) on each AVX-512
// route: 0 = the packed loop nest, 1 = the thin-output route Gemm takes.
void BM_GemmSubCutoff(benchmark::State& state) {
  const int engine = static_cast<int>(state.range(0));
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    state.SkipWithError("the AVX-512 tier is unsupported on this host");
    return;
  }
  constexpr int64_t m = 8, k = 24, n = 24;
  Rng rng(6);
  const Matrix a = RandomMatrix(k, m, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix c = RandomMatrix(m, n, &rng);
  for (auto _ : state) {
    if (engine == 0) {
      internal_gemm::PackedGemm(Trans::kTrans, Trans::kNo, 1.0, a, b, &c, 1,
                                CpuIsa::kAvx512, /*register_commit=*/true);
    } else {
      BlockedGemm(Trans::kTrans, Trans::kNo, 1.0, a, b, &c, 1,
                  CpuIsa::kAvx512);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(engine == 0 ? "packed" : "thin");
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmSubCutoff)->DenseRange(0, 1)->Repetitions(5);

// Gram through Syrk (half the flops, lower triangle + mirror) vs through a
// full GEMM. items_processed counts the *useful* 2*n^2*k flops for both, so
// the rate gap is the end-to-end win for the Gram hot path.
void BM_SyrkGram(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  const Matrix x = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Syrk(Trans::kTrans, 1.0, x, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SyrkGram)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

void BM_GemmGram(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  const Matrix x = RandomMatrix(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kTrans, Trans::kNo, 1.0, x, x, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmGram)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

void BM_HouseholderQr(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  const Matrix a = RandomMatrix(2 * n, n, &rng);
  for (auto _ : state) {
    auto qr = HouseholderQr(a);
    benchmark::DoNotOptimize(qr->q.data());
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(32)->Arg(128);

void BM_Cholesky(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Matrix spd = Gram(RandomMatrix(n, n, &rng));
  for (int64_t i = 0; i < n; ++i) spd(i, i) += n;
  for (auto _ : state) {
    auto l = CholeskyFactor(spd);
    benchmark::DoNotOptimize(l->data());
  }
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(256);

void BM_JacobiSvd(benchmark::State& state) {
  const int64_t cols = state.range(0);
  Rng rng(5);
  const Matrix a = RandomMatrix(4 * cols, cols, &rng);
  for (auto _ : state) {
    auto svd = JacobiSvd(a);
    benchmark::DoNotOptimize(svd->s.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(16)->Arg(64);

void BM_SymmetricEigen(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  const Matrix a = RandomSymmetric(n, &rng);
  for (auto _ : state) {
    auto eig = SymmetricEigen(a);
    benchmark::DoNotOptimize(eig->values.data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(64)->Arg(256);

void BM_SymmetricEigenvaluesOnly(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  const Matrix a = RandomSymmetric(n, &rng);
  for (auto _ : state) {
    auto values = SymmetricEigenvalues(a);
    benchmark::DoNotOptimize(values->data());
  }
}
BENCHMARK(BM_SymmetricEigenvaluesOnly)->Arg(64)->Arg(256);

// Blocked vs. element-wise tridiagonalization inside the full dense
// eigendecomposition (the spectral-clustering server hot path).
// items_per_second counts the 4 n^3 / 3 reduction flops, so the rate ratio
// is the blocked speedup of the tridiagonalization-dominated run.
// One engine's eigendecomposition of `a`: its tridiagonalization, then
// every eigenpair (`vectors`) or every eigenvalue.
Result<EigResult> EigWithEngine(const Matrix& a, bool blocked, bool vectors) {
  const SymmetricEigensolver solver(
      blocked ? internal_eig::BlockedTridiagonal(a, 1)
              : internal_eig::Tred2Tridiagonal(a),
      1);
  if (vectors) return solver.Pairs(0, a.rows());
  FEDSC_ASSIGN_OR_RETURN(Vector values, solver.Values(0, a.rows()));
  return EigResult{std::move(values), Matrix()};
}

void BM_EigVariant(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool blocked = state.range(1) != 0;
  Rng rng(6);
  const Matrix a = RandomSymmetric(n, &rng);
  for (auto _ : state) {
    auto eig = EigWithEngine(a, blocked, /*vectors=*/true);
    benchmark::DoNotOptimize(eig->values.data());
  }
  state.SetLabel(blocked ? "blocked" : "unblocked");
  state.SetItemsProcessed(state.iterations() * (4 * n * n * n) / 3);
}
BENCHMARK(BM_EigVariant)
    ->ArgsProduct({{12, 24, 48, 64, 96, 120, 256, 512}, {0, 1}});

void BM_EigValuesVariant(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool blocked = state.range(1) != 0;
  Rng rng(7);
  const Matrix a = RandomSymmetric(n, &rng);
  for (auto _ : state) {
    auto values = EigWithEngine(a, blocked, /*vectors=*/false);
    benchmark::DoNotOptimize(values->values.data());
  }
  state.SetLabel(blocked ? "blocked" : "unblocked");
  state.SetItemsProcessed(state.iterations() * (4 * n * n * n) / 3);
}
BENCHMARK(BM_EigValuesVariant)
    ->ArgsProduct({{12, 24, 48, 64, 96, 120, 256, 512}, {0, 1}});

// The windowed solve at the round's shapes: reduce once, then the top k
// eigenpairs (k = n: every pair). (120, 2) is a noniid2_z160 device solved
// whole, (60, 2) one of its two components, (320, 20) a noniid2_z160
// central pool, (510, 10) and (296, 10) stream_byzantine's largest pool and
// fleet_z2500's Nystrom core, (12, 12) a fleet_z2500 device.
void BM_EigWindow(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  Rng rng(8);
  const Matrix a = RandomSymmetric(n, &rng);
  for (auto _ : state) {
    auto solver = SymmetricEigensolver::Create(a);
    auto top = solver->Pairs(n - k, k);
    benchmark::DoNotOptimize(top->vectors.data());
  }
  state.SetLabel("top-" + std::to_string(k) + " pairs");
}
BENCHMARK(BM_EigWindow)
    ->Args({120, 2})
    ->Args({60, 2})
    ->Args({320, 20})
    ->Args({510, 10})
    ->Args({296, 10})
    ->Args({12, 12});

// `batch` exactly rank-`rank` rows x cols panels U C with Gaussian factors,
// each column scaled to unit norm when `unit_columns` is set.
std::vector<Matrix> SubspacePanels(int64_t batch, int64_t rows, int64_t cols,
                                   int64_t rank, bool unit_columns,
                                   Rng* rng) {
  std::vector<Matrix> panels;
  panels.reserve(batch);
  for (int64_t i = 0; i < batch; ++i) {
    const Matrix u = RandomMatrix(rows, rank, rng);
    const Matrix c = RandomMatrix(rank, cols, rng);
    Matrix panel(rows, cols);
    Gemm(Trans::kNo, Trans::kNo, 1.0, u, c, 0.0, &panel);
    for (int64_t j = 0; unit_columns && j < cols; ++j) {
      Scal(1.0 / Norm2(panel.ColData(j), rows), panel.ColData(j), rows);
    }
    panels.push_back(std::move(panel));
  }
  return panels;
}

// Times one BatchedPrincipalSubspace call over `panels` (batched) or
// PrincipalSubspace per panel (looped). Rates are panels/s, so the ratio
// of a batched row to its looped row is a direct speedup.
void TimeBasisBatch(benchmark::State& state, const std::vector<Matrix>& panels,
                    const BatchedSubspaceOptions& options, bool batched,
                    const char* batched_label) {
  for (auto _ : state) {
    if (batched) {
      auto bases = BatchedPrincipalSubspace(panels, options);
      benchmark::DoNotOptimize(bases.data());
    } else {
      for (const Matrix& panel : panels) {
        auto basis = PrincipalSubspace(panel, options.rank, options.rel_tol);
        benchmark::DoNotOptimize(basis->data());
      }
    }
  }
  state.SetLabel(batched ? batched_label : "looped");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(panels.size()));
}

// Batched basis estimation over a fleet of tall-skinny D=256 x n=32 panels
// (the per-cluster shape of the Fed-SC local phase) at a fixed rank of 4,
// as the pipeline sets via sample_dim: the looped baseline runs the
// one-sided Jacobi SVD per panel, the batched call the Gram route.
// The panels are exactly rank 4, so both routes make the same rank
// decision. BENCH_linalg.json records the looped-vs-batched ratio.
void BM_BatchedBasis(benchmark::State& state) {
  Rng rng(10);
  const std::vector<Matrix> panels =
      SubspacePanels(state.range(0), 256, 32, 4, false, &rng);
  BatchedSubspaceOptions options;
  options.rank = 4;
  TimeBasisBatch(state, panels, options, state.range(1) != 0, "batched");
}
BENCHMARK(BM_BatchedBasis)->ArgsProduct({{64, 1024}, {0, 1}});

// Auto-rank basis estimation (rank_rel_tol = 0.1, Fed-SC's default path) at
// the panel shapes a round reaches: tall_d1024's 1024 x 50 local clusters,
// noniid2_z160's 20 x 60 and fleet_z2500's 50 x 6. Columns are unit-norm
// points of a `rank`-dimensional subspace (4 on the first two workloads, 5
// on the fleet), in batches of 16 panels.
void BM_BatchedBasisAuto(benchmark::State& state) {
  Rng rng(11);
  const std::vector<Matrix> panels = SubspacePanels(
      16, state.range(0), state.range(1), state.range(2), true, &rng);
  BatchedSubspaceOptions options;
  options.rel_tol = 0.1;
  TimeBasisBatch(state, panels, options, state.range(3) != 0, "gram");
}
BENCHMARK(BM_BatchedBasisAuto)
    ->Args({1024, 50, 4, 0})
    ->Args({1024, 50, 4, 1})
    ->Args({20, 60, 4, 0})
    ->Args({20, 60, 4, 1})
    ->Args({50, 6, 5, 0})
    ->Args({50, 6, 5, 1});

SparseMatrix RandomSparseSymmetric(int64_t n, int64_t per_row, Rng* rng) {
  std::vector<Triplet> triplets;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < per_row; ++k) {
      const int64_t j = rng->UniformInt(n);
      const double v = rng->Uniform();
      triplets.push_back({i, j, v});
      triplets.push_back({j, i, v});
    }
  }
  return SparseMatrix::FromTriplets(n, n, triplets);
}

void BM_SparseMatVec(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  const SparseMatrix m = RandomSparseSymmetric(n, 8, &rng);
  Vector x(static_cast<size_t>(n), 1.0);
  Vector y(static_cast<size_t>(n), 0.0);
  for (auto _ : state) {
    m.Multiply(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SparseMatVec)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace fedsc

BENCHMARK_MAIN();
