// google-benchmark microbenchmarks for the subspace-clustering kernels:
// affinity construction with each method, spectral clustering, and the
// per-device Fed-SC local stage.

#include <benchmark/benchmark.h>

#include "cluster/spectral.h"
#include "common/rng.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "linalg/sparse.h"
#include "sc/pipeline.h"

namespace fedsc {
namespace {

Dataset MakeData(int64_t points_per_subspace, uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = 20;
  options.subspace_dim = 4;
  options.num_subspaces = 5;
  options.points_per_subspace = points_per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  return std::move(data).value();
}

void BM_SscAdmm(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 1);
  for (auto _ : state) {
    auto c = SscSelfExpression(data.points);
    benchmark::DoNotOptimize(c->nnz());
  }
  state.SetLabel("N=" + std::to_string(data.points.cols()));
}
BENCHMARK(BM_SscAdmm)->Arg(20)->Arg(60)->Arg(160);

// One device's exact SSC-ADMM solve at the shapes the four end-to-end
// workloads reach: D x N points on two subspaces of dimension rank / 2
// (tall_d1024 1024 x 100, noniid2_z160 20 x 120, fleet_z2500 50 x 12,
// stream_byzantine 30 x 24), plus a noisy, full-rank 1024 x 100 device.
// Args: D, N, rank, noise in thousandths.
void BM_SscAdmmDeviceShapes(benchmark::State& state) {
  SyntheticOptions options;
  options.ambient_dim = state.range(0);
  options.num_subspaces = 2;
  options.points_per_subspace = state.range(1) / 2;
  options.subspace_dim = state.range(2) / 2;
  options.noise_stddev = static_cast<double>(state.range(3)) * 1e-3;
  options.seed = 29;
  const Dataset data = GenerateUnionOfSubspaces(options).value();
  for (auto _ : state) {
    auto c = SscSelfExpression(data.points);
    benchmark::DoNotOptimize(c->nnz());
  }
  state.SetLabel(std::to_string(options.ambient_dim) + "x" +
                 std::to_string(data.points.cols()) +
                 (state.range(3) > 0 ? " noisy"
                                     : " rank " + std::to_string(
                                                      state.range(2))));
}
BENCHMARK(BM_SscAdmmDeviceShapes)
    ->Args({1024, 100, 8, 0})
    ->Args({20, 120, 8, 0})
    ->Args({50, 12, 10, 0})
    ->Args({30, 24, 8, 0})
    ->Args({1024, 100, 8, 50})
    ->Unit(benchmark::kMillisecond);

void BM_SscOmp(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 2);
  SscOmpOptions options;
  options.max_support = 6;
  for (auto _ : state) {
    auto c = SscOmpSelfExpression(data.points, options);
    benchmark::DoNotOptimize(c->nnz());
  }
}
BENCHMARK(BM_SscOmp)->Arg(60)->Arg(160);

void BM_Tsc(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 3);
  TscOptions options;
  options.q = 5;
  for (auto _ : state) {
    auto w = TscAffinity(data.points, options);
    benchmark::DoNotOptimize(w->nnz());
  }
}
BENCHMARK(BM_Tsc)->Arg(60)->Arg(160)->Arg(400);

void BM_Nsn(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 4);
  NsnOptions options;
  options.num_neighbors = 8;
  options.max_subspace_dim = 4;
  for (auto _ : state) {
    auto w = NsnAffinity(data.points, options);
    benchmark::DoNotOptimize(w->nnz());
  }
}
BENCHMARK(BM_Nsn)->Arg(60)->Arg(160);

void BM_Ensc(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 5);
  for (auto _ : state) {
    auto c = EnscSelfExpression(data.points);
    benchmark::DoNotOptimize(c->nnz());
  }
}
BENCHMARK(BM_Ensc)->Arg(60)->Arg(160);

void BM_Esc(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 11);
  EscOptions options;
  options.num_exemplars = 15;
  for (auto _ : state) {
    auto w = EscAffinity(data.points, options);
    benchmark::DoNotOptimize(w->nnz());
  }
}
BENCHMARK(BM_Esc)->Arg(60)->Arg(160);

void BM_SpectralClusterDense(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), 6);
  ScPipelineOptions options;
  options.method = ScMethod::kTsc;
  options.tsc.q = 5;
  auto affinity = BuildAffinity(data.points, options);
  const Matrix dense = affinity->ToDense();
  for (auto _ : state) {
    auto result = SpectralCluster(dense, 5);
    benchmark::DoNotOptimize(result->labels.data());
  }
}
BENCHMARK(BM_SpectralClusterDense)->Arg(40)->Arg(120);

// The two paths SpectralCluster picks between for a sparse graph, by size
// (kSparseSpectralCutoff in cluster/spectral.cc): path 0 densifies and runs
// the dense eigensolver, path 1 runs subspace iteration on the sparse
// normalized adjacency. The graph is 5 disjoint blocks of N / 5 vertices,
// each vertex linked to its successor and to 8 random vertices of its
// block, both ways (~18 neighbours, like a q-NN central pool). Args: N,
// path. DESIGN.md section 5 records the medians.
void BM_SpectralSparseVsDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool sparse = state.range(1) != 0;
  const int64_t k = 5;
  const int64_t block = n / k;
  Rng rng(11);
  std::vector<Triplet> triplets;
  const auto link = [&triplets](int64_t i, int64_t j) {
    triplets.push_back({i, j, 1.0});
    triplets.push_back({j, i, 1.0});
  };
  for (int64_t b = 0; b < k; ++b) {
    const int64_t offset = b * block;
    for (int64_t i = 0; i < block; ++i) {
      link(offset + i, offset + (i + 1) % block);
      for (int e = 0; e < 8; ++e) {
        const int64_t j = static_cast<int64_t>(rng.Uniform() * block) % block;
        if (j != i) link(offset + i, offset + j);
      }
    }
  }
  const SparseMatrix w =
      SparseMatrix::FromTriplets(k * block, k * block, std::move(triplets));
  for (auto _ : state) {
    auto result = sparse ? internal_spectral::SparseSpectralCluster(w, k, {})
                         : SpectralCluster(w.ToDense(), k);
    benchmark::DoNotOptimize(result->labels.data());
  }
  state.SetLabel(sparse ? "sparse" : "dense");
}
BENCHMARK(BM_SpectralSparseVsDense)
    ->ArgsProduct({{300, 600, 900, 1200, 2000}, {0, 1}})
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

void BM_FedScLocalStage(benchmark::State& state) {
  // One device holding 2 subspaces with range(0) points each.
  SyntheticOptions options;
  options.ambient_dim = 20;
  options.subspace_dim = 4;
  options.num_subspaces = 2;
  options.points_per_subspace = state.range(0);
  options.seed = 7;
  auto data = GenerateUnionOfSubspaces(options);
  FedScOptions fed_options;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto local = LocalClusterAndSample(data->points, fed_options, ++seed);
    benchmark::DoNotOptimize(local->samples.data());
  }
}
BENCHMARK(BM_FedScLocalStage)->Arg(15)->Arg(40)->Arg(100);

}  // namespace
}  // namespace fedsc

BENCHMARK_MAIN();
