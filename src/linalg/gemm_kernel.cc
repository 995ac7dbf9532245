#include "linalg/gemm_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"

// The generic micro-kernel relies on full unrolling of its fixed-trip-count
// loops so the accumulator tile stays in vector registers; without the
// pragma GCC 12 SLP-vectorizes along the (non-power-of-two) broadcast axis
// and drowns the FMAs in cross-lane permutes.
#if defined(__clang__)
#define FEDSC_UNROLL_FULL _Pragma("unroll")
#elif defined(__GNUC__)
#define FEDSC_UNROLL_FULL _Pragma("GCC unroll 16")
#else
#define FEDSC_UNROLL_FULL
#endif

namespace fedsc {

namespace {

using internal_gemm::kAvx2Mr;
using internal_gemm::kAvx2Nr;
using internal_gemm::kAvx512Mr;
using internal_gemm::kAvx512Nr;
using internal_gemm::kGenericMr;
using internal_gemm::kGenericNr;
using internal_gemm::kKc;
using internal_gemm::kMc;
using internal_gemm::kNc;
using internal_gemm::kPrefetchAhead;
using internal_gemm::kThinMaxRows;
using internal_gemm::kThinNr;

int64_t RoundUp(int64_t value, int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Grow-once 64-byte-aligned buffer for packed panels.
class AlignedBuffer {
 public:
  double* EnsureCapacity(int64_t doubles) {
    if (doubles > capacity_) {
      const size_t bytes =
          static_cast<size_t>(RoundUp(doubles * sizeof(double), 64));
      data_.reset(static_cast<double*>(std::aligned_alloc(64, bytes)));
      FEDSC_CHECK(data_ != nullptr) << "packing buffer allocation failed";
      capacity_ = doubles;
    }
    return data_.get();
  }

 private:
  struct FreeDeleter {
    void operator()(double* p) const { std::free(p); }
  };
  std::unique_ptr<double, FreeDeleter> data_;
  int64_t capacity_ = 0;
};

// Per-thread scratch arena: the calling thread (the pool caller, or a worker
// running a nested region inline) packs into its own thread-local buffers,
// so steady-state GEMMs never allocate. Workers of the jr loop only read.
struct GemmScratch {
  AlignedBuffer apack;
  AlignedBuffer bpack;
};

GemmScratch& LocalGemmScratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

// --- Packing -------------------------------------------------------------
//
// apack holds op(A)[ic:ic+mc, pc:pc+kc] as ceil(mc/MR) micro-panels; each
// micro-panel is k-major with MR contiguous row lanes per k (tail rows
// zero-padded — the padded lanes feed accumulators whose outputs are never
// written back, so padding cannot affect result bits). bpack holds
// op(B)[pc:pc+kc, jc:jc+nc] symmetrically with NR column lanes. MR/NR are
// the dispatched tier's tile shape; since every micro-panel start and every
// k-slice stride (MR or NR doubles) is a multiple of 8 doubles or lands on
// a 64-byte boundary for the SIMD tiers (MR in {8, 16, 24}, NR = 8), the
// intrinsic kernels can use aligned vector loads.

template <int MR>
void PackA(const double* a, int64_t lda, bool transposed, int64_t ic,
           int64_t pc, int64_t mc, int64_t kc, double* out) {
  for (int64_t i0 = 0; i0 < mc; i0 += MR) {
    const int64_t mr = std::min<int64_t>(MR, mc - i0);
    if (!transposed) {
      // op(A)(i, p) = A(ic + i, pc + p): MR consecutive rows of a column.
      for (int64_t p = 0; p < kc; ++p) {
        const double* src = a + (pc + p) * lda + ic + i0;
        for (int64_t i = 0; i < mr; ++i) out[i] = src[i];
        for (int64_t i = mr; i < MR; ++i) out[i] = 0.0;
        out += MR;
      }
    } else {
      // op(A)(i, p) = A(pc + p, ic + i): column ic+i is contiguous in p, so
      // read columns and scatter into the k-major panel.
      if (mr < MR) {
        for (int64_t p = 0; p < kc; ++p) {
          for (int64_t i = mr; i < MR; ++i) out[p * MR + i] = 0.0;
        }
      }
      for (int64_t i = 0; i < mr; ++i) {
        const double* src = a + (ic + i0 + i) * lda + pc;
        for (int64_t p = 0; p < kc; ++p) out[p * MR + i] = src[p];
      }
      out += MR * kc;
    }
  }
}

template <int NR>
void PackB(const double* b, int64_t ldb, bool transposed, int64_t pc,
           int64_t jc, int64_t kc, int64_t nc, double* out) {
  for (int64_t j0 = 0; j0 < nc; j0 += NR) {
    const int64_t nr = std::min<int64_t>(NR, nc - j0);
    if (!transposed) {
      // op(B)(p, j) = B(pc + p, jc + j): column jc+j is contiguous in p.
      // The k loop runs outermost over nr column streams, so every k-step
      // writes one contiguous NR-wide row of the micro-panel.
      const double* src = b + (jc + j0) * ldb + pc;
      if (nr == NR) {
        for (int64_t p = 0; p < kc; ++p) {
          FEDSC_UNROLL_FULL
          for (int j = 0; j < NR; ++j) out[p * NR + j] = src[j * ldb + p];
        }
      } else {
        for (int64_t p = 0; p < kc; ++p) {
          for (int64_t j = 0; j < nr; ++j) out[p * NR + j] = src[j * ldb + p];
          for (int64_t j = nr; j < NR; ++j) out[p * NR + j] = 0.0;
        }
      }
    } else {
      // op(B)(p, j) = B(jc + j, pc + p): NR consecutive rows of a column.
      for (int64_t p = 0; p < kc; ++p) {
        const double* src = b + (pc + p) * ldb + jc + j0;
        for (int64_t j = 0; j < nr; ++j) out[p * NR + j] = src[j];
        for (int64_t j = nr; j < NR; ++j) out[p * NR + j] = 0.0;
      }
    }
    out += NR * kc;
  }
}

// --- Micro-kernels -------------------------------------------------------
//
// Every tier computes acc[j * MR + i] = sum_p apanel[p*MR+i] * bpanel[p*NR+j]
// as ONE partial sum per output element, accumulated in ascending p order —
// the bit-determinism invariant. The tiers may not split the p loop across
// multiple accumulators per element (that would reorder the summation).
// The SIMD tiers software-prefetch the packed panels kPrefetchAhead k-steps
// ahead (prefetching past a panel's end is architecturally harmless); the
// generic tier deliberately does not — it is the frozen pre-dispatch
// reference kernel, kept byte-for-byte so CpuIsa::kGeneric stays an honest
// reproduction baseline rather than a third tuned kernel.

// Portable tier: the pre-dispatch kernel, auto-vectorized by the compiler.
// CpuIsa::kGeneric pins these exact bits (with -ffp-contract=fast the
// compiler contracts the multiply-add, matching the SIMD tiers' FMAs).
template <int MR, int NR>
void MicroGeneric(int64_t kc, const double* __restrict apanel,
                  const double* __restrict bpanel, double* __restrict acc) {
  double tile[NR][MR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const double* __restrict ap = apanel + p * MR;
    const double* __restrict bp = bpanel + p * NR;
    FEDSC_UNROLL_FULL
    for (int j = 0; j < NR; ++j) {
      const double w = bp[j];
      FEDSC_UNROLL_FULL
      for (int i = 0; i < MR; ++i) tile[j][i] += ap[i] * w;
    }
  }
  for (int j = 0; j < NR; ++j) {
    for (int i = 0; i < MR; ++i) acc[j * MR + i] = tile[j][i];
  }
}

// C += alpha * acc, rounded the one way every AVX-512 commit rounds: one
// fused multiply-add where this translation unit is compiled with FMA
// (__FMA__, the -march=native builds), a rounded product and a separate add
// otherwise (the portable build). The buffered, in-register and thin-route
// commits all use this rule, so which of them commits an element cannot
// move its bits. It is spelled out rather than left to the compiler's
// contraction of `c += alpha * acc`, which depends on the optimization
// level (GCC contracts at -O2 and above only).
inline double CommitFma(double alpha, double acc, double c) {
#if defined(__FMA__)
  return std::fma(alpha, acc, c);
#else
  return c + alpha * acc;
#endif
}

#if defined(__x86_64__) || defined(__i386__)

// AVX2+FMA 8x6 tier: 12 ymm accumulators + 2 A vectors + 1 broadcast = 15
// of 16 registers. Compiled with its own target attribute so the one binary
// carries it even when the global -march lacks AVX2; it only runs when
// cpuid says the host can execute it.
__attribute__((target("avx2,fma"))) void MicroAvx2(
    int64_t kc, const double* __restrict apanel,
    const double* __restrict bpanel, double* __restrict acc) {
  __m256d c[kAvx2Nr][2];
  for (int j = 0; j < kAvx2Nr; ++j) {
    c[j][0] = _mm256_setzero_pd();
    c[j][1] = _mm256_setzero_pd();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const double* ap = apanel + p * kAvx2Mr;
    const double* bp = bpanel + p * kAvx2Nr;
    _mm_prefetch(reinterpret_cast<const char*>(ap + kAvx2Mr * kPrefetchAhead),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(bp + kAvx2Nr * kPrefetchAhead),
                 _MM_HINT_T0);
    const __m256d a0 = _mm256_load_pd(ap);
    const __m256d a1 = _mm256_load_pd(ap + 4);
    FEDSC_UNROLL_FULL
    for (int j = 0; j < kAvx2Nr; ++j) {
      const __m256d b = _mm256_broadcast_sd(bp + j);
      c[j][0] = _mm256_fmadd_pd(a0, b, c[j][0]);
      c[j][1] = _mm256_fmadd_pd(a1, b, c[j][1]);
    }
  }
  for (int j = 0; j < kAvx2Nr; ++j) {
    _mm256_store_pd(acc + j * kAvx2Mr, c[j][0]);
    _mm256_store_pd(acc + j * kAvx2Mr + 4, c[j][1]);
  }
}

__attribute__((target("avx512f"), always_inline)) inline __m512d CommitFma512(
    __m512d alpha, __m512d acc, __m512d c) {
#if defined(__FMA__)
  return _mm512_fmadd_pd(alpha, acc, c);
#else
  // Inside this avx512f function the compiler would contract a plain
  // multiply and add into one FMA; the empty asm pins the rounded product.
  __m512d product = _mm512_mul_pd(alpha, acc);
  __asm__("" : "+v"(product));
  return _mm512_add_pd(c, product);
#endif
}

// AVX-512 24x8 tier: 24 zmm accumulators + 3 A vectors + 1 broadcast = 28
// of 32 registers. Three A loads feed eight broadcast columns, so the two
// FMA ports stay saturated at one load per two FMAs — ~65 GFLOP/s single
// thread at n = 512 on the 2.1 GHz Ice-Lake-class baseline host (97% of
// the dual-FMA peak), vs ~38 for the generic tier. V < 3 computes only the
// top 8V rows of the tile from the same 24-stride panel: the remainder
// tiles, where a last row tile of mr <= 8V rows would otherwise pad to 24.
template <int V>
__attribute__((target("avx512f"), always_inline)) inline void TileAvx512(
    int64_t kc, const double* __restrict apanel,
    const double* __restrict bpanel, __m512d (&c)[kAvx512Nr][3]) {
  for (int j = 0; j < kAvx512Nr; ++j) {
    FEDSC_UNROLL_FULL
    for (int v = 0; v < V; ++v) c[j][v] = _mm512_setzero_pd();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const double* ap = apanel + p * kAvx512Mr;
    const double* bp = bpanel + p * kAvx512Nr;
    _mm_prefetch(
        reinterpret_cast<const char*>(ap + kAvx512Mr * kPrefetchAhead),
        _MM_HINT_T0);
    _mm_prefetch(
        reinterpret_cast<const char*>(bp + kAvx512Nr * kPrefetchAhead),
        _MM_HINT_T0);
    __m512d a[V];
    FEDSC_UNROLL_FULL
    for (int v = 0; v < V; ++v) a[v] = _mm512_load_pd(ap + 8 * v);
    FEDSC_UNROLL_FULL
    for (int j = 0; j < kAvx512Nr; ++j) {
      const __m512d b = _mm512_set1_pd(bp[j]);
      FEDSC_UNROLL_FULL
      for (int v = 0; v < V; ++v) c[j][v] = _mm512_fmadd_pd(a[v], b, c[j][v]);
    }
  }
}

// The tile's top 8V rows into acc (stride kAvx512Mr); rows past 8V are left
// unwritten, and the loop nest commits only the tile's mr <= 8V rows.
template <int V>
__attribute__((target("avx512f"))) void MicroAvx512(
    int64_t kc, const double* __restrict apanel,
    const double* __restrict bpanel, double* __restrict acc) {
  __m512d c[kAvx512Nr][3];
  TileAvx512<V>(kc, apanel, bpanel, c);
  for (int j = 0; j < kAvx512Nr; ++j) {
    FEDSC_UNROLL_FULL
    for (int v = 0; v < V; ++v) {
      _mm512_store_pd(acc + j * kAvx512Mr + 8 * v, c[j][v]);
    }
  }
}

// A ragged last row tile of mr < 24 rows over the narrowest zmm multiple
// that covers it: 8 or 16 rows.
void RowTailAvx512(int64_t kc, int64_t mr, const double* __restrict apanel,
                   const double* __restrict bpanel, double* __restrict acc) {
  if (mr <= 8) {
    MicroAvx512<1>(kc, apanel, bpanel, acc);
  } else if (mr <= 16) {
    MicroAvx512<2>(kc, apanel, bpanel, acc);
  } else {
    MicroAvx512<3>(kc, apanel, bpanel, acc);
  }
}

// The same tile committed to a full 24x8 block of C straight from the
// accumulators, skipping MicroAvx512's stack buffer and scalar commit loop.
__attribute__((target("avx512f"))) void TileCommitAvx512(
    int64_t kc, const double* __restrict apanel,
    const double* __restrict bpanel, double alpha, double* __restrict ctile,
    int64_t ldc) {
  __m512d c[kAvx512Nr][3];
  TileAvx512<3>(kc, apanel, bpanel, c);
  const __m512d alpha_v = _mm512_set1_pd(alpha);
  for (int j = 0; j < kAvx512Nr; ++j) {
    double* col = ctile + j * ldc;
    for (int v = 0; v < 3; ++v) {
      _mm512_storeu_pd(col + 8 * v,
                       CommitFma512(alpha_v, c[j][v],
                                    _mm512_loadu_pd(col + 8 * v)));
    }
  }
}

// Thin-output route: C(0:m, j) += alpha * op(A)(0:m, pc:pc+kc) * B(pc:pc+kc,
// j) for NC columns of a non-transposed B read in place, with op(A) packed
// as one 8-lane k-major micro-panel (m <= 8 rows, zero-padded). One zmm
// accumulator per output column runs the engine's per-element chain: FMAs
// from zero in ascending p, then one commit per kc block.
template <int NC>
__attribute__((target("avx512f"))) void ThinColumnsAvx512(
    int64_t kc, const double* __restrict apanel, const double* __restrict b,
    int64_t ldb, double alpha, __mmask8 rows, double* __restrict c,
    int64_t ldc) {
  __m512d acc[NC];
  FEDSC_UNROLL_FULL
  for (int j = 0; j < NC; ++j) acc[j] = _mm512_setzero_pd();
  for (int64_t p = 0; p < kc; ++p) {
    const __m512d a = _mm512_load_pd(apanel + p * kThinMaxRows);
    FEDSC_UNROLL_FULL
    for (int j = 0; j < NC; ++j) {
      acc[j] = _mm512_fmadd_pd(a, _mm512_set1_pd(b[j * ldb + p]), acc[j]);
    }
  }
  const __m512d alpha_v = _mm512_set1_pd(alpha);
  FEDSC_UNROLL_FULL
  for (int j = 0; j < NC; ++j) {
    double* col = c + j * ldc;
    _mm512_mask_storeu_pd(
        col, rows,
        CommitFma512(alpha_v, acc[j], _mm512_maskz_loadu_pd(rows, col)));
  }
}

// The thin route over all of C: op(A) is m x k with m <= kThinMaxRows, B is
// k x n and not transposed. Threads split the 8-column groups with the
// packed path's ParallelForRanges rule; every element commits its kc blocks
// in ascending pc order, whatever the split.
void ThinGemmAvx512(bool trans_a, double alpha, const double* a, int64_t lda,
                    const double* b, int64_t ldb, int64_t m, int64_t k,
                    int64_t n, Matrix* c, int num_threads) {
  double* apack = LocalGemmScratch().apack.EnsureCapacity(
      kThinMaxRows * std::min<int64_t>(k, kKc));
  double* cdata = c->data();
  const int64_t ldc = c->rows();
  const auto rows = static_cast<__mmask8>((1u << m) - 1);
  const int threads =
      m * k * n < (1 << 16) ? 1 : std::min<int>(num_threads, 64);
  const int64_t num_groups = (n + kThinNr - 1) / kThinNr;
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t kc = std::min<int64_t>(kKc, k - pc);
    PackA<kThinMaxRows>(a, lda, trans_a, 0, pc, m, kc, apack);
    const double* bblock = b + pc;
    ParallelForRanges(
        0, num_groups, threads, [&](int64_t g0, int64_t g1, int /*chunk*/) {
          int64_t j = g0 * kThinNr;
          const int64_t j_end = std::min<int64_t>(n, g1 * kThinNr);
          for (; j + kThinNr <= j_end; j += kThinNr) {
            ThinColumnsAvx512<kThinNr>(kc, apack, bblock + j * ldb, ldb,
                                       alpha, rows, cdata + j * ldc, ldc);
          }
          // A ragged last group runs as 4-, 2- and 1-column pieces.
          for (int64_t width = 4; width >= 1; width /= 2) {
            if (j_end - j < width) continue;
            const double* bj = bblock + j * ldb;
            double* cj = cdata + j * ldc;
            if (width == 4) {
              ThinColumnsAvx512<4>(kc, apack, bj, ldb, alpha, rows, cj, ldc);
            } else if (width == 2) {
              ThinColumnsAvx512<2>(kc, apack, bj, ldb, alpha, rows, cj, ldc);
            } else {
              ThinColumnsAvx512<1>(kc, apack, bj, ldb, alpha, rows, cj, ldc);
            }
            j += width;
          }
        });
  }
}

#endif  // x86

// --- Blocked driver ------------------------------------------------------

using MicroFn = void (*)(int64_t, const double* __restrict,
                         const double* __restrict, double* __restrict);
// A full MR x NR tile computed and committed to C without the acc buffer.
using TileCommitFn = void (*)(int64_t, const double* __restrict,
                              const double* __restrict, double,
                              double* __restrict, int64_t);
// A last row tile of mr < MR rows into acc, computing fewer than MR rows.
using RowTailFn = void (*)(int64_t, int64_t, const double* __restrict,
                           const double* __restrict, double* __restrict);

// Shared core for GEMM and the lower-triangle SYRK, instantiated once per
// micro-kernel tier. When lower_only is set, micro-tiles strictly above the
// diagonal are skipped and write-back stores only elements with global
// row >= global column. MR/NR vary per tier but are not result-affecting:
// each output element still receives the identical p-ascending partial-sum
// sequence bounded by kKc. A tier with a TileCommit kernel (AVX-512) commits
// every element by CommitFma, from registers for full tiles that no
// diagonal cuts when register_commit is set and through acc otherwise; the
// other tiers keep the pre-dispatch `+=` commit. A tier with a RowTail
// kernel (AVX-512) computes a ragged last row tile through it rather than
// padding it to MR rows; the tile's elements run the same FMA chains.
template <int MR, int NR, MicroFn Micro, TileCommitFn TileCommit = nullptr,
          RowTailFn RowTail = nullptr>
void BlockedCoreT(bool trans_a, bool trans_b, double alpha, const double* a,
                  int64_t lda, const double* b, int64_t ldb, int64_t m,
                  int64_t k, int64_t n, Matrix* c, bool lower_only,
                  int num_threads, bool register_commit) {
  GemmScratch& scratch = LocalGemmScratch();
  double* apack = scratch.apack.EnsureCapacity(
      RoundUp(std::min<int64_t>(m, kMc), MR) * std::min<int64_t>(k, kKc));
  double* bpack = scratch.bpack.EnsureCapacity(
      RoundUp(std::min<int64_t>(n, kNc), NR) * std::min<int64_t>(k, kKc));

  double* cdata = c->data();
  const int64_t ldc = c->rows();

  // Never spin up workers for products too small to amortize a dispatch.
  const int threads =
      m * k * n < (1 << 16) ? 1 : std::min<int>(num_threads, 64);

  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min<int64_t>(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min<int64_t>(kKc, k - pc);
      PackB<NR>(b, ldb, trans_b, pc, jc, kc, nc, bpack);
      for (int64_t ic = 0; ic < m; ic += kMc) {
        const int64_t mc = std::min<int64_t>(kMc, m - ic);
        // A lower-only block whose topmost row still lies strictly above
        // the block's last column contributes nothing.
        if (lower_only && ic + mc - 1 < jc) continue;
        PackA<MR>(a, lda, trans_a, ic, pc, mc, kc, apack);
        const int64_t num_jr = (nc + NR - 1) / NR;
        // The packed panels are written above and only read below; the
        // pool's Schedule/Wait pair orders the accesses. Each jr range owns
        // a disjoint set of C columns, and every output element runs the
        // identical micro-kernel sequence no matter how ranges are split,
        // so the result is bit-identical for every thread count.
        ParallelForRanges(
            0, num_jr, threads, [&](int64_t jr0, int64_t jr1, int /*chunk*/) {
              alignas(64) double acc[MR * NR];
              for (int64_t jrb = jr0; jrb < jr1; ++jrb) {
                const int64_t jr = jrb * NR;
                const int64_t nr = std::min<int64_t>(NR, nc - jr);
                const double* bpanel = bpack + jrb * kc * NR;
                for (int64_t ir = 0; ir < mc; ir += MR) {
                  const int64_t mr = std::min<int64_t>(MR, mc - ir);
                  // Skip micro-tiles entirely above the diagonal; this is
                  // where SYRK halves the flops.
                  if (lower_only && ic + ir + mr - 1 < jc + jr) continue;
                  const double* apanel = apack + (ir / MR) * kc * MR;
                  double* ctile = cdata + (jc + jr) * ldc + ic + ir;
                  if constexpr (TileCommit != nullptr) {
                    if (register_commit && mr == MR && nr == NR &&
                        (!lower_only || ic + ir >= jc + jr + NR - 1)) {
                      TileCommit(kc, apanel, bpanel, alpha, ctile, ldc);
                      continue;
                    }
                  }
                  if constexpr (RowTail != nullptr) {
                    if (mr < MR) {
                      RowTail(kc, mr, apanel, bpanel, acc);
                    } else {
                      Micro(kc, apanel, bpanel, acc);
                    }
                  } else {
                    Micro(kc, apanel, bpanel, acc);
                  }
                  for (int64_t j = 0; j < nr; ++j) {
                    const int64_t lower_start =
                        lower_only
                            ? std::max<int64_t>(0, (jc + jr + j) - (ic + ir))
                            : 0;
                    for (int64_t i = lower_start; i < mr; ++i) {
                      if constexpr (TileCommit != nullptr) {
                        ctile[j * ldc + i] = CommitFma(
                            alpha, acc[j * MR + i], ctile[j * ldc + i]);
                      } else {
                        ctile[j * ldc + i] += alpha * acc[j * MR + i];
                      }
                    }
                  }
                }
              }
            });
      }
    }
  }
}

using CoreFn = void (*)(bool, bool, double, const double*, int64_t,
                        const double*, int64_t, int64_t, int64_t, int64_t,
                        Matrix*, bool, int, bool);

// Tier -> blocked-core instantiation, validated against cpuid first.
CoreFn CoreForIsa(CpuIsa isa) {
  FEDSC_CHECK(CpuIsaSupported(isa))
      << "GEMM tier " << CpuIsaName(isa) << " requested but this host cannot "
      << "execute it";
  switch (isa) {
    case CpuIsa::kGeneric:
      break;
#if defined(__x86_64__) || defined(__i386__)
    case CpuIsa::kAvx2:
      return &BlockedCoreT<kAvx2Mr, kAvx2Nr, &MicroAvx2>;
    case CpuIsa::kAvx512:
      return &BlockedCoreT<kAvx512Mr, kAvx512Nr, &MicroAvx512<3>,
                           &TileCommitAvx512, &RowTailAvx512>;
#else
    default:
      break;
#endif
  }
  return &BlockedCoreT<kGenericMr, kGenericNr,
                       &MicroGeneric<kGenericMr, kGenericNr>>;
}

}  // namespace

void BlockedGemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
                 const Matrix& b, Matrix* c, int num_threads, CpuIsa isa) {
  const bool ta = trans_a != Trans::kNo;
  const bool tb = trans_b != Trans::kNo;
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t k = ta ? a.rows() : a.cols();
  const int64_t n = tb ? b.rows() : b.cols();
  const CoreFn core = CoreForIsa(isa);  // validates the tier first
#if defined(__x86_64__) || defined(__i386__)
  if (isa == CpuIsa::kAvx512 && !tb && m >= 1 && m <= kThinMaxRows) {
    FEDSC_METRIC_COUNTER("linalg.gemm.thin_calls").Increment();
    ThinGemmAvx512(ta, alpha, a.data(), a.rows(), b.data(), b.rows(), m, k,
                   n, c, num_threads);
    return;
  }
#endif
  core(ta, tb, alpha, a.data(), a.rows(), b.data(), b.rows(), m, k, n, c,
       /*lower_only=*/false, num_threads, /*register_commit=*/true);
}

void BlockedSyrkLower(Trans trans, double alpha, const Matrix& x, Matrix* c,
                      int num_threads, CpuIsa isa) {
  // trans = kTrans: C += alpha X^T X  (op(A) = X^T against op(B) = X).
  // trans = kNo:    C += alpha X X^T  (op(A) = X   against op(B) = X^T).
  const bool gram = trans != Trans::kNo;
  const int64_t nn = gram ? x.cols() : x.rows();
  const int64_t kk = gram ? x.rows() : x.cols();
  CoreForIsa(isa)(gram, !gram, alpha, x.data(), x.rows(), x.data(), x.rows(),
                  nn, kk, nn, c, /*lower_only=*/true, num_threads,
                  /*register_commit=*/true);
}

namespace internal_gemm {

void PackedGemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
                const Matrix& b, Matrix* c, int num_threads, CpuIsa isa,
                bool register_commit) {
  const bool ta = trans_a != Trans::kNo;
  const bool tb = trans_b != Trans::kNo;
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t k = ta ? a.rows() : a.cols();
  const int64_t n = tb ? b.rows() : b.cols();
  CoreForIsa(isa)(ta, tb, alpha, a.data(), a.rows(), b.data(), b.rows(), m, k,
                  n, c, /*lower_only=*/false, num_threads, register_commit);
}

}  // namespace internal_gemm

}  // namespace fedsc
