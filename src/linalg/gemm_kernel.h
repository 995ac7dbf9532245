// BLIS-style cache-blocked packed GEMM engine (Goto & van de Geijn 2008;
// Van Zee & van de Geijn 2015). No external BLAS exists in this environment,
// so this is the high-performance backend behind Gemm/Syrk in linalg/blas.h:
//
//   for jc in n by nc:            // C column block        (fits L3 with B)
//     for pc in k by kc:          // rank-kc update        (result-affecting!)
//       pack op(B)[pc, jc] -> bpack   (kc x nc, NR-wide k-major micro-panels)
//       for ic in m by mc:        // A row block           (apack fits L2)
//         pack op(A)[ic, pc] -> apack (mc x kc, MR-wide k-major micro-panels)
//         for jr in nc by NR:     // parallelized: fixed contiguous ranges
//           for ir in mc by MR:
//             MR x NR register-tiled micro-kernel over apack/bpack
//
// Packing reads op(A)/op(B) element-wise, so all four transpose combinations
// (including TT) cost the same — no materialized transpose anywhere. The
// packed buffers live in a per-thread scratch arena (grow-once, 64-byte
// aligned, freed at thread exit), so steady-state calls never allocate.
//
// Three micro-kernel tiers ship in one binary and one is selected at runtime
// by cpuid (common/isa.h): a portable auto-vectorized generic kernel (the
// pre-dispatch code, unchanged — CpuIsa::kGeneric reproduces its bits
// exactly), an AVX2+FMA 8x6 kernel, and an AVX-512 24x8 kernel. The SIMD
// tiers software-prefetch the packed A/B micro-panels kPrefetchAhead
// k-steps ahead of the FMA stream; the generic tier stays byte-for-byte
// the pre-dispatch kernel (no prefetch) so it remains an honest
// reproduction and comparison baseline. The tiers differ in tile shape and
// instruction selection; every tier accumulates one partial sum per output
// element in ascending p order, so per tier results are bit-identical for
// every thread count, and across tiers they agree to the ulp policy in
// DESIGN.md "Runtime ISA dispatch & batched factorizations" (exactly equal
// when the generic tier is compiled with FMA contraction, as Release builds
// here are).
//
// Routes per tier. The generic and AVX2 tiers run every product through
// the packed loop nest above and commit each micro-tile through a stack
// buffer with `C += alpha * acc` as the compiler rounds it. The AVX-512 tier
// adds three routes:
//   * thin output: op(A) with at most kThinMaxRows (8) rows against a
//     non-transposed B. Only op(A) is packed (one 8-lane k-major panel per
//     kc block, zero-padded rows); B's columns are read in place, and each
//     output column keeps one zmm accumulator, kThinNr columns at a time.
//     The SSC Z-update's T = K M (k = 8 rows) takes it.
//   * in-register commit: a full 24x8 tile that no diagonal cuts commits to
//     C straight from its accumulators (Z += R^T T takes it); edge and
//     diagonal tiles still commit through the buffer.
//   * remainder row tiles: the last row tile of an mc block with mr < 24
//     rows computes only the 8 or 16 rows (one or two zmm vectors) that
//     cover mr, read from the same 24-stride packed panel, and commits
//     through the buffer. A 50-row K M runs 48 + 8 rows instead of 72, a
//     30-row one 24 + 8 instead of 48.
// Every AVX-512 commit, buffered or not, rounds one way: a fused
// multiply-add where the translation unit is compiled with FMA (__FMA__,
// the -march=native builds), a rounded product and a separate add otherwise
// (the portable build). So the routes reproduce the packed, buffered
// AVX-512 bits in every build, and in Release builds those equal the
// compiler's contraction of `C += alpha * acc` (GCC contracts at -O2 and
// above, not at the sanitizer builds' -O1).
//
// Determinism contract (DESIGN.md "Blocked GEMM & packing"): every output
// element accumulates its kc-block partial sums in ascending p order inside
// the micro-kernel (one FMA chain from zero) and commits them to C in
// ascending pc order, a sequence that depends only on the shapes and the
// fixed kKc — never on num_threads, mc/nc, the route, or which micro-tile
// (full, edge-padded or remainder) computes it. The jr loop (the thin
// route's column groups) is parallelized with ParallelForRanges over
// disjoint output columns, so results are bit-identical for every thread
// count. Gemm and Syrk run this engine at every shape; a product below
// 2^16 flops runs inline on the calling thread.

#ifndef FEDSC_LINALG_GEMM_KERNEL_H_
#define FEDSC_LINALG_GEMM_KERNEL_H_

#include <cstdint>

#include "common/isa.h"
#include "linalg/matrix.h"

namespace fedsc {

enum class Trans;  // defined in linalg/blas.h

// C += alpha * op(A) * op(B) through the blocked packed engine. The caller
// (the Gemm dispatcher in blas.cc) validates shapes and applies beta to C
// first. `isa` picks the micro-kernel tier (Gemm passes
// ResolveDefaultIsa().chosen; tests and benchmarks pass each tier); a tier
// this host cannot execute aborts rather than faulting on an illegal
// instruction. num_threads parallelizes the jr (output-column) loop
// bit-exactly. On the AVX-512 tier the thin-output route and the
// in-register commit apply (see above); they reproduce PackedGemm's
// buffered bits exactly.
void BlockedGemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
                 const Matrix& b, Matrix* c, int num_threads,
                 CpuIsa isa = CpuIsa::kGeneric);

// Lower triangle of C += alpha * op(X) * op(X)^T (trans = kNo, the outer
// Gram X X^T) or alpha * op(X)^T * op(X) (trans = kTrans, the Gram X^T X),
// through the same engine with strictly-upper micro-tiles skipped — the
// flops halving behind Syrk. Entries above the diagonal are left untouched;
// the Syrk dispatcher in blas.cc mirrors them afterwards.
void BlockedSyrkLower(Trans trans, double alpha, const Matrix& x, Matrix* c,
                      int num_threads, CpuIsa isa = CpuIsa::kGeneric);

namespace internal_gemm {
// Tunables, exposed for tests/benchmarks. kKc is the only result-affecting
// one (it sets the partial-sum commit boundaries); the per-tier MR/NR and
// kMc/kNc only move work between cache levels, vector registers, and
// threads.
//
// The generic tier keeps the pre-dispatch tile shape (16 rows when compiled
// with AVX-512 available, 8 otherwise) so pinning CpuIsa::kGeneric
// reproduces the pre-dispatch engine's code paths exactly.
#if defined(__AVX512F__)
inline constexpr int kGenericMr = 16;
#else
inline constexpr int kGenericMr = 8;
#endif
inline constexpr int kGenericNr = 6;
// AVX2+FMA: 12 ymm accumulators + 2 A loads + 1 broadcast fits 16 regs.
inline constexpr int kAvx2Mr = 8;
inline constexpr int kAvx2Nr = 6;
// AVX-512: 24 zmm accumulators (3 vectors x 8 columns) + 3 A loads + 1
// broadcast fits 32 regs; the 3:8 tile keeps the FMA ports saturated while
// halving the per-FMA load traffic of the generic 16x6 shape.
inline constexpr int kAvx512Mr = 24;
inline constexpr int kAvx512Nr = 8;
// AVX-512 thin-output route: op(A) rows up to one zmm of lanes, output
// columns kThinNr at a time (8 accumulators + 1 A vector + 1 broadcast).
inline constexpr int kThinMaxRows = 8;
inline constexpr int kThinNr = 8;
// Compatibility aliases (the generic tier's shape, as before dispatch).
inline constexpr int kMr = kGenericMr;
inline constexpr int kNr = kGenericNr;
// How many k-steps ahead the SIMD micro-kernels prefetch the packed A and
// B micro-panels (distance in elements: kPrefetchAhead * MR doubles for A,
// kPrefetchAhead * NR for B — one to three cache lines, tuned on the
// Ice-Lake-class baseline host). The generic tier does not prefetch: it is
// the frozen pre-dispatch reference kernel.
inline constexpr int kPrefetchAhead = 4;
inline constexpr int64_t kMc = 96;   // A block rows   (apack ~= mc*kc in L2)
inline constexpr int64_t kKc = 256;  // rank-kc update depth; result-affecting
inline constexpr int64_t kNc = 1024; // B block columns (bpack streams from L3)

// The packed loop nest alone, for tests and benchmarks: BlockedGemm without
// the thin-output route, and with register_commit = false every AVX-512
// micro-tile commits through the acc buffer. BlockedGemm equals it with
// register_commit = false bit for bit on every tier and shape.
void PackedGemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
                const Matrix& b, Matrix* c, int num_threads, CpuIsa isa,
                bool register_commit);
}  // namespace internal_gemm

}  // namespace fedsc

#endif  // FEDSC_LINALG_GEMM_KERNEL_H_
