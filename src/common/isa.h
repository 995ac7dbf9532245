// Runtime CPU ISA detection for the dispatched SIMD kernels, plus the
// process-wide default-tier resolution that the RunManifest records.
//
// The GEMM engine (linalg/gemm_kernel.h) ships three micro-kernel tiers in
// one binary — portable-generic, AVX2+FMA, and AVX-512 — and Gemm/Syrk run
// the tier ResolveDefaultIsa() picks. The pick is result-affecting and a
// pure function of (cpuid, FEDSC_FORCE_ISA), never of num_threads or
// timing, so a run is reproducible from its manifest alone. This header
// owns the cpuid probe and the env override so both the kernels (linalg)
// and the provenance manifest (common) can agree on the answer without a
// layering cycle.
//
// FEDSC_FORCE_ISA=generic|avx2|avx512 overrides the cpuid pick for the
// whole process (CI uses it to exercise every tier on one host). It is
// read once, at first resolution; forcing a tier the host cannot execute
// aborts with a clear message rather than faulting later on an illegal
// instruction. Tests and benchmarks reach every tier directly through the
// CpuIsa argument of BlockedGemm / BlockedSyrkLower.

#ifndef FEDSC_COMMON_ISA_H_
#define FEDSC_COMMON_ISA_H_

namespace fedsc {

// Instruction-set tiers the dispatched kernels are compiled for, weakest
// first. kGeneric is the portable auto-vectorized code path and is always
// supported.
enum class CpuIsa {
  kGeneric = 0,
  kAvx2 = 1,     // AVX2 + FMA3
  kAvx512 = 2,   // AVX-512 F
};

// True if this host can execute the tier's kernels. kGeneric is always
// true; the SIMD tiers require both x86-64 and the matching cpuid bits.
bool CpuIsaSupported(CpuIsa isa);

// Best tier this host supports (the cpuid probe, ignoring any override).
CpuIsa BestSupportedIsa();

// "generic" / "avx2" / "avx512".
const char* CpuIsaName(CpuIsa isa);

// How the process-wide default tier was chosen.
struct IsaDispatch {
  CpuIsa chosen;           // the tier Gemm/Syrk run in this process
  const char* pin_source;  // "cpuid" or "env:FEDSC_FORCE_ISA=<value>"
};

// The process-wide default-tier resolution: FEDSC_FORCE_ISA when set (must
// name a supported tier or the process aborts), else BestSupportedIsa().
// Computed once and cached; pure thereafter.
const IsaDispatch& ResolveDefaultIsa();

}  // namespace fedsc

#endif  // FEDSC_COMMON_ISA_H_
