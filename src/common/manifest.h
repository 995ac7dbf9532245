// Provenance manifest for a run: where the binary came from and what
// machine executed it. Every RunReport (core/report.h) embeds one, so a
// report can always answer "which code, which build, which host produced
// these numbers" — the same discipline scripts/bench_baseline.sh enforces
// for the committed perf baseline, now applied to every exported run.
//
// Environment facts (git describe, compiler, CMake build type) are baked in
// at compile time via FEDSC_GIT_DESCRIBE / FEDSC_CMAKE_BUILD_TYPE compile
// definitions (src/CMakeLists.txt); host facts (CPU model, hardware
// threads) are read at runtime. Run-specific facts (options fingerprint,
// seeds) are filled in by the caller that owns the options.

#ifndef FEDSC_COMMON_MANIFEST_H_
#define FEDSC_COMMON_MANIFEST_H_

#include <cstdint>
#include <string>

namespace fedsc {

struct RunManifest {
  // Compile-time provenance.
  std::string git_describe;   // `git describe --always --dirty` at configure
  std::string compiler;       // compiler id + version string
  std::string build_type;     // CMAKE_BUILD_TYPE the binary was built with
  // Host facts, read at manifest collection time.
  std::string cpu_model;      // /proc/cpuinfo "model name" (or "unknown")
  int hardware_threads = 0;   // std::thread::hardware_concurrency()
  // Kernel dispatch facts (common/isa.h): the best micro-kernel tier cpuid
  // reports, the tier GEMM/Syrk actually dispatch to (ResolveDefaultIsa),
  // and what pinned that choice ("cpuid", or "env:FEDSC_FORCE_ISA=..."
  // when the override is set). Recorded so a report always answers "which
  // kernels produced these bits" — the dispatch is result-affecting.
  std::string cpu_isa;         // best supported tier: generic|avx2|avx512
  std::string gemm_isa;        // tier GEMM/Syrk run on this run
  std::string isa_pin_source;  // what decided gemm_isa
  // Run facts, filled by the caller.
  std::string options_fingerprint;  // digest of the run's options
  uint64_t seed = 0;
  uint64_t fault_seed = 0;
  int num_threads = 0;
};

// Fills the compile-time and host fields; run fields are left defaulted.
RunManifest CollectRunManifest();

// 64-bit FNV-1a over a string; the building block callers use to fingerprint
// their option structs (hash the rendered option fields, hex-encode).
uint64_t Fnv1a64(const std::string& text);
std::string HexDigest64(uint64_t value);

// Renders the manifest as a JSON object (no trailing newline).
std::string RunManifestJson(const RunManifest& manifest);

}  // namespace fedsc

#endif  // FEDSC_COMMON_MANIFEST_H_
