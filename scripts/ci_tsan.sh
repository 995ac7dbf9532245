#!/usr/bin/env bash
# Sanitizer gate for the threaded kernels and the fault-injection runtime:
# builds the pool, the determinism suite, the end-to-end Fed-SC tests, and
# the fault-tolerance suite under TSAN (races), then rebuilds and runs the
# fault suite plus the wire-decoder fuzzer under ASAN (corrupted payloads
# and mutated wire bytes exercise truncated / duplicated / wrong-dimension /
# length-lying buffers, exactly where an out-of-bounds read would hide),
# along with the SSC-ADMM edge cases and their many operator re-forms and
# the CSR sparse matrix.
# Last, a Release build without -march=native runs the ADMM, GEMM, property
# and edge-case suites on the baseline ISA. Run from anywhere; artifacts go
# to build-tsan/, build-asan/ and build-portable/. Each suite's wall time is
# printed as a "[suite]" line, so a suite that slows down under a sanitizer
# shows in the log, and each pass opens with a "[tier]" line naming the
# GEMM tier its suites resolve.
set -euo pipefail

# Runs one test binary and prints its wall time and exit status; a failing
# suite still fails the script.
run_suite() {
  local start end status=0
  start=$(date +%s%N)
  "$@" || status=$?
  end=$(date +%s%N)
  local ms=$(( (end - start) / 1000000 ))
  printf '[suite] %s%s: %d.%03d s, exit %d\n' \
    "${FEDSC_FORCE_ISA:+FEDSC_FORCE_ISA=${FEDSC_FORCE_ISA} }" \
    "${1#"${repo_root}/"}" $(( ms / 1000 )) $(( ms % 1000 )) "${status}"
  return "${status}"
}

# Prints the GEMM micro-kernel tier a pass's suites resolve (cpuid, or
# FEDSC_FORCE_ISA when set), so the log shows whether the pass exercised
# the AVX-512 tier's thin-output route, in-register tile commit and 8- and
# 16-row remainder tiles.
print_tier() {
  local pass="$1" build="$2"
  printf '[tier] %s: %s\n' "${pass}" \
    "$("${build}/tools/fedsc_cli" --print-isa | tr '\n' ' ')"
}

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEDSC_SANITIZE=thread

cmake --build "${build_dir}" -j "$(nproc)" \
  --target thread_pool_test parallel_determinism_test fedsc_test \
  server_test faults_test defense_test trace_test journal_test logging_test \
  blas_test batch_test qr_cholesky_test svd_eig_test sketch_test sc_test \
  cluster_test graph_test fedsc_cli

# halt_on_error makes the first race fail the run instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

print_tier "TSAN" "${build_dir}"

run_suite "${build_dir}/tests/thread_pool_test"
run_suite "${build_dir}/tests/parallel_determinism_test"
run_suite "${build_dir}/tests/fedsc_test"
# RunFedSc drives the same FedScServer (threaded screen and central solve)
# as the client/server API; this suite adds the call-sequence fuzz.
run_suite "${build_dir}/tests/server_test"
# The fault plan is consumed from serial protocol code while Phase 1/2
# kernels fan out over worker threads; TSAN proves the combination is clean.
run_suite "${build_dir}/tests/faults_test"
# Defense screening reduces pooled coherence/residual statistics across the
# pool; TSAN proves the disjoint-slot parallel writes really are disjoint.
run_suite "${build_dir}/tests/defense_test"
# The observability layer records from every worker thread; run its suites
# under TSAN too (trace recorder, metrics registry, log sink, and the run
# ledger: the journal's mutex-guarded global log plus the profile builder
# folding per-thread trace buffers while the pool is live).
run_suite "${build_dir}/tests/trace_test"
run_suite "${build_dir}/tests/journal_test"
run_suite "${build_dir}/tests/logging_test"
# The blocked GEMM/Syrk engine packs on the caller thread and fans the
# micro-block loop out over the pool; TSAN checks the arena handoff, at
# every row count 1..100 (GemmRouteTest's remainder-tile cases, whose last
# row tiles run 8 or 16 rows wide, at 1, 2 and 8 threads).
run_suite "${build_dir}/tests/blas_test"
# BatchedPrincipalSubspace fans panels out with ParallelFor, each slot
# running Syrk/Gemm (on the GEMM tier) or the looped SVD; TSAN proves the
# per-slot writes really are disjoint.
run_suite "${build_dir}/tests/batch_test"
# The blocked tridiagonalization threads its GEMM trailing updates, panel
# matvecs and compact-WY back-transform (svd_eig_test); QR and the Jacobi
# SVD run at one thread.
run_suite "${build_dir}/tests/qr_cholesky_test"
run_suite "${build_dir}/tests/svd_eig_test"
# Dense spectral clustering and the eigengap split the affinity into
# connected components and reduce each block with the threaded blocked
# tridiagonalization; the windowed back-transform threads its block
# reflectors.
run_suite "${build_dir}/tests/cluster_test"
run_suite "${build_dir}/tests/graph_test"
# The sketched central path fans per-column draws, the single-threaded
# 256-column blocks of the one SSC-ADMM column solver, leverage-key
# selection, and the Nystrom core/extension GEMVs over the pool, all writing
# disjoint slots; TSAN proves the slots really are disjoint for nt in
# {1, 2, 8}.
run_suite "${build_dir}/tests/sketch_test"
# The exact SSC-ADMM solve runs the same column solver as one threaded block
# of all N columns: its Z-update GEMMs and its soft-threshold pass write C,
# U and the next Z-update input over disjoint column panels; TSAN proves the
# panels really are disjoint.
run_suite "${build_dir}/tests/sc_test"

# Forced-generic pass: FEDSC_FORCE_ISA pins the portable micro-kernel tier,
# so the threaded packing/fan-out paths are race-checked on the exact code
# the generic dispatch runs (the intrinsic tiers share the same driver; the
# micro-kernels themselves touch only disjoint accumulators).
FEDSC_FORCE_ISA=generic print_tier "TSAN forced-generic" "${build_dir}"
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/blas_test"
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/batch_test"
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/parallel_determinism_test"
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/sketch_test"
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/sc_test"
# The server's warm re-clusters carry one solve's iterate into the next; its
# multi-call tests check the labels stay bit-identical across thread counts
# on the generic tier too.
FEDSC_FORCE_ISA=generic run_suite "${build_dir}/tests/server_test"

echo "TSAN: all threaded suites passed with zero reported races."

asan_dir="${repo_root}/build-asan"

cmake -S "${repo_root}" -B "${asan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEDSC_SANITIZE=address

cmake --build "${asan_dir}" -j "$(nproc)" \
  --target faults_test defense_test server_test blas_test batch_test \
  parallel_determinism_test qr_cholesky_test svd_eig_test codec_test \
  wire_fuzz_test journal_test sketch_test sc_test edge_cases_test fed_test \
  fedsc_test sparse_lanczos_test cluster_test graph_test fedsc_cli

print_tier "ASAN" "${asan_dir}"
run_suite "${asan_dir}/tests/faults_test"
# Screening indexes per-sample peer lists and per-device slots built from
# attacker-controlled pool shapes; ASAN gates the indexing.
run_suite "${asan_dir}/tests/defense_test"
# The server state-machine fuzz feeds NaN columns, wrong dimensions,
# truncated / bit-flipped wire bytes, and duplicated uploads through every
# call; ASAN gates the per-upload column maps and the pooled-label scatter.
run_suite "${asan_dir}/tests/server_test"
# Packing writes into 64-byte-aligned arenas with zero-padded edge
# micro-panels, and the AVX-512 remainder tiles read the top 8 or 16 rows
# of a 24-row panel into a 24-row acc buffer; ASAN is the gate for an
# off-by-one on the ragged tails.
run_suite "${asan_dir}/tests/blas_test"
# The Gram route gathers ragged member panels and slices the top eigenvector
# columns; ASAN gates the gather and the per-slot indexing.
run_suite "${asan_dir}/tests/batch_test"
run_suite "${asan_dir}/tests/parallel_determinism_test"
# Panel factorization indexes ragged tails (m % panel, n % panel); ASAN is
# the gate for an off-by-one in the V/T/corner copies.
run_suite "${asan_dir}/tests/qr_cholesky_test"
run_suite "${asan_dir}/tests/svd_eig_test"
# The component split gathers each component's rows and columns, and the
# merged window scatters block eigenvectors into embedding columns; ASAN
# gates that index arithmetic.
run_suite "${asan_dir}/tests/cluster_test"
run_suite "${asan_dir}/tests/graph_test"
# The wire decoder faces attacker-shaped bytes (truncation, length lies,
# dtype confusion); the fuzzer's >= 10k mutations under ASAN are the
# no-out-of-bounds-read proof, and the codec property suite covers the
# round-trip paths the mutations start from.
run_suite "${asan_dir}/tests/codec_test"
run_suite "${asan_dir}/tests/wire_fuzz_test"
# The journal/report path renders every event payload into strings and the
# profiler walks raw trace buffers; ASAN gates the string/buffer handling.
run_suite "${asan_dir}/tests/journal_test"
# The sketched path gathers landmark columns, scatters top-q triplets
# through touched-list scratch resets, and indexes per-atom core rows; ASAN
# is the gate for an off-by-one in the gather/scatter index arithmetic.
run_suite "${asan_dir}/tests/sketch_test"
# The ADMM column solver indexes Z-update scratch whose row count depends on
# the factored/direct operator shape, for one N-column block (exact) or
# 256-column blocks (sketched); ASAN gates that indexing.
run_suite "${asan_dir}/tests/sc_test"
# The tol = 1e-8 KKT solve runs the full iteration budget, re-forming the
# Z-update operator and rescaling the dual at every residual-balancing rho
# change; ASAN gates the operator swaps and the rescale passes.
run_suite "${asan_dir}/tests/edge_cases_test"
# The channel and privacy plumbing: encode/decode round trips through the
# codec, retry/backoff bookkeeping, and the Gaussian mechanism's in-place
# column clipping; ASAN gates the buffer handling.
run_suite "${asan_dir}/tests/fed_test"
# RunFedSc end to end: the server intake indexes truncated and duplicated
# payload columns, and Phase 3 aligns each device's assignments to its
# honest upload; ASAN gates both.
run_suite "${asan_dir}/tests/fedsc_test"
# CSR assembly sorts and merges triplets into row pointers, and subspace
# iteration (the sparse spectral-clustering backend) walks them per matvec;
# ASAN gates the row-pointer and column-index arithmetic.
run_suite "${asan_dir}/tests/sparse_lanczos_test"

# Forced-generic pass, mirroring the TSAN one: the ragged packed-panel
# tails differ per micro-tile shape, so the generic tier's edge handling
# gets its own ASAN run.
FEDSC_FORCE_ISA=generic print_tier "ASAN forced-generic" "${asan_dir}"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/blas_test"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/batch_test"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/parallel_determinism_test"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/sketch_test"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/sc_test"
FEDSC_FORCE_ISA=generic run_suite "${asan_dir}/tests/edge_cases_test"

echo "ASAN: fault-injection, codec, and wire-fuzz suites passed with zero"
echo "reported errors."

# Portable pass: a Release build without -march=native. Presetting the
# cache variable check_cxx_compiler_flag writes skips the probe, so the
# 8-lane vector code of the ADMM C-update is lowered to the baseline ISA
# (SSE2 on x86-64) and must still build and reproduce every reference.
# property_test adds TscAffinityIgnoresSignFlips and the RunFedSc
# invariances, and edge_cases_test the KKT solve with its many rho
# re-forms, all through the one solver per method. batch_test and the
# extreme-scale cases of edge_cases_test cover the Gram basis route, which
# produces every default-path local basis.
portable_dir="${repo_root}/build-portable"

cmake -S "${repo_root}" -B "${portable_dir}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DFEDSC_HAS_MARCH_NATIVE=OFF

cmake --build "${portable_dir}" -j "$(nproc)" \
  --target sc_test sketch_test parallel_determinism_test blas_test \
  batch_test property_test edge_cases_test fedsc_cli

# On an AVX-512 host this pass runs the AVX-512 tier compiled without FMA
# contraction, where the routes' commits must round as a separate multiply
# and add (linalg/gemm_kernel.h); blas_test's GemmRouteTest checks that,
# the remainder tiles' against a scalar std::fma reference.
print_tier "Portable" "${portable_dir}"
run_suite "${portable_dir}/tests/sc_test"
run_suite "${portable_dir}/tests/sketch_test"
run_suite "${portable_dir}/tests/parallel_determinism_test"
run_suite "${portable_dir}/tests/blas_test"
run_suite "${portable_dir}/tests/batch_test"
run_suite "${portable_dir}/tests/property_test"
run_suite "${portable_dir}/tests/edge_cases_test"

echo "Portable: the baseline-ISA build passed its ADMM, GEMM, basis,"
echo "property and edge-case suites."
