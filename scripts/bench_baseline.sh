#!/usr/bin/env bash
# Regenerates BENCH_linalg.json, the committed performance baseline for the
# matrix-product and factorization engines: blocked GEMM GFLOP/s per thread
# count and per ISA tier, the TT rate, the Syrk-vs-GEMM Gram ratio, the
# blocked-vs-unblocked tridiagonalization rates, the batched-vs-looped basis
# rates, and the exact-vs-sketched central-clustering N-sweep
# (bench_e2e/ times end-to-end rounds, with a per-layer breakdown). Run
# after any change to the linalg kernels and commit the refreshed file so
# perf regressions show up in review as a diff, not a surprise.
#
# The baseline MUST come from a Release build of the fedsc kernels: a Debug
# or unset-CMAKE_BUILD_TYPE run produces numbers that are 5-20x off and the
# acceptance floors become meaningless. This script therefore configures its
# own Release tree (build-release/ by default, override with BENCH_BUILD_DIR)
# and refuses to run benches from a tree whose cached CMAKE_BUILD_TYPE is
# anything else. Note google-benchmark's own JSON context reports the
# *benchmark library's* build type, not fedsc's (Debian ships a "debug"
# libbenchmark), so the context.library_build_type recorded below is taken
# from the verified CMake cache instead of trusted from the library.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BENCH_BUILD_DIR:-${repo_root}/build-release}"

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
fi

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "${build_dir}/CMakeCache.txt" | head -n 1)"
if [ "${build_type}" != "Release" ]; then
  echo "bench_baseline.sh: refusing to benchmark a non-Release build." >&2
  echo "  ${build_dir}/CMakeCache.txt has CMAKE_BUILD_TYPE='${build_type}'" >&2
  echo "  (expected 'Release'). Point BENCH_BUILD_DIR at a Release tree or" >&2
  echo "  remove '${build_dir}' and rerun to let this script configure one." >&2
  exit 1
fi

cmake --build "${build_dir}" --target micro_linalg comm_cost \
  fig_robustness fig_scaling -j "$(nproc)"

raw_dir="$(mktemp -d)"
trap 'rm -rf "${raw_dir}"' EXIT

# The product engines plus the level-3 factorization stack feed the
# baseline; the sparse/Lanczos benches stay out so a refresh stays bounded.
# The 2s minimum measuring time (default 0.5s) smooths out background-load
# bursts on a shared single-core host — the acceptance ratios below compare
# rates across benches, so a burst hitting only one of them skews a floor.
"${build_dir}/bench/micro_linalg" \
  --benchmark_filter='BM_Gemm|BM_Syrk|BM_EigVariant|BM_EigValuesVariant|BM_BatchedBasis' \
  --benchmark_min_time=2 \
  --benchmark_format=json > "${raw_dir}/linalg.json"
# Serialized-codec accuracy-vs-bits frontier (deterministic bytes and ACC,
# so its rows are correctness records, not perf ones).
"${build_dir}/bench/comm_cost" --json-out="${raw_dir}/comm.json" \
  > /dev/null
# Byzantine-defense colluding sweep (deterministic accuracies, so the
# defended-accuracy floors are correctness gates, not perf ones).
"${build_dir}/bench/fig_robustness" \
  --json-out="${raw_dir}/robustness.json" > /dev/null 2>&1
# Central-clustering N-sweep, exact vs sketched engine. The exact engine is
# measured only up to its single-core feasibility cap; the sketched floors
# bind at the largest N where both ran (bench/fig_scaling.cc).
"${build_dir}/bench/fig_scaling" \
  --json-out="${raw_dir}/scaling.json" > /dev/null

python3 - "${raw_dir}/linalg.json" "${build_type}" \
  "${repo_root}/BENCH_linalg.json" "${raw_dir}/comm.json" \
  "${raw_dir}/robustness.json" "${raw_dir}/scaling.json" <<'PY'
import json
import sys

linalg = json.load(open(sys.argv[1]))
fedsc_build_type = sys.argv[2].lower()


def rows(report):
    # UseRealTime() benches report as "<name>/real_time"; key them by the
    # registered name like every other row.
    return {
        b["name"].removesuffix("/real_time"): b
        for b in report["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"
    }


L = rows(linalg)


def gflops(name):
    return round(L[name]["items_per_second"] / 1e9, 3)


sizes = [64, 256, 512, 1024]
EIG_SIZES = [256, 512]

context = {
    k: linalg["context"].get(k)
    for k in ("host_name", "num_cpus", "mhz_per_cpu")
    if k in linalg["context"]
}
# Recorded from the verified CMake cache of the tree that built the fedsc
# kernels -- NOT from google-benchmark's self-reported library_build_type,
# which describes libbenchmark itself (Debian ships a "debug" one).
context["library_build_type"] = fedsc_build_type

out = {
    "schema": "fedsc-bench-baseline-v1",
    "generated_by": "scripts/bench_baseline.sh",
    "context": context,
    # Blocked packed engine (Gemm's path at these sizes), 1 and 8 threads,
    # on the wall clock. check_bench_json.py marks thread counts above
    # context.num_cpus oversubscribed and keeps them out of every floor.
    "gemm_blocked_gflops": {
        str(n): {
            "1": gflops(f"BM_GemmNNThreads/{n}/1"),
            "8": gflops(f"BM_GemmNNThreads/{n}/8"),
        }
        for n in sizes
    },
    # A^T B^T: packing absorbs the transpose.
    "gemm_tt_gflops": {
        str(n): {"packed": gflops(f"BM_GemmTT/{n}")} for n in (256, 512)
    },
    # Gram hot path: Syrk (lower triangle + mirror) vs full GEMM. Both rates
    # count the same useful 2*n^2*k flops, so ratio > 1 is end-to-end win.
    "gram": {},
    # Blocked (latrd-style) vs element-wise tridiagonalization inside the
    # full eigendecomposition and the values-only path (4 n^3 / 3 flops).
    "eig_tridiag": {},
}
# Per-ISA micro-kernel rates for the blocked GEMM engine (BM_GemmIsa runs
# BlockedGemm on each tier). Tiers the bench host cannot execute are
# skipped by the bench and simply absent here; "generic" always runs.
ISA_TIERS = {0: "generic", 1: "avx2", 2: "avx512"}
out["isa_dispatch"] = {}
for n in (512, 1024):
    entry = {}
    for idx, tier in ISA_TIERS.items():
        row = L.get(f"BM_GemmIsa/{n}/{idx}")
        if row is None or row.get("error_occurred"):
            continue
        entry[tier] = round(row["items_per_second"] / 1e9, 3)
    out["isa_dispatch"][str(n)] = entry
# Batched basis estimation over D=256 x n=32 rank-4 panels: the Gram route
# vs the looped per-panel SVD (BM_BatchedBasis; rates are panels/s).
out["batched_basis"] = {}
for batch in (64, 1024):
    looped = L[f"BM_BatchedBasis/{batch}/0"]["items_per_second"]
    batched = L[f"BM_BatchedBasis/{batch}/1"]["items_per_second"]
    out["batched_basis"][str(batch)] = {
        "shape": "D=256,n=32,rank=4",
        "looped_panels_per_s": round(looped, 1),
        "batched_panels_per_s": round(batched, 1),
        "speedup": round(batched / looped, 3),
    }
for n in sizes:
    syrk = gflops(f"BM_SyrkGram/{n}")
    gemm = gflops(f"BM_GemmGram/{n}")
    out["gram"][str(n)] = {
        "syrk_gflops": syrk,
        "gemm_gflops": gemm,
        "ratio": round(syrk / gemm, 3),
    }
for n in EIG_SIZES:
    entry = {}
    for key, bench in (
        ("full", "BM_EigVariant"),
        ("values", "BM_EigValuesVariant"),
    ):
        unblocked = gflops(f"{bench}/{n}/0")
        blocked = gflops(f"{bench}/{n}/1")
        entry[key] = {
            "blocked_gflops": blocked,
            "unblocked_gflops": unblocked,
            "speedup": round(blocked / unblocked, 3),
        }
    out["eig_tridiag"][str(n)] = entry
# Serialized uplink codec frontier from bench/comm_cost.cc --json-out.
out["comm_cost"] = json.load(open(sys.argv[4]))["comm_cost"]
# Byzantine-defense colluding sweep from bench/fig_robustness.cc --json-out.
out["robustness"] = json.load(open(sys.argv[5]))["robustness"]
# Exact-vs-sketched central-clustering N-sweep from bench/fig_scaling.cc.
out["central_scaling"] = json.load(open(sys.argv[6]))["central_scaling"]
out["acceptance"] = {
    "gram512_syrk_over_gemm": out["gram"]["512"]["ratio"],
    # Best runtime-dispatched tier over the generic kernel at n=512 (the
    # dispatch win on this host), and the batched-vs-looped basis speedup at
    # the fleet-scale batch.
    "isa_best_over_generic_512": round(
        max(out["isa_dispatch"]["512"].values())
        / out["isa_dispatch"]["512"]["generic"],
        3,
    ),
    "batched_basis_speedup_1024": out["batched_basis"]["1024"]["speedup"],
}

with open(sys.argv[3], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[3]}")
PY

python3 "${repo_root}/scripts/check_bench_json.py" \
  "${repo_root}/BENCH_linalg.json"
