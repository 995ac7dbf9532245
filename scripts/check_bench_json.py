#!/usr/bin/env python3
"""Validates the committed BENCH_linalg.json performance baseline.

Stdlib only. Checks the schema produced by scripts/bench_baseline.sh: the
baseline comes from a Release build, every tracked size/shape is present,
every rate is a positive finite number, the derived ratios are consistent
with their components, the acceptance floors for the Syrk-Gram, best-ISA
GEMM, batched-basis and sketched-central speedups hold, and the
Byzantine-defense accuracy floors on the colluding robustness sweep hold.
Thread rows that ask for more threads than the bench host had
(context.num_cpus) are reported as oversubscribed and never feed a floor:
their rate measures time slicing, not the kernel. Wired into
scripts/run_all.sh so a refresh that drops a field, regresses past a floor,
or was generated from a non-Release tree fails loudly.
"""

import argparse
import json
import math
import sys

GEMM_SIZES = ("64", "256", "512", "1024")
TT_SIZES = ("256", "512")
THREADS = ("1", "8")
EIG_SIZES = ("256", "512")

# Floors for the ratios recorded by the run that produced the baseline.
MIN_GRAM512_SYRK_OVER_GEMM = 1.5
# Sizes the per-ISA GEMM sweep (BM_GemmIsa) must report, the tiers a host
# may report (generic is mandatory; SIMD tiers appear only where the bench
# host can execute them), and the floor: the best runtime-dispatched tier
# must beat the generic kernel by >= 1.25x at n=512, single thread.
ISA_SIZES = ("512", "1024")
ISA_TIERS = ("generic", "avx2", "avx512")
MIN_ISA_BEST_OVER_GENERIC_512 = 1.25
# Batch sizes the batched-basis sweep (BM_BatchedBasis, D=256 x n=32 rank-4
# panels) must report, and the floor: the batched Gram engine must be >= 2x
# the looped per-panel SVD at the fleet-scale batch of 1024.
BATCHED_BASIS_BATCHES = ("64", "1024")
MIN_BATCHED_BASIS_SPEEDUP_1024 = 2.0
# Byzantine-defense floors on the colluding sweep (bench/fig_robustness.cc
# `robustness` section): at the 20% colluding rate the defended run must
# beat the undefended one by at least this many accuracy points, and stay
# within this many points of the fault-free run.
MIN_DEFENDED_MARGIN_AT_02 = 10.0
MAX_DEFENDED_GAP_TO_CLEAN_AT_02 = 5.0
# Colluding rates the robustness sweep must report.
ROBUSTNESS_RATES = ("0.0", "0.1", "0.2", "0.3")
# Pooled-sample counts the central-scaling sweep (bench/fig_scaling.cc)
# must report. The exact engine is measured only while feasible on one
# core; skipped points must say so explicitly (exact_skipped), and the
# acceptance pair is taken at the largest N where both engines ran.
SCALING_NS = ("2000", "10000", "50000", "100000")
# Sketched-vs-exact floors at the largest compared N: the sketched engine
# must be at least this much faster while staying within this many ACC
# points of the exact one.
MIN_SKETCHED_SPEEDUP = 10.0
MAX_SKETCHED_ACC_GAP = 2.0
# Codecs the comm_cost frontier must report (bench/comm_cost.cc RunFrontier).
COMM_CODECS = (
    "raw_f64", "raw_f32", "quant_16", "quant_8", "quant_4", "quant_2",
)

_errors = []
_oversubscribed = []


def err(msg):
    _errors.append(msg)


def thread_rows(doc, blocked):
    """Yields (n, threads, rate), marking rows oversubscribed on this host."""
    num_cpus = doc.get("context", {}).get("num_cpus")
    if (
        not isinstance(num_cpus, int)
        or isinstance(num_cpus, bool)
        or num_cpus < 1
    ):
        err(f"context.num_cpus: expected a positive count, got {num_cpus!r}")
        num_cpus = 1
    for n in GEMM_SIZES:
        for t in THREADS:
            rate = blocked.get(n, {}).get(t)
            if int(t) > num_cpus:
                _oversubscribed.append(f"gemm_blocked_gflops[{n}][{t}]")
            yield n, t, rate


def positive(value, what):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        err(f"{what}: expected a number, got {value!r}")
        return False
    if not math.isfinite(value) or value <= 0.0:
        err(f"{what}: expected a positive finite number, got {value!r}")
        return False
    return True


def check_ratio_entry(entry, where, num_key, den_key, ratio_key):
    """Checks num/den/ratio are positive and ratio == num/den."""
    ok = positive(entry.get(num_key), f"{where}.{num_key}")
    ok &= positive(entry.get(den_key), f"{where}.{den_key}")
    ok &= positive(entry.get(ratio_key), f"{where}.{ratio_key}")
    if ok:
        derived = entry[num_key] / entry[den_key]
        if abs(derived - entry[ratio_key]) > 0.01:
            err(
                f"{where}.{ratio_key} {entry[ratio_key]} inconsistent with "
                f"{num_key}/{den_key} = {derived:.3f}"
            )
    return ok


def check(doc):
    if doc.get("schema") != "fedsc-bench-baseline-v1":
        err(f"unexpected schema id: {doc.get('schema')!r}")

    # The baseline is meaningless unless the fedsc kernels were built
    # Release; bench_baseline.sh records the verified CMake build type here.
    build_type = doc.get("context", {}).get("library_build_type")
    if build_type != "release":
        err(
            f"context.library_build_type is {build_type!r}, expected "
            "'release': regenerate the baseline with scripts/bench_baseline.sh "
            "from a Release tree"
        )

    blocked = doc.get("gemm_blocked_gflops", {})
    for n, t, rate in thread_rows(doc, blocked):
        positive(rate, f"gemm_blocked_gflops[{n}][{t}]")

    tt = doc.get("gemm_tt_gflops", {})
    for n in TT_SIZES:
        positive(tt.get(n, {}).get("packed"), f"gemm_tt_gflops[{n}][packed]")

    gram = doc.get("gram", {})
    for n in GEMM_SIZES:
        check_ratio_entry(
            gram.get(n, {}), f"gram[{n}]", "syrk_gflops", "gemm_gflops",
            "ratio",
        )

    eig = doc.get("eig_tridiag", {})
    for n in EIG_SIZES:
        for key in ("full", "values"):
            check_ratio_entry(
                eig.get(n, {}).get(key, {}), f"eig_tridiag[{n}].{key}",
                "blocked_gflops", "unblocked_gflops", "speedup",
            )

    isa = doc.get("isa_dispatch", {})
    for n in ISA_SIZES:
        entry = isa.get(n)
        if not isinstance(entry, dict) or "generic" not in entry:
            err(f"isa_dispatch[{n}]: missing the generic rate")
            continue
        for tier, rate in entry.items():
            if tier not in ISA_TIERS:
                err(f"isa_dispatch[{n}]: unknown tier {tier!r}")
            positive(rate, f"isa_dispatch[{n}][{tier}]")
    at_512 = isa.get("512", {})
    best_over_generic = doc.get("acceptance", {}).get(
        "isa_best_over_generic_512"
    )
    if (
        isinstance(at_512, dict)
        and at_512.get("generic")
        and isinstance(best_over_generic, (int, float))
    ):
        derived = max(at_512.values()) / at_512["generic"]
        if abs(derived - best_over_generic) > 0.01:
            err(
                f"acceptance.isa_best_over_generic_512 {best_over_generic} "
                f"inconsistent with isa_dispatch[512] = {derived:.3f}"
            )

    batched_basis = doc.get("batched_basis", {})
    for b in BATCHED_BASIS_BATCHES:
        check_ratio_entry(
            batched_basis.get(b, {}), f"batched_basis[{b}]",
            "batched_panels_per_s", "looped_panels_per_s", "speedup",
        )

    comm = doc.get("comm_cost", {})
    frontier = comm.get("frontier", {})
    raw_bytes = None
    for codec in COMM_CODECS:
        entry = frontier.get(codec, {})
        where = f"comm_cost.frontier[{codec}]"
        acc = entry.get("acc")
        if positive(acc, f"{where}.acc") and acc > 100.0:
            err(f"{where}.acc {acc} is not a percentage in (0, 100]")
        ok = positive(entry.get("wire_bytes"), f"{where}.wire_bytes")
        ok &= positive(entry.get("reduction"), f"{where}.reduction")
        if codec == "raw_f64" and ok:
            raw_bytes = entry["wire_bytes"]
        if ok and raw_bytes is not None:
            derived = raw_bytes / entry["wire_bytes"]
            if abs(derived - entry["reduction"]) > 0.01:
                err(
                    f"{where}.reduction {entry['reduction']} inconsistent "
                    f"with raw_f64/{codec} bytes = {derived:.3f}"
                )

    robustness = doc.get("robustness", {})
    collude = robustness.get("collude", {})
    for rate in ROBUSTNESS_RATES:
        entry = collude.get(rate, {})
        where = f"robustness.collude[{rate}]"
        for key in ("undefended_acc", "defended_acc"):
            acc = entry.get(key)
            if positive(acc, f"{where}.{key}") and acc > 100.0:
                err(f"{where}.{key} {acc} is not a percentage in (0, 100]")
        screened = entry.get("screened_devices")
        if not isinstance(screened, int) or screened < 0:
            err(f"{where}.screened_devices: expected a count, got {screened!r}")
    clean_acc = robustness.get("clean_acc")
    positive(clean_acc, "robustness.clean_acc")
    at_02 = collude.get("0.2", {})
    if (
        positive(clean_acc, "robustness.clean_acc")
        and positive(at_02.get("defended_acc"), "robustness at 0.2")
        and positive(at_02.get("undefended_acc"), "robustness at 0.2")
    ):
        margin = at_02["defended_acc"] - at_02["undefended_acc"]
        if margin < MIN_DEFENDED_MARGIN_AT_02:
            err(
                f"defended-vs-undefended margin {margin:.2f} at 20% colluding "
                f"Byzantine below the {MIN_DEFENDED_MARGIN_AT_02}-point floor"
            )
        gap = clean_acc - at_02["defended_acc"]
        if gap > MAX_DEFENDED_GAP_TO_CLEAN_AT_02:
            err(
                f"defended accuracy trails the fault-free run by {gap:.2f} "
                f"points at 20% colluding Byzantine, above the "
                f"{MAX_DEFENDED_GAP_TO_CLEAN_AT_02}-point ceiling"
            )

    scaling = doc.get("central_scaling", {})
    sweep = scaling.get("sweep", {})
    largest_compared = None
    for n in SCALING_NS:
        entry = sweep.get(n, {})
        where = f"central_scaling.sweep[{n}]"
        if not entry:
            err(f"{where}: missing sweep point")
            continue
        positive(entry.get("sketched_s"), f"{where}.sketched_s")
        acc = entry.get("sketched_acc")
        if positive(acc, f"{where}.sketched_acc") and acc > 100.0:
            err(f"{where}.sketched_acc {acc} is not a percentage in (0, 100]")
        if entry.get("exact_skipped"):
            continue
        ok = positive(entry.get("exact_s"), f"{where}.exact_s")
        ok &= positive(entry.get("speedup"), f"{where}.speedup")
        if ok:
            derived = entry["exact_s"] / entry["sketched_s"]
            # exact_s/sketched_s are rounded to 1 ms in the sweep JSON while
            # speedup was computed from the unrounded times, so the derived
            # ratio carries up to 0.5 ms of rounding per operand; propagate
            # that into the tolerance so short sketched runs don't flag.
            tol = 0.01 + 0.0005 * (1.0 + entry["speedup"]) / entry["sketched_s"]
            if abs(derived - entry["speedup"]) > tol:
                err(
                    f"{where}.speedup {entry['speedup']} inconsistent with "
                    f"exact_s/sketched_s = {derived:.3f}"
                )
            largest_compared = (int(n), entry)
    if largest_compared is None:
        err(
            "central_scaling: no sweep point measured both engines; the "
            "speedup/ACC floors have nothing to bind to"
        )
    else:
        n, entry = largest_compared
        accepted = scaling.get("acceptance", {})
        if accepted.get("largest_compared_n") != n:
            err(
                f"central_scaling.acceptance.largest_compared_n "
                f"{accepted.get('largest_compared_n')!r} does not match the "
                f"sweep's largest both-engine point {n}"
            )
        speedup = entry.get("speedup", 0.0)
        if speedup < MIN_SKETCHED_SPEEDUP:
            err(
                f"sketched-vs-exact speedup {speedup} at N={n} below the "
                f"{MIN_SKETCHED_SPEEDUP}x floor"
            )
        gap = entry.get("acc_gap")
        if not isinstance(gap, (int, float)) or isinstance(gap, bool):
            err(f"central_scaling.sweep[{n}].acc_gap: expected a number")
        elif abs(gap) > MAX_SKETCHED_ACC_GAP:
            err(
                f"sketched ACC trails exact by {gap:.2f} points at N={n}, "
                f"outside the {MAX_SKETCHED_ACC_GAP}-point band"
            )

    acceptance = doc.get("acceptance", {})
    floors = (
        ("gram512_syrk_over_gemm", MIN_GRAM512_SYRK_OVER_GEMM,
         "Syrk Gram n=512 speedup"),
        ("isa_best_over_generic_512", MIN_ISA_BEST_OVER_GENERIC_512,
         "best-ISA over generic GEMM at n=512"),
        ("batched_basis_speedup_1024", MIN_BATCHED_BASIS_SPEEDUP_1024,
         "batched-vs-looped basis speedup at batch=1024"),
    )
    for key, floor, what in floors:
        value = acceptance.get(key)
        if positive(value, f"acceptance.{key}"):
            if value < floor:
                err(f"{what} {value} below the {floor}x floor")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "path", nargs="?", default="BENCH_linalg.json",
        help="baseline file to validate",
    )
    args = parser.parse_args()

    try:
        with open(args.path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.path}: {e}", file=sys.stderr)
        return 1

    check(doc)
    if _errors:
        for msg in _errors:
            print(f"{args.path}: {msg}", file=sys.stderr)
        return 1
    if _oversubscribed:
        print(
            f"{args.path}: oversubscribed (threads > context.num_cpus, kept "
            f"out of every floor): {', '.join(_oversubscribed)}"
        )
    print(f"{args.path}: baseline OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
