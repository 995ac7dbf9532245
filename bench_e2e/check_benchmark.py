#!/usr/bin/env python3
"""Validates end-to-end benchmark results against BENCHMARK.json.

    check_benchmark.py RESULTS.json [RESULTS.json ...]
    check_benchmark.py --compare BASE.json NEW.json

A results file is one fedsc_e2e result, or {"runs": [...]} as written by
run.py --out. Validation checks, for every run:

  * every metric BENCHMARK.json names for the run's kind (end_to_end for an
    untraced run, per_layer for a traced one) is present, with its unit and
    a sample count;
  * the run's ACC floor holds (90 on noniid2_z160, 99 on tall_d1024 and
    fleet_z2500, 95 on stream_byzantine) and nothing failed (error_rate =
    failed / attempted = 0);
  * threads <= nproc;
  * acc, coverage, uplink_bytes and the label hash are identical across
    the rounds of the run;
  * traced runs: core.replay_conservation in [0.85, 1.15] and
    core.attributed_frac >= 0.95 (not for smoke-size runs, whose
    millisecond rounds are too short for timing checks).

It also prints, informationally, the layer shares the workloads were
designed around (README.md, "Workload design").

--compare prints each end-to-end metric's median change against its bound
(REGRESSION when worse by more than the bound) and, when both files hold
traced runs, the per-layer self time that moved most on each workload.

Exit status: 0 when every check passes (and, with --compare, no metric
regressed), 1 otherwise. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ACC_FLOOR = {"noniid2_z160": 90.0, "stream_byzantine": 95.0}
DEFAULT_ACC_FLOOR = 99.0
CONSERVATION = (0.85, 1.15)
MIN_ATTRIBUTED = 0.95

# Per-layer metrics that are one layer's self time (the --compare
# attribution ranks these; aggregates and percentiles are left out).
LAYER_SELF_TIMES = [
    "core.local.other_s", "sc.local.self_expression_s", "sc.local.affinity_s",
    "graph.local.eigengap_s", "cluster.local.spectral_s",
    "linalg.local.basis_s", "sc.central.affinity_s",
    "cluster.central.spectral_s", "fed.encode_s", "fed.decode_s",
    "fed.validate_s", "fed.screen_s", "core.server.assign_s",
]

# (workload, description, share numerator metrics, denominator, op, bound)
DESIGN = [
    ("noniid2_z160", "local self-expression", ["sc.local.self_expression_s"],
     "core.replay_s", ">=", 0.60),
    ("noniid2_z160", "central stage",
     ["sc.central.affinity_s", "cluster.central.spectral_s"],
     "core.replay_s", "<=", 0.10),
    ("noniid2_z160", "local basis", ["linalg.local.basis_s"],
     "core.replay_s", "<=", 0.05),
    ("tall_d1024", "local basis", ["linalg.local.basis_s"],
     "core.replay_s", ">=", 0.15),
    ("fleet_z2500", "local self-expression", ["sc.local.self_expression_s"],
     "core.replay_s", "<=", 0.15),
    ("fleet_z2500", "central stage",
     ["sc.central.affinity_s", "cluster.central.spectral_s"],
     "core.replay_s", ">=", 0.70),
    ("stream_byzantine", "Cluster() calls of the pass",
     ["core.central_s"], "core.round_s", ">=", 0.70),
]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_runs(path):
    data = json.loads(Path(path).read_text())
    return data["runs"] if isinstance(data, dict) and "runs" in data else [data]


def validate_run(run, spec, timing=True):
    """Problems with one fedsc_e2e result; empty when it passes.

    timing=False leaves out the traced run's timing checks: each is a ratio
    of two timings, which a burst of load on a shared host can push past its
    limit while every output is still correct.
    """
    problems = []
    workload = run.get("workload")
    if workload not in {w["name"] for w in spec["workloads"]}:
        return [f"unknown workload {workload!r}"]
    where = f"{workload} seed {run.get('seed')}"
    section = "per_layer" if run.get("traced") else "end_to_end"
    metrics = run.get("metrics", {})
    for m in spec[section]:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(got.get("samples"), int) or got["samples"] < 1:
            problems.append(f"{where}: {m['name']} has no sample count")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} has no numeric value")

    if not run.get("correct"):
        problems.append(f"{where}: the run reports incorrect output: "
                        f"{run.get('problems')}")
    if run.get("failed", 1) != 0 or run.get("attempted", 0) < 1:
        problems.append(f"{where}: error_rate is {run.get('failed')}/"
                        f"{run.get('attempted')}, expected 0")
    if run.get("threads", 0) > run.get("nproc", 0):
        problems.append(f"{where}: threads {run.get('threads')} > nproc "
                        f"{run.get('nproc')}")
    floor = ACC_FLOOR.get(workload, DEFAULT_ACC_FLOOR)
    per_round = run.get("per_round", {})
    for key in ("acc", "coverage", "uplink_bytes", "labels"):
        values = per_round.get(key, [])
        if not values or any(v != values[0] for v in values):
            problems.append(f"{where}: {key} differs across rounds: {values}")
    if any(a < floor for a in per_round.get("acc", [])):
        problems.append(f"{where}: acc below the floor {floor}: "
                        f"{per_round.get('acc')}")
    if timing and run.get("traced") and not run.get("smoke"):
        value = lambda name: metrics.get(name, {}).get("value", float("nan"))
        conservation = value("core.replay_conservation")
        if not CONSERVATION[0] <= conservation <= CONSERVATION[1]:
            problems.append(f"{where}: core.replay_conservation {conservation} "
                            f"outside {list(CONSERVATION)}")
        if not value("core.attributed_frac") >= MIN_ATTRIBUTED:
            problems.append(f"{where}: core.attributed_frac "
                            f"{value('core.attributed_frac')} < {MIN_ATTRIBUTED}")
    return problems


def design_lines(run):
    lines = []
    metrics = run["metrics"]
    for workload, what, parts, base, op, bound in DESIGN:
        if workload != run["workload"] or base not in metrics:
            continue
        share = sum(metrics[p]["value"] for p in parts) / metrics[base]["value"]
        held = share >= bound if op == ">=" else share <= bound
        lines.append(f"  design {workload}: {what} = {share:.1%} of {base} "
                     f"(designed {op} {bound:.0%}): {'holds' if held else 'MISSED'}")
    return lines


def medians(runs, traced):
    """{workload: {metric: median over the runs}} for one run kind."""
    by_workload = {}
    for run in runs:
        if bool(run.get("traced")) != traced:
            continue
        for name, metric in run["metrics"].items():
            by_workload.setdefault(run["workload"], {}).setdefault(
                name, []).append(metric["value"])
    return {w: {n: statistics.median(v) for n, v in m.items()}
            for w, m in by_workload.items()}


def compare(base_runs, new_runs, spec):
    regressed = False
    base, new = medians(base_runs, False), medians(new_runs, False)
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for m in spec["end_to_end"]:
            a, b = base[workload].get(m["name"]), new[workload].get(m["name"])
            if a is None or b is None or a == 0:
                continue
            change = (b - a) / abs(a)
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
            print(f"  {m['name']:<14} {a:>14.6g} -> {b:<14.6g} {change:+8.2%} "
                  f"(bound {m['bound']:.0%} {m['better']} is better) {verdict}")
    base_t, new_t = medians(base_runs, True), medians(new_runs, True)
    for workload in sorted(set(base_t) & set(new_t)):
        deltas = [(new_t[workload][n] - base_t[workload][n], n)
                  for n in LAYER_SELF_TIMES
                  if n in base_t[workload] and n in new_t[workload]]
        if deltas:
            delta, name = max(deltas, key=lambda d: abs(d[0]))
            print(f"{workload}: largest per-layer self-time change is {name} "
                  f"{delta:+.6f} s per round ({base_t[workload][name]:.6f} -> "
                  f"{new_t[workload][name]:.6f})")
    return regressed


def main():
    parser = argparse.ArgumentParser(
        description="Validate or compare end-to-end benchmark results.")
    parser.add_argument("results", nargs="*", help="results files to validate")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if not args.results and not args.compare:
        parser.error("give results files to validate, or --compare BASE NEW")
    spec = load_spec()

    failed = False
    paths = list(args.results) + (list(args.compare) if args.compare else [])
    for path in paths:
        for run in load_runs(path):
            problems = validate_run(run, spec)
            status = "FAIL" if problems else "ok"
            kind = "traced" if run.get("traced") else "untraced"
            print(f"{path}: {run.get('workload')} seed {run.get('seed')} "
                  f"{kind}: {status}")
            for problem in problems:
                print(f"  {problem}")
            if run.get("traced") and not run.get("smoke"):
                print("\n".join(design_lines(run)))
            failed |= bool(problems)
    if args.compare:
        failed |= compare(load_runs(args.compare[0]),
                          load_runs(args.compare[1]), spec)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
