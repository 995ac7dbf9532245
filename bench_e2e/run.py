#!/usr/bin/env python3
"""Builds the end-to-end Fed-SC benchmark and runs it.

One workload, as the benchmark contract runs it (the last stdout line is the
result object; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones):

    python3 bench_e2e/run.py --workload noniid2_z160 --seed 1 --seconds 20 --trace 0

Every workload in sequence, one process each, merged into one results file
for check_benchmark.py (validation and --compare):

    python3 bench_e2e/run.py --seed=1 --out=results.json [--trace 1]

Run from anywhere; paths are resolved against the repository root. The
build goes to $CARGO_TARGET_DIR (default .bench_build) under the root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import check_benchmark  # noqa: E402

BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(jobs):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "fedsc_e2e",
                  "-j", str(jobs)])
    for step in steps:
        # Build logs go to stderr: stdout carries only results.
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return out / "fedsc_e2e"


def run_workload(binary, workload, seed, seconds, threads, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-{seed}.json")]
    # subprocess.run kills the child on timeout and waits for it to exit.
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=BINARY_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def contract_line(result, spec):
    """The result object of the benchmark contract for one run.

    `correct` covers the outputs and the metric set. The traced run's timing
    ratios are printed when out of range but do not make it false.
    """
    problems = check_benchmark.validate_run(result, spec, timing=False)
    for problem in check_benchmark.validate_run(result, spec):
        print(f"check: {problem}", file=sys.stderr)
    section = "per_layer" if result["traced"] else "end_to_end"
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in spec[section] if m["name"] in result["metrics"]}
    return {"correct": bool(result["correct"]) and not problems,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    spec = check_benchmark.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, needs --out)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", help="write the merged results JSON here")
    args = parser.parse_args()
    if args.workload is None and args.out is None:
        parser.error("running every workload needs --out")

    binary = build(max(1, min(3, os.cpu_count() or 1)))
    runs = [run_workload(binary, w, args.seed, args.seconds, args.threads,
                         args.trace)
            for w in ([args.workload] if args.workload else names)]
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    for result in runs:
        print(json.dumps(contract_line(result, spec)))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(1)
