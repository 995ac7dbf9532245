#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (registered as fedsc_e2e_smoke).

Runs every workload at smoke size for one round, untraced and traced, at
--threads 1 and --threads 3 (capped at nproc); validates each output with
check_benchmark.py and asserts the determinism contract: labels, acc and
uplink_bytes are identical across thread counts and across traced and
untraced runs.

    python3 bench_e2e/smoke.py --binary .bench_build/fedsc_e2e --scratch DIR
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_benchmark  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--scratch", required=True,
                        help="directory for the trace files")
    args = parser.parse_args()
    spec = check_benchmark.load_spec()
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    threads = sorted({1, min(3, os.cpu_count() or 1)})

    start = time.monotonic()
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = {}
        for t in threads:
            for traced in (False, True):
                cmd = [args.binary, "--workload", workload, "--smoke",
                       "--threads", str(t)]
                if traced:
                    cmd += ["--trace-out", str(scratch / f"{workload}-{t}.json")]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=120)
                tag = f"{workload} threads={t} traced={traced}"
                if proc.returncode != 0:
                    failures.append(f"{tag}: exit {proc.returncode}: "
                                    f"{proc.stderr[-2000:]}")
                    continue
                run = json.loads(proc.stdout)
                failures += [f"{tag}: {p}"
                             for p in check_benchmark.validate_run(run, spec)]
                rounds = run["per_round"]
                outputs[tag] = (rounds["labels"][0], rounds["acc"][0],
                                rounds["uplink_bytes"][0])
        if len(set(outputs.values())) > 1:
            failures.append(f"{workload}: outputs differ across thread counts "
                            f"or tracing: {outputs}")
        print(f"{workload}: {len(outputs)} runs, outputs "
              f"{'identical' if len(set(outputs.values())) == 1 else 'DIFFER'}")

    print(f"smoke took {time.monotonic() - start:.1f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
