#!/usr/bin/env bash
# Builds the project, runs the full test suite, and regenerates every
# table/figure of the paper, archiving outputs next to the repo root
# (test_output.txt / bench_output.txt) the way EXPERIMENTS.md references.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do
  # Directories (e.g. build/bench/CMakeFiles) pass -x; require a real file.
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "=== $b ==="
  "$b"
done 2>&1 | tee bench_output.txt

# The committed linalg perf baseline must stay well-formed and above the
# acceptance floors (refresh it with scripts/bench_baseline.sh).
python3 scripts/check_bench_json.py BENCH_linalg.json

# Observability smoke test: trace a small end-to-end run and validate the
# exported Chrome trace (every begin matched, timestamps monotone per track).
obs_dir="$(mktemp -d)"
trap 'rm -rf "${obs_dir}"' EXIT
python3 - "${obs_dir}/smoke.csv" <<'PY'
import random
import sys

# 3 well-separated Gaussian blobs in 8 dimensions: label,f1,...,f8 per line.
rng = random.Random(7)
with open(sys.argv[1], "w") as f:
    for label in range(3):
        center = [rng.gauss(0.0, 1.0) * 10.0 for _ in range(8)]
        for _ in range(40):
            row = [str(label)] + [f"{c + rng.gauss(0.0, 0.3):.6f}" for c in center]
            f.write(",".join(row) + "\n")
PY
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 4 --threads 4 --trace-out "${obs_dir}/trace.json" \
  --metrics-out "${obs_dir}/metrics.json"
python3 scripts/validate_trace.py "${obs_dir}/trace.json" \
  --expect-span fedsc/run --expect-span fedsc/phase1/device \
  --expect-span fedsc/phase2/central
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
  "${obs_dir}/metrics.json"
echo "observability smoke test passed"

# Run-report smoke test: a degraded round (dropouts + byzantine payloads +
# wire corruption, with retries) must emit a schema-valid RunReport whose
# journal reconciles with the comm ledger, and the renderer must consume it.
# A bench report (run: null) must validate against the same schema.
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --dropout 0.2 --byzantine 0.2 --wire-corrupt 0.2 \
  --quorum 0.3 --max-attempts 3 \
  --report-out "${obs_dir}/report.json" \
  --journal-out "${obs_dir}/journal.jsonl"
python3 scripts/validate_report.py "${obs_dir}/report.json" \
  --expect-run --expect-events 10
python3 scripts/render_report.py "${obs_dir}/report.json" --journal \
  > /dev/null
test -s "${obs_dir}/journal.jsonl"
build/bench/comm_cost --report-out="${obs_dir}/bench_report.json" > /dev/null
python3 scripts/validate_report.py "${obs_dir}/bench_report.json"
echo "run-report smoke test passed"

# Sketched central-engine smoke test: the same data through the forced
# sketched path (dictionary self-expression + landmark spectral) must
# cluster, journal the dispatch decision on central_start, and emit a
# schema-valid report whose renderer surfaces the chosen path.
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --central sketch --sketch-dim 8 --landmarks leverage \
  --report-out "${obs_dir}/sketched.json" > "${obs_dir}/sketched.out" 2>&1
python3 scripts/validate_report.py "${obs_dir}/sketched.json" --expect-run
python3 scripts/render_report.py "${obs_dir}/sketched.json" \
  > "${obs_dir}/sketched.render"
grep -q "sketched path" "${obs_dir}/sketched.render"
echo "sketched central-engine smoke test passed"

# Robustness smoke test: the same small dataset through a degraded round —
# 30% dropout against a 0.5 quorum with retries must complete, report the
# failed devices, and exit 0; a full blackout must fail with the typed
# quorum status instead of crashing.
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --dropout 0.3 --quorum 0.5 --max-attempts 3
if build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --dropout 1.0 --quorum 0.5 2>"${obs_dir}/quorum.err"; then
  echo "expected the full-dropout run to fail" >&2
  exit 1
fi
grep -q "quorum" "${obs_dir}/quorum.err"
build/bench/fig_robustness --csv > "${obs_dir}/robustness.csv"
grep -q "^0.30," "${obs_dir}/robustness.csv"
# Defended degraded round: colluding Byzantine uploads with the defense on
# must complete under quorum, report the screened-device count in the
# summary, and emit the defense_screened journal events schema-validated by
# validate_report.py above.
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --byzantine 0.3 --byzantine-mode collude --defense on \
  --quorum 0.3 --fault-seed 3 --report-out "${obs_dir}/defended.json" \
  > "${obs_dir}/defended.out" 2>&1
grep -q "devices screened" "${obs_dir}/defended.out"
python3 scripts/validate_report.py "${obs_dir}/defended.json" --expect-run
echo "robustness smoke test passed"

# Wire/codec smoke test: every serialized codec must cluster the smoke data,
# --wire-dump must produce a parseable versioned message (magic "FSCW"), and
# a fully wire-corrupted round must degrade gracefully — corrupt uploads
# rejected as typed wire-corrupt quarantines, never a crash. The decoder
# fuzzer and codec property suites already ran under ctest above.
for codec in raw quant; do
  build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
    --devices 4 --codec "${codec}" --wire-dump "${obs_dir}/up.${codec}.wire"
  head -c 4 "${obs_dir}/up.${codec}.wire" | grep -q "FSCW"
done
build/tools/fedsc_cli --input "${obs_dir}/smoke.csv" --clusters 3 \
  --devices 6 --wire-corrupt 0.4 --quorum 0.3 \
  > "${obs_dir}/corrupt.out" 2>&1
grep -q "wire corrupt" "${obs_dir}/corrupt.out"
echo "wire/codec smoke test passed"

# Forced-ISA smoke test: every micro-kernel tier this host can execute must
# cluster the smoke data end to end, and the dispatched tier must land in
# the report's provenance manifest. --print-isa aborts when FEDSC_FORCE_ISA
# names a tier cpuid rules out, which is exactly the skip probe.
for isa in generic avx2 avx512; do
  if ! FEDSC_FORCE_ISA="${isa}" build/tools/fedsc_cli --print-isa \
      > /dev/null 2>&1; then
    echo "forced-ISA smoke: ${isa} unsupported on this host, skipped"
    continue
  fi
  FEDSC_FORCE_ISA="${isa}" build/tools/fedsc_cli \
    --input "${obs_dir}/smoke.csv" --clusters 3 --devices 4 \
    --report-out "${obs_dir}/isa.${isa}.json" > /dev/null
  python3 scripts/validate_report.py "${obs_dir}/isa.${isa}.json" \
    --expect-run
  python3 - "${obs_dir}/isa.${isa}.json" "${isa}" <<'PY'
import json, sys
manifest = json.load(open(sys.argv[1]))["manifest"]
assert manifest["gemm_isa"] == sys.argv[2], manifest
assert manifest["isa_pin_source"] == f"env:FEDSC_FORCE_ISA={sys.argv[2]}"
PY
done
echo "forced-ISA smoke test passed"
