"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--seed 7] [--workload NAME ...]

For each workload, runs ``run.py --trace 1`` twice with the same seed and
checks that both runs are correct, that they report every per-layer
metric of ``BENCHMARK.json``, that every ``.calls`` count is identical in
the two runs, and that the named layer spans cover at least
``MIN_COVERAGE`` of the traced wall time.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_COVERAGE = 0.9
RUN_TIMEOUT_S = 600


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, seed: int, per_layer: list[str]) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for i, res in enumerate((first, second), 1):
        if not res["correct"]:
            problems.append(f"run {i}: {res['failed']} of {res['attempted']} ops failed")
        missing = [m for m in per_layer if m not in res["metrics"]]
        if missing:
            problems.append(f"run {i}: metrics missing: {missing}")
        coverage = res["metrics"].get("trace.coverage", {}).get("value", 0.0)
        if coverage < MIN_COVERAGE:
            problems.append(f"run {i}: layer spans cover {coverage:.3f} < {MIN_COVERAGE}")
    for name in per_layer:
        if name.endswith(".calls"):
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                problems.append(f"{name}: {a} then {b}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    per_layer = [m["name"] for m in spec["per_layer"]]
    failed = False
    for workload in args.workload or names:
        problems = check_workload(workload, args.seed, per_layer)
        print(f"{'FAIL' if problems else 'ok  '} {workload}")
        for p in problems:
            print(f"     {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
