"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fit-exact2 --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed with the ``run_seconds`` of
``BENCHMARK.json`` and prints, per end-to-end metric, the median of the
runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread at or above a third of the metric's bound is flagged with ``!``.
Exits 1 if a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, vals in values.items():
            vals.append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()))

    print(f"{'metric':14} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        flag = "!" if spread >= m["bound"] / 3 else ""
        print(f"{m['name']:14} {q2:12.6g} {spread:8.4f} {m['bound']:6.3f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
