"""croft-forge benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload fit-exact2 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload runs in a closed loop for ``--seconds``
and the result holds the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of passes untraced and then the same passes traced, and the
result holds the per-layer metrics, so call counts repeat exactly for a
seed.  End-to-end times are reported at a reference host speed: each is
divided by the host factor that a calibration kernel run next to it
measures (see ``hostspeed.py``); the measured times are in the details.
The last line of stdout is the result; the line before it is the run's
details and environment, also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread per process: pinned before NumPy/SciPy load their BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("fit-exact2", "form-verify")

SETUP_RUNS = 11
SETUP_CAL_CHUNKS = 5  # calibration chunks before and after each set-up
SETUP_TIMEOUT_S = 60
# Set-up as a user pays it: import the package and make its constants ready.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import croft_forge as cf
cf.croft_constants(); cf.series_coefficients()
cf.reference_step_function(); cf.default_config()
print(time.perf_counter() - t0)
"""
MIN_PASSES = 3
# Seed of the untimed warm-up pass, whose inputs are the same in every
# run.  Peak RSS on form-verify is set by the verifier's diameter check,
# whose n x n array depends on the input: single passes read 116 or
# 127-130 MB, and a run read either by which inputs it drew.  This seed's
# pass reaches 130 MB, the largest seen, so a run's peak is that of the
# workload's large inputs rather than of its draw.
WARMUP_SEED = 32
# A fixed percentile: one chosen by how many samples lie above it would
# rise as the program got faster and fitted more ops into a run, and fall
# on a slow host.
TAIL_P = 90


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_RUNS fresh interpreters, each timed from
    inside, and the host factor measured around each."""
    times, factors = [], []
    for _ in range(SETUP_RUNS):
        cal = [hostspeed.chunk() for _ in range(SETUP_CAL_CHUNKS)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        cal += [hostspeed.chunk() for _ in range(SETUP_CAL_CHUNKS)]
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        factors.append(hostspeed.factor(cal))
    return times, factors


def run_pass(workload, rng, failures, tracer=None, to_ref=None):
    from workloads import Pass

    inp = workload.prepare(rng)
    p = Pass(failures, tracer, to_ref)
    if tracer is not None:
        tracer.enabled = True
    try:
        workload.run(p, inp)
    except Exception:  # a pass-level step raised: its ops all count as failed
        p.fail_all(f"{workload.name} pass raised\n{traceback.format_exc()}")
    finally:
        if tracer is not None:
            tracer.enabled = False
    return p


def run_for(workload, rng, failures, seconds: float, to_ref):
    """Closed loop: start passes until the next would overrun ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, rng, failures, to_ref=to_ref))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed


def tail(samples: list[float]) -> tuple[int, int, float]:
    """(TAIL_P, beyond, value): the TAIL_P-th percentile, interpolated
    between the nearest ranks, and the number of samples above it."""
    xs = sorted(samples)
    value = xs[0] if len(xs) < 2 else statistics.quantiles(xs, n=100, method="inclusive")[TAIL_P - 1]
    return TAIL_P, sum(x > value for x in xs), value


def timed_run(workload, rng, failures, seconds: float):
    """End-to-end metrics of a closed loop of about ``seconds``, with every
    time divided by the host factor measured during it."""
    import numpy as np

    setup, setup_factors = measure_setup()
    warm = run_pass(workload, np.random.default_rng(WARMUP_SEED), failures)
    cal = hostspeed.Calibrator()
    cpu0 = time.process_time()
    passes, elapsed = run_for(workload, rng, failures, seconds, cal.to_ref)
    cpu = time.process_time() - cpu0
    op_s = [t for p in passes for t in p.ref_op_s] or [0.0]  # [0.0]: every op raised
    busy = sum(p.ref_busy_s for p in passes)
    tail_p, tail_beyond, tail_s = tail(op_s)
    counted = [warm, *passes]  # the warm-up's ops are checked, not timed
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    # wall_s is a mean and op p50 is reported but not a metric: on a shared
    # host, slow spells make op latencies bimodal, and 30 s window medians
    # spread 1.6 times as much as window means (see README.md).
    metrics = {
        "setup_s": (statistics.median(t / k for t, k in zip(setup, setup_factors)), "s"),
        "wall_s": (busy / len(passes), "s"),
        "ops_per_s": (len(op_s) / busy if busy else 0.0, "1/s"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": len(passes),
        "ops": len(op_s),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_percentile": tail_p,
        "op_tail_beyond": tail_beyond,
        "failed_frac": failed / attempted,
        "cal_ref_s": hostspeed.CAL_REF_S,
        "setup_runs_s": setup,
        "setup_host_factors": setup_factors,
        "pass_wall_s": [p.busy_s for p in passes],
        "pass_op_s": [p.op_s for p in passes],
        "cal_s": cal.samples,
        "host_factor": hostspeed.factor(cal.samples) if cal.samples else None,
        "loop_elapsed_s": elapsed,
        "loop_cpu_s": cpu,
    }
    return counted, metrics, details


def traced_run(workload, make_rng, failures, spans_path: Path):
    """Per-layer metrics of ``trace_passes`` passes, run untraced and then traced."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    n = workload.trace_passes
    rng = make_rng()
    plain = [run_pass(workload, rng, failures) for _ in range(n)]
    rng = make_rng()
    traced = [run_pass(workload, rng, failures, tracer) for _ in range(n)]
    plain_wall = statistics.median(p.busy_s for p in plain)
    traced_wall = statistics.median(p.busy_s for p in traced)
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    tracer.dump(spans_path, workload=workload.name)
    return plain + traced, metrics, {"trace_passes": n, "spans": spans_path.name}


def environment(load_start) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "croft_forge" / "__init__.py").is_file():
        print(f"error: no croft_forge package under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    failures: list[str] = []
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    def make_rng():
        return np.random.default_rng(abs(args.seed))

    if args.trace:
        passes, metrics, details = traced_run(
            workload, make_rng, failures, OUT / f"spans-{stem}.json"
        )
    else:
        passes, metrics, details = timed_run(workload, make_rng(), failures, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               **details, "environment": environment(load_start)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
