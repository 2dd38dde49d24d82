"""The benchmark workloads: seeded inputs, timed passes, correctness checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A pass is the unit whose wall time is the
``wall_s`` metric; an op is the unit whose latency is ``op_tail_ms``.
Inputs are drawn from a ``numpy.random.Generator`` that the harness seeds;
the program only ever sees the generated values.

Importing this module imports ``croft_forge``, so the harness pins the
BLAS/OpenMP thread counts and puts ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import math
import traceback
from time import perf_counter

import numpy as np

import croft_forge as cf
from croft_forge import ansatz, tortoise

# ---------------------------------------------------------------------------
# Pass bookkeeping


class Pass:
    """Timing and outcome of one pass.

    ``step`` times work that belongs to the pass but is not an op (the form
    assembly, the final fit); ``op`` times one op and then runs its check
    outside the timed region.  ``busy_s`` is the pass wall time: the sum of
    all timed regions, without input generation and checks.  Failure
    messages go to the shared ``failures`` list.  ``ref_busy_s`` and
    ``ref_op_s`` are the same times at the reference host speed:
    ``to_ref`` is called right after each timed region with its time (see
    ``hostspeed.Calibrator``); without it they equal the measured times.
    """

    def __init__(self, failures: list[str], tracer=None, to_ref=None):
        self.failures = failures
        self.tracer = tracer
        self.to_ref = to_ref
        self.op_s: list[float] = []
        self.ref_op_s: list[float] = []
        self.busy_s = 0.0
        self.ref_busy_s = 0.0
        self.attempted = 0
        self.failed = 0

    def _timed(self, name, fn):
        if self.tracer is None:
            t0 = perf_counter()
            result = fn()
            dt = perf_counter() - t0
        else:
            with self.tracer.span(name) as span:
                result = fn()
            dt = span.duration
        ref_dt = dt if self.to_ref is None else self.to_ref(dt)
        self.busy_s += dt
        self.ref_busy_s += ref_dt
        return result, dt, ref_dt

    def step(self, fn):
        """Run timed non-op work; an exception fails the whole pass."""
        return self._timed("step", fn)[0]

    def op(self, fn, check, what: str):
        """Run one timed op; return its result, or None if it failed."""
        self.attempted += 1
        try:
            result, dt, ref_dt = self._timed("op", fn)
        except Exception:  # a failed op is counted, and the loop goes on
            self.failed += 1
            self.failures.append(f"{what}: raised\n{traceback.format_exc()}")
            return None
        self.op_s.append(dt)
        self.ref_op_s.append(ref_dt)
        problem = check(result)
        if problem:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")
            return None
        return result

    def fail_all(self, why: str):
        """A pass-level check failed: every op of the pass counts as failed."""
        self.failed = self.attempted
        self.failures.append(why)


# ---------------------------------------------------------------------------
# Seeded inputs


def random_profile(rng: np.random.Generator):
    """A closure-projected random profile on the reference breaks, max |v| = 1."""
    v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
    v /= np.max(np.abs(v))
    return ansatz.step_from_halfvalues(v)


# ---------------------------------------------------------------------------
# fit-exact2: the headline computation


FIT_C2 = -0.004416796094533
# Exact2 cut-body areas at DEFAULT_FIT_EPS for the reference profile.
FIT_AREAS = {
    -0.08: 3.069542454149719,
    -0.04: 3.0695636008006497,
    -0.02: 3.0695688976399755,
    -0.01: 3.0695702224763446,
    0.01: 3.0695702224803147,
    0.02: 3.069568897671739,
    0.04: 3.0695636010546457,
    0.08: 3.069542456178009,
}
FIT_TOL = 1e-9


class FitExact2:
    """``fit_net_coefficient("exact2")`` on the reference profile.

    The loop of ``fit_net_coefficient`` is unrolled so that each density
    record is timed as one op.  The input is fixed: the seed changes
    nothing here.
    """

    name = "fit-exact2"
    trace_passes = 1

    def prepare(self, rng):
        return tortoise.DEFAULT_FIT_EPS

    def run(self, p: Pass, eps_values):
        areas = []
        for eps in eps_values:
            rec = p.op(
                lambda: tortoise.tortoise_area(eps, "exact2"),
                lambda r: _off(r.tortoise_area, FIT_AREAS[eps], FIT_TOL, "area"),
                f"exact2 record at eps={eps}",
            )
            areas.append(math.nan if rec is None else rec.tortoise_area)
        if p.failed:
            return
        fit = p.step(lambda: tortoise.fit_eps2_coefficient(eps_values, areas))
        problem = _off(fit.c2, FIT_C2, FIT_TOL, "c2")
        if problem:
            p.fail_all(f"exact2 fit: {problem}")


# ---------------------------------------------------------------------------
# form-verify: the series side, where nothing clips


FORM_BATCH = 24
FORM_SIGNATURE = (0, 0, 12)
# Worst |c2_net - form.value| seen over 2304 probes: 8.8e-10 of the scale
# used in _check_batch; a tolerance relative to the value itself fails
# about one probe in 8000 (1.1e-6 where the form is small).
FORM_TOL = 1e-8
VERIFY_WIDTHS = ((2.0, True), (1.9, False))  # (stripe width, must pass)
VERIFY_EPS = 0.1


class FormVerify:
    """The quadratic form, c2_net probes and patch verification.

    A pass builds ``assemble_quadratic_form("series2")`` and its
    ``eigen_signature`` (timed, not an op), ranks one batch of FORM_BATCH
    seeded candidates (v, shift) with ``c2_net`` (one op), and verifies two
    patches at stripe widths 2 (must pass) and 1.9 (must fail), each
    verification one op: the reference profile with series2 stripes and a
    seeded profile with series1 stripes, each at a seeded eps.  Each
    verification computes its stripes first, as ``croft-forge verify`` does.

    A probe alone takes about 2 ms, shorter than the host's slow spells, so
    single-probe latencies split into a fast and a slow mode; a batch spans
    both.
    """

    name = "form-verify"
    trace_passes = 1

    def prepare(self, rng):
        batch = []
        for _ in range(FORM_BATCH):
            v = rng.standard_normal(ansatz.N_FREE)
            # scaled so the profile c2_net evaluates has max |v| = 1
            v /= np.max(np.abs(ansatz.closure_project(v)))
            batch.append((v, rng.standard_normal(2)))
        patches = [
            (q, float(rng.uniform(-VERIFY_EPS, VERIFY_EPS)), mode)
            for q, mode in ((cf.reference_step_function(), "series2"),
                            (random_profile(rng), "series1"))
        ]
        return batch, patches

    def run(self, p: Pass, inp):
        batch, patches = inp
        form = p.step(lambda: cf.assemble_quadratic_form("series2"))
        sig = p.step(lambda: cf.eigen_signature(form)).signature
        p.op(
            lambda: [cf.c2_net(v, shift, "series2") for v, shift in batch],
            lambda c2s: _check_batch(form, batch, c2s),
            "c2_net batch",
        )
        for q, eps, mode in patches:
            for width, must_pass in VERIFY_WIDTHS:
                p.op(
                    lambda: cf.verify_avoidance(
                        q, eps, tortoise.tortoise_area(eps, mode, q=q).stripes(),
                        stripe_width=width,
                    ),
                    lambda rep: None if rep.ok == must_pass else
                    f"verdict ok={rep.ok}: {rep.summary()}",
                    f"{mode} patch at eps={eps}, width={width}",
                )
        if sig != FORM_SIGNATURE:
            p.fail_all(f"form signature {sig}, expected {FORM_SIGNATURE}")


def _check_batch(form, batch, c2s) -> str | None:
    """Each ``c2`` equals the form at its closure-projected point, to FORM_TOL
    times the largest value the form can take at that distance from zero."""
    norm = np.linalg.norm(form.hessian / 2.0, 2)
    for (v, shift), c2 in zip(batch, c2s):
        vp = ansatz.closure_project(v)
        want = form.value(vp, shift)
        scale = norm * (vp @ vp + shift @ shift)
        if not abs(c2 - want) <= FORM_TOL * scale:
            return f"c2_net {c2} but the form gives {want} (scale {scale:.3g})"
    return None


def _off(got: float, want: float, tol: float, what: str) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what} {got!r}, expected {want!r} within {tol}"


WORKLOADS = {w.name: w for w in (FitExact2(), FormVerify())}
