"""Packing density of stripe-cut constant-diameter bodies on the lattice.

The remainder of one body after its three stripe pairs are cut off tiles
the plane with one copy per lattice cell; its area over the cell area is
the packing density.  Four evaluation modes are provided: second-order
series with shift-only or shift+tilt stripe minimization ("series1",
"series2"), and exact clipped-arc areas with the same two minimizations
("exact1", "exact2"); the series modes build no body (closed forms at
unit eps: ``body_area_coefficient``, ``lattice.cut_parameters``).

The exact modes minimize each stripe pair's clipped area by Newton's
method on s (exact1) or (s, delta) (exact2), with closed-form first and
second derivatives: one ``clip.halfplane_clip_area`` walk per copy gives
its area and derivatives, chained through the caps of ``lattice.stripe_caps``.
Newton starts at the series minimizer of the cap-read cut data
(``lattice.cut_parameters``), halves any step that raises the
area, and stops after a full step below NEWTON_STEP_TOL; each ``EdgeCut``
records its iterations and the final gradient norm as a stationarity
certificate.  A line that misses a body where Newton needs derivatives
(the start and each accepted step), or no convergence within
NEWTON_MAX_ITER steps, raises ``ConvergenceError``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .body import ArcBody, body_area, body_area_gram, build_body, family_radii, require_closure
from .clip import Clip, halfplane_clip_area
from .lattice import LATTICE_CONSTANT, cut_parameters, edge_copies, stripe_caps
from .segments import minimize_pair_shift, minimize_pair_shift_tilt, pair_envelope
from .stepfn import StepFunction, reference_step_function

SERIES_MODES = ("series1", "series2")
MODES = SERIES_MODES + ("exact1", "exact2")
TILT_MODES = ("series2", "exact2")  # the modes that minimize over the tilt too


# Exact-mode Newton solver: stop once every step component is below the
# tolerance; fail past the iteration cap.
NEWTON_STEP_TOL = 1e-10
NEWTON_MAX_ITER = 30
# Smallest Hessian eigenvalue kept, relative to the largest.
HESSIAN_FLOOR = 1e-6
# The clipped area sums Green's-theorem terms of order one, so near the
# minimum a step can raise it by rounding alone; rises up to this count
# as no rise.
AREA_ROUNDING = 1e-14


class ConvergenceError(RuntimeError):
    """An exact-mode stripe minimization did not converge."""


@dataclass(frozen=True)
class EdgeCut:
    """Minimized stripe cut of one edge class.

    In the exact modes ``iterations`` counts Newton iterations and
    ``grad_norm`` is the area gradient norm at (s, delta), the
    stationarity certificate; both are 0 in the series modes.
    """

    k: int
    s: float
    delta: float
    area: float
    iterations: int = 0
    grad_norm: float = 0.0


@dataclass(frozen=True)
class DensityRecord:
    """One evaluation of the cut-body packing at a family parameter."""

    eps: float
    mode: str
    body_area: float
    cut_area: float
    tortoise_area: float
    density: float
    per_edge: tuple[EdgeCut, ...]

    def stripes(self) -> dict[int, tuple[float, float]]:
        """Per-class (shift, tilt) map as used by the avoidance checker."""
        return {e.k: (e.s, e.delta) for e in self.per_edge}


# ---------------------------------------------------------------------------
# Exact pair objective: clip the two placed bodies against the stripe lines


def pair_clip_area(left: ArcBody, right: ArcBody, s: float, delta: float) -> Clip:
    """Exact area removed from both copies by the stripe at (s, delta), with its
    gradient and Hessian in (s, delta) chained from each copy's (c, theta) ones."""
    caps = stripe_caps(s, delta)
    clips = [halfplane_clip_area(body, n, c)
             for body, (n, c, _, _) in zip((left, right), caps)]
    area = clips[0].area + clips[1].area
    if clips[0].grad is None or clips[1].grad is None:
        return Clip(area)
    grad, hess = np.zeros(2), np.zeros((2, 2))
    for clip, (_, _, jac, c_hess) in zip(clips, caps):
        grad += jac.T @ clip.grad
        hess += jac.T @ clip.hess @ jac + clip.grad[0] * c_hess
    return Clip(area, grad, hess)


def _pair_derivatives(pair: Clip, s: float, delta: float):
    """(grad, hess) of ``pair`` at (s, delta), which Newton cannot go on without."""
    if pair.grad is None:
        raise ConvergenceError(
            f"stripe at s={s}, delta={delta}: the number of points where a line "
            "crosses its copy is not 2"
        )
    return pair.grad, pair.hess


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step, with the Hessian shifted to positive definite if it is not."""
    lam = np.linalg.eigvalsh(hess)
    floor = HESSIAN_FLOOR * max(abs(lam[-1]), 1.0)
    if lam[0] < floor:
        hess = hess + (floor - lam[0]) * np.eye(len(grad))
    return -np.linalg.solve(hess, grad)


def _minimize_pair_clip(
    left: ArcBody, right: ArcBody, k: int, start: tuple[float, float], with_tilt: bool
) -> EdgeCut:
    """Safeguarded Newton on the exact pair area of the class-``k``
    ``edge_copies``, from ``start`` = (s, delta), the series minimizer.

    Works on s alone (exact1) or on (s, delta) (exact2).  A step that
    raises the area beyond rounding is halved until it does not.  The
    loop stops after taking a full Newton step below NEWTON_STEP_TOL in
    every component and reports the iterations and the gradient norm at
    the returned point.
    """
    eps = left.epsilon
    x = np.array(start, dtype=float)
    dim = 2 if with_tilt else 1
    pair = pair_clip_area(left, right, x[0], x[1])
    grad, hess = _pair_derivatives(pair, x[0], x[1])
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        step = np.zeros(2)
        step[:dim] = _newton_step(grad[:dim], hess[:dim, :dim])
        converged = np.max(np.abs(step)) < NEWTON_STEP_TOL
        while True:
            trial = x + step
            trial_pair = pair_clip_area(left, right, trial[0], trial[1])
            if trial_pair.area <= pair.area + AREA_ROUNDING:
                break
            step *= 0.5
            if np.max(np.abs(step)) < NEWTON_STEP_TOL:
                raise ConvergenceError(
                    f"class {k} at eps={eps}: no area decrease along the Newton "
                    f"step from s={x[0]}, delta={x[1]}"
                )
        x, pair = trial, trial_pair
        grad, hess = _pair_derivatives(pair, x[0], x[1])
        if converged:
            return EdgeCut(
                k=k, s=float(x[0]), delta=float(x[1]), area=float(pair.area),
                iterations=iteration, grad_norm=float(np.linalg.norm(grad[:dim])),
            )
    raise ConvergenceError(
        f"class {k} at eps={eps}: no convergence in {NEWTON_MAX_ITER} Newton steps"
    )


# ---------------------------------------------------------------------------
# Density evaluation


def tortoise_area(
    eps: float,
    mode: str = "series2",
    *,
    q: StepFunction | None = None,
    shift=None,
) -> DensityRecord:
    """Area and density of the cut body at family parameter ``eps``.

    The body area minus the three minimized stripe-pair areas; the cell
    is a rhombus of side one lattice constant.  ``shift`` is the
    pre-rotation shift pair of every copy (None: the reference shift).
    Every mode minimizes the second-order pair area on the unit cut data of
    ``cut_parameters`` scaled by eps, and the exact modes start Newton at
    that minimizer, on the two ``edge_copies`` of each class.  The series
    modes build no body: their area is pi + B eps^2, B of
    ``body_area_coefficient``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if q is None:
        q = reference_step_function()

    if mode in SERIES_MODES:
        family_radii(q, eps)
        a_body = math.pi + body_area_coefficient(q) * eps * eps
    else:
        body = build_body(q, eps)
        a_body = body_area(body)
    with_tilt = mode in TILT_MODES
    per_edge = []
    for k, cut in enumerate(cut_parameters(q, shift)):
        if with_tilt:
            s, delta, area = minimize_pair_shift_tilt(cut.scaled(eps))
        else:
            (s, area), delta = minimize_pair_shift(cut.scaled(eps)), 0.0
        if mode in SERIES_MODES:
            per_edge.append(EdgeCut(k=k, s=s, delta=delta, area=area))
        else:
            per_edge.append(
                _minimize_pair_clip(*edge_copies(body, k, shift), k, (s, delta), with_tilt)
            )

    a_cut = sum(e.area for e in per_edge)
    a_t = a_body - a_cut
    cell = LATTICE_CONSTANT**2 * math.sqrt(3.0) / 2.0
    return DensityRecord(
        eps=eps,
        mode=mode,
        body_area=a_body,
        cut_area=a_cut,
        tortoise_area=a_t,
        density=a_t / cell,
        per_edge=tuple(per_edge),
    )


def scan(
    eps_values,
    mode: str = "series2",
    **kwargs,
) -> list[DensityRecord]:
    """Evaluate the density at each family parameter in ``eps_values``."""
    return [tortoise_area(float(e), mode, **kwargs) for e in eps_values]


# ---------------------------------------------------------------------------
# Closed-form second-order coefficients (series modes)


def series_cut_coefficients(
    q: StepFunction | None = None,
    mode: str = "series2",
    shift=None,
) -> tuple[float, float]:
    """(linear, quadratic) eps-coefficients of the minimized cut-area sum.

    The sum of the three minimized pair areas is
    6*a0 + linear*eps + quadratic*eps**2 in the series modes: the unit cuts
    of ``cut_parameters``, summed and minimized by ``pair_envelope``.
    """
    if q is None:
        q = reference_step_function()
    if mode not in SERIES_MODES:
        raise ValueError(f"closed forms exist only for series modes, got {mode!r}")
    cuts = cut_parameters(q, shift)
    _, quad = pair_envelope([c.p_ex for c in cuts], [c.p_ee for c in cuts], mode in TILT_MODES)
    return sum(c.linear for c in cuts), float(quad)


def body_area_coefficient(q: StepFunction | None = None) -> float:
    """c2 in area(eps) = pi + c2 * eps**2, read off ``body_area``'s Green sum
    in closed form (``body_area_gram``); no body is built."""
    if q is None:
        q = reference_step_function()
    require_closure(q)
    return float(body_area_gram(q.breaks, q.values[:, None])[0, 0])


def series_net_coefficient(
    q: StepFunction | None = None,
    mode: str = "series2",
    shift=None,
) -> float:
    """Second-order coefficient of the cut-body area, series closed form.

    Positive means the family improves on the disc-based construction.
    """
    _, quad = series_cut_coefficients(q, mode, shift)
    return body_area_coefficient(q) - quad


# ---------------------------------------------------------------------------
# Even-polynomial fit of scanned areas


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares fit area(eps) ~ a0 + c2*eps^2 + c4*eps^4 (+ odd nuisance)."""

    a0: float
    c2: float
    c4: float
    max_residual: float


# fitted powers of eps: a0, c2, c4 and the two odd nuisance terms
FIT_POWERS = (0, 2, 4, 3, 5)
FIT_MIN_SAMPLES = len(FIT_POWERS)
DEFAULT_FIT_EPS = (-0.08, -0.04, -0.02, -0.01, 0.01, 0.02, 0.04, 0.08)


def fit_eps2_coefficient(eps_values, areas) -> QuadraticFit:
    """Fit a0 + c2*eps^2 + c4*eps^4 to (eps, area) samples.

    The exactly-clipped areas are not even functions of eps (the series
    areas are), so cubic and quintic nuisance terms are included; on a
    symmetric sample grid they leave a0, c2, c4 unchanged and only keep
    genuine odd content out of the residual.
    """
    eps_arr = np.asarray(list(eps_values), dtype=float)
    y = np.asarray(list(areas), dtype=float)
    if len(eps_arr) < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} samples for this fit")
    design = np.stack([eps_arr**p for p in FIT_POWERS], axis=-1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(design @ coef - y)))
    return QuadraticFit(a0=float(coef[0]), c2=float(coef[1]), c4=float(coef[2]),
                        max_residual=resid)


def fit_net_coefficient(
    mode: str = "exact2",
    eps_values=DEFAULT_FIT_EPS,
    **kwargs,
) -> QuadraticFit:
    """Fit the eps^2 coefficient of the cut-body area in any mode."""
    records = scan(eps_values, mode, **kwargs)
    return fit_eps2_coefficient(eps_values, [r.tortoise_area for r in records])


# ---------------------------------------------------------------------------
# Tabular output


SCAN_FIELDS = ("eps", "mode", "body_area", "cut_area", "tortoise_area", "density")


def record_row(r: DensityRecord) -> dict:
    row = {f: getattr(r, f) for f in SCAN_FIELDS}
    for e in r.per_edge:
        row[f"s_{e.k}"] = e.s
        row[f"delta_{e.k}"] = e.delta
        row[f"pair_area_{e.k}"] = e.area
    return row


def write_scan_csv(records: list[DensityRecord], path: str | Path) -> None:
    rows = [record_row(r) for r in records]
    fields = list(rows[0].keys()) if rows else list(SCAN_FIELDS)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_scan_json(records: list[DensityRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump([record_row(r) for r in records], fh, indent=2)
