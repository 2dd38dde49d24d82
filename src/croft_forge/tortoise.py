"""Packing density of stripe-cut constant-diameter bodies on the lattice.

The remainder of one body after its three stripe pairs are cut off tiles
the plane with one copy per lattice cell; its area over the cell area is
the packing density.  Four evaluation modes are provided: second-order
series with shift-only or shift+tilt stripe minimization ("series1",
"series2"), and exact clipped-arc areas with the same two minimizations
("exact1", "exact2").

The exact modes minimize each stripe pair's clipped area by Newton's
method on s (exact1) or (s, delta) (exact2), with closed-form first and
second derivatives (``clip.halfplane_clip_derivatives`` chained through
``lattice._stripe_line_derivatives``).  Newton starts at the series
minimizer, halves any step that raises the area, and stops after a full
step below NEWTON_STEP_TOL; each ``EdgeCut`` records its iterations and
the final gradient norm as a stationarity certificate.  A line that
misses a body, or no convergence within NEWTON_MAX_ITER steps, raises
``ConvergenceError``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .body import ArcBody, body_area, build_body, croft_constants
from .clip import halfplane_clip_area, halfplane_clip_derivatives
from .lattice import (
    PSI,
    LatticeConfig,
    _stripe_line_derivatives,
    _stripe_lines,
    cut_parameters,
    default_config,
    edge_copies,
)
from .segments import (
    PairCut,
    minimize_pair_shift,
    minimize_pair_shift_tilt,
    pair_area_series_shift,
    pair_area_series_shift_tilt,
    series_coefficients,
    series_shift_minimizer,
    series_tilt_minimizer,
)
from .stepfn import BREAK_SNAP_TOL, StepFunction, reference_step_function

MODES = ("series1", "series2", "exact1", "exact2")


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


class NarrowCapError(ValueError):
    """A series mode was asked for a profile whose caps cover two arcs."""


def require_single_arc_caps(q: StepFunction) -> None:
    """Raise ``NarrowCapError`` if a break lies strictly within phi_c of a
    cut angle k*pi/3.

    The series closed forms model a cap by one arc on each side of its cut
    angle; a cap spans the cut angle +- phi_c, so such a break puts a
    further arc under it and the series areas go wrong at second order.
    """
    phi_c = croft_constants().phi_c
    off = np.mod(q.breaks, PSI)
    dist = np.minimum(off, PSI - off)
    narrow = np.flatnonzero((dist > BREAK_SNAP_TOL) & (dist < phi_c))
    if len(narrow):
        i = narrow[0]
        raise NarrowCapError(
            f"break {q.break_fractions[i]}*pi lies {dist[i]:.4f} from a cut angle "
            f"k*pi/3, inside the cap half-angle phi_c = {phi_c:.4f}; the series "
            "modes model a cap on one arc per side, use exact1 or exact2"
        )


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


def _pair_clips(left: ArcBody, right: ArcBody, s: float, delta: float):
    """(body, n, c) per copy: the stripe at (s, delta) removes body ∩ {n.x >= c}."""
    n, c_left, c_right = _stripe_lines((0.0, 0.0), 0.0, s, delta, 2.0)
    return (left, n, c_left), (right, -n, -c_right)


def pair_clip_area(left: ArcBody, right: ArcBody, s: float, delta: float) -> float:
    """Exact area removed from both copies by the stripe at (s, delta)."""
    clips = _pair_clips(left, right, s, delta)
    return sum(halfplane_clip_area(body, n, c) for body, n, c in clips)


def _pair_clip_derivatives(
    left: ArcBody, right: ArcBody, s: float, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``pair_clip_area`` in (s, delta)."""
    grad = np.zeros(2)
    hess = np.zeros((2, 2))
    lines = _stripe_line_derivatives(s, delta)
    for (body, n, c), (jac, c_hess) in zip(_pair_clips(left, right, s, delta), lines):
        try:
            a_grad, a_hess = halfplane_clip_derivatives(body, n, c)
        except ValueError as exc:
            raise ConvergenceError(f"stripe at s={s}, delta={delta}: {exc}") from exc
        grad += jac.T @ a_grad
        hess += jac.T @ a_hess @ jac + a_grad[0] * c_hess
    return grad, hess


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step, with the Hessian shifted to positive definite if it is not."""
    lam = np.linalg.eigvalsh(hess)
    floor = HESSIAN_FLOOR * max(abs(lam[-1]), 1.0)
    if lam[0] < floor:
        hess = hess + (floor - lam[0]) * np.eye(len(grad))
    return -np.linalg.solve(hess, grad)


def _minimize_pair_clip(
    body: ArcBody, k: int, config: LatticeConfig, cut: PairCut, with_tilt: bool
) -> EdgeCut:
    """Safeguarded Newton on the exact pair area, from the series minimizer.

    Works on s alone (exact1) or on (s, delta) (exact2).  A step that
    raises the area beyond rounding is halved until it does not.  The
    loop stops after taking a full Newton step below NEWTON_STEP_TOL in
    every component and reports the iterations and the gradient norm at
    the returned point.
    """
    left, right = edge_copies(body, k, config)
    eps = body.epsilon
    if with_tilt:
        x = np.array(series_tilt_minimizer(cut))
    else:
        x = np.array([series_shift_minimizer(cut), 0.0])
    dim = 2 if with_tilt else 1
    area = pair_clip_area(left, right, x[0], x[1])
    grad, hess = _pair_clip_derivatives(left, right, x[0], x[1])
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        step = np.zeros(2)
        step[:dim] = _newton_step(grad[:dim], hess[:dim, :dim])
        converged = np.max(np.abs(step)) < NEWTON_STEP_TOL
        while True:
            trial = x + step
            trial_area = pair_clip_area(left, right, trial[0], trial[1])
            if trial_area <= area + AREA_ROUNDING:
                break
            step *= 0.5
            if np.max(np.abs(step)) < NEWTON_STEP_TOL:
                raise ConvergenceError(
                    f"class {k} at eps={eps}: no area decrease along the Newton "
                    f"step from s={x[0]}, delta={x[1]}"
                )
        x, area = trial, trial_area
        grad, hess = _pair_clip_derivatives(left, right, x[0], x[1])
        if converged:
            return EdgeCut(
                k=k, s=float(x[0]), delta=float(x[1]), area=float(area),
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
    config: LatticeConfig | None = None,
) -> DensityRecord:
    """Area and density of the cut body at family parameter ``eps``.

    The body area minus the three minimized stripe-pair areas; the cell
    is a rhombus of side one lattice constant.  ``config`` carries the
    lattice constant and the pre-rotation shift of every copy (default:
    ``default_config()``).  The body is built once and every copy is its
    rigid motion; the series modes first ``require_single_arc_caps``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if q is None:
        q = reference_step_function()
    if config is None:
        config = default_config()

    if mode in ("series1", "series2"):
        require_single_arc_caps(q)
    body = build_body(q, eps)
    a_body = body_area(body)

    per_edge = []
    for k in range(3):
        cut = cut_parameters(q, body, k, config)
        if mode == "series1":
            s, area = minimize_pair_shift(cut, mode="series")
            per_edge.append(EdgeCut(k=k, s=s, delta=0.0, area=area))
        elif mode == "series2":
            s, delta, area = minimize_pair_shift_tilt(cut, mode="series")
            per_edge.append(EdgeCut(k=k, s=s, delta=delta, area=area))
        else:
            per_edge.append(
                _minimize_pair_clip(body, k, config, cut, with_tilt=(mode == "exact2"))
            )

    a_cut = sum(e.area for e in per_edge)
    a_t = a_body - a_cut
    cell = config.lattice_constant**2 * math.sqrt(3.0) / 2.0
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


def _unit_cuts(q: StepFunction, config: LatticeConfig | None = None) -> list[PairCut]:
    """Per-class cut geometry at unit eps (all entries are linear in eps)."""
    if config is None:
        config = default_config()
    h = 0.125
    body = build_body(q, h)
    return [cut_parameters(q, body, k, config).scaled(1.0 / h) for k in range(3)]


def series_cut_coefficients(
    q: StepFunction | None = None,
    mode: str = "series2",
    config: LatticeConfig | None = None,
) -> tuple[float, float]:
    """(linear, quadratic) eps-coefficients of the minimized cut-area sum.

    The sum of the three minimized pair areas is
    6*a0 + linear*eps + quadratic*eps**2 in the series modes.  Each pair
    area P is second order in its unit cut c, so its odd and even parts
    at eps = +-1 are the linear and the a0-free quadratic coefficients.
    """
    if q is None:
        q = reference_step_function()
    if mode not in ("series1", "series2"):
        raise ValueError(f"closed forms exist only for series modes, got {mode!r}")
    require_single_arc_caps(q)
    pair_area = pair_area_series_shift if mode == "series1" else pair_area_series_shift_tilt
    a0 = series_coefficients().a0
    cuts = _unit_cuts(q, config)
    areas = [(pair_area(c), pair_area(c.scaled(-1.0))) for c in cuts]
    linear = sum(0.5 * (plus - minus) for plus, minus in areas)
    quad = sum(0.5 * (plus + minus) - 2.0 * a0 for plus, minus in areas)
    return linear, quad


def body_area_coefficient(q: StepFunction | None = None) -> float:
    """c2 in area(eps) = pi + c2 * eps**2 (exact: the area is quadratic)."""
    if q is None:
        q = reference_step_function()
    h = 0.25
    a_plus = body_area(build_body(q, h))
    a_minus = body_area(build_body(q, -h))
    return (a_plus + a_minus - 2.0 * math.pi) / (2.0 * h * h)


def series_net_coefficient(
    q: StepFunction | None = None,
    mode: str = "series2",
    config: LatticeConfig | None = None,
) -> float:
    """Second-order coefficient of the cut-body area, series closed form.

    Positive means the family improves on the disc-based construction.
    """
    _, quad = series_cut_coefficients(q, mode, config)
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


def fit_eps2_coefficient(eps_values, areas, *, odd_nuisance: bool = True) -> QuadraticFit:
    """Fit a0 + c2*eps^2 + c4*eps^4 to (eps, area) samples.

    The exactly-clipped areas are not even functions of eps (the series
    areas are), so by default cubic and quintic nuisance terms are
    included; on a symmetric sample grid they leave a0, c2, c4 unchanged
    and only keep genuine odd content out of the residual.
    """
    eps_arr = np.asarray(list(eps_values), dtype=float)
    y = np.asarray(list(areas), dtype=float)
    powers = [0, 2, 4] + ([3, 5] if odd_nuisance else [])
    if len(eps_arr) < len(powers):
        raise ValueError(f"need at least {len(powers)} samples for this fit")
    design = np.stack([eps_arr**p for p in powers], axis=-1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(design @ coef - y)))
    return QuadraticFit(a0=float(coef[0]), c2=float(coef[1]), c4=float(coef[2]),
                        max_residual=resid)


# samples needed by the default fit: a0, c2, c4 and the two odd nuisance terms
FIT_MIN_SAMPLES = 5
DEFAULT_FIT_EPS = (-0.08, -0.04, -0.02, -0.01, 0.01, 0.02, 0.04, 0.08)


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
