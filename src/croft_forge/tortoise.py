"""Packing density of stripe-cut constant-diameter bodies on the lattice.

The remainder of one body after its three stripe pairs are cut off tiles
the plane with one copy per lattice cell; its area over the cell area is
the packing density.  Four evaluation modes are provided: second-order
series with shift-only or shift+tilt stripe minimization ("series1",
"series2"), and exact clipped-arc areas with the same two minimizations
("exact1", "exact2"); the series modes build no body.  Each record and
closed form reads the body-area c2 and the cut data at unit eps from
``lattice.second_order_read``, cached per (break set, values, shift), so
the records of one fit or scan compute it once, closure check included.
A computed read contracts the break set's cut model, itself read once
per break set, with the profile's (values, shift): probes and profiles
on one break set share one cap read.

The exact modes minimize each stripe pair's clipped area by Newton's
method on s (exact1) or (s, delta) (exact2), with closed-form first and
second derivatives.  No copy is placed: each cap of ``lattice.stripe_caps``
moves into its copy's own frame by the inverse of the copy's
``lattice.copy_motion`` (``unplaced_caps``), and one
``clip.halfplane_clip_area`` walk of the one unplaced body per cap gives
its area and derivatives, chained through the moved cap.  Newton starts
at the series minimizer of the cap-read cut data, halves any step that
raises the area, and stops at the first point it has evaluated whose
step is below NEWTON_STEP_TOL, without taking that step; each
``EdgeCut`` records its steps, its pair-area evaluations
(about 2.6 per edge on the reference exact2 fit) and that point's
gradient norm as a stationarity certificate.  The loop runs on plain
floats: the caps, the chain rule and the 1 x 1 or 2 x 2 step
(``_newton_step``, closed-form eigenvalues and solve) touch no NumPy.
A line that misses its copy moves no area and gives zero derivatives.
A line that crosses its copy once, or more than twice, where Newton
needs derivatives (the start and each accepted step), or no convergence
within NEWTON_MAX_ITER steps, raises ``ConvergenceError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .body import ArcBody, body_area, build_body, family_radii
from .clip import Clip, halfplane_clip_area
from .lattice import LATTICE_CONSTANT, copy_motion, edge_ends, second_order_read, stripe_caps
from .segments import minimize_pair_shift, minimize_pair_shift_tilt, pair_envelope
from .stepfn import StepFunction, reference_step_function

SERIES_MODES = ("series1", "series2")
MODES = SERIES_MODES + ("exact1", "exact2")
TILT_MODES = ("series2", "exact2")  # the modes that minimize over the tilt too


# Exact-mode Newton solver: stop at a point whose step has every component
# below the tolerance; fail past the iteration cap.
NEWTON_STEP_TOL = 1e-12
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

    In the exact modes ``iterations`` counts the Newton steps taken,
    ``evaluations`` the pair-area evaluations (``pair_clip_area`` calls)
    and ``grad_norm`` is the area gradient norm at (s, delta), the
    stationarity certificate; ``series_gap`` is ``area`` minus the series
    minimized area whose minimizer Newton started from.  All are 0 in
    the series modes.
    """

    k: int
    s: float
    delta: float
    area: float
    iterations: int = 0
    evaluations: int = 0
    grad_norm: float = 0.0
    series_gap: float = 0.0


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
# Exact pair objective: clip the unplaced body by the caps moved onto it


def unplaced_caps(s: float, delta: float, motions):
    """The two caps of ``stripe_caps(s, delta)`` moved into the frames of
    the copies they cut: cap i by the inverse of ``motions[i]``, the
    (rotation, translation) of ``lattice.copy_motion``.

    A copy x -> R x + t meets {y : n.y >= c} in the image of
    {x : (R^T n).x >= c - n.t}.  With n' = (-n_1, n_0) = dn/dtheta and
    theta's gradient unchanged, the offset's gradient takes
    -(n'.t) grad theta and its Hessian (n.t) grad theta grad theta^T.
    Each cap keeps the format (n, c, jac, c_hess) of ``stripe_caps``.
    """
    out = []
    for (n, c, ((c_s, c_d), (t_s, t_d)), ((c_ss, c_sd), (_, c_dd))), (angle, (x, y)) in zip(
            stripe_caps(s, delta), motions):
        co, si = math.cos(angle), math.sin(angle)
        n0, n1 = n
        along, across = n0 * x + n1 * y, n0 * y - n1 * x  # n.t and n'.t
        h_sd = c_sd + along * t_s * t_d
        out.append((
            (co * n0 + si * n1, co * n1 - si * n0), c - along,
            ((c_s - across * t_s, c_d - across * t_d), (t_s, t_d)),
            ((c_ss + along * t_s * t_s, h_sd), (h_sd, c_dd + along * t_d * t_d)),
        ))
    return out


def pair_clip_area(body: ArcBody, motions, s: float, delta: float) -> Clip:
    """Exact area the stripe at (s, delta) removes from the two copies of
    ``body`` placed by ``motions``, with its gradient and Hessian in
    (s, delta) chained from each clip's (c, theta) ones.

    Each copy's clip is the unplaced body's by its cap of
    ``unplaced_caps``: no copy is placed.  Per copy, with jac = (grad c,
    grad theta) and c_hess of that cap: grad = jac^T (A_c, A_theta) and
    hess = jac^T H jac + A_c c_hess, in float arithmetic."""
    (n_l, c_l, jac_l, hess_l), (n_r, c_r, jac_r, hess_r) = unplaced_caps(s, delta, motions)
    clip_l = halfplane_clip_area(body, n_l, c_l)
    clip_r = halfplane_clip_area(body, n_r, c_r)
    area = clip_l.area + clip_r.area
    if clip_l.grad is None or clip_r.grad is None:
        return Clip(area)
    g_s = g_d = h_ss = h_sd = h_dd = 0.0
    for clip, ((c_s, c_d), (t_s, t_d)), ((c_ss, c_sd), (_, c_dd)) in (
            (clip_l, jac_l, hess_l), (clip_r, jac_r, hess_r)):
        a_c, a_t = clip.grad
        (a_cc, a_ct), (_, a_tt) = clip.hess
        # the s- and delta-rows of jac^T H
        m_sc, m_st = c_s * a_cc + t_s * a_ct, c_s * a_ct + t_s * a_tt
        m_dc, m_dt = c_d * a_cc + t_d * a_ct, c_d * a_ct + t_d * a_tt
        g_s += c_s * a_c + t_s * a_t
        g_d += c_d * a_c + t_d * a_t
        h_ss += m_sc * c_s + m_st * t_s + a_c * c_ss
        h_sd += m_sc * c_d + m_st * t_d + a_c * c_sd
        h_dd += m_dc * c_d + m_dt * t_d + a_c * c_dd
    return Clip(area, (g_s, g_d), ((h_ss, h_sd), (h_sd, h_dd)))


def _pair_derivatives(pair: Clip, s: float, delta: float):
    """(grad, hess) of ``pair`` at (s, delta), which Newton cannot go on without."""
    if pair.grad is None:
        raise ConvergenceError(
            f"stripe at s={s}, delta={delta}: the number of points where a line "
            "crosses its copy is neither 0 nor 2"
        )
    return pair.grad, pair.hess


def _newton_step(grad, hess) -> tuple[float, ...]:
    """Newton step -H^-1 g in the first ``len(grad)`` (1 or 2) variables.

    Where the smallest eigenvalue lam_min of that block of ``hess`` is below
    floor = HESSIAN_FLOOR * max(|lam_max|, 1), the block is shifted by
    (floor - lam_min) I to positive definite.  Closed forms: the eigenvalues
    of [[a, b], [b, d]] are m -+ hypot((a - d)/2, b) with m = (a + d)/2, and
    the step solves the 2 x 2 system by its determinant.
    """
    if len(grad) == 1:
        h = hess[0][0]
        floor = HESSIAN_FLOOR * max(abs(h), 1.0)
        if h < floor:
            h = h + (floor - h)
        return (-grad[0] / h,)
    (a, _), (b, d) = hess
    m, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    lam_min, lam_max = m - r, m + r
    floor = HESSIAN_FLOOR * max(abs(lam_max), 1.0)
    if lam_min < floor:
        a, d = a + (floor - lam_min), d + (floor - lam_min)
    g_0, g_1 = grad
    det = a * d - b * b
    return ((b * g_1 - d * g_0) / det, (b * g_0 - a * g_1) / det)


def _minimize_pair_clip(
    body: ArcBody, motions, k: int, start: tuple[float, float, float], with_tilt: bool
) -> EdgeCut:
    """Safeguarded Newton on the exact pair area of the class-``k`` copies
    placed by ``motions``, from ``start`` = (s, delta, area), the series
    minimizer and its series area.

    Works on s alone (exact1) or on (s, delta) (exact2), in floats.  A
    step that raises the area beyond rounding is halved until it does not.
    The loop stops at the first evaluated point whose Newton step is below
    NEWTON_STEP_TOL in every component, that step untaken, and reports the
    steps taken, the pair-area evaluations, that point's area, gradient
    norm and gap to the series area.  The point after the last of
    NEWTON_MAX_ITER steps is checked too before ``ConvergenceError``.
    """
    s, delta, series_area = start
    dim = 2 if with_tilt else 1
    pair = pair_clip_area(body, motions, s, delta)
    evaluations = 1
    iterations = 0
    while True:
        grad, hess = _pair_derivatives(pair, s, delta)
        if with_tilt:
            ds, dd = _newton_step(grad, hess)
        else:
            (ds,), dd = _newton_step(grad[:1], hess), 0.0
        if max(abs(ds), abs(dd)) < NEWTON_STEP_TOL:
            return EdgeCut(
                k=k, s=s, delta=delta, area=pair.area, iterations=iterations,
                evaluations=evaluations, grad_norm=math.hypot(*grad[:dim]),
                series_gap=pair.area - series_area,
            )
        if iterations == NEWTON_MAX_ITER:
            raise ConvergenceError(
                f"class {k} at eps={body.epsilon}: no convergence in "
                f"{NEWTON_MAX_ITER} Newton steps"
            )
        iterations += 1
        while True:
            trial_s, trial_delta = s + ds, delta + dd
            trial_pair = pair_clip_area(body, motions, trial_s, trial_delta)
            evaluations += 1
            if trial_pair.area <= pair.area + AREA_ROUNDING:
                break
            ds, dd = 0.5 * ds, 0.5 * dd
            if max(abs(ds), abs(dd)) < NEWTON_STEP_TOL:
                raise ConvergenceError(
                    f"class {k} at eps={body.epsilon}: no area decrease along the "
                    f"Newton step from s={s}, delta={delta}"
                )
        s, delta, pair = trial_s, trial_delta, trial_pair


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
    ``lattice.second_order_read`` scaled by eps, and the exact modes start
    Newton at that minimizer, on the caps of the two copies across each
    class's edge (``lattice.edge_ends``) moved onto the one body.  The
    series modes build no body: their area is pi + B eps^2, B of the same
    read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if q is None:
        q = reference_step_function()

    if mode in SERIES_MODES:
        family_radii(q, eps)
        body_c2, cuts = second_order_read(q, shift)
        a_body = math.pi + body_c2 * eps * eps
    else:
        body = build_body(q, eps)
        a_body = body_area(body)
        cuts = second_order_read(q, shift)[1]
    with_tilt = mode in TILT_MODES
    per_edge = []
    for k, cut in enumerate(cuts):
        if with_tilt:
            s, delta, area = minimize_pair_shift_tilt(cut.scaled(eps))
        else:
            (s, area), delta = minimize_pair_shift(cut.scaled(eps)), 0.0
        if mode in SERIES_MODES:
            per_edge.append(EdgeCut(k=k, s=s, delta=delta, area=area))
        else:
            motions = [copy_motion(c, p, eps, shift) for c, p in edge_ends(k)]
            per_edge.append(_minimize_pair_clip(body, motions, k, (s, delta, area), with_tilt))

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
    of ``lattice.second_order_read``, summed and minimized by
    ``pair_envelope``.
    """
    return _series_coefficients(q, mode, shift)[1:]


def body_area_coefficient(q: StepFunction | None = None) -> float:
    """c2 in area(eps) = pi + c2 * eps**2, the B of
    ``lattice.second_order_read`` at the reference shift (B does not
    depend on the shift); no body is built."""
    if q is None:
        q = reference_step_function()
    return second_order_read(q)[0]


def series_net_coefficient(
    q: StepFunction | None = None,
    mode: str = "series2",
    shift=None,
) -> float:
    """Second-order coefficient of the cut-body area, series closed form:
    the body-area c2 minus the cut sum's quadratic coefficient, both from
    one ``lattice.second_order_read``.

    Positive means the family improves on the disc-based construction.
    """
    body_c2, _, quad = _series_coefficients(q, mode, shift)
    return body_c2 - quad


def _series_coefficients(q, mode, shift) -> tuple[float, float, float]:
    # (B, linear, quadratic) of one read, after the mode check
    if q is None:
        q = reference_step_function()
    if mode not in SERIES_MODES:
        raise ValueError(f"closed forms exist only for series modes, got {mode!r}")
    body_c2, cuts = second_order_read(q, shift)
    _, quad = pair_envelope([c.p_ex for c in cuts], [c.p_ee for c in cuts], mode in TILT_MODES)
    return body_c2, sum(c.linear for c in cuts), float(quad)


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


def _require_fit_samples(eps_values) -> None:
    # a repeated eps repeats a design row: count distinct values, since
    # lstsq would return a rank-deficient system's minimum-norm answer
    distinct = len(set(eps_values))
    if distinct < FIT_MIN_SAMPLES:
        raise ValueError(
            f"fit needs at least {FIT_MIN_SAMPLES} distinct eps values, got {distinct}"
        )


def fit_eps2_coefficient(eps_values, areas) -> QuadraticFit:
    """Fit a0 + c2*eps^2 + c4*eps^4 to (eps, area) samples.

    The exactly-clipped areas are not even functions of eps (the series
    areas are), so cubic and quintic nuisance terms are included; on a
    symmetric sample grid they leave a0, c2, c4 unchanged and only keep
    genuine odd content out of the residual.  Raises ``ValueError`` for
    fewer than FIT_MIN_SAMPLES distinct eps values.
    """
    eps_arr = np.asarray(list(eps_values), dtype=float)
    y = np.asarray(list(areas), dtype=float)
    _require_fit_samples(eps_arr)
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
    """Fit the eps^2 coefficient of the cut-body area in any mode; the
    sample count is checked before any area is evaluated.  ``eps_values``
    is read once, so any iterable serves."""
    eps_values = tuple(eps_values)
    _require_fit_samples(eps_values)
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


def format_float(x: float) -> str:
    """A float as every CSV of the package prints it: 15 significant digits."""
    return f"{x:.15g}"


def csv_text(rows) -> str:
    """CSV lines of ``rows``: floats through ``format_float``, every other
    value through ``str``."""
    return "".join(
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


def scan_table(rows: list[dict]) -> list[list]:
    """Header and cells of scan rows (``record_row`` dicts, or dicts with
    an ``error``): the record columns in the order first seen
    (``SCAN_FIELDS`` without rows), then ``error`` if any row has one; a
    cell a row lacks is empty."""
    fields = list(dict.fromkeys(f for r in rows for f in r if f != "error")) or list(SCAN_FIELDS)
    if any("error" in r for r in rows):
        fields.append("error")
    return [fields] + [[r.get(f, "") for f in fields] for r in rows]


def write_scan_csv(records: list[DensityRecord], path: str | Path) -> None:
    """The CSV ``croft-forge scan`` prints for these records."""
    Path(path).write_text(csv_text(scan_table([record_row(r) for r in records])))


def write_scan_json(records: list[DensityRecord], path: str | Path) -> None:
    """The JSON ``croft-forge scan --format json`` prints for these records."""
    Path(path).write_text(json.dumps([record_row(r) for r in records], indent=2) + "\n")
