"""Exact disc-cap areas, pair objectives and their SciPy minimizers.

The reference the series closed forms of ``croft_forge.segments`` are
checked against: the closed-form exact cap area (plain and with a tilted
cut line), the two-cap area summed from those, minimized
numerically over the stripe shift (bounded scalar search) or over shift
and tilt (Nelder-Mead), and an exact-vs-series difference grid.  Only
the tests use it, so SciPy stays a test dependency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from croft_forge.body import croft_constants
from croft_forge.segments import (
    PairCut,
    segment_area_series,
    segment_area_series_tilted,
    series_shift_minimizer,
    series_tilt_minimizer,
)


class CapGeometryError(ValueError):
    """Cut line misses the disc (cap depth outside the valid range)."""


def segment_area_exact(d: float, r: float) -> float:
    """Exact cap area at depth perturbation ``d``, radius perturbation ``r``."""
    w_c = croft_constants().w_c
    R = 1.0 + r
    if R <= 0.0:
        raise CapGeometryError(f"non-positive disc radius {R}")
    D = w_c + d
    t = (R - D) / R
    if t > 1.0 + 1e-12 or t < -1.0 - 1e-12:
        raise CapGeometryError(f"cap depth {D} outside the disc of radius {R}")
    phi = math.acos(min(1.0, max(-1.0, t)))
    return R * R * phi - (R - D) * R * math.sin(phi)


def segment_area_exact_tilted(d: float, r: float, delta: float) -> float:
    """Exact doubled upper-half cap area when the cut line is tilted.

    The line pivots about the point at depth D on the cap axis; positive
    tilt leans the top of the line outward, shrinking the upper half.
    Reduces to :func:`segment_area_exact` at delta = 0.
    """
    if abs(delta) >= math.pi / 2:
        raise CapGeometryError(f"tilt {delta} out of range")
    w_c = croft_constants().w_c
    R = 1.0 + r
    if R <= 0.0:
        raise CapGeometryError(f"non-positive disc radius {R}")
    D = w_c + d
    t = (R - D) / R * math.cos(delta)
    if t > 1.0 + 1e-12 or t < -1.0 - 1e-12:
        raise CapGeometryError(f"tilted cut misses the disc (cos {t})")
    phi = math.acos(min(1.0, max(-1.0, t))) - delta
    return R * R * phi - (R - D) * R * math.sin(phi)


def _pair_objective_shift(cut: PairCut, s: float) -> float:
    half = 0.5 * cut.d_x
    return 0.5 * (
        segment_area_exact(half + s, cut.r_lu)
        + segment_area_exact(half - s, cut.r_ru)
        + segment_area_exact(half + s, cut.r_ll)
        + segment_area_exact(half - s, cut.r_rl)
    )


# Half-width of the exact shift search bracket around the series minimizer.
SHIFT_BRACKET = 0.02


def minimize_pair_shift_exact(cut: PairCut) -> tuple[float, float]:
    """Minimize the exact two-cap area over the stripe shift s.

    Returns (s_min, area), found numerically in a bracket of half-width
    SHIFT_BRACKET around the series minimizer.
    """
    s0 = series_shift_minimizer(cut)
    res = minimize_scalar(
        lambda s: _pair_objective_shift(cut, s),
        bounds=(s0 - SHIFT_BRACKET, s0 + SHIFT_BRACKET),
        method="bounded",
        options={"xatol": 1e-13},
    )
    if not res.success:
        raise RuntimeError(f"shift minimization failed: {res.message}")
    return float(res.x), float(res.fun)


def effective_depth_sum(cut: PairCut, delta: float) -> float:
    """Total depth perturbation of the pair once the stripe is tilted.

    The tilted stripe keeps perpendicular width 2, which widens its
    horizontal footprint, and the vertical cap displacements slide along
    the tilted lines.
    """
    return cut.d_x + 2.0 * (1.0 / math.cos(delta) - 1.0) - math.tan(delta) * cut.d_y


def pair_objective_shift_tilt(cut: PairCut, s: float, delta: float) -> float:
    """Exact two-cap objective with tilt: four half-cap terms.

    The tilt enters the half caps with signs (lu: +delta, ru: +delta,
    ll: -delta, rl: -delta).  The depth uses the exact tilted footprint.
    """
    half = 0.5 * effective_depth_sum(cut, delta)
    return 0.5 * (
        segment_area_exact_tilted(half + s, cut.r_lu, +delta)
        + segment_area_exact_tilted(half - s, cut.r_ru, +delta)
        + segment_area_exact_tilted(half + s, cut.r_ll, -delta)
        + segment_area_exact_tilted(half - s, cut.r_rl, -delta)
    )


def minimize_pair_shift_tilt_exact(cut: PairCut) -> tuple[float, float, float]:
    """Minimize the exact two-cap area over stripe shift and tilt.

    Returns (s_min, delta_min, area) from a simplex search on the exact
    objective seeded at the series minimizer.
    """
    s0, delta0 = series_tilt_minimizer(cut)
    res = minimize(
        lambda x: pair_objective_shift_tilt(cut, x[0], x[1]),
        x0=[s0, delta0],
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 4000},
    )
    if not res.success:
        raise RuntimeError(f"shift+tilt minimization failed: {res.message}")
    return float(res.x[0]), float(res.x[1]), float(res.fun)


def difference_grid(
    d_range=(-0.01, 0.01), r_range=(-0.1, 0.1), n: int = 41, delta: float = 0.0
) -> list[dict]:
    """Exact-vs-series cap area rows over a (d, r) grid at fixed tilt."""
    rows = []
    for d in np.linspace(*d_range, n):
        for r in np.linspace(*r_range, n):
            if delta == 0.0:
                exact = segment_area_exact(d, r)
                series = segment_area_series(d, r)
            else:
                exact = segment_area_exact_tilted(d, r, delta)
                series = segment_area_series_tilted(d, r, delta)
            rows.append(
                {
                    "d": float(d), "r": float(r), "delta": delta,
                    "exact": exact, "series": series, "diff": series - exact,
                }
            )
    return rows
