"""The paper's disc-cap model of the stripe cut, and its exact minimizers.

The reference the cap-read cut model of ``croft_forge`` (``lattice.cut_parameters``
with ``segments.pair_envelope``) is checked against; only the tests use it,
so SciPy stays a test dependency.

Disc-cap model.  A cap is the part of a disc of radius R = 1 + r beyond a
cut line at depth D = w_c + d; tilting the line by delta keeps it through
the same axis point.  Each class's cut (``DiscCut``) holds the summed
horizontal and vertical displacements d_x, d_y of the two cap points, read
off the placed copies by ``boundary_point`` (``disc_cuts``), and the four
cap radii, one per side of each cap angle, read exactly from the profile's
``break_fractions`` (``one_sided_values``).  The second-order series of the
cap area and the closed-form shift (and shift + tilt) minimization of two
opposite caps follow; the shift minimizer is measured from the midpoint of
the two cap points, not in the edge frame.  The model holds only where each
side of a cap lies on one arc.  Here also: the closed-form exact cap area
(plain and tilted), the two-cap area summed from it and minimized
numerically over the shift (bounded scalar search) or over shift and tilt
(Nelder-Mead), and an exact-vs-series difference grid.

Tilt model.  Both upper half caps tilt by +delta and both lower half
caps by -delta, so the tilt couples to r_u = r_lu + r_ru - r_ll - r_rl.
The diagonal pattern (the right cap's halves swapped, coupling the tilt
to r_lu + r_rl - r_ll - r_ru) was compared and removed.  On the
reference unit cuts it gives cut c2 -0.017916152560773 and net c2
+0.007441447088142, against -0.006057919731823 and -0.004416785740809
for the model kept here, which the exact2 clipped-area fit confirms.

The printed values (cut -0.0118673317, net +0.0013926262) are this
model with the vertical cap-point displacement d_y dropped from the tilt
term (k*r_u - 2b*d_y).  Zeroing d_y in the reference unit cuts gives cut
c2 -0.011867331708 and net c2 +0.001392626235, within 7.9e-12 and
3.5e-11 of them; the exact clipped area sees d_y.  The printed
shift-only +2.04e-15 is the eps-linear cut coefficient, which vanishes:
it is about 2e-15 here, zero up to rounding, while the shift-only
(series1) net c2 is -0.0048968.

Footprint.  The tilted stripe's wider footprint enters the closed-form
series pair area only in the linear depth term.  Keeping it in every
term and minimizing numerically changes the minimized pair area of the
reference unit cuts scaled by 0.02, 0.01 and 0.005 by at most 7.6e-12,
4.2e-13 and 1.9e-14: fourth order, so c2 does not see it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from croft_forge.body import body_area, boundary_point, build_body, croft_constants
from croft_forge.lattice import LATTICE_CONSTANT, edge_ends, place_copy
from croft_forge.segments import series_coefficients


@dataclass(frozen=True)
class DiscCut:
    """Disc-cap geometry of two opposite caps for one edge class.

    ``d_x``/``d_y`` are the summed horizontal/vertical displacements of
    the two cap points; the four radius perturbations are upper/lower on
    the left/right cap, each cap frame oriented with its own outward x.
    """

    d_x: float = 0.0
    d_y: float = 0.0
    r_lu: float = 0.0
    r_ll: float = 0.0
    r_ru: float = 0.0
    r_rl: float = 0.0

    @property
    def r_s(self) -> float:
        return self.r_lu + self.r_ll + self.r_ru + self.r_rl

    @property
    def r_s2(self) -> float:
        return self.r_lu**2 + self.r_ll**2 + self.r_ru**2 + self.r_rl**2

    @property
    def r_l(self) -> float:
        return self.r_lu + self.r_ll - self.r_ru - self.r_rl

    @property
    def r_u(self) -> float:
        # upper-minus-lower combination with both caps in lattice sense
        return self.r_lu + self.r_ru - self.r_ll - self.r_rl

    def scaled(self, factor: float) -> "DiscCut":
        return DiscCut(*(factor * x for x in (
            self.d_x, self.d_y, self.r_lu, self.r_ll, self.r_ru, self.r_rl)))


def one_sided_values(q, f: Fraction) -> tuple[float, float]:
    """(right, left) limits of the profile ``q`` at the angle f*pi, for
    0 <= f < 2, read exactly from ``q.break_fractions``: at a break they
    are the values on either side, elsewhere they agree, and the left limit
    at 0 wraps to the last interval."""
    fracs = q.break_fractions
    return (float(q.values[bisect_right(fracs, f) - 1]),
            float(q.values[bisect_left(fracs, f) - 1]))


def disc_cuts(q, eps: float, shift=None) -> list[DiscCut]:
    """Disc-cap geometry of the three edge classes for the body of ``q`` at ``eps``.

    The displacements are read off the two copies across each class's
    representative edge (``edge_ends``, placed by ``place_copy``):
    the left copy's cap point at angle 0 measured from (1, 0) and the right
    copy's at angle pi measured from (L - 1, 0), summed in the edge frame,
    where x points along the edge.  The radius perturbations are the
    one-sided profile values (``one_sided_values``) at the cap angles
    2k*psi and (2k+1)*psi of the unrotated body, psi = pi/3.
    """
    body = build_body(q, eps)
    cuts = []
    for k in range(3):
        left, right = (place_copy(body, c, p, shift) for c, p in edge_ends(k))
        xl, yl = boundary_point(left, 0.0)
        xr, yr = boundary_point(right, math.pi)
        lu, ll = one_sided_values(q, Fraction(2 * k, 3))
        ru, rl = one_sided_values(q, Fraction(2 * k + 1, 3))
        cuts.append(DiscCut(
            d_x=(xl - 1.0) + (LATTICE_CONSTANT - 1.0 - xr),
            d_y=yl - yr,
            r_lu=-eps * lu, r_ll=-eps * ll, r_ru=-eps * ru, r_rl=-eps * rl,
        ))
    return cuts


def unit_disc_cuts(q, shift=None) -> list[DiscCut]:
    """``disc_cuts`` at unit eps (every entry is linear in eps), probed at
    eps = 0.125 / max(1, max|q|) so every radius 1 - eps*q stays >= 7/8."""
    h = 0.125 / max(1.0, float(np.max(np.abs(q.values))))
    return [c.scaled(1.0 / h) for c in disc_cuts(q, h, shift)]


# ---------------------------------------------------------------------------
# Second-order series of the disc-cap model


def segment_area_series(d: float, r: float) -> float:
    """Second-order power series of the cap area in (d, r)."""
    sc = series_coefficients()
    return (
        sc.a0 + sc.b * d + sc.c * r
        + 0.5 * sc.d * d * d + sc.e * d * r + 0.5 * sc.f * r * r
    )


def segment_area_series_tilted(d: float, r: float, delta: float) -> float:
    """Second-order series including the tilt terms."""
    sc = series_coefficients()
    return (
        segment_area_series(d, r)
        + sc.h * delta + sc.j * d * delta + sc.k * r * delta
        + 0.5 * sc.l * delta * delta
    )


def pair_area_series_shift(cut: DiscCut) -> float:
    """Closed-form minimized pair area, shift-only minimization."""
    sc = series_coefficients()
    return (
        2.0 * sc.a0 + sc.b * cut.d_x + 0.5 * sc.c * cut.r_s
        + 0.25 * sc.d * cut.d_x**2 + 0.25 * sc.e * cut.d_x * cut.r_s
        - sc.e**2 / (16.0 * sc.d) * cut.r_l**2 + 0.25 * sc.f * cut.r_s2
    )


def series_shift_minimizer(cut: DiscCut) -> float:
    sc = series_coefficients()
    return -sc.e * cut.r_l / (4.0 * sc.d)


def series_tilt_minimizer(cut: DiscCut) -> tuple[float, float]:
    sc = series_coefficients()
    delta0 = -(sc.k * cut.r_u - 2.0 * sc.b * cut.d_y) / (4.0 * (sc.l + sc.b))
    return series_shift_minimizer(cut), delta0


def pair_area_series_shift_tilt(cut: DiscCut) -> float:
    """Closed-form minimized pair area with shift and tilt.

    The footprint correction is applied only in the linear depth term,
    so the result stays a clean second-order expression: the shift-only
    minimum lowered by (k*r_u - 2b*d_y)^2 / (16 (l + b)).
    """
    sc = series_coefficients()
    extra = (sc.k * cut.r_u - 2.0 * sc.b * cut.d_y) ** 2 / (16.0 * (sc.l + sc.b))
    return pair_area_series_shift(cut) - extra


def minimize_pair_shift_series(cut: DiscCut) -> tuple[float, float]:
    """(s_min, area) of the series pair area over the stripe shift."""
    return series_shift_minimizer(cut), pair_area_series_shift(cut)


def minimize_pair_shift_tilt_series(cut: DiscCut) -> tuple[float, float, float]:
    """(s_min, delta_min, area) of the series pair area over shift and tilt."""
    s0, delta0 = series_tilt_minimizer(cut)
    return s0, delta0, pair_area_series_shift_tilt(cut)


def pair_area_parts(cut: DiscCut, with_tilt: bool) -> tuple[float, float]:
    """(odd, even) parts of the minimized pair area P, shift-only or with tilt.

    P is second order in the cut c, so the odd part 1/2 (P(c) - P(-c)) is
    its linear term and the even part 1/2 (P(c) + P(-c)) - 2 a0 its
    quadratic term.
    """
    area = pair_area_series_shift_tilt if with_tilt else pair_area_series_shift
    plus, minus = area(cut), area(cut.scaled(-1.0))
    return 0.5 * (plus - minus), 0.5 * (plus + minus) - 2.0 * series_coefficients().a0


def disc_cut_coefficients(unit_cuts: list[DiscCut], with_tilt: bool) -> tuple[float, float]:
    """(linear, quadratic) eps-coefficients of the minimized cut-area sum of
    the disc-cap model on the three unit cuts."""
    parts = [pair_area_parts(c, with_tilt) for c in unit_cuts]
    return sum(odd for odd, _ in parts), sum(even for _, even in parts)


def disc_tortoise_area(q, eps: float, with_tilt: bool, shift=None):
    """(cut-body area, per-class (s, delta)) of the disc-cap series model."""
    area = body_area(build_body(q, eps))
    stripes = []
    for cut in disc_cuts(q, eps, shift):
        if with_tilt:
            s, delta, pair = minimize_pair_shift_tilt_series(cut)
        else:
            (s, pair), delta = minimize_pair_shift_series(cut), 0.0
        area -= pair
        stripes.append((s, delta))
    return area, stripes


# ---------------------------------------------------------------------------
# Exact disc-cap areas and their numerical minimizers


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


def _pair_objective_shift(cut: DiscCut, s: float) -> float:
    half = 0.5 * cut.d_x
    return 0.5 * (
        segment_area_exact(half + s, cut.r_lu)
        + segment_area_exact(half - s, cut.r_ru)
        + segment_area_exact(half + s, cut.r_ll)
        + segment_area_exact(half - s, cut.r_rl)
    )


# Half-width of the exact shift search bracket around the series minimizer.
SHIFT_BRACKET = 0.02


def minimize_pair_shift_exact(cut: DiscCut) -> tuple[float, float]:
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


def effective_depth_sum(cut: DiscCut, delta: float) -> float:
    """Total depth perturbation of the pair once the stripe is tilted.

    The tilted stripe keeps perpendicular width 2, which widens its
    horizontal footprint, and the vertical cap displacements slide along
    the tilted lines.
    """
    return cut.d_x + 2.0 * (1.0 / math.cos(delta) - 1.0) - math.tan(delta) * cut.d_y


def pair_objective_shift_tilt(cut: DiscCut, s: float, delta: float) -> float:
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


def minimize_pair_shift_tilt_exact(cut: DiscCut) -> tuple[float, float, float]:
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
