"""Disc-cap area series and the closed-form pair minimization.

A cap is the part of a disc of radius R = 1 + r beyond a cut line at
depth D = w_c + d; tilting the line by delta keeps it through the same
axis point.  The second-order series coefficients of the cap area and
the closed-form 1-parameter (stripe shift s) and 2-parameter (shift +
tilt) minimization of two opposite caps with four independent radii
live here.  The exact cap area and the numerical minimizers of the exact
disc-cap pair area, which check these closed forms, are test code
(``tests/disc_reference.py``).

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
from dataclasses import dataclass
from functools import lru_cache

from .body import croft_constants


@dataclass(frozen=True)
class SeriesCoefficients:
    """Second-order expansion constants of the cap area.

    ``a0`` is the unperturbed cap area; b, c, d, e, f are the first and
    second derivatives in (depth, radius); h, j, k, l are the tilt
    derivatives.  All follow from the optimal half angle in closed form.
    """

    a0: float
    b: float
    c: float
    d: float
    e: float
    f: float
    h: float
    j: float
    k: float
    l: float


@lru_cache(maxsize=1)
def series_coefficients() -> SeriesCoefficients:
    phi = croft_constants().phi_c
    sin, cos = math.sin(phi), math.cos(phi)
    return SeriesCoefficients(
        a0=phi - cos * sin,
        b=2.0 * sin,
        c=2.0 * (phi - sin),
        d=2.0 * cos / sin,
        e=2.0 * (1.0 - cos) / sin,
        f=2.0 * (phi - 2.0 * (1.0 - cos) / sin),
        h=-sin * sin,
        j=-2.0 * cos,
        k=2.0 * (cos - 1.0),
        l=2.0 * cos * sin,
    )


@dataclass(frozen=True)
class PairCut:
    """Geometry of two opposite caps for one edge class.

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

    def scaled(self, factor: float) -> "PairCut":
        return PairCut(*(factor * x for x in (
            self.d_x, self.d_y, self.r_lu, self.r_ll, self.r_ru, self.r_rl)))


# ---------------------------------------------------------------------------
# Second-order series


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


# ---------------------------------------------------------------------------
# Pair minimization: two opposite caps, stripe shifted by s (and tilted)


def pair_area_series_shift(cut: PairCut) -> float:
    """Closed-form minimized pair area, shift-only minimization."""
    sc = series_coefficients()
    return (
        2.0 * sc.a0 + sc.b * cut.d_x + 0.5 * sc.c * cut.r_s
        + 0.25 * sc.d * cut.d_x**2 + 0.25 * sc.e * cut.d_x * cut.r_s
        - sc.e**2 / (16.0 * sc.d) * cut.r_l**2 + 0.25 * sc.f * cut.r_s2
    )


def series_shift_minimizer(cut: PairCut) -> float:
    sc = series_coefficients()
    return -sc.e * cut.r_l / (4.0 * sc.d)


def minimize_pair_shift(cut: PairCut) -> tuple[float, float]:
    """Minimize the two-cap series area over the stripe shift s.

    Returns (s_min, area) from the closed forms.
    """
    return series_shift_minimizer(cut), pair_area_series_shift(cut)


def series_tilt_minimizer(cut: PairCut) -> tuple[float, float]:
    sc = series_coefficients()
    delta0 = -(sc.k * cut.r_u - 2.0 * sc.b * cut.d_y) / (4.0 * (sc.l + sc.b))
    return series_shift_minimizer(cut), delta0


def pair_area_series_shift_tilt(cut: PairCut) -> float:
    """Closed-form minimized pair area with shift and tilt.

    The footprint correction is applied only in the linear depth term,
    so the result stays a clean second-order expression: the shift-only
    minimum lowered by (k*r_u - 2b*d_y)^2 / (16 (l + b)).
    """
    sc = series_coefficients()
    extra = (sc.k * cut.r_u - 2.0 * sc.b * cut.d_y) ** 2 / (16.0 * (sc.l + sc.b))
    return pair_area_series_shift(cut) - extra


def minimize_pair_shift_tilt(cut: PairCut) -> tuple[float, float, float]:
    """Minimize the two-cap series area over stripe shift and tilt.

    Returns (s_min, delta_min, area) from the closed forms.
    """
    s0, delta0 = series_tilt_minimizer(cut)
    return s0, delta0, pair_area_series_shift_tilt(cut)


def pair_area_parts(cut: PairCut, with_tilt: bool) -> tuple[float, float]:
    """(odd, even) parts of the minimized pair area P, shift-only or with tilt.

    P is second order in the cut c, so the odd part 1/2 (P(c) - P(-c)) is
    its linear term and the even part 1/2 (P(c) + P(-c)) - 2 a0 its
    quadratic term.
    """
    area = pair_area_series_shift_tilt if with_tilt else pair_area_series_shift
    plus, minus = area(cut), area(cut.scaled(-1.0))
    return 0.5 * (plus - minus), 0.5 * (plus + minus) - 2.0 * series_coefficients().a0
