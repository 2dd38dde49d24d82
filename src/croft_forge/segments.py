"""Second-order stripe-pair minimization on the cut data of one edge class.

A stripe across a class-k edge removes two caps, one from each copy, and
is placed by its shift s and tilt delta (``lattice.stripe_caps``).  To
second order the removed pair area is
2 a0 + eps P_e + eps P_ex.x + 1/2 x^T P_xx x + 1/2 eps^2 P_ee, with
x = s or (s, delta): ``lattice.cut_parameters`` reads P_e, P_ex and P_ee
off the two caps, and P_xx = diag(2d, 2(l + b)) is the pair Hessian on two
unit discs (``series_coefficients``).  ``pair_envelope`` minimizes it once,
x = -eps P_xx^-1 P_ex, for a single cut and for the columns of a Gram alike.
The paper's disc-cap model (four cap radii and two cap-point displacements)
and the exact disc-cap minimizers that check it are test code
(``tests/disc_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """Cut data of one edge class at eps, read off its two caps.

    ``linear`` is eps P_e, ``p_ex`` the pair (s, delta) of eps P_ex and
    ``p_ee`` is eps^2 P_ee; ``lattice.cut_parameters`` gives them at unit eps.
    """

    linear: float
    p_ex: tuple[float, float]
    p_ee: float

    def scaled(self, eps: float) -> "PairCut":
        """The cut data at ``eps`` times the unit cut's family parameter."""
        return PairCut(
            eps * self.linear, (eps * self.p_ex[0], eps * self.p_ex[1]), eps * eps * self.p_ee
        )


def pair_envelope(p_ex, p_ee, with_tilt: bool):
    """Minimize the second-order pair areas of edge classes over x = s or (s, delta).

    Per class x = -P_xx^-1 p_ex, and the minimized area's quadratic term is
    1/2 (p_ee - p_ex^T P_xx^-1 p_ex), the envelope of the pair area.  ``p_ex``
    stacks per class the rows (P_es, P_edelta), numbers or columns over m
    directions, and ``p_ee`` the matching P_ee, numbers or (m, m) Grams; the
    tilt row is dropped without ``with_tilt``.  Returns x per class and the
    quadratic term summed over the classes.
    """
    sc = series_coefficients()
    curvature = (2.0 * sc.d, 2.0 * (sc.l + sc.b))[: 2 if with_tilt else 1]
    quadratic = 0.5 * np.sum(p_ee, axis=0)
    x = []
    for rows in p_ex:
        x.append([-row / p_xx for row, p_xx in zip(rows, curvature)])
        for row, p_xx in zip(rows, curvature):
            quadratic = quadratic - 0.5 * np.multiply.outer(row, row) / p_xx
    return x, quadratic


def minimize_pair_shift(cut: PairCut) -> tuple[float, float]:
    """Minimize the second-order pair area over the stripe shift s.

    Returns (s_min, area).
    """
    (x,), quadratic = pair_envelope([cut.p_ex], [cut.p_ee], with_tilt=False)
    return float(x[0]), 2.0 * series_coefficients().a0 + cut.linear + float(quadratic)


def minimize_pair_shift_tilt(cut: PairCut) -> tuple[float, float, float]:
    """Minimize the second-order pair area over stripe shift and tilt.

    Returns (s_min, delta_min, area).
    """
    (x,), quadratic = pair_envelope([cut.p_ex], [cut.p_ee], with_tilt=True)
    area = 2.0 * series_coefficients().a0 + cut.linear + float(quadratic)
    return float(x[0]), float(x[1]), area
