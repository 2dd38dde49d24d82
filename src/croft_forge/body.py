"""Constant-diameter-2 bodies assembled as closed chains of circular arcs.

Each interval of the radius profile q contributes one arc of radius
1 - eps*q_i about a center M_i; consecutive centers are chained so the
boundary is continuous, and antipodal intervals share their center, which
makes every antipodal boundary distance exactly 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .stepfn import TWO_PI, StepFunction

CLOSURE_TOL = 1e-9
RADIUS_TOL = 1e-12


class BodyError(ValueError):
    """Invalid body construction (non-finite eps, open chain or negative radius)."""


@dataclass(frozen=True)
class ArcBody:
    """Closed chain of circular arcs, one per interval of the profile.

    ``centers[i]`` and ``radii[i]`` describe the arc spanning angles
    [breaks[i], breaks[i+1]].  ``closure_residual`` is the gap left when
    chaining the centers once around (checked, not enforced).
    """

    centers: np.ndarray          # (n, 2)
    radii: np.ndarray            # (n,)
    breaks: np.ndarray           # (n + 1,)
    epsilon: float
    closure_residual: float

    @property
    def n_arcs(self) -> int:
        return len(self.radii)

    def interval_of(self, phi) -> np.ndarray:
        # reduce into [breaks[0], breaks[0] + 2*pi) so rotated bodies
        # (whose breaks do not start at 0) still look up correctly; only
        # rounding can put phi on breaks[-1]
        phi = self.breaks[0] + (np.asarray(phi, dtype=float) - self.breaks[0]) % TWO_PI
        return np.minimum(np.searchsorted(self.breaks, phi, side="right") - 1, self.n_arcs - 1)


def center_offsets(q: StepFunction) -> np.ndarray:
    """Per-interval center offsets at unit eps, chained from the anchor.

    The anchor convention puts the boundary point at phi = 0 at (1, 0),
    so the first offset is (q_0, 0).  Returns an (n, 2) array.
    """
    vals = q.values
    n = len(vals)
    offs = np.empty((n, 2))
    offs[0] = (vals[0], 0.0)
    for i in range(n - 1):
        phi = q.breaks[i + 1]
        dq = vals[i + 1] - vals[i]
        offs[i + 1, 0] = offs[i, 0] + dq * math.cos(phi)
        offs[i + 1, 1] = offs[i, 1] + dq * math.sin(phi)
    return offs


def chain_closure_residual(q: StepFunction) -> float:
    """Gap when chaining the center offsets once around the full turn."""
    vals = q.values
    phi0 = q.breaks[0]
    dq0 = vals[0] - vals[-1]
    offs = center_offsets(q)
    end_x = offs[-1, 0] + dq0 * math.cos(phi0)
    end_y = offs[-1, 1] + dq0 * math.sin(phi0)
    return math.hypot(end_x - offs[0, 0], end_y - offs[0, 1])


def build_body(q: StepFunction, eps: float, *, closure_tol: float = CLOSURE_TOL) -> ArcBody:
    """Assemble the constant-diameter-2 body for profile ``q`` at ``eps``.

    The boundary point at phi = 0 is (1, 0) (``center_offsets``); the
    lattice copies are rigid motions of this one body (``lattice.place_copy``).

    Raises :class:`BodyError` when eps is not finite, when the chained
    centers do not close (the profile violates the two linear closure
    constraints) or when some radius 1 - eps*q would be negative.  A zero
    radius is allowed: the arc degenerates to a corner point of the
    boundary.
    """
    if not math.isfinite(eps):
        raise BodyError(f"eps must be finite, got {eps}")
    radii = 1.0 - eps * q.values
    if radii.min() < -RADIUS_TOL:
        raise BodyError(
            f"non-positive radius {radii.min():.3g}: eps={eps} outside the "
            "valid range for this profile"
        )
    residual = abs(eps) * chain_closure_residual(q)
    if residual > closure_tol:
        raise BodyError(
            f"arc chain does not close (residual {residual:.3g}): the "
            "profile violates the closure constraints"
        )
    centers = eps * center_offsets(q)
    return ArcBody(
        centers=centers,
        radii=np.maximum(radii, 0.0),
        breaks=q.breaks.copy(),
        epsilon=eps,
        closure_residual=residual,
    )


def boundary_point(b: ArcBody, phi) -> np.ndarray:
    """Boundary point(s) at angle(s) ``phi``: M_i + rho_i * (cos, sin)."""
    phi = np.asarray(phi, dtype=float)
    idx = b.interval_of(phi)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return b.centers[idx] + b.radii[idx][..., None] * u


def body_area(b: ArcBody) -> float:
    """Exact area from the per-arc sector-minus-triangle closed form.

    Green's theorem over the closed boundary: each arc contributes
    rho^2 * dphi / 2 plus half the cross product of its center with the
    chord vector; no numeric quadrature is involved.
    """
    phi0 = b.breaks[:-1]
    phi1 = b.breaks[1:]
    dphi = phi1 - phi0
    u0 = np.stack([np.cos(phi0), np.sin(phi0)], axis=-1)
    u1 = np.stack([np.cos(phi1), np.sin(phi1)], axis=-1)
    du = u1 - u0
    cross = b.centers[:, 0] * du[:, 1] - b.centers[:, 1] * du[:, 0]
    return float(0.5 * np.sum(b.radii**2 * dphi + b.radii * cross))


def diameter_profile(b: ArcBody, n: int = 10_000) -> tuple[float, float]:
    """(max, min) antipodal boundary distance over ``n`` sampled angles.

    Break angles are included (sampled just inside each adjacent
    interval) so corner points are covered.
    """
    if n < 24:
        raise ValueError("need at least 24 samples")
    phis = np.linspace(0.0, math.pi, n, endpoint=False)
    eps_in = 1e-9
    extra = np.concatenate([b.breaks[:-1] + eps_in, b.breaks[:-1] - eps_in])
    phis = np.concatenate([phis, extra % TWO_PI])
    p = boundary_point(b, phis)
    q = boundary_point(b, phis + math.pi)
    d = np.hypot(*(p - q).T)
    return float(d.max()), float(d.min())


def transform(b: ArcBody, rotation: float = 0.0, translation=(0.0, 0.0)) -> ArcBody:
    """Rigidly move a body: rotate about the origin, then translate.

    The returned body's breaks are shifted by the rotation angle and no
    longer start at 0.  ``interval_of`` reduces angles from ``breaks[0]``,
    so ``boundary_point`` of the moved body at phi + rotation is the moved
    point of the original at phi.
    """
    c, s = math.cos(rotation), math.sin(rotation)
    rot = np.array([[c, -s], [s, c]])
    return ArcBody(
        centers=b.centers @ rot.T + np.asarray(translation, dtype=float),
        radii=b.radii.copy(),
        breaks=b.breaks + rotation,
        epsilon=b.epsilon,
        closure_residual=b.closure_residual,
    )


def body_to_dict(b: ArcBody) -> dict:
    """JSON-ready dump of the arcs for external cross-checks."""
    return {
        "epsilon": b.epsilon,
        "closure_residual": b.closure_residual,
        "arcs": [
            {
                "center": [float(b.centers[i, 0]), float(b.centers[i, 1])],
                "radius": float(b.radii[i]),
                "phi_start": float(b.breaks[i]),
                "phi_end": float(b.breaks[i + 1]),
            }
            for i in range(b.n_arcs)
        ],
    }


# ---------------------------------------------------------------------------
# Baseline (disc) constants


@dataclass(frozen=True)
class CroftConstants:
    """Optimal disc-segment constants at diameter-2 scale."""

    phi_c: float      # half segment angle
    w_c: float        # horizontal segment width, 1 - cos(phi_c)
    a_c: float        # segment area, phi_c - cos(phi_c)*sin(phi_c)
    lattice_constant: float   # 2 * (1 + cos(phi_c))
    density: float    # packing density of the cut-disc construction


def cut_disc_density(phi: float) -> float:
    """Density of the hexagonal cut-disc packing with half angle ``phi``."""
    area = math.pi - 6.0 * (phi - math.sin(phi) * math.cos(phi))
    cell = 2.0 * math.sqrt(3.0) * (1.0 + math.cos(phi)) ** 2
    return area / cell


def _density_derivative_numerator(phi: float) -> float:
    # d/dphi of cut_disc_density has the sign of this expression
    num = math.pi - 6.0 * (phi - math.sin(phi) * math.cos(phi))
    return -12.0 * math.sin(phi) ** 2 * (1.0 + math.cos(phi)) + 2.0 * math.sin(
        phi
    ) * num


@lru_cache(maxsize=1)
def croft_constants() -> CroftConstants:
    """Solve the 1-D density maximization for the optimal half angle.

    A bounded 1-D minimization locates the maximum; the flat quadratic
    top limits its accuracy to ~1e-8, so the result is polished to full
    precision by a root-find on the analytic derivative.
    """
    res = minimize_scalar(
        lambda phi: -cut_disc_density(phi),
        bounds=(0.05, 0.8),
        method="bounded",
        options={"xatol": 1e-14},
    )
    if not res.success:
        raise RuntimeError(f"half-angle optimization failed: {res.message}")
    phi_c = float(
        brentq(_density_derivative_numerator, res.x - 1e-4, res.x + 1e-4, xtol=1e-15)
    )
    return CroftConstants(
        phi_c=phi_c,
        w_c=1.0 - math.cos(phi_c),
        a_c=phi_c - math.cos(phi_c) * math.sin(phi_c),
        lattice_constant=2.0 * (1.0 + math.cos(phi_c)),
        density=cut_disc_density(phi_c),
    )
