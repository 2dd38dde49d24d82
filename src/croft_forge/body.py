"""Constant-diameter-2 bodies assembled as closed chains of circular arcs.

Each interval of the radius profile q contributes one arc of radius
1 - eps*q_i about a center M_i; consecutive centers are chained so the
boundary is continuous, and antipodal intervals share their center, which
makes every antipodal boundary distance exactly 2 (``diameter_profile``
checks it in closed form).  The chain closes iff sum_i q_i du_i = 0, with
du_i = u(phi_{i+1}) - u(phi_i) the unit chord of arc i (``_unit_chords``,
cached per break set, which ``body_area`` and ``body_area_gram`` also
read): two linear constraints on q, stated once here and read off by
``ansatz.closure_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .stepfn import TWO_PI, StepFunction

CLOSURE_TOL = 1e-9
RADIUS_TOL = 1e-12


class BodyError(ValueError):
    """Invalid body construction (non-finite eps, open chain or negative radius)."""


@dataclass(frozen=True)
class ArcBody:
    """Closed chain of circular arcs, one per interval of the profile.

    ``centers[i]`` and ``radii[i]`` describe the arc spanning angles
    [breaks[i], breaks[i+1]].
    """

    centers: np.ndarray          # (n, 2)
    radii: np.ndarray            # (n,)
    breaks: np.ndarray           # (n + 1,)
    epsilon: float

    @property
    def n_arcs(self) -> int:
        return len(self.radii)

    @cached_property
    def arc_lists(self) -> tuple[list, list, list]:
        """(centers, radii, breaks) as Python lists, for walks arc by arc."""
        return self.centers.tolist(), self.radii.tolist(), self.breaks.tolist()

    def interval_of(self, phi) -> np.ndarray:
        # reduce into [breaks[0], breaks[0] + 2*pi) so rotated bodies
        # (whose breaks do not start at 0) still look up correctly; only
        # rounding can put phi on breaks[-1]
        phi = self.breaks[0] + (np.asarray(phi, dtype=float) - self.breaks[0]) % TWO_PI
        return np.minimum(np.searchsorted(self.breaks, phi, side="right") - 1, self.n_arcs - 1)


def center_offsets(breaks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-interval center offsets at unit eps, chained from the anchor.

    Center i is the sum over j <= i of (q_j - q_{j-1}) u(phi_j) with
    q_{-1} = 0: since phi_0 = 0, the first term is the anchor (q_0, 0),
    which puts the boundary point at phi = 0 at (1, 0).  ``values`` holds
    one profile (n,) or one per column (n, m); returns (n, 2) or (n, m, 2).
    """
    dq = np.array(values, dtype=float)
    dq[1:] -= values[:-1]  # q_j - q_{j-1}, with q_{-1} = 0
    # einsum adds each product to +0.0, so the anchor's y is +0.0 even where
    # q_0 sin(0) would be -0.0
    return np.cumsum(np.einsum("i...,ik->i...k", dq, _unit(breaks[:-1])), axis=0)


def chain_closure_residual(breaks, values) -> float:
    """Gap when chaining the center offsets once around the full turn.

    The chain adds (q_{i+1} - q_i) u(phi_{i+1}) per break; summed by parts,
    the gap is -sum_i q_i du_i with the arc chords du of ``_unit_chords``,
    so its length is |du^T q|.
    """
    return math.hypot(*(_unit_chords(tuple(breaks)).T @ values).tolist())


def require_closure(breaks, values) -> None:
    """Raise :class:`BodyError` when the arc chain of the profile
    (``breaks``, ``values``) at unit eps does not close to CLOSURE_TOL: the
    profile violates the two linear closure constraints.  The residual is
    the profile's own, whatever eps a body is built at, so ``build_body``
    and the closed forms at unit eps (``lattice.second_order_read``)
    accept and refuse the same profiles, in every mode and at every eps."""
    residual = chain_closure_residual(breaks, values)
    if residual > CLOSURE_TOL:
        raise BodyError(
            f"arc chain does not close (residual {residual:.3g} at unit eps): "
            "the profile violates the closure constraints"
        )


def family_radii(q: StepFunction, eps: float) -> np.ndarray:
    """Arc radii 1 - eps*q; raises :class:`BodyError` when eps is not finite
    or some radius is below -RADIUS_TOL.  A zero radius is allowed: the arc
    degenerates to a corner point of the boundary."""
    if not math.isfinite(eps):
        raise BodyError(f"eps must be finite, got {eps}")
    radii = 1.0 - eps * q.values
    if radii.min() < -RADIUS_TOL:
        raise BodyError(
            f"non-positive radius {radii.min():.3g}: eps={eps} outside the "
            "valid range for this profile"
        )
    return radii


def build_body(q: StepFunction, eps: float) -> ArcBody:
    """Assemble the constant-diameter-2 body for profile ``q`` at ``eps``.

    The boundary point at phi = 0 is (1, 0) (``center_offsets``); the
    lattice copies are rigid motions of this one body (``lattice.place_copy``).

    Raises :class:`BodyError` as ``family_radii`` and ``require_closure`` do.
    """
    radii = family_radii(q, eps)
    require_closure(q.breaks, q.values)
    centers = eps * center_offsets(q.breaks, q.values)
    return ArcBody(
        centers=centers,
        radii=np.maximum(radii, 0.0),
        breaks=q.breaks.copy(),
        epsilon=eps,
    )


def boundary_point(b: ArcBody, phi) -> np.ndarray:
    """Boundary point(s) at angle(s) ``phi``: M_i + rho_i * (cos, sin)."""
    phi = np.asarray(phi, dtype=float)
    idx = b.interval_of(phi)
    return b.centers[idx] + b.radii[idx][..., None] * _unit(phi)


def _unit(phi) -> np.ndarray:
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


@lru_cache(maxsize=64)  # bounded for sweeps over many break sets
def _unit_chords(breaks: tuple[float, ...]) -> np.ndarray:
    """Unit chord u(phi_{i+1}) - u(phi_i) of each arc of a break set, read-only."""
    phi = np.array(breaks)
    du = _unit(phi[1:]) - _unit(phi[:-1])
    du.setflags(write=False)
    return du


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _in_arc(d, u0, u1):
    """Whether direction ``d`` lies in the arc range from ``u0``
    counter-clockwise to ``u1``, a range of width in (0, pi]: the one
    arc-range test of the package."""
    return (_cross(u0, d) >= 0.0) & (_cross(d, u1) >= 0.0)


def body_area(b: ArcBody) -> float:
    """Exact area from the per-arc sector-minus-triangle closed form.

    Green's theorem over the closed boundary: each arc contributes
    rho^2 * dphi / 2 plus half the cross product of its center with the
    chord vector; no numeric quadrature is involved.
    """
    cross = _cross(b.centers, _unit_chords(tuple(b.breaks)))
    return float(0.5 * np.sum(b.radii**2 * np.diff(b.breaks) + b.radii * cross))


def body_area_gram(breaks: np.ndarray, q: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Gram matrix of the eps^2 coefficient of ``body_area`` over the
    profiles in the columns of ``q`` (n, m), all on ``breaks``, with their
    ``center_offsets`` ``offsets`` (n, m, 2).

    With rho = 1 - eps*q and centers eps*offs, the Green sum of
    ``body_area`` has the eps^2 coefficient
    1/2 sum_i (q_i^2 dphi_i - q_i offs_i x du_i), exactly, since the area
    is quadratic in eps.  Entry [a, b] is its bilinear form at columns a
    and b, so the diagonal holds each profile's coefficient.
    """
    w = _cross(offsets, _unit_chords(tuple(breaks))[:, None, :])  # (n, m)
    qw = q.T @ w
    return 0.5 * (q.T @ (np.diff(breaks)[:, None] * q)) - 0.25 * (qw + qw.T)


def diameter_profile(b: ArcBody) -> tuple[float, float]:
    """(max, min) antipodal boundary distance |p(phi) - p(phi + pi)|, exactly
    (``antipodal_extremes``)."""
    dist = antipodal_extremes(b.centers, b.radii, b.breaks)[0]
    return float(dist.max()), float(dist.min())


def antipodal_extremes(centers, radii, breaks):
    """(dist, P, Q): the largest and the smallest |p(phi) - p(phi + pi)|
    for phi on each arc of the first half, shaped (2, ..., n/2) for bodies
    stacked along the leading axes, and the pairs p(phi), p(phi + pi).

    For phi on arc i, phi + pi lies on the antipodal arc j = i + n/2, so
    p(phi) - p(phi + pi) = D + R u(phi) with D = M_i - M_j, R = r_i + r_j,
    and its squared length |D|^2 + R^2 + 2R D.u(phi) takes its extremes on
    the arc at its two ends or at u = +-D/|D| where that lies inside
    (``_in_arc``: an arc of the first half spans at most pi).  D = 0 lies
    in every range, where every u gives R (the pair at the arc's start).
    """
    half = radii.shape[-1] // 2
    D = centers[..., :half, :] - centers[..., half:, :]
    R = radii[..., :half] + radii[..., half:]
    u_lo, u_hi = _unit(breaks[..., :half]), _unit(breaks[..., 1 : half + 1])
    ends = np.stack([np.sum(u * D, axis=-1) for u in (u_lo, u_hi)])
    norm = np.hypot(D[..., 0], D[..., 1])
    along = D / np.where(norm > 0.0, norm, 1.0)[..., None]
    # each extreme of D.u lies at u = +-D/|D| where that is inside the arc,
    # else at the end with the larger or the smaller D.u
    inside = np.stack([_in_arc(D, u_lo, u_hi), _in_arc(-D, u_lo, u_hi)]) & (norm > 0.0)
    at_hi = np.stack([ends[1] > ends[0], ends[1] < ends[0]])
    d2 = norm**2 + R**2 + 2.0 * R * np.where(inside, np.stack([norm, -norm]),
                                             np.where(at_hi, ends[1], ends[0]))
    u = np.where(inside[..., None], np.stack([along, -along]),
                 np.where(at_hi[..., None], u_hi, u_lo))
    P = centers[..., :half, :] + radii[..., :half, None] * u
    Q = centers[..., half:, :] - radii[..., half:, None] * u
    return np.sqrt(np.maximum(d2, 0.0)), P, Q


def _rotation(angle: float) -> np.ndarray:
    """The 2 x 2 matrix of the rotation by ``angle`` about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def transform(b: ArcBody, rotation: float = 0.0, translation=(0.0, 0.0)) -> ArcBody:
    """Rigidly move a body: rotate about the origin, then translate.

    The returned body's breaks are shifted by the rotation angle and no
    longer start at 0.  ``interval_of`` reduces angles from ``breaks[0]``,
    so ``boundary_point`` of the moved body at phi + rotation is the moved
    point of the original at phi.
    """
    return ArcBody(
        centers=b.centers @ _rotation(rotation).T + np.asarray(translation, dtype=float),
        radii=b.radii.copy(),
        breaks=b.breaks + rotation,
        epsilon=b.epsilon,
    )


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


def _density_derivative_numerator(phi: float) -> tuple[float, float]:
    """The numerator g of d/dphi ``cut_disc_density``, which has its sign,
    and g's closed-form derivative."""
    s, c = math.sin(phi), math.cos(phi)
    area = math.pi - 6.0 * (phi - s * c)
    g = -12.0 * s * s * (1.0 + c) + 2.0 * s * area
    return g, -24.0 * s * c * (1.0 + c) - 12.0 * s**3 + 2.0 * c * area


# Newton solve for phi_c: stop once a step is at most PHI_STEP_TOL, fail
# past PHI_MAX_ITER steps.
PHI_START = 0.26
PHI_STEP_TOL = 1e-15
PHI_MAX_ITER = 20


@lru_cache(maxsize=1)
def croft_constants() -> CroftConstants:
    """Solve the 1-D density maximization for the optimal half angle.

    phi_c is the root of the density derivative's numerator.  Newton's
    method on it with its closed-form derivative, from PHI_START = 0.26,
    reaches full precision in four steps; no convergence within
    PHI_MAX_ITER steps raises ``RuntimeError``.
    """
    phi_c = PHI_START
    for _ in range(PHI_MAX_ITER):
        g, slope = _density_derivative_numerator(phi_c)
        step = g / slope
        phi_c -= step
        if abs(step) <= PHI_STEP_TOL:
            break
    else:
        raise RuntimeError(f"half-angle Newton: no convergence in {PHI_MAX_ITER} steps")
    return CroftConstants(
        phi_c=phi_c,
        w_c=1.0 - math.cos(phi_c),
        a_c=phi_c - math.cos(phi_c) * math.sin(phi_c),
        lattice_constant=2.0 * (1.0 + math.cos(phi_c)),
        density=cut_disc_density(phi_c),
    )
