"""Three-colored hexagonal lattice of rotated (and shifted) body copies.

Copies of one body sit on a triangular lattice; each site gets one of
three colors and the copy is shifted by eps * shift in its own frame,
then rotated by color * 2*pi/3 (so the unrotated color is shifted
too).  Every nearest-neighbor edge then joins colors c and c+1 and
falls into one of three classes by direction; the geometry of the
stripe cut across an edge depends only on its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .body import ArcBody, boundary_point, build_body, croft_constants, transform
from .clip import boundary_line_crossings
from .stepfn import StepFunction
from .segments import PairCut

PSI = math.pi / 3.0

COLORS = ("red", "green", "blue")

# Lattice index offsets of the six nearest neighbors (basis below).
NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice constant, basis vectors, and the per-unit-eps shift."""

    lattice_constant: float
    shift: tuple[float, float] = (0.0, 0.0)
    omega1: np.ndarray = field(init=False)
    omega2: np.ndarray = field(init=False)

    def __post_init__(self):
        L = self.lattice_constant
        object.__setattr__(self, "omega1", np.array([L, 0.0]))
        object.__setattr__(
            self, "omega2", np.array([L * math.cos(PSI), L * math.sin(PSI)])
        )

    def position(self, i: int, j: int) -> np.ndarray:
        return i * self.omega1 + j * self.omega2


def default_config(include_shift: bool = True) -> LatticeConfig:
    """Lattice constant from the disc optimum, shift from the reference."""
    from . import reference

    shift = (reference.SHIFT_X, reference.SHIFT_Y) if include_shift else (0.0, 0.0)
    return LatticeConfig(
        lattice_constant=croft_constants().lattice_constant, shift=shift
    )


def color_index(i: int, j: int) -> int:
    return (i - j) % 3


def color_of(i: int, j: int) -> str:
    """Color name of site (i, j); every neighbor pair differs by one."""
    return COLORS[color_index(i, j)]


def rotation_of_color(c: int) -> float:
    return (c % 3) * 2.0 * PSI


def edge_class(c_left: int, beta: float) -> int:
    """Stripe class of the edge leaving a color-c site at angle ``beta``.

    The edge must point from color c to color c+1; its direction is then
    2*c*psi + 2*k*psi (mod pi) for a unique class k in {0, 1, 2}.
    """
    t = (beta - 2.0 * c_left * PSI) / (2.0 * PSI)
    k = round(t)
    if abs(t - k) > 1e-9:
        raise ValueError(
            f"direction {beta} is not a class direction for left color {c_left}"
        )
    return k % 3


def left_color_of_class(k: int) -> int:
    """Color on the lower-index end of a class-k edge traversed at angle 2k*psi."""
    return (3 - k) % 3


def place_body(
    q: StepFunction, eps: float, i: int, j: int, config: LatticeConfig
) -> ArcBody:
    """Body copy at site (i, j): shift by eps*shift, rotate by the color
    angle, translate to the site.

    The shift is applied to every copy in its own pre-rotation frame;
    only this convention makes the cut geometry depend on the edge class
    alone and not on which colors the edge happens to join.
    """
    c = color_index(i, j)
    anchor = (eps * config.shift[0], eps * config.shift[1])
    body = build_body(q, eps, anchor=anchor)
    return transform(body, rotation_of_color(c), config.position(i, j))


# ---------------------------------------------------------------------------
# Rotated frame and cut parameters


def rotated_frame(body: ArcBody, phi: float) -> tuple[float, float]:
    """Boundary displacement at angle ``phi`` in the frame rotated by phi.

    Rotates the boundary point back by ``phi`` and measures the offset
    from the unperturbed point (1, 0): the first component is the radial
    excess, the second the tangential slide.  Both are exactly linear in
    eps and flip sign under phi -> phi + pi.
    """
    p = boundary_point(body, phi)
    c, s = math.cos(phi), math.sin(phi)
    return (c * p[0] + s * p[1] - 1.0, -s * p[0] + c * p[1])


def _rot(angle: float, v: tuple[float, float]) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def cut_parameters(
    q: StepFunction,
    eps: float,
    k: int,
    shift: tuple[float, float] | None = None,
    *,
    body: ArcBody | None = None,
) -> PairCut:
    """Stripe-cut geometry of edge class ``k`` for the body at ``eps``.

    The left cap sits at boundary angle 2k*psi of the left copy and the
    right cap at (2k+1)*psi of the right copy; displacements are summed
    in the shared cap frame.  ``shift`` (per unit eps) is applied to
    every copy in its pre-rotation frame, which makes its cap-frame
    contribution R(-phi_cap) * shift regardless of the copy's color.  A
    prebuilt unit-anchor ``body`` may be passed to avoid rebuilding it
    per class.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"edge class must be 0, 1 or 2, got {k}")
    if body is None:
        body = build_body(q, eps)
    phi_l = 2.0 * k * PSI
    phi_r = (2.0 * k + 1.0) * PSI
    xl, yl = rotated_frame(body, phi_l)
    xr, yr = rotated_frame(body, phi_r)
    d_x = xl + xr
    d_y = yl + yr
    if shift is not None and (shift[0] or shift[1]):
        for phi_cap in (phi_l, phi_r):
            sx, sy = _rot(-phi_cap, shift)
            d_x += eps * sx
            d_y += eps * sy
    return PairCut(
        d_x=d_x,
        d_y=d_y,
        r_lu=-eps * q(phi_l, side="right"),
        r_ll=-eps * q(phi_l, side="left"),
        r_ru=-eps * q(phi_r, side="right"),
        r_rl=-eps * q(phi_r, side="left"),
    )


# ---------------------------------------------------------------------------
# Overlap-avoidance verification


@dataclass
class AvoidanceReport:
    """Outcome of the patch verification; ``ok`` aggregates all checks."""

    ok: bool
    n_edges: int
    max_halfplane_violation: float
    min_cross_distance: float
    max_same_body_diameter: float
    violations: list[str]

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.n_edges} edges, "
            f"max half-plane violation {self.max_halfplane_violation:.3e}, "
            f"min cross-body distance {self.min_cross_distance:.12f}, "
            f"max same-body diameter {self.max_same_body_diameter:.12f}"
        )


def _stripe_lines(position, beta, s, delta, stripe_width):
    """The two cut lines of a stripe across an edge, in lattice coordinates.

    Returns (n, c_left, c_right): outward unit normal of the left cap and
    the two line offsets; the left body keeps n.x <= c_left, the right
    body keeps n.x >= c_right.
    """
    phi_c = croft_constants().phi_c
    n_frame = (math.cos(delta), -math.sin(delta))
    n = _rot(beta, n_frame)
    p_left = np.asarray(position) + np.asarray(_rot(beta, (math.cos(phi_c) + s, 0.0)))
    p_right = np.asarray(position) + np.asarray(
        _rot(beta, (math.cos(phi_c) + s + stripe_width / math.cos(delta), 0.0))
    )
    return (
        np.asarray(n),
        float(n[0] * p_left[0] + n[1] * p_left[1]),
        float(n[0] * p_right[0] + n[1] * p_right[1]),
    )


def _stripe_line_derivatives(s, delta):
    """(s, delta)-derivatives of the two cut lines of a stripe along +x.

    Each line of ``_stripe_lines((0, 0), 0, s, delta, width)`` is taken as
    a clip line {n.x = c} with n = (cos theta, sin theta) pointing into
    the cap it removes:

    - left line: c = cos(delta)*(cos(phi_c) + s), theta = -delta;
    - right line: c = -cos(delta)*(cos(phi_c) + s) - width, theta = pi - delta.

    The width drops out of every derivative.  Returns one (jac, c_hess)
    pair per line: ``jac`` holds the gradients of c and theta as rows,
    ``c_hess`` the Hessian of c (theta is linear).
    """
    p = math.cos(croft_constants().phi_c) + s
    cd, sd = math.cos(delta), math.sin(delta)
    c_grad = np.array([cd, -sd * p])
    c_hess = np.array([[0.0, -sd], [-sd, -cd * p]])
    theta_grad = np.array([0.0, -1.0])
    return (
        (np.stack([c_grad, theta_grad]), c_hess),
        (np.stack([-c_grad, theta_grad]), -c_hess),
    )


def _remainder_samples(body: ArcBody, cuts, n_boundary: int, n_chord: int):
    """Boundary samples of the body minus all its stripe caps.

    ``cuts`` is a list of (n, c, keep_sign): the kept side satisfies
    keep_sign * (n.x - c) <= 0.  Cut chords are sampled too, including
    the exact arc-line crossing points.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, n_boundary, endpoint=False)
    pts = boundary_point(body, phis + body.breaks[0])
    crossings = []
    for n, c, keep in cuts:
        hp = boundary_line_crossings(body, n, c)
        if len(hp) >= 2:
            hp = np.asarray(hp)
            # sample the chord between the extreme crossing points
            t = hp @ np.array([-n[1], n[0]])
            lo, hi = hp[np.argmin(t)], hp[np.argmax(t)]
            frac = np.linspace(0.0, 1.0, n_chord)[:, None]
            crossings.append(lo + frac * (hi - lo))
    if crossings:
        pts = np.vstack([pts] + crossings)
    keep_mask = np.ones(len(pts), dtype=bool)
    for n, c, keep in cuts:
        keep_mask &= keep * (pts @ n - c) <= 1e-12
    return pts[keep_mask]


def collect_patch_cuts(
    sites,
    stripes: dict[int, tuple[float, float]],
    config: LatticeConfig,
    stripe_width: float = 2.0,
):
    """Cut constraints per site and the list of edges of a lattice patch.

    Returns (cuts, edges): ``cuts[site]`` is a list of (n, c, keep_sign)
    half-plane constraints (kept side: keep_sign * (n.x - c) <= 0);
    ``edges`` lists (site_a, site_b, class) with the edge oriented from
    color c to color c+1.
    """
    site_set = set(sites)
    cuts: dict[tuple[int, int], list] = {s: [] for s in sites}
    edges = []
    for (i, j) in sites:
        for (di, dj) in NEIGHBOR_STEPS:
            other = (i + di, j + dj)
            if other not in site_set:
                continue
            c_a, c_b = color_index(i, j), color_index(*other)
            if (c_a + 1) % 3 != c_b:
                continue  # traverse each edge once, from color c to c+1
            pos_a = config.position(i, j)
            pos_b = config.position(*other)
            beta = math.atan2(pos_b[1] - pos_a[1], pos_b[0] - pos_a[0])
            k = edge_class(c_a, beta)
            s, delta = stripes[k]
            n, c_left, c_right = _stripe_lines(pos_a, beta, s, delta, stripe_width)
            cuts[(i, j)].append((n, c_left, +1.0))
            cuts[other].append((n, c_right, -1.0))
            edges.append(((i, j), other, k))
    return cuts, edges


def verify_avoidance(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    *,
    config: LatticeConfig | None = None,
    extent: int = 1,
    stripe_width: float = 2.0,
    n_boundary: int = 4000,
    n_chord: int = 200,
    tol: float = 1e-9,
    checks: tuple[str, ...] = ("halfplane", "cross", "diameter"),
) -> AvoidanceReport:
    """Check that stripe-cut copies on a lattice patch stay 2 apart.

    ``stripes`` maps each edge class k to its (shift, tilt).  For every
    site in the (2*extent+1)^2 patch and every nearest-neighbor edge,
    the two cut lines are laid across the edge; the checks assert that
    (a) each trimmed body stays on its side of its cut lines, (b) points
    of distinct trimmed bodies are at least 2 - tol apart, and (c) no
    trimmed body has two points further than 2 + tol apart.
    """
    if config is None:
        config = default_config()
    sites = [
        (i, j)
        for i in range(-extent, extent + 1)
        for j in range(-extent, extent + 1)
    ]
    bodies = {s: place_body(q, eps, *s, config) for s in sites}
    cuts, edges = collect_patch_cuts(sites, stripes, config, stripe_width)

    samples = {
        s: _remainder_samples(bodies[s], cuts[s], n_boundary, n_chord) for s in sites
    }

    violations: list[str] = []
    max_hp = -math.inf
    if "halfplane" in checks:
        for s in sites:
            for n, c, keep in cuts[s]:
                if len(samples[s]) == 0:
                    continue
                v = float(np.max(keep * (samples[s] @ n - c)))
                max_hp = max(max_hp, v)
                if v > tol:
                    violations.append(
                        f"site {s}: trimmed body crosses a cut line by {v:.3e}"
                    )

    min_cross = math.inf
    if "cross" in checks:
        for a, b, k in edges:
            pa, pb = samples[a], samples[b]
            if len(pa) == 0 or len(pb) == 0:
                continue
            d, _ = cKDTree(pa).query(pb, k=1)
            dmin = float(np.min(d))
            min_cross = min(min_cross, dmin)
            if dmin < 2.0 - tol:
                violations.append(
                    f"edge {a}->{b} (class {k}): bodies only {dmin:.12f} apart"
                )

    max_diam = -math.inf
    if "diameter" in checks:
        for s in sites:
            pts = samples[s]
            if len(pts) == 0:
                continue
            sub = pts[:: max(1, len(pts) // 800)]
            d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1)
            dmax = float(math.sqrt(d2.max()))
            max_diam = max(max_diam, dmax)
            if dmax > 2.0 + max(tol, 1e-6):
                violations.append(
                    f"site {s}: trimmed body has diameter {dmax:.12f} > 2"
                )

    return AvoidanceReport(
        ok=not violations,
        n_edges=len(edges),
        max_halfplane_violation=max_hp,
        min_cross_distance=min_cross,
        max_same_body_diameter=max_diam,
        violations=violations,
    )
