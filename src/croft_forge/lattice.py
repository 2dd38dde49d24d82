"""Three-colored hexagonal lattice of rotated (and shifted) body copies.

Copies of one body sit on a triangular lattice; each site gets one of
three colors, and its copy is the body rotated by color * 2*pi/3 and
moved to the site plus the rotated eps * shift (``place_copy``).  Every
nearest-neighbor edge then joins colors c and c+1 and falls into one of
three classes by direction; the geometry of the stripe cut across an
edge depends only on its class.

Patch verification is exact.  Each copy is trimmed by its stripe
half-planes to a boundary of arc pieces and chords (``trim_body``), and
distances are closed forms over pairs of pieces, vectorised with NumPy.
Every candidate is a distance between two points of the trimmed bodies,
and the list is complete: an extreme pair either has an endpoint of a
piece (a vertex) as one point, or is an interior critical pair of two
pieces, which lies on the line of centres of two arcs or at the arc
point whose normal is a chord's normal (concentric arcs have no isolated
critical pair and reach their extremes at an endpoint).  A stripe of
width w > 0 puts the two bodies of an edge in disjoint half-planes, so
they never meet and their nearest pair is such a boundary pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .body import ArcBody, boundary_point, build_body, croft_constants, transform
from .clip import arc_line_crossings
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


def default_config() -> LatticeConfig:
    """Lattice constant from the disc optimum, shift from the reference.

    An unshifted lattice is ``LatticeConfig(lattice_constant)``.
    """
    from . import reference

    return LatticeConfig(
        lattice_constant=croft_constants().lattice_constant,
        shift=(reference.SHIFT_X, reference.SHIFT_Y),
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


def place_copy(body: ArcBody, color: int, position, config: LatticeConfig) -> ArcBody:
    """Copy of ``body`` for ``color`` at ``position``: the body rotated by
    the color angle and translated by position + R(color) * eps * shift.

    This is the one placement rule and the only reader of ``config.shift``.
    The shift acts on every copy in its own pre-rotation frame; only this
    convention makes the cut geometry depend on the edge class alone and
    not on which colors the edge happens to join.
    """
    angle = rotation_of_color(color)
    eps = body.epsilon
    sx, sy = _rot(angle, (eps * config.shift[0], eps * config.shift[1]))
    return transform(body, angle, (position[0] + sx, position[1] + sy))


def place_body(body: ArcBody, i: int, j: int, config: LatticeConfig) -> ArcBody:
    """Copy of ``body`` at lattice site (i, j), placed by ``place_copy``."""
    return place_copy(body, color_index(i, j), config.position(i, j), config)


def edge_copies(body: ArcBody, k: int, config: LatticeConfig) -> tuple[ArcBody, ArcBody]:
    """The two copies of ``body`` across the representative class-k edge.

    The edge runs along +x from the left copy at the origin to the right
    copy one lattice constant away; they are the lattice copies across any
    class-k edge, moved so that the edge starts at the origin along +x.
    """
    c_l = left_color_of_class(k)
    return (
        place_copy(body, c_l, (0.0, 0.0), config),
        place_copy(body, (c_l + 1) % 3, (config.lattice_constant, 0.0), config),
    )


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


def cut_parameters(q: StepFunction, body: ArcBody, k: int, config: LatticeConfig) -> PairCut:
    """Stripe-cut geometry of edge class ``k`` for ``body``, the body of ``q``.

    The displacements are read off the two copies across the edge, as in
    ``edge_copies`` but each placed at the origin: the left cap at angle 0
    of the left copy and the right cap at angle pi of the right copy,
    summed in the edge frame.  The radius perturbations are the one-sided
    profile values at the cap angles 2k*psi and (2k+1)*psi of the
    unrotated body.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"edge class must be 0, 1 or 2, got {k}")
    c_l = left_color_of_class(k)
    xl, yl = rotated_frame(place_copy(body, c_l, (0.0, 0.0), config), 0.0)
    xr, yr = rotated_frame(place_copy(body, (c_l + 1) % 3, (0.0, 0.0), config), math.pi)
    eps = body.epsilon
    phi_l = 2.0 * k * PSI
    phi_r = (2.0 * k + 1.0) * PSI
    return PairCut(
        d_x=xl + xr,
        d_y=yl + yr,
        r_lu=-eps * q(phi_l, side="right"),
        r_ll=-eps * q(phi_l, side="left"),
        r_ru=-eps * q(phi_r, side="right"),
        r_rl=-eps * q(phi_r, side="left"),
    )


# ---------------------------------------------------------------------------
# Stripe lines


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


# ---------------------------------------------------------------------------
# Overlap-avoidance verification on the exact trimmed boundary

KEEP_TOL = 1e-12
CONCENTRIC_TOL = 1e-12
ANGLE_TOL = 1e-12  # narrowest arc piece kept as an arc

Witness = tuple[np.ndarray, np.ndarray]


@dataclass
class AvoidanceReport:
    """Outcome of the patch verification; ``ok`` aggregates all checks.

    ``cross_witness`` and ``diameter_witness`` are the two points that
    attain ``min_cross_distance`` and ``max_same_body_diameter`` (None
    when the check did not run).
    """

    ok: bool
    n_edges: int
    max_halfplane_violation: float
    min_cross_distance: float
    max_same_body_diameter: float
    violations: list[str]
    cross_witness: Witness | None = None
    diameter_witness: Witness | None = None

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.n_edges} edges, "
            f"max half-plane violation {self.max_halfplane_violation:.3e}, "
            f"min cross-body distance {self.min_cross_distance:.12f}, "
            f"max same-body diameter {self.max_same_body_diameter:.12f}"
        )


@dataclass(frozen=True)
class TrimmedBody:
    """Boundary of a body cut by half-planes: arc pieces, chords, vertices.

    Arc piece i is centers[i] + radii[i] * u for the unit vectors u from
    ``u0[i]`` counter-clockwise to ``u1[i]``; it spans at most pi, because
    every break of a profile has its antipode, so pi is a break.  Chord j
    runs from chord_a[j] to chord_b[j]; ``vertices`` holds every piece
    endpoint.
    """

    centers: np.ndarray   # (k, 2)
    radii: np.ndarray     # (k,)
    u0: np.ndarray        # (k, 2)
    u1: np.ndarray        # (k, 2)
    chord_a: np.ndarray   # (m, 2)
    chord_b: np.ndarray   # (m, 2)
    vertices: np.ndarray  # (v, 2)


def _unit(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _in_arc(d, u0, u1):
    """Whether direction ``d`` lies in the arc range from ``u0``
    counter-clockwise to ``u1``, a range of width in (0, pi]."""
    return (_cross(u0, d) >= 0.0) & (_cross(d, u1) >= 0.0)


def trim_body(body: ArcBody, cuts) -> TrimmedBody:
    """Exact boundary of ``body`` intersected with its cut half-planes.

    ``cuts`` holds (n, c, keep_sign) as from ``collect_patch_cuts``.  Each
    arc is split where it crosses a cut line and the pieces whose midpoints
    satisfy every cut are kept.  Each cut line adds the chord between its
    two boundary crossings, clipped as an interval by the other cuts.
    """
    normals = np.array([n for n, _, _ in cuts], dtype=float).reshape(-1, 2)
    offsets = np.array([c for _, c, _ in cuts], dtype=float)
    keeps = np.array([k for _, _, k in cuts], dtype=float)
    hits: list[list[np.ndarray]] = [[] for _ in cuts]
    pieces = []  # (arc index, start angle, end angle)
    for i in range(body.n_arcs):
        center, radius = body.centers[i], body.radii[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        angles = [a, b]
        for j, (n, c, _) in enumerate(cuts):
            for phi in arc_line_crossings(center, radius, a, b, n, c):
                angles.append(phi)
                hits[j].append(center + radius * _unit(phi))
        angles.sort()
        pieces.extend((i, lo, hi) for lo, hi in zip(angles, angles[1:]))
    idx = np.array([p[0] for p in pieces], dtype=int)
    lo = np.array([p[1] for p in pieces], dtype=float)
    hi = np.array([p[2] for p in pieces], dtype=float)
    centers, radii = body.centers[idx], body.radii[idx]
    mid = centers + radii[:, None] * _unit(0.5 * (lo + hi))
    kept = np.all(keeps * (mid @ normals.T - offsets) <= KEEP_TOL, axis=1)
    centers, radii, lo, hi = centers[kept], radii[kept], lo[kept], hi[kept]

    chords = []
    for j, pts in enumerate(hits):
        if len(pts) < 2:
            continue
        n = normals[j]
        pts = np.array(pts)
        along = pts @ np.array([-n[1], n[0]])
        p0, p1 = pts[np.argmin(along)], pts[np.argmax(along)]
        # the chord p0 + u*(p1 - p0), u in [0, 1], kept where
        # g0 + u*g1 <= 0 for every other cut
        g0 = keeps * (normals @ p0 - offsets)
        g1 = keeps * (normals @ (p1 - p0))
        u_lo, u_hi = 0.0, 1.0
        for k in range(len(cuts)):
            if k == j:
                continue
            if g1[k] > 0.0:
                u_hi = min(u_hi, -g0[k] / g1[k])
            elif g1[k] < 0.0:
                u_lo = max(u_lo, -g0[k] / g1[k])
            elif g0[k] > KEEP_TOL:
                u_hi = -1.0
        if u_lo <= u_hi:
            chords.append((p0 + u_lo * (p1 - p0), p0 + u_hi * (p1 - p0)))
    chord_a = np.array([c[0] for c in chords], dtype=float).reshape(-1, 2)
    chord_b = np.array([c[1] for c in chords], dtype=float).reshape(-1, 2)

    u0, u1 = _unit(lo), _unit(hi)
    vertices = np.concatenate([
        centers + radii[:, None] * u0,
        centers + radii[:, None] * u1,
        chord_a,
        chord_b,
    ])
    # A narrower piece may have u0 == u1 after rounding, and _in_arc would
    # then admit -u0 too.  Its points lie within ANGLE_TOL * r of its
    # endpoints, which stay vertices.
    arc = hi - lo > ANGLE_TOL
    return TrimmedBody(
        centers[arc], radii[arc], u0[arc], u1[arc], chord_a, chord_b, vertices
    )


# Candidate point pairs.  Each helper returns (P, Q): rows of points on the
# first and on the second piece set, one row per candidate that lies on
# both pieces.  Range tests use cross products of direction vectors, so no
# angle is computed.


def _vertex_vertex(v, w):
    return np.repeat(v, len(w), axis=0), np.tile(w, (len(v), 1))


def _vertex_arc(v, t: TrimmedBody, sign: float):
    """Nearest (sign +1) or farthest (sign -1) circle point of each arc
    piece of ``t`` from each vertex, where it lies on the piece."""
    d = sign * (v[:, None, :] - t.centers[None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        d /= np.hypot(d[..., 0], d[..., 1])[..., None]
    ok = _in_arc(d, t.u0, t.u1)
    Q = t.centers + t.radii[:, None] * d
    P = np.broadcast_to(v[:, None, :], Q.shape)
    return P[ok], Q[ok]


def _vertex_chord(v, t: TrimmedBody):
    """Foot of each vertex on each chord of ``t``, inside the chord."""
    e = t.chord_b - t.chord_a
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum((v[:, None, :] - t.chord_a) * e, axis=-1) / np.sum(e * e, axis=-1)
    ok = (s > 0.0) & (s < 1.0)
    Q = t.chord_a + s[..., None] * e
    P = np.broadcast_to(v[:, None, :], Q.shape)
    return P[ok], Q[ok]


def _arc_arc(a: TrimmedBody, b: TrimmedBody):
    """Interior critical pairs of two arc-piece sets: P = M_a + s1*r_a*u and
    Q = M_b + s2*r_b*u on the line of centres (unit vector u), s1, s2 = +-1.

    Concentric arcs (|dM| <= CONCENTRIC_TOL) have no isolated critical
    pair: their distance depends only on the angle between the two points,
    so its extremes over two ranges are reached with one point at a piece
    endpoint, among the vertex-arc candidates.
    """
    D = b.centers[None, :, :] - a.centers[:, None, :]
    dist = np.hypot(D[..., 0], D[..., 1])
    concentric = dist <= CONCENTRIC_TOL
    dirs = np.array([1.0, -1.0])[:, None, None, None] * (
        D / np.where(concentric, 1.0, dist)[..., None]
    )
    on_a = ~concentric & _in_arc(dirs, a.u0[:, None], a.u1[:, None])
    on_b = _in_arc(dirs, b.u0[None], b.u1[None])
    ok = on_a[:, None] & on_b[None]  # (s1, s2, arc of a, arc of b)
    P = a.centers[:, None, :] + a.radii[:, None, None] * dirs
    Q = b.centers[None, :, :] + b.radii[None, :, None] * dirs
    shape = ok.shape + (2,)
    return (np.broadcast_to(P[:, None], shape)[ok],
            np.broadcast_to(Q[None, :], shape)[ok])


def _arc_chord(a: TrimmedBody, b: TrimmedBody):
    """Arc points M +- r*m of ``a``, m a chord normal of ``b``, paired with
    their feet on that chord, where both lie on their pieces."""
    e = b.chord_b - b.chord_a
    length2 = np.sum(e * e, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.stack([-e[:, 1], e[:, 0]], axis=-1) / np.sqrt(length2)[:, None]
    Ps, Qs = [], []
    for sign in (1.0, -1.0):
        X = a.centers[:, None, :] + (sign * a.radii)[:, None, None] * m[None, :, :]
        with np.errstate(invalid="ignore"):
            s = np.sum((X - b.chord_a) * e, axis=-1) / length2
        on_arc = _in_arc(sign * m[None], a.u0[:, None], a.u1[:, None])
        ok = on_arc & (s >= 0.0) & (s <= 1.0)
        Ps.append(X[ok])
        Qs.append((b.chord_a + s[..., None] * e)[ok])
    return np.concatenate(Ps), np.concatenate(Qs)


def _extreme(pick, candidates) -> tuple[float, Witness]:
    P = np.concatenate([c[0] for c in candidates])
    Q = np.concatenate([c[1] for c in candidates])
    d = np.hypot(*(P - Q).T)
    i = int(pick(d))
    return float(d[i]), (P[i].copy(), Q[i].copy())


def closest_pair(a: TrimmedBody, b: TrimmedBody) -> tuple[float, Witness]:
    """Exact distance between two disjoint trimmed bodies and its witness.

    The nearest pair of disjoint convex sets lies on their boundaries; on a
    pair of pieces it is either a vertex with a vertex or with the nearest
    interior point of a piece, or an interior critical pair (arc-arc on the
    line of centres, arc-chord at the arc point whose normal is the chord
    normal); two chords have no isolated interior critical pair.
    """
    return _extreme(np.argmin, [
        _vertex_vertex(a.vertices, b.vertices),
        _vertex_arc(a.vertices, b, 1.0),
        _vertex_arc(b.vertices, a, 1.0)[::-1],
        _vertex_chord(a.vertices, b),
        _vertex_chord(b.vertices, a)[::-1],
        _arc_arc(a, b),
        _arc_chord(a, b),
        _arc_chord(b, a)[::-1],
    ])


def farthest_pair(t: TrimmedBody) -> tuple[float, Witness]:
    """Exact diameter of a trimmed body and its witness.

    A distance is convex along a chord, so chords attain their maximum at
    vertices; what remains is vertex-vertex, vertex to the farthest point
    of an arc, and arc-arc pairs on the line of centres.  Antipodal arcs
    share their centre; their farthest pairs (r_1 + r_2 wherever one range
    overlaps the other turned by pi) include one with a piece endpoint.
    """
    return _extreme(np.argmax, [
        _vertex_vertex(t.vertices, t.vertices),
        _vertex_arc(t.vertices, t, -1.0),
        _arc_arc(t, t),
    ])


def halfplane_excess(t: TrimmedBody, cuts) -> np.ndarray:
    """max of keep_sign*(n.x - c) over the trimmed body, one per cut.

    A linear function d.x peaks on an arc piece at an endpoint or at
    M + r*d, and on a chord at an endpoint; every endpoint is a vertex.
    """
    dirs = np.array([k * np.asarray(n) for n, _, k in cuts], dtype=float).reshape(-1, 2)
    on_arc = _in_arc(dirs[None], t.u0[:, None], t.u1[:, None])
    peaks = np.where(on_arc, t.centers @ dirs.T + t.radii[:, None], -math.inf)
    top = np.max(np.vstack([peaks, t.vertices @ dirs.T]), axis=0, initial=-math.inf)
    return top - np.array([k * c for _, c, k in cuts])


def _point(p) -> str:
    return f"({p[0]:.9f}, {p[1]:.9f})"


def verify_avoidance(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    *,
    config: LatticeConfig | None = None,
    extent: int = 1,
    stripe_width: float = 2.0,
    tol: float = 1e-9,
    checks: tuple[str, ...] = ("halfplane", "cross", "diameter"),
) -> AvoidanceReport:
    """Check exactly that stripe-cut copies on a lattice patch stay 2 apart.

    ``stripes`` maps each edge class k to its (shift, tilt).  For every
    site in the (2*extent+1)^2 patch and every nearest-neighbor edge, the
    two cut lines are laid across the edge and each body is trimmed to
    its exact boundary (``trim_body``).  The checks assert that
    (a) each trimmed body stays on its side of its cut lines to ``tol``,
    (b) trimmed bodies across an edge are at least 2 - tol apart, and
    (c) no trimmed body has two points more than 2 + tol apart.

    No value is sampled.  (a) is the exact maximum of each cut's linear
    function over the pieces.  (b) is the exact minimum over vertex-vertex,
    vertex-arc, vertex-chord, arc-arc (line of centres) and arc-chord
    (arc normal = chord normal) candidates; the list is complete because
    for width > 0 the two bodies lie in the disjoint half-planes n.x <= c
    and n.x >= c + width.  (c) is the exact maximum over vertex-vertex,
    vertex to farthest arc point and arc-arc candidates (chords peak at
    their vertices).  (b) and (c) come with witness points.

    What the checks guard: (a) holds by construction of the trimming, and
    the strip bounds the distance in (b) below by the stripe width, so at
    width 2 they guard the trimming code and the body's constant width
    (a body wider than 2 fails (c)), not the stripe placement.  A width
    below 2 fails (b) by the shortfall.  Raises ``ValueError`` unless
    ``stripe_width`` > 0.
    """
    if not stripe_width > 0.0:
        raise ValueError(f"stripe width must be positive, got {stripe_width}")
    if config is None:
        config = default_config()
    sites = [
        (i, j)
        for i in range(-extent, extent + 1)
        for j in range(-extent, extent + 1)
    ]
    body = build_body(q, eps)
    bodies = {s: place_body(body, *s, config) for s in sites}
    cuts, edges = collect_patch_cuts(sites, stripes, config, stripe_width)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in sites}
    nonempty = {s for s in sites if len(trimmed[s].vertices)}

    violations: list[str] = []
    max_hp = -math.inf
    if "halfplane" in checks:
        for s in sites:
            if s not in nonempty:
                continue
            for v in halfplane_excess(trimmed[s], cuts[s]):
                max_hp = max(max_hp, v)
                if v > tol:
                    violations.append(
                        f"site {s}: trimmed body crosses a cut line by {v:.3e}"
                    )

    min_cross, cross_witness = math.inf, None
    if "cross" in checks:
        for a, b, k in edges:
            if a not in nonempty or b not in nonempty:
                continue
            d, w = closest_pair(trimmed[a], trimmed[b])
            if d < min_cross:
                min_cross, cross_witness = d, w
            if d < 2.0 - tol:
                violations.append(
                    f"edge {a}->{b} (class {k}): bodies only {d:.12f} apart, "
                    f"at {_point(w[0])} and {_point(w[1])}"
                )

    max_diam, diameter_witness = -math.inf, None
    if "diameter" in checks:
        for s in sites:
            if s not in nonempty:
                continue
            d, w = farthest_pair(trimmed[s])
            if d > max_diam:
                max_diam, diameter_witness = d, w
            if d > 2.0 + tol:
                violations.append(
                    f"site {s}: trimmed body has diameter {d:.12f} > 2, "
                    f"between {_point(w[0])} and {_point(w[1])}"
                )

    return AvoidanceReport(
        ok=not violations,
        n_edges=len(edges),
        max_halfplane_violation=max_hp,
        min_cross_distance=min_cross,
        max_same_body_diameter=max_diam,
        violations=violations,
        cross_witness=cross_witness,
        diameter_witness=diameter_witness,
    )
