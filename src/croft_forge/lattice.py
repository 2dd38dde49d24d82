"""Three-colored hexagonal lattice of rotated (and shifted) body copies.

Copies of one body sit on a triangular lattice; each site gets one of
three colors, and its copy is the body rotated by color * 2*pi/3 and
moved to the site plus the rotated eps * shift (``place_copy``).  The
lattice constant and the basis are fixed by the cut-disc optimum and
stated once below; the shift is a plain pair (sx, sy), None for the
reference shift ``default_config()``; ``place_copy`` places the copies
with it and the cap reads add it to the arc centres.  Every
nearest-neighbor edge then joins colors c and c+1 and falls into one of
three classes by direction, read off its neighbor step by an integer
rule (``collect_patch_cuts``); the geometry of the stripe cut across an
edge depends only on its class, and ``edge_copies`` places the two
copies across the representative edge of each class for the exact clips.

The second-order cut model is read off the six caps of the unplaced body
at eps = 0 (``cap_area_derivatives``) and paired into each class's
unit-eps cut data over value columns by ``class_cuts``: ``cut_parameters``
reads it at one profile and the form (``ansatz``) at many; either is
exact on any number of arcs under a cap, and neither places a copy.

Every cut has one format: a pair (n, c) for the removed half-plane
{x : n.x >= c}, n a unit normal, the kept side n.x <= c.  ``stripe_caps``
states where a stripe's two caps sit across an edge along +x, and
``collect_patch_cuts`` moves them onto each edge of a patch; the exact
clip (``clip.halfplane_clip_area``), the trimming and the drawings take
the pairs as they are.

Patch verification is exact (``verify_avoidance``).  The copies are
trimmed by their stripe half-planes, all in one pass, straight into one
padded table of arc pieces, chords and vertices, a row per copy
(``clip.trim_bodies``); the crossing check, the distances and the
diameters all read rows of it.  Distances are closed forms over pairs of
pieces, vectorised with NumPy, and the candidate list is complete: an
extreme pair either has an endpoint of a piece (a vertex) as one point,
or is an interior critical pair of two pieces, on the line of centres of
two arcs or at the arc point whose normal is a chord's normal (concentric
arcs have no isolated critical pair and reach their extremes at an
endpoint).  A stripe of width w > 0 puts the two bodies of an edge in
disjoint half-planes, so their nearest pair is such a boundary pair, and
its strip bounds every pair from below: ``closest_pairs`` drops the
pieces too far from it to hold the nearest pair (``_strip_prune``).  No
strip bounds a diameter, so ``farthest_pairs`` lists only the candidates
whose directions the arc ranges can hold.  Both keep the order of what
is left, so every value and witness is that of the full list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body import (
    ArcBody,
    _arc_sweeps,
    _cross,
    _in_arc,
    build_body,
    center_offsets,
    croft_constants,
    require_closure,
    transform,
)
from .clip import _GROUPS, TrimTable, _padded, trim_bodies
from .segments import PairCut
from .stepfn import TWO_PI, StepFunction

PSI = math.pi / 3.0

COLORS = ("red", "green", "blue")

# Lattice index offsets of the six nearest neighbors (basis below); step m
# points at angle m*pi/3.
NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

# The patch that is verified and drawn: a site and its 3x3 neighborhood.
PATCH_SITES = tuple((i, j) for i in range(-1, 2) for j in range(-1, 2))


# The lattice constant 2(1 + cos phi_c) of the cut-disc optimum and the
# basis: site (i, j) sits at i*OMEGA1 + j*OMEGA2.
LATTICE_CONSTANT = croft_constants().lattice_constant
OMEGA1 = np.array([LATTICE_CONSTANT, 0.0])
OMEGA2 = np.array([LATTICE_CONSTANT * math.cos(PSI), LATTICE_CONSTANT * math.sin(PSI)])


def site_position(i: int, j: int) -> np.ndarray:
    return i * OMEGA1 + j * OMEGA2


def default_config() -> tuple[float, float]:
    """The reference shift (sx, sy); an unshifted lattice is (0, 0)."""
    from . import reference

    return (reference.SHIFT_X, reference.SHIFT_Y)


def color_index(i: int, j: int) -> int:
    return (i - j) % 3


def color_of(i: int, j: int) -> str:
    """Color name of site (i, j); every neighbor pair differs by one."""
    return COLORS[color_index(i, j)]


def rotation_of_color(c: int) -> float:
    return (c % 3) * 2.0 * PSI


def left_color_of_class(k: int) -> int:
    """Color at the start of a class-k edge that runs along +x."""
    return (3 - k) % 3


def place_copy(body: ArcBody, color: int, position, shift=None) -> ArcBody:
    """Copy of ``body`` for ``color`` at ``position``: the body rotated by
    the color angle and translated by position + R(color) * eps * shift.

    This is the one placement rule and the only reader of ``shift``, the
    per-unit-eps pair (sx, sy); None is the reference ``default_config()``.
    The shift acts on every copy in its own pre-rotation frame; only this
    convention makes the cut geometry depend on the edge class alone and
    not on which colors the edge happens to join.
    """
    if shift is None:
        shift = default_config()
    angle = rotation_of_color(color)
    eps = body.epsilon
    sx, sy = _rot(angle, (eps * shift[0], eps * shift[1]))
    return transform(body, angle, (position[0] + sx, position[1] + sy))


def place_body(body: ArcBody, i: int, j: int, shift=None) -> ArcBody:
    """Copy of ``body`` at lattice site (i, j), placed by ``place_copy``."""
    return place_copy(body, color_index(i, j), site_position(i, j), shift)


def edge_copies(body: ArcBody, k: int, shift=None) -> tuple[ArcBody, ArcBody]:
    """The two copies of ``body`` across the representative class-k edge.

    The edge runs along +x from the left copy at the origin to the right
    copy one lattice constant away; they are the lattice copies across any
    class-k edge, moved so that the edge starts at the origin along +x.
    """
    c_l = left_color_of_class(k)
    return (
        place_copy(body, c_l, (0.0, 0.0), shift),
        place_copy(body, (c_l + 1) % 3, (LATTICE_CONSTANT, 0.0), shift),
    )


def _rot(angle: float, v: tuple[float, float]) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


# ---------------------------------------------------------------------------
# Stripe caps


def stripe_caps(s: float, delta: float, stripe_width: float = 2.0):
    """The two caps a stripe at (s, delta) removes across the class edge along
    +x from the origin: the left copy's cap, then the right copy's.

    Each cap is (n, c, jac, c_hess) for the removed half-plane {x : n.x >= c},
    with n = (cos theta, sin theta):

    - left: c = cos(delta)*(cos(phi_c) + s), n = (cos delta, -sin delta);
    - right: n_r = -n, c_r = -c - stripe_width.

    ``jac`` holds the (s, delta)-gradients of c and theta as rows and
    ``c_hess`` the Hessian of c (theta is linear); the width drops out of
    both.  All are floats and nested pairs, read in the exact modes' Newton
    loop.  This is the one place that states where a stripe's lines sit.
    """
    p = math.cos(croft_constants().phi_c) + s
    cd, sd = math.cos(delta), math.sin(delta)
    c = cd * p
    theta_grad = (0.0, -1.0)
    # the right cap negates n, c's gradient and c's Hessian
    return (
        ((cd, -sd), c, ((cd, -sd * p), theta_grad), ((0.0, -sd), (-sd, -cd * p))),
        ((-cd, sd), -c - stripe_width, ((-cd, sd * p), theta_grad),
         ((-0.0, sd), (sd, cd * p))),
    )


# ---------------------------------------------------------------------------
# Cut data read off the six caps at eps = 0


@lru_cache(maxsize=64)  # bounded for sweeps over many break sets
def _cap_sub_arcs(breaks: tuple[float, ...]) -> tuple:
    """The arcs under the six caps of a break set, cap j covering the normal
    angles j*psi +- phi_c: (arcs, dphi, du, u, du_dphi).

    Row j of ``arcs`` lists cap j's arcs in boundary order, padded with its
    last arc, so the two ends lie on arcs[j, 0] and arcs[j, -1]; ``dphi``
    and ``du`` are the angle and unit chord
    of each arc's part under the cap (``_arc_sweeps`` on the cap's own
    breaks), zero on the padding.  ``u`` and ``du_dphi`` are the unit
    normal and its phi-derivative at the two cap ends, shaped (6, 2, 2).
    Built once per break set and returned read-only.
    """
    phi_c = croft_constants().phi_c
    n = len(breaks) - 1
    # arc starts over the turn before and this turn: cap 0 starts at -phi_c
    starts = np.concatenate([np.array(breaks[:-1]) - TWO_PI, breaks[:-1]])
    caps = []
    for j in range(6):
        lo, hi = j * PSI - phi_c, j * PSI + phi_c
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi, side="left")) - 1
        cuts = np.concatenate([[lo], starts[first + 1 : last + 1], [hi]])
        caps.append((np.arange(first, last + 1) % n, *_arc_sweeps(cuts)))
    width = max(len(arcs) for arcs, _, _ in caps)
    arcs = np.array([np.pad(a, (0, width - len(a)), mode="edge") for a, _, _ in caps])
    dphi = np.array([np.pad(d, (0, width - len(d))) for _, d, _ in caps])
    du = np.array([np.pad(d, ((0, width - len(d)), (0, 0))) for _, _, d in caps])
    ends = PSI * np.arange(6)[:, None] + np.array([-phi_c, phi_c])
    u = np.stack([np.cos(ends), np.sin(ends)], axis=-1)
    du_dphi = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    out = (arcs, dphi, du, u, du_dphi)
    for a in out:
        a.setflags(write=False)
    return out


def cap_area_derivatives(breaks: np.ndarray, q: np.ndarray, shifts):
    """eps = 0 derivatives of the six cap areas over columns (q[:, a], shifts[a]).

    Cap j lies beyond the line n.x = cos(phi_c), n at angle j*psi.  A
    column moves the support function by h1 = (m_i + shift).u(phi) - q_i on
    arc i (m = ``center_offsets``), C^1 across breaks.  With s = sin(phi_c),
    cot = cot(phi_c) and cap ends phi_1 < phi_2, the derivatives in eps,
    the line offset c and the normal angle theta are A_e = int h1,
    A_ee = -int q h1 + h1(phi_2) (h1(phi_2) cot - h1'(phi_2))
    + h1(phi_1) (h1(phi_1) cot + h1'(phi_1)), A_ec = -(h1(phi_1) + h1(phi_2))/s
    and A_et = h1(phi_2) - h1(phi_1), where int h1 over an arc part is
    (m_i + shift) x du - q_i dphi, ``body_area``'s Green term.  Returns A_e,
    A_ec and A_et (6, m) and A_ee (6, m, m) as bilinear forms over the m
    columns of ``q`` (n, m) and ``shifts`` (m, 2); no body is built and no copy placed.
    """
    phi_c = croft_constants().phi_c
    cot = 1.0 / math.tan(phi_c)
    arcs, dphi, du, u, du_dphi = _cap_sub_arcs(tuple(breaks))
    centers = center_offsets(breaks, q) + shifts  # (n, m, 2)
    qa = q[arcs]  # (6, width, m)
    h1_int = _cross(centers[arcs], du[:, :, None, :]) - qa * dphi[..., None]
    qh = np.swapaxes(qa, 1, 2) @ h1_int  # (6, m, m): int q h1 per cap
    ends = arcs[:, [0, -1]]  # (6, 2): the arcs holding the cap ends
    m_ends = centers[ends]  # (6, 2, m, 2)
    h = (m_ends @ u[..., None])[..., 0] - q[ends]  # (6, 2, m)
    dh = (m_ends @ du_dphi[..., None])[..., 0]
    h1, h2, dh1, dh2 = h[:, 0], h[:, 1], dh[:, 0], dh[:, 1]
    a = (h1[:, :, None] * (cot * h1 + dh1)[:, None, :]
         + h2[:, :, None] * (cot * h2 - dh2)[:, None, :])
    a_ee = 0.5 * (a + np.swapaxes(a, 1, 2)) - 0.5 * (qh + np.swapaxes(qh, 1, 2))
    return h1_int.sum(axis=1), a_ee, -(h1 + h2) / math.sin(phi_c), h2 - h1


@lru_cache(maxsize=1)
def _cap_jacobians() -> np.ndarray:
    """``stripe_caps(0, 0)``'s jacobians (side, (c, theta), x), read-only."""
    jacs = np.stack([jac for _, _, jac, _ in stripe_caps(0.0, 0.0)])
    jacs.setflags(write=False)
    return jacs


def class_cuts(breaks: np.ndarray, q: np.ndarray, shifts):
    """Unit-eps cut data of the three edge classes over the columns of
    ``cap_area_derivatives``: P_e (3, m), P_ex (3, 2, m) and P_ee (3, m, m).

    Class k clips cap 2k off its left copy and cap 2k + 1 off its right one:
    it sums their A_e and A_ee and chains their (A_ec, A_et) through the
    jacobians of ``stripe_caps`` at (0, 0) into the (s, delta)-rows of P_ex.
    """
    a_e, a_ee, a_ec, a_et = cap_area_derivatives(breaks, q, shifts)
    rates = np.stack([a_ec, a_et], axis=1).reshape((3, 2, 2) + a_ec.shape[1:])
    p_ex = np.einsum("sri,ksr...->ki...", _cap_jacobians(), rates)
    return a_e[0::2] + a_e[1::2], p_ex, a_ee[0::2] + a_ee[1::2]


def cut_parameters(q: StepFunction, shift=None) -> tuple[PairCut, PairCut, PairCut]:
    """Unit-eps cut data of the three edge classes for the body of ``q``:
    ``class_cuts`` at the one column (q, shift) (None: the reference shift).

    Every cut is linear in (q, shift) and read exactly at eps = 0, for any
    number of arcs under a cap.  The read is computed once per (break set,
    values, shift), keyed by their bits and bounded at 64 entries, while
    closure is still checked on every call: raises ``BodyError`` when ``q``
    violates it (``body.require_closure``).
    """
    require_closure(q)
    if shift is None:
        shift = default_config()
    return _profile_cuts(
        np.asarray(q.breaks, dtype=float).tobytes(),
        np.asarray(q.values, dtype=float).tobytes(),
        np.asarray(shift, dtype=float).tobytes(),
    )


@lru_cache(maxsize=64)  # bounded for sweeps over many profiles
def _profile_cuts(breaks: bytes, values: bytes, shift: bytes) -> tuple[PairCut, PairCut, PairCut]:
    """``cut_parameters``' one-column ``class_cuts`` read, keyed by the bit
    patterns of the float arrays: -0.0 and 0.0 are two keys, and a values
    array changed in place is a new one.  The frozen ``PairCut``s are shared."""
    p_e, p_ex, p_ee = class_cuts(
        np.frombuffer(breaks), np.frombuffer(values)[:, None], np.frombuffer(shift)[None, :]
    )
    return tuple(
        PairCut(float(p_e[k, 0]), (float(p_ex[k, 0, 0]), float(p_ex[k, 1, 0])),
                float(p_ee[k, 0, 0]))
        for k in range(3)
    )


def collect_patch_cuts(
    sites,
    stripes: dict[int, tuple[float, float]],
    stripe_width: float = 2.0,
):
    """Cuts per site and the list of edges of a lattice patch.

    Returns (cuts, edges): ``cuts[site]`` lists the removed half-planes
    {x : n.x >= c} of the site's copy as (n, c) pairs, the caps of
    ``stripe_caps`` moved onto each edge by its rigid motion (a rotation
    by m*pi/3 for neighbor step m, then a shift to the edge's origin);
    ``edges`` lists (site_a, site_b, class, strip, slots) with the edge
    oriented from color c to color c+1, each edge once.  The strip
    (n, c_a, c_b) holds the two caps the edge places: copy a lies in
    n.x <= c_a, its cut is (n, c_a), and copy b in n.x >= c_b, its cut
    (-n, -c_b).  ``slots`` (i_a, i_b) names them: they are cuts[site_a][i_a]
    and cuts[site_b][i_b].

    The steps m = 0, 2, 4 lead from color c to c+1 (the other three lead
    back), and the edge of step m has class k = (m/2 - c) mod 3: its
    direction m*psi is 2*c*psi + 2*k*psi mod 2*pi, so at direction 0 the
    class-k edge starts at color -k mod 3 (``left_color_of_class``).
    """
    site_set = set(sites)
    caps = {k: stripe_caps(s, delta, stripe_width) for k, (s, delta) in stripes.items()}
    cuts: dict[tuple[int, int], list] = {s: [] for s in sites}
    edges = []
    for (i, j) in sites:
        color = color_index(i, j)
        origin = site_position(i, j)
        for m in (0, 2, 4):
            di, dj = NEIGHBOR_STEPS[m]
            other = (i + di, j + dj)
            if other not in site_set:
                continue
            k = (m // 2 - color) % 3
            beta = m * PSI
            for site, (n, c, _, _) in zip(((i, j), other), caps[k]):
                n = np.array(_rot(beta, n))
                cuts[site].append((n, c + float(n @ origin)))
            # the strip: a keeps n.x <= c_a, and b, cut by (-n, c), n.x >= -c
            (n, c_a), (_, c) = cuts[(i, j)][-1], cuts[other][-1]
            slots = (len(cuts[(i, j)]) - 1, len(cuts[other]) - 1)
            edges.append(((i, j), other, k, (n, c_a, -c), slots))
    return cuts, edges


# ---------------------------------------------------------------------------
# Overlap-avoidance verification on the exact trimmed boundary

CONCENTRIC_TOL = 1e-12
VERIFY_TOL = 1e-9  # slack of the three patch checks of verify_avoidance

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
        """One line; a value no check measured (no copy left) reads "none"."""
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.n_edges} edges, "
            f"max half-plane violation {_measured(self.max_halfplane_violation, '.3e')}, "
            f"min cross-body distance {_measured(self.min_cross_distance, '.12f')}, "
            f"max same-body diameter {_measured(self.max_same_body_diameter, '.12f')}"
        )


def _measured(x: float, spec: str) -> str:
    return format(x, spec) if math.isfinite(x) else "none"


# Candidate point pairs over rows of the one ``clip.TrimTable`` of a
# patch, batched; all three checks read rows of that table.  Each helper
# returns points P on the first and Q on the second piece set and whether
# the candidate exists, indexed by row and then by piece in the order a
# walk over one pair's pieces lists them.  Every range test is
# ``_in_arc``'s cross products of direction vectors; the diameter pass's
# prefilters take them with RANGE_SLACK to spare.

PRUNE_SLACK = 1e-9  # room for rounding in the strip bound
# Candidate pairs per diameter pass, per row V * max(V, A) for V vertices
# and A arc pieces: the nine rows of a 24-arc patch take one pass, and a
# copy of a uniform 288-interval body one pass alone, so the pass arrays
# stay a few MB.
DIAMETER_PAIRS = 1 << 15
RANGE_SLACK = 1e-9  # room for rounding in a prefilter's cross products
DIAMETER_BAND = 1e-12  # relative d^2 below a row's top that a vertex pair may lie


def _take(p: TrimTable, rows) -> TrimTable:
    return TrimTable(*(x[rows] for x in p))


def _support(p: TrimTable, dirs) -> np.ndarray:
    """max of d.x over each row's pieces for each of its directions d:
    ``dirs`` (row, k, 2) gives (row, k), -inf on a row with no pieces.

    A linear function peaks on an arc piece at an endpoint or at M + r*d,
    and on a chord at an endpoint; every endpoint is a vertex.
    """
    across = np.swapaxes(dirs, 1, 2)
    on_arc = p.arc_ok[..., None] & _in_arc(dirs[:, None], p.u0[:, :, None], p.u1[:, :, None])
    peaks = np.where(on_arc, p.centers @ across + p.radii[..., None], -math.inf)
    ends = np.where(p.vertex_ok[..., None], p.vertices @ across, -math.inf)
    return np.max(np.concatenate([peaks, ends], axis=1), axis=1, initial=-math.inf)


def _keep(p: TrimTable, *keeps) -> TrimTable:
    """The arc pieces, chords and vertices the three masks keep, in order."""
    return TrimTable(*(x for keep, g in zip(keeps, _GROUPS) for x in _padded(
        keep.sum(axis=1), *(getattr(p, f)[keep] for f in g))))


def _dot(x, n):
    return x[..., 0] * n[..., 0] + x[..., 1] * n[..., 1]


def _swap(candidates):
    P, Q, ok = candidates
    return Q, P, ok


def _vertex_vertex(a: TrimTable, b: TrimTable):
    shape = a.vertices.shape[:2] + b.vertices.shape[1:]
    return (np.broadcast_to(a.vertices[:, :, None], shape),
            np.broadcast_to(b.vertices[:, None], shape),
            a.vertex_ok[:, :, None] & b.vertex_ok[:, None])


@lru_cache(maxsize=8)
def _upper(n: int) -> np.ndarray:
    """The read-only n x n mask of i <= j."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


def _vertex_pairs(t: TrimTable):
    """The unordered pairs i <= j of a row's vertices that can hold the
    row's largest vertex distance, in row-major order and padded per row:
    (P, Q, ok) shaped (row, pair).  The diagonal gives a one-vertex copy
    its diameter 0.

    d^2 = dx^2 + dy^2 is built in place over each row's V x V grid from
    the dx, dy the hypot of ``_extreme`` rounds, and only the pairs with
    d^2 >= (1 - DIAMETER_BAND) * (the row's largest d^2) are listed.  hypot
    is within 1 ulp and d^2 within about 3 ulps (for squares in the normal
    range), so a pair outside the band is shorter than the row's best by a
    relative 5e-13 and can neither tie nor beat it after rounding.  The
    first maximum in row-major order, and with it every diameter and
    witness, is that of the full triangle.  A NaN distance stays listed,
    as the full list's argmax would pick it.
    """
    x, y = t.vertices[..., 0], t.vertices[..., 1]
    d2 = x[:, :, None] - x[:, None]
    d2 *= d2
    dy = y[:, :, None] - y[:, None]
    d2 += np.multiply(dy, dy, out=dy)
    keep = _upper(x.shape[1]) & t.vertex_ok[:, :, None] & t.vertex_ok[:, None]
    d2 *= keep
    keep &= ~(d2 < (1.0 - DIAMETER_BAND) * d2.max(axis=(1, 2), keepdims=True))
    i, j, listed = _listed(keep)
    return t.vertices[i], t.vertices[j], listed


def _vertex_arc(v: TrimTable, t: TrimTable):
    """Nearest circle point of each arc piece of ``t`` from each vertex of
    ``v``, where it lies on the piece."""
    d = v.vertices[:, :, None] - t.centers[:, None]
    d /= np.hypot(d[..., 0], d[..., 1])[..., None]
    ok = _in_arc(d, t.u0[:, None], t.u1[:, None]) & v.vertex_ok[:, :, None] & t.arc_ok[:, None]
    Q = t.centers[:, None] + t.radii[:, None, :, None] * d
    return np.broadcast_to(v.vertices[:, :, None], Q.shape), Q, ok


def _vertex_chord(v: TrimTable, t: TrimTable):
    """Foot of each vertex of ``v`` on each chord of ``t``, inside the chord."""
    e = t.chord_b - t.chord_a
    s = (np.sum((v.vertices[:, :, None] - t.chord_a[:, None]) * e[:, None], axis=-1)
         / np.sum(e * e, axis=-1)[:, None])
    ok = (s > 0.0) & (s < 1.0) & v.vertex_ok[:, :, None] & t.chord_ok[:, None]
    Q = t.chord_a[:, None] + s[..., None] * e[:, None]
    return np.broadcast_to(v.vertices[:, :, None], Q.shape), Q, ok


def _arc_arc(a: TrimTable, b: TrimTable):
    """Interior critical pairs of two arc-piece sets: P = M_a + s1*r_a*u and
    Q = M_b + s2*r_b*u on the line of centres (unit vector u), s1, s2 = +-1.

    Concentric arcs (|dM| <= CONCENTRIC_TOL) have no isolated critical
    pair: their distance depends only on the angle between the two points,
    so its extremes over two ranges are reached with one point at a piece
    endpoint, among the vertex-arc candidates.
    """
    D = b.centers[:, None] - a.centers[:, :, None]  # (row, arc of a, arc of b)
    dist = np.hypot(D[..., 0], D[..., 1])
    concentric = dist <= CONCENTRIC_TOL
    dirs = np.array([1.0, -1.0])[:, None, None, None] * (
        D / np.where(concentric, 1.0, dist)[..., None])[:, None]
    on_a = (~concentric[:, None] & a.arc_ok[:, None, :, None]
            & _in_arc(dirs, a.u0[:, None, :, None], a.u1[:, None, :, None]))
    on_b = b.arc_ok[:, None, None] & _in_arc(dirs, b.u0[:, None, None], b.u1[:, None, None])
    ok = on_a[:, :, None] & on_b[:, None]  # (row, s1, s2, arc of a, arc of b)
    P = a.centers[:, None, :, None] + a.radii[:, None, :, None, None] * dirs
    Q = b.centers[:, None, None] + b.radii[:, None, None, :, None] * dirs
    shape = ok.shape + (2,)
    return np.broadcast_to(P[:, :, None], shape), np.broadcast_to(Q[:, None], shape), ok


def _turned(u):
    """Directions u (row, k, 2) turned by -pi/2 and laid out (row, 2, k):
    x @ _turned(u) holds cross(x_i, u_k) for each x_i of a row."""
    return np.stack([u[..., 1], -u[..., 0]], axis=1)


def _listed(keep):
    """The entries (i, j) where ``keep`` (row, i, j) holds, in row-major
    order and padded per row: index tuples that gather them from arrays
    shaped (row, i) and (row, j), and the mask of listed entries."""
    row, i, j = np.nonzero(keep)
    i, j, listed = _padded(np.bincount(row, minlength=len(keep)), i, j)
    rows = np.arange(len(keep))[:, None]
    return (rows, i), (rows, j), listed


def _far_vertex_arc(t: TrimTable):
    """Farthest circle point of each arc piece of a row from each of its
    vertices, where it lies on the piece, over only the (vertex, arc)
    pairs whose range holds the direction M - v from the vertex to the
    arc's centre, padded per row: (P, Q, ok) shaped (row, pair).

    The range test is ``_in_arc``'s on M - v unnormalised, with
    RANGE_SLACK to spare: it differs from the test on the rounded unit
    direction, which decides ``ok``, by about 1e-16 (|M| + |v|).
    """
    # cross(u0, M - v) = cross(u0, M) + cross(v, u0), and the mirror for u1
    facing = ((_cross(t.u0, t.centers)[:, None] + t.vertices @ _turned(t.u0) >= -RANGE_SLACK)
              & (_cross(t.centers, t.u1)[:, None] - t.vertices @ _turned(t.u1) >= -RANGE_SLACK))
    v, a, listed = _listed(t.vertex_ok[..., None] & t.arc_ok[:, None] & facing)
    d = -1.0 * (t.vertices[v] - t.centers[a])  # rounded as the full candidate list rounds it
    d /= np.hypot(d[..., 0], d[..., 1])[..., None]
    ok = listed & _in_arc(d, t.u0[a], t.u1[a])
    return t.vertices[v], t.centers[a] + t.radii[a][..., None] * d, ok


def _opposite_arc_pairs(t: TrimTable):
    """The (+,-) and then the (-,+) pairs of ``_arc_arc(t, t)``,
    P = M_a + s*r_a*u and Q = M_b - s*r_b*u for s = +1, -1, over the
    unordered pairs a < b of a row's arc pieces in row-major order, padded
    per row: (P, Q, ok) shaped (row, s, pair).

    Swapping a and b swaps P and Q to the bit (u turns into -u exactly),
    so the first maximum of either sign block has a < b.  Both points lie
    on their pieces only if b's range meets a's turned by pi, that is if
    b's start lies in a's turned range or a's turned start in b's range,
    so only such pairs are listed; RANGE_SLACK covers the rounding of the
    cross products.
    """
    # cross(u0_a, u0_b), cross(u1_a, u0_b) and cross(u0_a, u1_b), (row, a, b)
    X, Y, Z = t.u0 @ _turned(t.u0), t.u1 @ _turned(t.u0), t.u0 @ _turned(t.u1)
    meet = (((X <= RANGE_SLACK) & (Y >= -RANGE_SLACK))
            | ((X >= -RANGE_SLACK) & (Z <= RANGE_SLACK)))
    a, b, listed = _listed(meet & np.triu(t.arc_ok[:, :, None] & t.arc_ok[:, None], 1))
    D = t.centers[b] - t.centers[a]  # (row, pair)
    dist = np.hypot(D[..., 0], D[..., 1])
    concentric = dist <= CONCENTRIC_TOL
    dirs = np.array([1.0, -1.0])[:, None, None] * (
        D / np.where(concentric, 1.0, dist)[..., None])[:, None]  # (row, s, pair)
    ok = ((listed & ~concentric)[:, None]
          & _in_arc(dirs, t.u0[a][:, None], t.u1[a][:, None])
          & _in_arc(-dirs, t.u0[b][:, None], t.u1[b][:, None]))
    return (t.centers[a][:, None] + t.radii[a][:, None, :, None] * dirs,
            t.centers[b][:, None] - t.radii[b][:, None, :, None] * dirs, ok)


def _arc_chord(a: TrimTable, b: TrimTable):
    """Arc points M +- r*m of ``a``, m a chord normal of ``b``, paired with
    their feet on that chord, where both lie on their pieces."""
    e = b.chord_b - b.chord_a
    length2 = np.sum(e * e, axis=-1)
    sign = np.array([1.0, -1.0])[:, None]
    m = np.stack([-e[..., 1], e[..., 0]], axis=-1) / np.sqrt(length2)[..., None]
    m, e, start = m[:, None, None], e[:, None, None], b.chord_a[:, None, None]
    # (row, sign, arc of a, chord of b)
    X = a.centers[:, None, :, None] + (sign * a.radii[:, None])[..., None, None] * m
    s = np.sum((X - start) * e, axis=-1) / length2[:, None, None]
    ok = (_in_arc(sign[..., None, None] * m, a.u0[:, None, :, None], a.u1[:, None, :, None])
          & (s >= 0.0) & (s <= 1.0) & a.arc_ok[:, None, :, None] & b.chord_ok[:, None, None])
    return X, start + s[..., None] * e, ok


def _extreme(pick, fill: float, blocks) -> list[tuple[float, Witness]]:
    """Per row, the distance and witness of the candidate ``pick`` (argmin
    or argmax) selects first among the existing ones.  ``blocks`` lists
    the helper calls in candidate order; each block is reduced to its row
    extremes before the next is built."""
    best = []
    for block in blocks:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on padding, bad pieces
            P, Q, ok = block()
        d = np.hypot(P[..., 0] - Q[..., 0], P[..., 1] - Q[..., 1])
        d[~ok] = fill  # a block over no pieces (no chords, say) is all fill
        at = (np.arange(len(ok)),
              *np.unravel_index(pick(d.reshape(len(ok), -1), axis=1), ok.shape[1:]))
        best.append((d[at], P[at], Q[at]))
    d, P, Q = (np.stack(x, axis=1) for x in zip(*best))
    return [(float(d[r, g]), (P[r, g], Q[r, g])) for r, g in enumerate(pick(d, axis=1))]


def _strip_prune(p: TrimTable, strips, tops) -> TrimTable:
    """Drop from the first bodies (rows 0..e-1) and the second bodies (rows
    e..2e-1) of e pairs every piece that cannot hold the nearest pair.

    A strip (n, c_a, c_b), n a unit normal, puts body a in n.x <= c_a and
    body b in n.x >= c_b, so every pair has |P - Q| >= n.Q - n.P.  Each
    line moves out to its body's measured extreme where that lies beyond
    it: ``tops`` holds per pair max n.x over a and max -n.x over b
    (``_support``), so the bound holds however the bodies were trimmed.
    A piece of a then has no pair nearer than c_b minus its largest n.x
    (an arc piece peaks at M + r*n when n is in its range, else at an
    end), and the mirror for b.  U is the distance from the vertex of a
    nearest the strip to the nearest vertex of b, an achieved distance; a
    piece whose bound exceeds U + PRUNE_SLACK holds no candidate that can
    attain the minimum.
    """
    e = len(strips)
    n = np.array([s[0] for s in strips], dtype=float)
    n = np.concatenate([n, -n])[:, None]  # each side's normal, away from the other side
    c = np.concatenate([[s[1] for s in strips], [-s[2] for s in strips]])
    # the largest n.x of each piece, -inf on padding
    reach = np.where(_in_arc(n, p.u0, p.u1), 1.0, np.maximum(_dot(p.u0, n), _dot(p.u1, n)))
    arc_top = np.where(p.arc_ok, _dot(p.centers, n) + p.radii * reach, -math.inf)
    chord_top = np.where(p.chord_ok, np.maximum(_dot(p.chord_a, n), _dot(p.chord_b, n)),
                         -math.inf)
    vertex_top = np.where(p.vertex_ok, _dot(p.vertices, n), -math.inf)
    side = np.maximum(c, np.array(tops, dtype=float).T.ravel())
    nearest = vertex_top[:e].argmax(axis=1)[:, None, None]
    gap = p.vertices[e:] - np.take_along_axis(p.vertices[:e], nearest, axis=1)
    gap = np.where(p.vertex_ok[e:], np.hypot(gap[..., 0], gap[..., 1]), math.inf)
    # keep a piece unless the other side's line minus its top exceeds U + slack
    low = -np.roll(side, e)[:, None] - np.tile(gap.min(axis=1), 2)[:, None] - PRUNE_SLACK
    return _keep(p, arc_top >= low, chord_top >= low, vertex_top >= low)


def closest_pairs(table: TrimTable, pairs, strips, tops) -> list[tuple[float, Witness]]:
    """Exact distance between the two disjoint trimmed bodies of each pair
    (row_a, row_b) of ``table`` and its witness, all pairs in one batched
    pass.

    The nearest pair of disjoint convex sets lies on their boundaries; on a
    pair of pieces it is either a vertex with a vertex or with the nearest
    interior point of a piece, or an interior critical pair (arc-arc on the
    line of centres, arc-chord at the arc point whose normal is the chord
    normal); two chords have no isolated interior critical pair.  Given one
    strip (n, c_a, c_b) and one pair of measured extremes ``tops`` per
    pair, ``_strip_prune`` first drops the pieces that cannot hold the
    nearest pair.  It keeps every candidate that can attain the minimum, in
    order, so the distance and the witness are those of the full list.
    """
    if not pairs:
        return []
    p = _strip_prune(_take(table, [a for a, _ in pairs] + [b for _, b in pairs]), strips, tops)
    a, b = _take(p, slice(len(pairs))), _take(p, slice(len(pairs), None))
    return _extreme(np.argmin, math.inf, [
        lambda: _vertex_vertex(a, b),
        lambda: _vertex_arc(a, b),
        lambda: _swap(_vertex_arc(b, a)),
        lambda: _vertex_chord(a, b),
        lambda: _swap(_vertex_chord(b, a)),
        lambda: _arc_arc(a, b),
        lambda: _arc_chord(a, b),
        lambda: _swap(_arc_chord(b, a)),
    ])


def farthest_pairs(table: TrimTable, rows) -> list[tuple[float, Witness]]:
    """Exact diameter of the trimmed body in each of the ``rows`` of
    ``table`` and its witness, as many rows to a batched pass as
    DIAMETER_PAIRS candidate pairs allow (at least one).

    A distance is convex along a chord, so chords attain their maximum at
    vertices; what remains is vertex-vertex, vertex to the farthest point
    of an arc, and arc-arc pairs on the line of centres.  The distance is
    symmetric, so each unordered vertex pair is looked at once: the first
    maximum of the full V x V list in row-major order has i <= j, and the
    triangle lists those pairs in the same order.  Of the triangle only
    the pairs whose squared distance lies within DIAMETER_BAND of the
    row's largest go to hypot (``_vertex_pairs``), about 200 of about
    7,000 on a 24-arc patch: a pair outside the band cannot tie or beat
    the row's best after rounding, so the first maximum is the
    triangle's.  Antipodal arcs share their centre; their farthest pairs
    (r_1 + r_2 wherever one range overlaps the other turned by pi)
    include one with a piece endpoint.

    Of the four sign pairs on the line of centres only P = M_a - r_a*u,
    Q = M_b + r_b*u can be an interior maximum (u the unit vector from M_a
    to M_b, D = M_b - M_a).  At a maximum over two arc ranges with both
    points interior, each point is the farthest point of its circle from
    the other: P - M_a points away from Q and Q - M_b away from P.  That
    rules out (+,+) and (-,-), where P - M_a and Q - M_b point the same
    way.  (+,-) meets it only when |D| < min(r_a, r_b), and then it is a
    saddle: turning both points by t about their centres gives
    |P - Q|^2 = |D|^2 + (r_a + r_b)^2 - 2(r_a + r_b)|D| cos t, which grows
    with t.  A maximum on a range end is a vertex candidate.  (+,-) is
    tried all the same: on two range ends it is the antipodal pair through
    a break, the points of a vertex candidate rounded another way, and on
    some patches it reads an ulp more, so dropping it would move the
    reported diameter by an ulp.  Each unordered arc pair is tried once
    instead: two sign pairs over a < b are a quarter of the four over all
    ordered pairs.

    No strip prunes a diameter: a body of constant width 2 has a pair 2
    apart through every boundary point, so each body brings all its
    vertex pairs.  The arc candidates are pruned by direction instead.
    A vertex's farthest point on an arc lies along the direction from the
    vertex to the arc's centre, and a line-of-centres pair along +-u, so
    only the (vertex, arc) pairs whose range can hold that direction
    (``_far_vertex_arc``) and the arc pairs whose ranges face each other
    (``_opposite_arc_pairs``) are listed: about a tenth of each list on a
    24-arc patch.  Both take ``_in_arc``'s cross products with
    RANGE_SLACK to spare, on directions that round within about 1e-16 of
    those the candidates test.  Every pair left out has no candidate on
    its pieces, and the rest keep their order, so the diameters and
    witnesses are those of the full list to the bit.
    """
    width = table.vertices.shape[1]
    step = max(1, DIAMETER_PAIRS // (width * max(width, table.centers.shape[1])))
    out = []
    for i in range(0, len(rows), step):
        t = _take(table, rows[i : i + step])
        out += _extreme(np.argmax, -math.inf, [
            lambda: _vertex_pairs(t),
            lambda: _far_vertex_arc(t),
            lambda: _opposite_arc_pairs(t),
        ])
    return out


def _point(p) -> str:
    return f"({p[0]:.9f}, {p[1]:.9f})"


def verify_avoidance(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    *,
    shift=None,
    stripe_width: float = 2.0,
) -> AvoidanceReport:
    """Check exactly that stripe-cut copies on a lattice patch stay 2 apart.

    ``stripes`` maps each edge class k to its (shift, tilt); ``shift`` is
    the copies' shift pair of ``place_copy`` (None: the reference).  For every
    site of the 3x3 patch ``PATCH_SITES`` and every nearest-neighbor edge, the
    two cut lines are laid across the edge and each body is trimmed to
    its exact boundary.  The checks assert that
    (a) each trimmed body stays on its side of its cut lines to
    ``VERIFY_TOL``, (b) trimmed bodies across an edge are at least
    2 - VERIFY_TOL apart, and (c) no trimmed body has two points more than
    2 + VERIFY_TOL apart.

    No value is sampled.  (a) is the exact maximum of each cut's linear
    function over the pieces.  (b) is the exact minimum over vertex-vertex,
    vertex-arc, vertex-chord, arc-arc (line of centres) and arc-chord
    (arc normal = chord normal) candidates; the list is complete because
    for width > 0 the two bodies lie in the disjoint half-planes n.x <= c
    and n.x >= c + width.  (c) is the exact maximum over vertex-vertex,
    vertex to farthest arc point and arc-arc candidates (chords peak at
    their vertices).  (b) and (c) come with witness points.  A copy its
    cut lines remove entirely is a violation of its own: no distance of
    it can be measured.

    The nine copies are trimmed in one call (``trim_bodies``) straight
    into one padded table, a row per site, beside the padded table of the
    cuts it trimmed by; all three checks read rows of it.  (a) is one
    batched support-function pass (``_support``) over every copy and cut,
    read through the cut mask.  Each edge carries its strip and names its
    two cuts (``collect_patch_cuts``).  The strip's lines are those cuts,
    so (a)'s support values are the measured extremes ``_strip_prune``
    moves them out to, and its bound holds even if the trimming is wrong.
    What the bound leaves, at width 2 two arc pieces, one chord and four
    vertices a side, goes through the candidate helpers once for the 16 edges' rows
    (``closest_pairs``), and the nine diameters go as many rows to a pass
    as DIAMETER_PAIRS candidate pairs allow (``farthest_pairs``).

    What the checks guard: (a) holds by construction of the trimming, and
    the strip bounds the distance in (b) below by the stripe width, so at
    width 2 they guard the trimming code and the body's constant width
    (a body wider than 2 fails (c)), not the stripe placement.  A width
    below 2 fails (b) by the shortfall.  Raises ``ValueError`` unless
    ``stripe_width`` > 0.
    """
    if not stripe_width > 0.0:
        raise ValueError(f"stripe width must be positive, got {stripe_width}")
    sites = PATCH_SITES
    body = build_body(q, eps)
    cuts, edges = collect_patch_cuts(sites, stripes, stripe_width)
    # row r of the table holds the trimmed copy of sites[r]
    table, normals, offsets, cut_ok = trim_bodies([place_body(body, *s, shift) for s in sites],
                                                  [cuts[s] for s in sites])
    live = np.flatnonzero(table.vertex_ok.any(axis=1)).tolist()
    violations = [f"site {s}: its cut lines leave nothing of its copy"
                  for r, s in enumerate(sites) if r not in live]

    top = _support(table, normals)  # max n.x over each copy, per cut; -inf on an empty one
    excess = np.where(cut_ok, top - offsets, -math.inf)  # the padding is no cut
    max_hp = float(excess.max())
    violations += [f"site {sites[r]}: trimmed body crosses a cut line by {excess[r, j]:.3e}"
                   for r, j in zip(*np.nonzero(excess > VERIFY_TOL))]

    row = {s: r for r, s in enumerate(sites)}
    checked = [e for e in edges if row[e[0]] in live and row[e[1]] in live]
    found = closest_pairs(table, [(row[a], row[b]) for a, b, *_ in checked],
                          [e[3] for e in checked],
                          [(top[row[a], i], top[row[b], j]) for a, b, _, _, (i, j) in checked])
    min_cross, cross_witness = min(found, key=lambda f: f[0], default=(math.inf, None))
    for (a, b, k, _, _), (d, w) in zip(checked, found):
        if d < 2.0 - VERIFY_TOL:
            violations.append(
                f"edge {a}->{b} (class {k}): bodies only {d:.12f} apart, "
                f"at {_point(w[0])} and {_point(w[1])}"
            )

    diameters = farthest_pairs(table, live)
    max_diam, diameter_witness = max(diameters, key=lambda f: f[0], default=(-math.inf, None))
    for r, (d, w) in zip(live, diameters):
        if d > 2.0 + VERIFY_TOL:
            violations.append(
                f"site {sites[r]}: trimmed body has diameter {d:.12f} > 2, "
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
