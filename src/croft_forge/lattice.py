"""Three-colored hexagonal lattice of rotated (and shifted) body copies.

Copies of one body sit on a triangular lattice; each site gets one of
three colors, and its copy is the body rotated by color * 2*pi/3 and
moved to the site plus the rotated eps * shift (``copy_motion``).  The
lattice constant and the basis are fixed by the cut-disc optimum and
stated once below; the shift is a plain pair (sx, sy) of finite numbers,
None for the reference shift ``default_config()`` (``resolve_shift``
states both); ``copy_motion`` places the copies
with it and the cap reads add it to the arc centres.  Every
nearest-neighbor edge then joins colors c and c+1 and falls into one of
three classes by direction, read off its neighbor step by an integer
rule (``patch_layout``); the geometry of the stripe cut across an
edge depends only on its class.  ``edge_ends`` names the two copies
across the representative edge of each class and ``copy_motion`` the
rigid motion of each: ``place_copy`` moves the body by it, and the exact
clips move the caps back by its inverse onto the one unplaced body.

The second-order cut model is read off the six caps of the unplaced body
at eps = 0 (``cap_area_derivatives``) and paired into each class's
unit-eps cut data over value columns by ``class_cuts``, beside the
body-area Gram of the same columns.  Both are linear or bilinear in the
column x = (v, shift), v the n/2 half-values of step values (v, -v), so
``class_cuts`` at the n/2 + 2 unit columns is the whole cut model of a
break set (``_cut_model``), read once per break set and contracted by
every second-order read: ``second_order_read`` with one profile's x,
cached and closure-checked once per computed read (``cut_parameters`` is
its cuts), and the form (``ansatz``) with its basis columns.  Each is
exact on any number of arcs under a cap, and none places a copy.

Every cut has one format: a pair (n, c) for the removed half-plane
{x : n.x >= c}, n a unit normal, the kept side n.x <= c.  ``stripe_caps``
states where a stripe's two caps sit across an edge along +x, and
``patch_cuts`` moves them onto each edge of the patch, as one padded cut
table with a row per site; the exact clip (``clip.halfplane_clip_area``)
takes the pairs as they are, and the trimming and the drawings read the
table.  The patch itself is ``patch_layout``, built once: each row's
color and position, each slot's edge class, side, direction and start,
and the 16 edges, each naming its two slots.  The stripes fill its cut
table in a few array operations, and ``place_patch`` places the copies
as stacked arrays, each row ``place_body``'s copy to the bit.

Patch verification is exact (``verify_avoidance``).  The stacked copies
are trimmed by the cut table, all in one pass, straight into one padded
table of arc pieces, chords and vertices, a row per copy
(``clip.trim_bodies``); all three checks read rows of it.  Distances are
closed forms over pairs of pieces, vectorised with NumPy, and the
candidate list is complete: a nearest pair either has an endpoint of a
piece (a vertex) as one point, or is an interior critical pair of two
pieces, on the line of centres of two arcs or at the arc point whose
normal is a chord's normal.  A stripe of width w > 0 puts the two bodies
of an edge in disjoint half-planes, n.x <= c_a under a's cut (n, c_a)
and n.x >= c_b under b's cut (-n, -c_b), and the strip read off these two
cuts bounds every pair from below: ``closest_pairs`` drops the pieces too
far from it to hold the nearest pair (``_strip_prune``) and keeps the
order of the rest, so every value and witness is that of the full list.
No diameter is searched for: each trimmed copy lies on its rigid copy
(``_off_copy``), whose diameter is a closed form (``_copy_diameters``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import reference
from .body import (
    ArcBody,
    _cross,
    _in_arc,
    _rotation,
    _unit,
    antipodal_extremes,
    body_area_gram,
    build_body,
    center_offsets,
    croft_constants,
    require_closure,
    transform,
)
from .clip import _GROUPS, TrimTable, _padded, trim_bodies
from .segments import PairCut
from .stepfn import TWO_PI, StepFunction, finite_shift

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
    return (reference.SHIFT_X, reference.SHIFT_Y)


def resolve_shift(shift) -> tuple[float, float]:
    """``shift``, or the reference shift ``default_config()`` where it is
    None.  Raises ``StepFunctionError`` (a ValueError) unless it is two
    finite numbers (``stepfn.finite_shift``)."""
    return default_config() if shift is None else finite_shift(shift)


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


def copy_motion(color: int, position, eps: float, shift=None) -> tuple[float, tuple[float, float]]:
    """The rigid motion x -> R x + t of the copy for ``color`` at
    ``position``, as the (rotation, translation) pair of ``body.transform``:
    R rotates by the color angle and t = position + R * eps * shift.

    This is the one placement rule and the only reader of ``shift``, the
    per-unit-eps pair (sx, sy); None is the reference ``default_config()``.
    The shift acts on every copy in its own pre-rotation frame; only this
    convention makes the cut geometry depend on the edge class alone and
    not on which colors the edge happens to join.
    """
    shift = resolve_shift(shift)
    angle = rotation_of_color(color)
    sx, sy = _rot(angle, (eps * shift[0], eps * shift[1]))
    return angle, (position[0] + sx, position[1] + sy)


def place_copy(body: ArcBody, color: int, position, shift=None) -> ArcBody:
    """Copy of ``body`` for ``color`` at ``position``, moved by ``copy_motion``."""
    return transform(body, *copy_motion(color, position, body.epsilon, shift))


def place_body(body: ArcBody, i: int, j: int, shift=None) -> ArcBody:
    """Copy of ``body`` at lattice site (i, j), placed by ``place_copy``."""
    return place_copy(body, color_index(i, j), site_position(i, j), shift)


def place_patch(body: ArcBody, shift=None):
    """The copies of ``body`` at the rows of ``patch_layout``, stacked:
    (centers (row, n, 2), radii (row, n), breaks (row, n + 1)).  Row r is
    ``place_body``'s copy at PATCH_SITES[r] to the bit: the float
    operations of ``body.transform``, with one rotation product per color
    and each site's ``copy_motion`` translation."""
    layout = patch_layout()
    angles = [rotation_of_color(c) for c in range(3)]
    turned = np.stack([body.centers @ _rotation(angle).T for angle in angles])[layout.colors]
    moves = np.array([copy_motion(c, position, body.epsilon, shift)[1]
                      for c, position in zip(layout.colors.tolist(), layout.positions)])
    breaks = np.stack([body.breaks + angle for angle in angles])[layout.colors]
    return turned + moves[:, None], np.broadcast_to(body.radii, turned.shape[:2]), breaks


def edge_ends(k: int) -> tuple[tuple[int, tuple[float, float]], tuple[int, tuple[float, float]]]:
    """(color, position) of the two copies across the representative
    class-k edge: it runs along +x from the left copy at the origin to the
    right copy one lattice constant away.  They are the lattice copies
    across any class-k edge, moved so that the edge starts at the origin
    along +x, where ``stripe_caps`` states the caps.
    """
    c_l = left_color_of_class(k)
    return (c_l, (0.0, 0.0)), ((c_l + 1) % 3, (LATTICE_CONSTANT, 0.0))


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


def _cap_sub_arcs(breaks) -> tuple:
    """The arcs under the six caps of a break set, cap j covering the normal
    angles j*psi +- phi_c: (arcs, ends, dphi, du, u, du_dphi).

    Row j of ``arcs`` lists cap j's arcs in boundary order and ``ends``
    (6, 2) the arcs holding its two ends; ``dphi`` and ``du`` are the angle
    and unit chord of each arc's part under the cap, from max(start, lo) to
    min(next start, hi).  The rows are zero-padded by ``_padded``, so a
    padded entry is arc 0 with no part under the cap.  ``u`` and
    ``du_dphi`` are the unit normal and its phi-derivative at the two cap
    ends, shaped (6, 2, 2).  Only the cut model reads it, once per break
    set (``_cut_model``).
    """
    phi_c = croft_constants().phi_c
    n = len(breaks) - 1
    # arc starts over the turn before and this turn, then 2*pi: cap 0
    # starts at -phi_c
    starts = np.concatenate([np.array(breaks[:-1]) - TWO_PI, breaks])
    lo = PSI * np.arange(6) - phi_c
    hi = PSI * np.arange(6) + phi_c
    first = np.searchsorted(starts, lo, side="right") - 1
    last = np.searchsorted(starts, hi, side="left") - 1
    sizes = last - first + 1
    cap = np.repeat(np.arange(6), sizes)  # arcs first..last of each cap, in turn
    arc = first[cap] + np.arange(len(cap)) - (np.cumsum(sizes) - sizes)[cap]
    a = np.maximum(starts[arc], lo[cap])
    b = np.minimum(starts[arc + 1], hi[cap])
    arcs, dphi, du, _ = _padded(sizes, arc % n, b - a, _unit(b) - _unit(a))
    ends = np.stack([first, last], axis=1) % n
    u = _unit(np.stack([lo, hi], axis=1))
    du_dphi = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    return arcs, ends, dphi, du, u, du_dphi


def cap_area_derivatives(breaks: np.ndarray, q: np.ndarray, shifts, offsets: np.ndarray):
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
    columns of ``q`` (n, m), with their ``center_offsets`` ``offsets``
    (n, m, 2), and ``shifts`` (m, 2); no body is built and no copy placed.
    """
    phi_c = croft_constants().phi_c
    cot = 1.0 / math.tan(phi_c)
    arcs, ends, dphi, du, u, du_dphi = _cap_sub_arcs(breaks)
    centers = offsets + shifts  # (n, m, 2)
    qa = q[arcs]  # (6, width, m)
    h1_int = _cross(centers[arcs], du[:, :, None, :]) - qa * dphi[..., None]
    qh = np.swapaxes(qa, 1, 2) @ h1_int  # (6, m, m): int q h1 per cap
    m_ends = centers[ends]  # (6, 2, m, 2)
    h = (m_ends @ u[..., None])[..., 0] - q[ends]  # (6, 2, m)
    dh = (m_ends @ du_dphi[..., None])[..., 0]
    h1, h2, dh1, dh2 = h[:, 0], h[:, 1], dh[:, 0], dh[:, 1]
    a = (h1[:, :, None] * (cot * h1 + dh1)[:, None, :]
         + h2[:, :, None] * (cot * h2 - dh2)[:, None, :])
    a_ee = 0.5 * (a + np.swapaxes(a, 1, 2)) - 0.5 * (qh + np.swapaxes(qh, 1, 2))
    return h1_int.sum(axis=1), a_ee, -(h1 + h2) / math.sin(phi_c), h2 - h1


def class_cuts(breaks: np.ndarray, q: np.ndarray, shifts):
    """Unit-eps second-order data over the columns of ``cap_area_derivatives``,
    from one ``center_offsets``: the body-area Gram B (m, m) of
    ``body.body_area_gram`` and the edge classes' P_e (3, m), P_ex (3, 2, m)
    and P_ee (3, m, m).

    Class k clips cap 2k off its left copy and cap 2k + 1 off its right one:
    it sums their A_e and A_ee and chains their (A_ec, A_et) through the
    jacobians of ``stripe_caps`` at (0, 0) into the (s, delta)-rows of P_ex.
    """
    offsets = center_offsets(breaks, q)
    a_e, a_ee, a_ec, a_et = cap_area_derivatives(breaks, q, shifts, offsets)
    rates = np.stack([a_ec, a_et], axis=1).reshape((3, 2, 2) + a_ec.shape[1:])
    jacobians = np.stack([jac for _, _, jac, _ in stripe_caps(0.0, 0.0)])  # (side, (c, theta), x)
    p_ex = np.einsum("sri,ksr...->ki...", jacobians, rates)
    gram = body_area_gram(breaks, q, offsets)
    return gram, a_e[0::2] + a_e[1::2], p_ex, a_ee[0::2] + a_ee[1::2]


def cut_parameters(q: StepFunction, shift=None) -> tuple[PairCut, PairCut, PairCut]:
    """Unit-eps cut data of the three edge classes for the body of ``q``:
    the cuts of ``second_order_read``, a contraction of the break set's
    cut model with x = (q, shift)."""
    return second_order_read(q, shift)[1]


def second_order_read(q: StepFunction, shift=None) -> tuple[float, tuple[PairCut, ...]]:
    """(B, cuts): the body-area c2 of ``q``, area = pi + B eps^2, and the
    unit-eps cut data of the three edge classes at x = (v, shift) (None:
    the reference shift), v the antisymmetric part of ``q``'s values, exact
    for any number of arcs under a cap: contractions of the break set's cut
    model (``_cut_model``), B = x G x, P_e x, P_ex x and (P_ee x) x.
    Computed once per (break set, values, shift), keyed by their bits and
    bounded at 64 entries; each computed read checks closure
    (``body.require_closure``: ``BodyError``), and no failure is cached,
    so a read that hits has passed it.
    """
    shift = resolve_shift(shift)
    return _profile_cuts(
        np.asarray(q.breaks, dtype=float).tobytes(),
        np.asarray(q.values, dtype=float).tobytes(),
        np.asarray(shift, dtype=float).tobytes(),
    )


@lru_cache(maxsize=16)  # an entry is 4 (n/2 + 2)^2 floats: 0.7 MB at n = 288
def _cut_model(breaks: bytes):
    """``class_cuts`` at the n/2 + 2 unit columns of x = (v, shift) on the
    break set with these bits, v the half-values of step values (v, -v):
    (G, P_e, P_ex, P_ee), shaped (m, m), (3, m), (3, 2, m) and (3, m, m)
    with m = n/2 + 2, read-only.  B and P_ee are bilinear in x and P_e and
    P_ex linear, so these four are the whole cut model of the break set."""
    breaks = np.frombuffer(breaks)
    h = (len(breaks) - 1) // 2
    unit = np.eye(h + 2)
    out = class_cuts(breaks, np.concatenate([unit[:h], -unit[:h]]), unit[h:].T)
    for x in out:
        x.setflags(write=False)
    return out


@lru_cache(maxsize=64)  # bounded for sweeps over many profiles
def _profile_cuts(breaks: bytes, values: bytes, shift: bytes):
    """``second_order_read`` keyed by the bit patterns of the float arrays:
    -0.0 and 0.0 are two keys, and a values array changed in place is a new
    one.  The frozen ``PairCut``s are shared.  v = (values[:h] - values[h:])
    / 2 is values[:h] to the bit on an antisymmetric profile."""
    values = np.frombuffer(values)
    require_closure(np.frombuffer(breaks), values)
    gram, p_e, p_ex, p_ee = _cut_model(breaks)
    h = len(values) // 2
    x = np.concatenate([0.5 * (values[:h] - values[h:]), np.frombuffer(shift)])
    linear, rates, quad = p_e @ x, p_ex @ x, (p_ee @ x) @ x
    return float(x @ gram @ x), tuple(
        PairCut(float(linear[k]), (float(rates[k, 0]), float(rates[k, 1])), float(quad[k]))
        for k in range(3)
    )


# The patch ``PATCH_SITES`` as arrays that depend on neither the stripes
# nor the body, built once (``patch_layout``).  Row r is the site
# PATCH_SITES[r], of color colors[r] at positions[r].  Slot j of row r is
# the j-th cut the row's edges place on its copy, zero-padded to the six of
# the centre row and masked by ``mask``: the edge's class ``klass``, the
# ``side`` of the edge the row is on (0 its start, 1 its end: the caps of
# ``stripe_caps`` in turn), ``turn`` = (cos, sin) of the edge's direction
# m*pi/3 for neighbor step m, and ``origin``, the position of the edge's
# start.  ``edges`` lists each edge once as ((row_a, slot_a), (row_b,
# slot_b), class), from color c to color c+1.
PatchLayout = namedtuple("PatchLayout", "colors positions klass side turn origin mask edges")


@lru_cache(maxsize=1)
def patch_layout() -> PatchLayout:
    """The ``PatchLayout`` of ``PATCH_SITES``, read-only.

    The steps m = 0, 2, 4 lead from color c to c+1 (the other three lead
    back), and the edge of step m has class k = (m/2 - c) mod 3: its
    direction m*psi is 2*c*psi + 2*k*psi mod 2*pi, so at direction 0 the
    class-k edge starts at color -k mod 3 (``left_color_of_class``).  Each
    row's slots come in the order its edges are listed.
    """
    row = {site: r for r, site in enumerate(PATCH_SITES)}
    slots = [[] for _ in PATCH_SITES]  # (class, side, turn, start row) per cut
    edges = []
    for a, (i, j) in enumerate(PATCH_SITES):
        color = color_index(i, j)
        for m in (0, 2, 4):
            di, dj = NEIGHBOR_STEPS[m]
            b = row.get((i + di, j + dj))
            if b is None:
                continue
            k = (m // 2 - color) % 3
            turn = (math.cos(m * PSI), math.sin(m * PSI))
            for side, r in enumerate((a, b)):
                slots[r].append((k, side, turn, a))
            edges.append(((a, len(slots[a]) - 1), (b, len(slots[b]) - 1), k))
    positions = np.array([site_position(*site) for site in PATCH_SITES])
    klass, side, turn, start = (np.array(x) for x in zip(*(x for s in slots for x in s)))
    layout = PatchLayout(np.array([color_index(*site) for site in PATCH_SITES]), positions,
                         *_padded(np.array([len(s) for s in slots]), klass, side, turn,
                                  positions[start]), tuple(edges))
    for x in layout[:-1]:
        x.setflags(write=False)
    return layout


def patch_cuts(stripes: dict[int, tuple[float, float]], stripe_width: float = 2.0):
    """The cut table of the patch, on the slots of ``patch_layout``:
    normals (row, slot, 2), offsets (row, slot) and the mask of real cuts.

    Slot (r, j) holds the cap of ``stripe_caps`` for its class and side,
    each class's caps at its (shift, tilt) in ``stripes``, moved onto its
    edge: the normal turned by the edge's direction, n = R n_cap, and the
    line moved to the edge's start, c = c_cap + n.origin, for the removed
    half-plane {x : n.x >= c}.  Across an edge, copy a keeps n.x <= c_a
    under its cut (n, c_a) and copy b keeps n.x >= c_b under its cut
    (-n, -c_b), so the two cuts state the strip between them.  A padded
    slot is (0, 0), which removes nothing: 0.x - 0 is never above a
    tolerance.
    """
    layout = patch_layout()
    caps = [stripe_caps(*stripes[k], stripe_width) for k in range(3)]
    at = (layout.klass, layout.side)
    cap = np.array([[n for n, _, _, _ in pair] for pair in caps])[at]
    cos, sin = layout.turn[..., 0], layout.turn[..., 1]
    n = np.stack([cos * cap[..., 0] - sin * cap[..., 1], sin * cap[..., 0] + cos * cap[..., 1]],
                 axis=-1)
    normals = np.where(layout.mask[..., None], n, 0.0)
    # n.origin as stacked pair products: the dot ``n @ origin`` takes, which
    # can round apart from n0*o0 + n1*o1
    moved = (normals[..., None, :] @ layout.origin[..., None])[..., 0, 0]
    offsets = np.array([[c for _, c, _, _ in pair] for pair in caps])[at] + moved
    return normals, np.where(layout.mask, offsets, 0.0), layout.mask


# ---------------------------------------------------------------------------
# Overlap-avoidance verification on the exact trimmed boundary

CONCENTRIC_TOL = 1e-12
VERIFY_TOL = 1e-9  # slack of the three patch checks of verify_avoidance

Witness = tuple[np.ndarray, np.ndarray]


@dataclass
class AvoidanceReport:
    """Outcome of the patch verification; ``ok`` aggregates all checks.

    ``max_same_body_diameter`` is the largest diameter of a copy with
    something left, a bound on its trimmed copy's.  The witnesses attain
    it and ``min_cross_distance`` (None when the check did not run).
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
# ``_in_arc``'s cross products of direction vectors.

PRUNE_SLACK = 1e-9  # room for rounding in the strip bound


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


def _vertex_vertex(a: TrimTable, b: TrimTable):
    shape = a.vertices.shape[:2] + b.vertices.shape[1:]
    return (np.broadcast_to(a.vertices[:, :, None], shape),
            np.broadcast_to(b.vertices[:, None], shape),
            a.vertex_ok[:, :, None] & b.vertex_ok[:, None])


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


def _extreme(e: int, blocks) -> list[tuple[float, Witness]]:
    """Per pair, the distance and witness of the first nearest existing
    candidate.  ``blocks`` lists the helper calls in candidate order; each
    block is reduced to its row minima before the next is built.  A block
    over the e pairs' rows is one candidate kind; a block over 2e rows is
    a mirrored kind, rows e.. its b->a half, which follows its a->b half
    with its two points swapped."""
    best = []
    for block in blocks:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on padding, bad pieces
            P, Q, ok = block()
        d = np.hypot(P[..., 0] - Q[..., 0], P[..., 1] - Q[..., 1])
        d[~ok] = math.inf  # a block over no pieces (no chords, say) is all inf
        at = (np.arange(len(ok)),
              *np.unravel_index(d.reshape(len(ok), -1).argmin(axis=1), ok.shape[1:]))
        d, P, Q = d[at], P[at], Q[at]
        best.append((d[:e], P[:e], Q[:e]))
        if len(d) > e:
            best.append((d[e:], Q[e:], P[e:]))
    d, P, Q = (np.stack(x, axis=1) for x in zip(*best))
    return [(float(d[r, g]), (P[r, g], Q[r, g])) for r, g in enumerate(d.argmin(axis=1))]


def _strip_prune(p: TrimTable, n, c, top) -> TrimTable:
    """Drop from the first bodies (rows 0..e-1) and the second bodies (rows
    e..2e-1) of e pairs every piece that cannot hold the nearest pair.

    Row i comes with the cut (n[i], c[i]) its edge places on its body, n a
    unit normal away from the other body: a's cut (n, c_a) and b's
    (-n, -c_b) put body a in n.x <= c_a and body b in n.x >= c_b, so every
    pair has |P - Q| >= n.Q - n.P.  Each line moves out to its body's
    measured extreme where that lies beyond it: ``top[i]`` is max n[i].x
    over row i's body (``_support``), so the bound holds however the
    bodies were trimmed.  A piece of a then has no pair nearer than c_b
    minus its largest n.x (an arc piece peaks at M + r*n when n is in its
    range, else at an end), and the mirror for b.  U is the distance from
    the vertex of a nearest the strip to the nearest vertex of b, an
    achieved distance; a piece whose bound exceeds U + PRUNE_SLACK holds no
    candidate that can attain the minimum.
    """
    e = len(c) // 2
    n = n[:, None]
    # the largest n.x of each piece, -inf on padding
    reach = np.where(_in_arc(n, p.u0, p.u1), 1.0, np.maximum(_dot(p.u0, n), _dot(p.u1, n)))
    arc_top = np.where(p.arc_ok, _dot(p.centers, n) + p.radii * reach, -math.inf)
    chord_top = np.where(p.chord_ok, np.maximum(_dot(p.chord_a, n), _dot(p.chord_b, n)),
                         -math.inf)
    vertex_top = np.where(p.vertex_ok, _dot(p.vertices, n), -math.inf)
    side = np.maximum(c, top)
    nearest = vertex_top[:e].argmax(axis=1)[:, None, None]
    gap = p.vertices[e:] - np.take_along_axis(p.vertices[:e], nearest, axis=1)
    gap = np.where(p.vertex_ok[e:], np.hypot(gap[..., 0], gap[..., 1]), math.inf)
    # keep a piece unless the other side's line minus its top exceeds U + slack
    low = -np.roll(side, e)[:, None] - np.tile(gap.min(axis=1), 2)[:, None] - PRUNE_SLACK
    return _keep(p, arc_top >= low, chord_top >= low, vertex_top >= low)


def closest_pairs(table: TrimTable, pairs, normals, offsets, top) -> list[tuple[float, Witness]]:
    """Exact distance between the two disjoint trimmed bodies of each pair
    ((row_a, slot_a), (row_b, slot_b)) of ``table`` and its witness, all
    pairs in one batched pass over the candidates the module docstring
    lists (two chords have no isolated interior critical pair).  Each side
    names its body's row and the slot of its edge's cut in the cut table
    ``normals``, ``offsets`` (``patch_cuts``) and in ``top``, its measured
    extremes (``_support``); ``_strip_prune`` first drops the pieces that
    cannot hold the nearest pair, keeping every candidate that can attain
    the minimum in order, so the distance and the witness are those of the
    full list.  Vertex-arc, vertex-chord and arc-chord candidates come in
    mirrored kinds, a to b and b to a: each runs once over both sides'
    rows against their partners' rows, and ``_extreme`` splits its row
    minima back into the two kinds, in the list's order.
    """
    if not pairs:
        return []
    e = len(pairs)
    rows, slots = np.array([a for a, _ in pairs] + [b for _, b in pairs]).T
    p = _strip_prune(_take(table, rows), normals[rows, slots], offsets[rows, slots],
                     top[rows, slots])
    a, b = _take(p, slice(e)), _take(p, slice(e, None))
    partner = _take(p, np.roll(np.arange(2 * e), e))  # row i: the other side of row i's pair
    return _extreme(e, [
        lambda: _vertex_vertex(a, b),
        lambda: _vertex_arc(p, partner),
        lambda: _vertex_chord(p, partner),
        lambda: _arc_arc(a, b),
        lambda: _arc_chord(p, partner),
    ])


def _off_copy(table: TrimTable, copies, normals, offsets):
    """Masks (row, piece) and (row, chord) of the pieces of ``table`` off
    their copies (stacked centers, radii and breaks): an arc piece needs
    its arc's centre and radius to the bit and both ends in its arc's range
    (``_in_arc``'s test, VERIFY_TOL to spare for a crossing rounded past
    the arc's start), a chord both ends on its cut's line to VERIFY_TOL."""
    centers, radii, breaks = copies
    rows = np.arange(len(radii))[:, None]
    lo, hi = _unit(breaks[rows, table.arc]), _unit(breaks[rows, table.arc + 1])
    on_arc = ((table.centers == centers[rows, table.arc]).all(axis=-1)
              & (table.radii == radii[rows, table.arc]))
    for u in (table.u0, table.u1):
        on_arc &= (_cross(lo, u) >= -VERIFY_TOL) & (_cross(u, hi) >= -VERIFY_TOL)
    n, c = normals[rows, table.cut], offsets[rows, table.cut]
    off = np.maximum(np.abs(_dot(table.chord_a, n) - c), np.abs(_dot(table.chord_b, n) - c))
    return table.arc_ok & ~on_arc, table.chord_ok & ~(off <= VERIFY_TOL)


def _copy_diameters(copies) -> list[tuple[float, Witness]]:
    """Each copy's diameter, ``body.diameter_profile``'s max, and the first
    antipodal pair that attains it, for all copies (stacked) in one call."""
    dist, P, Q = antipodal_extremes(*copies)  # (2, copy, n/2): largest, then smallest
    side, i = np.divmod(np.swapaxes(dist, 0, 1).reshape(dist.shape[1], -1).argmax(axis=1),
                        dist.shape[2])
    at = (side, np.arange(len(side)), i)
    return list(zip(dist[at].tolist(), zip(P[at], Q[at])))


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
    and n.x >= c + width.  (c) asserts that each trimmed body lies on its
    copy: every arc piece on its arc, every chord's ends on its own cut
    line (``_off_copy``; that they lie between the line's crossings holds
    by construction).  A rigid copy has its body's diameter,
    ``diameter_profile``'s max, read for the nine placed copies in one
    batched closed form (``_copy_diameters``); it bounds the trimmed
    copy's, and is it where the cuts leave an antipodal pair, as the uncut
    half of the turn does at width 2.  (b) and (c) come with witness
    points, (c)'s on the copy.  A copy its cut lines remove entirely is a
    violation of its own: no distance of it can be measured.

    The nine copies are placed as stacked arrays (``place_patch``) and
    trimmed in one call (``trim_bodies``) into one padded table, a row per
    site, by the patch's padded cut table (``patch_cuts``).  (a) is one
    batched support-function pass (``_support``) over every copy and cut.
    Each edge names its two slots (``patch_layout``), the strip's two
    lines, so (a)'s support values at them are the
    measured extremes ``_strip_prune`` moves the lines out to, and its
    bound holds even if the trimming is wrong.  What the bound leaves
    goes through the candidate helpers once for the 16 edges' rows
    (``closest_pairs``).

    What the checks guard: (a) holds by construction of the trimming, and
    the strip bounds the distance in (b) below by the stripe width, so at
    width 2 they guard the trimming code and the body's constant width
    (a body wider than 2 fails (c)), not the stripe placement.  A width
    below 2 fails (b) by the shortfall.  Raises ``ValueError`` unless
    ``stripe_width`` > 0 and ``shift`` is None or two finite numbers.
    """
    if not stripe_width > 0.0:
        raise ValueError(f"stripe width must be positive, got {stripe_width}")
    shift = resolve_shift(shift)
    sites = PATCH_SITES
    body = build_body(q, eps)
    normals, offsets, cut_ok = patch_cuts(stripes, stripe_width)
    # row r of the stacks and of the table holds the copy of sites[r]
    copies = place_patch(body, shift)
    table = trim_bodies(copies, (normals, offsets, cut_ok))
    live = np.flatnonzero(table.vertex_ok.any(axis=1)).tolist()
    violations = [f"site {s}: its cut lines leave nothing of its copy"
                  for r, s in enumerate(sites) if r not in live]

    top = _support(table, normals)  # max n.x over each copy, per cut; -inf on an empty one
    excess = np.where(cut_ok, top - offsets, -math.inf)  # the padding is no cut
    max_hp = float(excess.max())
    violations += [f"site {sites[r]}: trimmed body crosses a cut line by {excess[r, j]:.3e}"
                   for r, j in zip(*np.nonzero(excess > VERIFY_TOL))]

    edges = patch_layout().edges
    checked = [e for e in edges if e[0][0] in live and e[1][0] in live]
    found = closest_pairs(table, [(a, b) for a, b, _ in checked], normals, offsets, top)
    min_cross, cross_witness = min(found, key=lambda f: f[0], default=(math.inf, None))
    for ((a, _), (b, _), k), (d, w) in zip(checked, found):
        if d < 2.0 - VERIFY_TOL:
            violations.append(
                f"edge {sites[a]}->{sites[b]} (class {k}): bodies only {d:.12f} apart, "
                f"at {_point(w[0])} and {_point(w[1])}"
            )

    off = _off_copy(table, copies, normals, offsets)
    violations += [f"site {sites[r]}: trimmed {piece} {i} is off its copy" for piece, mask
                   in zip(("arc piece", "chord"), off) for r, i in zip(*np.nonzero(mask))]
    diameters = [d for r, d in enumerate(_copy_diameters(copies)) if r in live]
    max_diam, diameter_witness = max(diameters, key=lambda f: f[0], default=(-math.inf, None))
    for r, (d, w) in zip(live, diameters):
        if d > 2.0 + VERIFY_TOL:
            violations.append(
                f"site {sites[r]}: its copy has diameter {d:.12f} > 2, "
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
