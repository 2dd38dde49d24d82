"""Half-plane clipping of closed arc-chain boundaries.

Areas are accumulated with the sector-minus-triangle closed form along
the kept boundary pieces; gaps where the boundary leaves the half-plane
are closed with straight chords.  Circle-line intersections are solved
per arc from the cosine equation in the arc's own angle parameter.  The
same walk gives the area's gradient and Hessian in the line's offset and
angle from the two crossings it finds (``halfplane_clip_area``).

Only the arcs under the cap are tried (``cap_arcs``).  The boundary point
at angle phi has outward normal (cos phi, sin phi), so the point farthest
along n lies on the arc whose range holds the angle of n, found by
bisection on the breaks.  On a convex boundary n.x falls monotonically
away from that point on both sides, so a walk out from the support arc
that stops at the first shared endpoint below the line finds every arc
that can meet it: one to three arcs for a stripe cap instead of all n.

``trim_bodies`` keeps what several half-planes leave of each of several
bodies as arc pieces, chords and vertices, in one padded table with a
row per body (``TrimTable``): the table the exact checks of the patch in
``lattice`` read.  It walks each cut's cap as above, then splits the arcs
of every body with one sort, clips every chord with one array pass, lists
each body's vertices once with one more sort and pads each group into
its rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .body import ArcBody, _unit
from .stepfn import TWO_PI

TANGENCY_TOL = 1e-12
# The cap walk goes on past a shared arc endpoint up to this far below the
# line.  It covers the chain's closure gap at the first break (up to
# body.CLOSURE_TOL) and rounding; an arc taken in excess finds no crossing.
CAP_MARGIN = 1e-8


def _arc_piece_area(center, radius, a, b, ua, ub) -> float:
    # Green's theorem contribution of one arc piece plus its center chord
    # term; ua and ub are (cos, sin) of its end angles a and b.
    cross = center[0] * (ub[1] - ua[1]) - center[1] * (ub[0] - ua[0])
    return 0.5 * (radius * radius * (b - a) + radius * cross)


def _arc_point(center, radius, phi) -> tuple[float, float]:
    return (center[0] + radius * math.cos(phi), center[1] + radius * math.sin(phi))


def arc_line_crossings(center, radius, a, b, n, c) -> list[float]:
    """Angles in [a, b) where the arc crosses the line n.x = c (n unit);
    a crossing within TANGENCY_TOL of a break belongs to the arc starting there."""
    if radius <= 0.0:
        return []
    t = (c - float(n[0] * center[0] + n[1] * center[1])) / radius
    if abs(t) >= 1.0 - TANGENCY_TOL:
        return []
    alpha = math.atan2(n[1], n[0])
    base = math.acos(t)
    out = []
    for branch in (alpha + base, alpha - base):
        # bring the solution into (a, b) modulo 2*pi
        k = math.floor((a - branch) / (2.0 * math.pi))
        for m in (k, k + 1, k + 2):
            phi = branch + 2.0 * math.pi * m
            if a - TANGENCY_TOL <= phi < b - TANGENCY_TOL:
                out.append(max(phi, a))
    return sorted(out)


def cap_arcs(body: ArcBody, n, c: float) -> list[int]:
    """Indices of the arcs that can meet {x : n.x >= c}, in boundary order.

    Starts at the support arc, the one whose range holds the angle of the
    unit normal ``n``, and walks out both ways while the shared endpoint
    stays within CAP_MARGIN of the half-plane.  The support arc is always
    returned, and every arc when the whole boundary is in the half-plane.
    """
    n0, n1 = float(n[0]), float(n[1])
    centers, radii, breaks = body.arc_lists
    count = len(radii)
    floor = c - CAP_MARGIN

    def inside(i, phi):  # arc i at angle phi lies above the floor
        x, y = _arc_point(centers[i], radii[i], phi)
        return n0 * x + n1 * y >= floor

    # the interval of the normal's angle, reduced as in ArcBody.interval_of
    phi = breaks[0] + (math.atan2(n1, n0) - breaks[0]) % TWO_PI
    support = min(bisect_right(breaks, phi) - 1, count - 1)
    after = []
    i = support
    while len(after) < count - 1 and inside(i, breaks[i + 1]):
        i = (i + 1) % count
        after.append(i)
    before = []
    i = support
    while len(before) + len(after) < count - 1 and inside(i, breaks[i]):
        i = (i - 1) % count
        before.append(i)
    return before[::-1] + [support] + after


class Clip(NamedTuple):
    """A clipped area with its gradient (a pair of floats) and Hessian (a
    symmetric pair of pairs) in two line parameters, both None where a
    line does not cross its boundary in exactly two points."""

    area: float
    grad: tuple[float, float] | None = None
    hess: tuple[tuple[float, float], tuple[float, float]] | None = None


def _chord_derivatives(hits, n, c):
    """(grad, hess) of the clipped area in (c, theta) from the crossings
    (center, point) of the line n.x = c; (None, None) unless two.

    theta is the angle of the unit normal, n = (cos theta, sin theta), and
    t = (-sin theta, cos theta) runs along the line.  The line meets the
    boundary at x_i = c*n + u_i*t (u_1 < u_2) on arcs with centres M_i.
    Moving the line sweeps the chord, so A_c = -(u_2 - u_1) and
    A_theta = (u_2^2 - u_1^2)/2.  With w = x - M the crossings slide by
    u_c = -(w.n)/(w.t) and u_theta = -w.(c*t - u*n)/(w.t), which gives
    A_cc = -(u_2,c - u_1,c), A_ctheta = -(u_2,theta - u_1,theta) and
    A_thetatheta = u_2*u_2,theta - u_1*u_1,theta.
    """
    if len(hits) != 2:
        return None, None
    t0, t1 = -n[1], n[0]
    slides = []  # (u, u_c, u_theta) per crossing
    for center, (x0, x1) in hits:
        w0, w1 = x0 - center[0], x1 - center[1]
        wt = w0 * t0 + w1 * t1
        u = x0 * t0 + x1 * t1
        u_c = -(w0 * n[0] + w1 * n[1]) / wt
        u_t = -(w0 * (c * t0 - u * n[0]) + w1 * (c * t1 - u * n[1])) / wt
        slides.append((u, u_c, u_t))
    (u1, u1_c, u1_t), (u2, u2_c, u2_t) = sorted(slides)
    a_ct = -(u2_t - u1_t)
    grad = (-(u2 - u1), 0.5 * (u2 * u2 - u1 * u1))
    hess = ((-(u2_c - u1_c), a_ct), (a_ct, u2 * u2_t - u1 * u1_t))
    return grad, hess


def halfplane_clip_area(body: ArcBody, n, c: float) -> Clip:
    """Area of body ∩ {x : n.x >= c} for a unit normal ``n``, with its
    derivatives in (c, theta) (``_chord_derivatives``), from one walk.

    The walk keeps the sub-arcs under the cap that lie inside the
    half-plane, in boundary order, closes every excursion outside with a
    chord, and keeps the crossing points it finds for the derivatives.
    The side is that of the walk's start point, which lies outside unless
    the walk covers every arc (``cap_arcs`` stops below c - CAP_MARGIN),
    and flips at each crossing.  cos and sin are taken once per piece end,
    for its Green term and its point alike.
    """
    n = (float(n[0]), float(n[1]))
    centers, radii, breaks = body.arc_lists
    pieces = []  # (area contribution, start point, end point)
    hits = []  # (center, point) per crossing
    inside = None
    for i in cap_arcs(body, n, c):
        center, radius = centers[i], radii[i]
        a, b = breaks[i], breaks[i + 1]
        if radius <= 0.0 or b - a <= 0.0:
            continue
        cuts = [a] + arc_line_crossings(center, radius, a, b, n, c) + [b]
        units = [(math.cos(phi), math.sin(phi)) for phi in cuts]
        points = [(center[0] + radius * u0, center[1] + radius * u1) for u0, u1 in units]
        hits += [(center, p) for p in points[1:-1]]
        if inside is None:
            inside = n[0] * points[0][0] + n[1] * points[0][1] >= c
        for j in range(len(cuts) - 1):
            if j:
                inside = not inside
            lo, hi = cuts[j], cuts[j + 1]
            # lo == hi: a crossing at the start break
            if inside and lo < hi:
                pieces.append((_arc_piece_area(center, radius, lo, hi, units[j], units[j + 1]),
                               points[j], points[j + 1]))
    area = sum(p[0] for p in pieces)
    # chords from each piece end to the next piece start (cyclically);
    # contiguous pieces contribute zero because the points coincide.
    for j, piece in enumerate(pieces):
        end = piece[2]
        start = pieces[(j + 1) % len(pieces)][1]
        area += 0.5 * (end[0] * start[1] - end[1] * start[0])
    return Clip(float(area), *_chord_derivatives(hits, n, c))


def boundary_line_crossings(body: ArcBody, n, c: float) -> list[np.ndarray]:
    """All boundary points where the body boundary meets the line n.x = c,
    in boundary order from the first arc under the cap."""
    centers, radii, breaks = body.arc_lists
    pts = []
    for i in cap_arcs(body, n, c):
        center, radius = centers[i], radii[i]
        a, b = breaks[i], breaks[i + 1]
        for phi in arc_line_crossings(center, radius, a, b, n, c):
            pts.append(np.array(_arc_point(center, radius, phi)))
    return pts


# ---------------------------------------------------------------------------
# A body trimmed by several half-planes

KEEP_TOL = 1e-12
ANGLE_TOL = 1e-12  # narrowest arc piece kept as an arc


# Bodies cut by half-planes, a row each: arc pieces, chords and vertices,
# each group (its fields in ``_GROUPS``) zero-padded by ``_padded`` and
# followed by its ``*_ok`` mask.  Arc piece i of row r is centers[r, i] +
# radii[r, i] * u for the unit vectors u from u0[r, i] counter-clockwise
# to u1[r, i]; it spans at most pi, because every break of a profile has
# its antipode, so pi is a break.  Chord j runs from chord_a[r, j] to
# chord_b[r, j].  ``vertices`` holds every piece endpoint once: each bit
# pattern once (so -0.0 and 0.0 differ), the first copy in the order arc
# starts, arc ends, chord starts, chord ends.
TrimTable = namedtuple(
    "TrimTable", "centers radii u0 u1 arc_ok chord_a chord_b chord_ok vertices vertex_ok"
)
_GROUPS = (("centers", "radii", "u0", "u1"), ("chord_a", "chord_b"), ("vertices",))


def _padded(sizes, *flat):
    """Rows of ``sizes`` entries taken in turn from each array of ``flat``,
    zero-padded to the longest row and at least one entry wide (so a
    reduction along rows works on no rows too), and the mask of real
    entries."""
    ok = np.arange(sizes.max(initial=1)) < sizes[:, None]
    out = []
    for f in flat:
        out.append(np.zeros(ok.shape + f.shape[1:], dtype=f.dtype))
        out[-1][ok] = f
    return (*out, ok)


def cut_table(cuts_per_body) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, c) cuts of several bodies as arrays (body, cut, 2) of normals
    and (body, cut) of offsets, zero-padded by ``_padded``, and the mask of
    real cuts.  A padded cut (0, 0) removes nothing: 0.x - 0 is never above
    a tolerance."""
    flat = [cut for cuts in cuts_per_body for cut in cuts]
    return _padded(np.array([len(cuts) for cuts in cuts_per_body]),
                   np.array([n for n, _ in flat], dtype=float).reshape(-1, 2),
                   np.array([c for _, c in flat], dtype=float))


def trim_bodies(bodies, cuts_per_body) -> tuple[TrimTable, np.ndarray, np.ndarray, np.ndarray]:
    """Exact boundary of each body with its cut half-planes removed, as a
    ``TrimTable`` with a row per body, and the ``cut_table`` it trimmed by:
    (table, normals, offsets, cut mask).

    ``cuts_per_body[i]`` holds body i's (n, c) pairs, each the removed
    half-plane {x : n.x >= c}, as from ``lattice.collect_patch_cuts``.
    Each cut line is crossed with the arcs under the cap it removes
    (``cap_arcs``, ``arc_line_crossings``); one sort of every crossing
    and every arc end of every body by (body, arc, angle) splits all arcs
    at once, and the pieces whose midpoints satisfy n.x <= c for every cut
    of their body are kept.  Each cut line adds the chord between its two
    extreme boundary crossings, clipped as an interval by the other cuts
    of its body; all chords are clipped in one pass.

    Every dot product is a matrix product of one body's rows with its own
    cut normals, padded to common counts, so each body's row is bit for
    bit the one it gets trimmed alone.  A piece ends where the next on its
    arc starts, so of the 52-60 piece ends of a reference copy at width 2
    only 31-47 differ; one stable sort of every body's ends by (body, bit
    pattern) keeps the first copy of each.
    """
    count = len(bodies)
    normals, offsets, cut_ok = cut_table(cuts_per_body)
    width = normals.shape[1]
    # the arcs of all bodies are numbered in turn: body k's from first[k]
    first = list(accumulate((b.n_arcs for b in bodies), initial=0))
    centers = np.concatenate([b.centers for b in bodies]).reshape(-1, 2)
    radii = np.concatenate([b.radii for b in bodies])
    # every crossing (arc, angle, body * width + cut) of a cut line with an
    # arc under its cap, then both ends of every arc (cut -1), sorted by arc
    # number and angle
    arc, angle, cut = np.array([
        (first[k] + i, phi, k * width + j)
        for k, (body, cuts) in enumerate(zip(bodies, cuts_per_body))
        for j, (n, c) in enumerate(cuts) for i in cap_arcs(body, n, c)
        for phi in arc_line_crossings(*_arc_of(body, i), n, c)
    ], dtype=float).reshape(-1, 3).T
    ends = np.arange(first[-1])
    arc = np.concatenate([arc, ends, ends])
    angle = np.concatenate([angle, *(b.breaks[:-1] for b in bodies),
                            *(b.breaks[1:] for b in bodies)])
    cut = np.concatenate([cut, np.full(2 * first[-1], -1.0)])
    order = np.lexsort((angle, arc))
    arc, angle, cut = arc[order].astype(int), angle[order], cut[order]
    # consecutive angles on one arc bound a piece
    same = arc[1:] == arc[:-1]
    idx, lo, hi = arc[:-1][same], angle[:-1][same], angle[1:][same]
    piece_body = np.searchsorted(first, idx, side="right") - 1
    mid, slot = _padded(np.bincount(piece_body, minlength=count),
                        centers[idx] + radii[idx][:, None] * _unit(0.5 * (lo + hi)))
    kept = np.all(mid @ np.swapaxes(normals, 1, 2) - offsets[:, None] <= KEEP_TOL, axis=2)[slot]
    idx, piece_body, lo, hi = idx[kept], piece_body[kept], lo[kept], hi[kept]
    hit = cut >= 0
    points = centers[arc[hit]] + radii[arc[hit]][:, None] * _unit(angle[hit])
    cut = cut[hit].astype(int)

    # the crossings of each line that meets its body twice, in boundary
    # order, one row per line: the chord runs between the extreme two
    sizes = np.bincount(cut, minlength=count * width)
    line = np.flatnonzero(sizes >= 2)
    order = np.argsort(cut, kind="stable")
    pts, ok = _padded(sizes[line], points[order][sizes[cut[order]] >= 2])
    normal = normals.reshape(-1, 2)[line]
    along = (pts @ np.stack([-normal[:, 1], normal[:, 0]], axis=-1)[:, :, None])[..., 0]
    rows = np.arange(len(line))
    p0 = pts[rows, np.where(ok, along, math.inf).argmin(axis=1)]
    p1 = pts[rows, np.where(ok, along, -math.inf).argmax(axis=1)]
    chord_body, j = line // width, line % width
    # the chord p0 + u*(p1 - p0), u in [0, 1], kept where g0 + u*g1 <= 0
    # for every other cut of its body
    g0 = (normals[chord_body] @ p0[:, :, None])[..., 0] - offsets[chord_body]
    g1 = (normals[chord_body] @ (p1 - p0)[:, :, None])[..., 0]
    other = np.arange(width) != j[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -g0 / g1
    u_hi = np.min(np.where(other & (g1 > 0.0), u, 1.0), axis=1, initial=1.0)
    u_lo = np.max(np.where(other & (g1 < 0.0), u, 0.0), axis=1, initial=0.0)
    left = (u_lo <= u_hi) & ~np.any(other & (g1 == 0.0) & (g0 > KEEP_TOL), axis=1)
    p0, p1, chord_body = p0[left], p1[left], chord_body[left]
    u_lo, u_hi = u_lo[left], u_hi[left]
    chord_a = p0 + u_lo[:, None] * (p1 - p0)
    chord_b = p0 + u_hi[:, None] * (p1 - p0)

    centers, radii = centers[idx], radii[idx]
    u0, u1 = _unit(lo), _unit(hi)
    start, stop = centers + radii[:, None] * u0, centers + radii[:, None] * u1
    # A narrower piece may have u0 == u1 after rounding, and _in_arc would
    # then admit -u0 too.  Its points lie within ANGLE_TOL * r of its
    # endpoints, which stay vertices.
    wide = hi - lo > ANGLE_TOL
    # every piece end of every body; within a body this order is its
    # starts, ends, chord starts, chord ends, and a stable sort by (body,
    # bit pattern) puts each first copy ahead of its repeats
    vertices = np.concatenate([start, stop, chord_a, chord_b])
    vertex_body = np.concatenate([piece_body, piece_body, chord_body, chord_body])
    key = np.column_stack([vertex_body, vertices.view(np.int64)])
    order = np.lexsort(key.T[::-1])
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = np.all(key[order[1:]] == key[order[:-1]], axis=1)
    once = np.flatnonzero(~repeat)
    once = once[np.argsort(vertex_body[once], kind="stable")]
    # every group is sorted by body, so each pads into its rows as it is
    groups = ((piece_body[wide], centers[wide], radii[wide], u0[wide], u1[wide]),
              (chord_body, chord_a, chord_b), (vertex_body[once], vertices[once]))
    table = TrimTable(*(x for rows, *flat in groups
                        for x in _padded(np.bincount(rows, minlength=count), *flat)))
    return table, normals, offsets, cut_ok


def _arc_of(body: ArcBody, i: int):
    """(center, radius, start, end) of arc i, from the body's lists."""
    centers, radii, breaks = body.arc_lists
    return centers[i], radii[i], breaks[i], breaks[i + 1]
