"""Half-plane clipping of closed arc-chain boundaries.

Areas are accumulated in one pass along the boundary, adding the
sector-minus-triangle closed form of each kept piece as it is found;
gaps where the boundary leaves the half-plane are closed with straight
chords, added after the pieces.  Circle-line intersections are solved
per arc from the cosine equation in the arc's own angle parameter, with
the normal's angle taken once per line (``_crossings``), and the clip
and the trim alike keep each piece between them by its midpoint.  The
same walk gives the area's gradient and Hessian in the line's offset
and angle from the two crossings it finds (``halfplane_clip_area``).

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
``lattice`` read.  It takes the bodies as stacked arrays and their cuts
as one padded table, walks each cut's cap as above, then splits the arcs
of every body with one sort, clips every chord with one array pass, lists
every piece end as a vertex and pads each group into its rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .body import ArcBody, _unit
from .stepfn import TWO_PI

TANGENCY_TOL = 1e-12
# The cap walk goes on past a shared arc endpoint up to this far below the
# line.  It covers the chain's closure gap at the first break (up to
# body.CLOSURE_TOL) and rounding; an arc taken in excess finds no crossing.
CAP_MARGIN = 1e-8


def _arc_point(center, radius, phi) -> tuple[float, float]:
    return (center[0] + radius * math.cos(phi), center[1] + radius * math.sin(phi))


def _crossings(cx, cy, radius, a, b, alpha, n0, n1, c) -> list[float]:
    """Angles in [a, b) where the arc of ``radius`` about (cx, cy) crosses
    the line n.x = c, n = (n0, n1) the unit normal of angle ``alpha`` (the
    caller takes both once per line); a crossing within TANGENCY_TOL of a
    break, measured along the arc (TANGENCY_TOL / radius in angle), belongs
    to the arc starting there.  Each branch alpha +- acos(t) solves the
    cosine equation once per turn; an arc spans at most pi, so of the turns
    floor((a - branch)/2pi) + 0, 1, 2 only the first at or past a - window
    can fall in [a - window, b - window)."""
    if radius <= 0.0:
        return []
    t = (c - (n0 * cx + n1 * cy)) / radius
    if abs(t) >= 1.0 - TANGENCY_TOL:
        return []
    base = math.acos(t)
    window = TANGENCY_TOL / radius  # TANGENCY_TOL along the arc
    start, stop = a - window, b - window
    out = []
    for branch in (alpha + base, alpha - base):
        turn = math.floor((a - branch) / TWO_PI)
        phi = branch + TWO_PI * turn
        if phi < start:
            phi = branch + TWO_PI * (turn + 1)
            if phi < start:
                phi = branch + TWO_PI * (turn + 2)
        if start <= phi < stop:
            out.append(a if a > phi else phi)
    if len(out) == 2 and out[1] < out[0]:
        out.reverse()
    return out


def cap_arcs(arcs, n0: float, n1: float, alpha: float, c: float) -> list[int]:
    """Indices of the arcs that can meet {x : n.x >= c}, in boundary order,
    for the unit normal n = (n0, n1) of angle ``alpha``, on the boundary
    ``arcs``: its (centers, radii, breaks) as lists (``ArcBody.arc_lists``).

    Starts at the support arc, the one whose range holds ``alpha``, and
    walks out both ways while the shared endpoint stays within CAP_MARGIN
    of the half-plane.  The support arc is always returned, and every arc
    when the whole boundary is in the half-plane.
    """
    centers, radii, breaks = arcs
    count = len(radii)
    floor = c - CAP_MARGIN
    # the interval of the normal's angle, reduced as in ArcBody.interval_of
    phi = breaks[0] + (alpha - breaks[0]) % TWO_PI
    support = min(bisect_right(breaks, phi) - 1, count - 1)
    # walk on while the shared endpoint, arc i at angle phi, lies above
    # the floor
    after = []
    i = support
    while len(after) < count - 1:
        (x, y), r, phi = centers[i], radii[i], breaks[i + 1]
        if not n0 * (x + r * math.cos(phi)) + n1 * (y + r * math.sin(phi)) >= floor:
            break
        i = (i + 1) % count
        after.append(i)
    before = []
    i = support
    while len(before) + len(after) < count - 1:
        (x, y), r, phi = centers[i], radii[i], breaks[i]
        if not n0 * (x + r * math.cos(phi)) + n1 * (y + r * math.sin(phi)) >= floor:
            break
        i = (i - 1) % count
        before.append(i)
    before.reverse()
    before.append(support)
    return before + after


class Clip(NamedTuple):
    """A clipped area with its gradient (a pair of floats) and Hessian (a
    symmetric pair of pairs) in two line parameters: zero where a line
    misses its boundary, None where it crosses it in one point or more
    than two."""

    area: float
    grad: tuple[float, float] | None = None
    hess: tuple[tuple[float, float], tuple[float, float]] | None = None


def _chord_derivatives(hits, n, c):
    """(grad, hess) of the clipped area in (c, theta) from the crossings
    (center, point) of the line n.x = c: zero where there are none (a line
    that misses the boundary moves no area), (None, None) unless two.

    theta is the angle of the unit normal, n = (cos theta, sin theta), and
    t = (-sin theta, cos theta) runs along the line.  The line meets the
    boundary at x_i = c*n + u_i*t (u_1 < u_2) on arcs with centres M_i.
    Moving the line sweeps the chord, so A_c = -(u_2 - u_1) and
    A_theta = (u_2^2 - u_1^2)/2.  With w = x - M the crossings slide by
    u_c = -(w.n)/(w.t) and u_theta = -w.(c*t - u*n)/(w.t), which gives
    A_cc = -(u_2,c - u_1,c), A_ctheta = -(u_2,theta - u_1,theta) and
    A_thetatheta = u_2*u_2,theta - u_1*u_1,theta.
    """
    if not hits:
        return (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
    if len(hits) != 2:
        return None, None
    n0, n1 = n
    t0, t1 = -n1, n0
    first = second = None  # (u, u_c, u_theta) per crossing
    for (m0, m1), (x0, x1) in hits:
        w0, w1 = x0 - m0, x1 - m1
        wt = w0 * t0 + w1 * t1
        u = x0 * t0 + x1 * t1
        first, second = second, (u, -(w0 * n0 + w1 * n1) / wt,
                                 -(w0 * (c * t0 - u * n0) + w1 * (c * t1 - u * n1)) / wt)
    if second < first:  # sorted() of two
        first, second = second, first
    (u1, u1_c, u1_t), (u2, u2_c, u2_t) = first, second
    a_ct = -(u2_t - u1_t)
    grad = (-(u2 - u1), 0.5 * (u2 * u2 - u1 * u1))
    hess = ((-(u2_c - u1_c), a_ct), (a_ct, u2 * u2_t - u1 * u1_t))
    return grad, hess


def halfplane_clip_area(body: ArcBody, n, c: float) -> Clip:
    """Area of body ∩ {x : n.x >= c} for a unit normal ``n``, with its
    derivatives in (c, theta) (``_chord_derivatives``), from one walk.

    One pass over the arcs under the cap (``cap_arcs``) splits each at
    its crossings with the line, adds the Green term of each piece inside
    the half-plane to the area as it is found and keeps the crossing
    points for the derivatives.  A piece [lo, hi] of the arc of centre M
    and radius r is inside when its midpoint is: cos((lo + hi)/2 - alpha)
    >= t, with alpha the normal's angle and t = (c - n.M)/r, the rule
    ``trim_bodies`` keeps its pieces by.  A line within TANGENCY_TOL of
    tangent (|t| >= 1 - TANGENCY_TOL) does not cross the circle, so the
    whole arc is inside exactly when t < 0, wherever its midpoint falls.
    Each excursion outside is closed by a chord from one kept piece's end
    to the next one's start, cyclically; the chord terms are added after
    the arc terms.  The normal's angle is taken once per line, cos and
    sin once per piece end, for its Green term and its point alike, and
    one more cos per piece for its side.
    """
    n0, n1 = float(n[0]), float(n[1])
    n = (n0, n1)
    alpha = math.atan2(n1, n0)
    centers, radii, breaks = body.arc_lists
    area = 0.0
    chords = []  # from each kept piece's end to the next one's start
    hits = []  # (center, point) per crossing
    first = end = None  # first start and last end of a kept piece
    for i in cap_arcs(body.arc_lists, n0, n1, alpha, c):
        center, radius = centers[i], radii[i]
        a, b = breaks[i], breaks[i + 1]
        if radius <= 0.0 or b - a <= 0.0:
            continue
        cx, cy = center
        t = (c - (n0 * cx + n1 * cy)) / radius
        if abs(t) < 1.0 - TANGENCY_TOL:
            cuts = _crossings(cx, cy, radius, a, b, alpha, n0, n1, c)
        else:  # tangent: no crossing, the arc lies on one side
            cuts, t = [], math.copysign(2.0, t)
        cuts.append(b)
        lo, u0, u1 = a, math.cos(a), math.sin(a)
        p = (cx + radius * u0, cy + radius * u1)
        for hi in cuts:
            v0, v1 = math.cos(hi), math.sin(hi)
            q = (cx + radius * v0, cy + radius * v1)
            # lo == hi: a crossing at the start break
            if lo < hi and math.cos(0.5 * (lo + hi) - alpha) >= t:
                # the Green term of the arc piece plus its center chord
                cross = cx * (v1 - u1) - cy * (v0 - u0)
                area += 0.5 * (radius * radius * (hi - lo) + radius * cross)
                if end is None:
                    first = p
                else:
                    chords.append(0.5 * (end[0] * p[1] - end[1] * p[0]))
                end = q
            if hi < b:  # hi is a crossing: each lies below the arc's end b
                hits.append((center, q))
            lo, u0, u1, p = hi, v0, v1, q
    if end is not None:
        chords.append(0.5 * (end[0] * first[1] - end[1] * first[0]))
    for chord in chords:
        area += chord
    return Clip(area, *_chord_derivatives(hits, n, c))


def boundary_line_crossings(body: ArcBody, n, c: float) -> list[np.ndarray]:
    """All boundary points where the body boundary meets the line n.x = c,
    in boundary order from the first arc under the cap."""
    n0, n1 = float(n[0]), float(n[1])
    alpha = math.atan2(n1, n0)
    centers, radii, breaks = body.arc_lists
    return [np.array(_arc_point(centers[i], radii[i], phi))
            for i in cap_arcs(body.arc_lists, n0, n1, alpha, c)
            for phi in _crossings(*centers[i], radii[i], breaks[i], breaks[i + 1],
                                  alpha, n0, n1, c)]


# ---------------------------------------------------------------------------
# A body trimmed by several half-planes

KEEP_TOL = 1e-12
ANGLE_TOL = 1e-12  # narrowest arc piece kept as an arc


# Bodies cut by half-planes, a row each: arc pieces, chords and vertices,
# each group (its fields in ``_GROUPS``) zero-padded by ``_padded`` and
# followed by its ``*_ok`` mask.  Arc piece i of row r is centers[r, i] +
# radii[r, i] * u for the unit vectors u from u0[r, i] counter-clockwise
# to u1[r, i] on its body's arc arc[r, i]; it spans at most pi, because
# every break of a profile has its antipode, so pi is a break.  Chord j
# runs from chord_a[r, j] to chord_b[r, j] on the line of cut cut[r, j].
# ``vertices`` holds every piece end in the order arc starts, arc ends,
# chord starts, chord ends, repeats included (two pieces of one arc share
# an end); every reader takes a max, a min or a first arg-extreme over
# them, which a repeat after its first copy leaves as it is.
TrimTable = namedtuple("TrimTable", "centers radii u0 u1 arc arc_ok chord_a chord_b cut chord_ok "
                                    "vertices vertex_ok")
_GROUPS = (("centers", "radii", "u0", "u1", "arc"), ("chord_a", "chord_b", "cut"), ("vertices",))


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


def trim_bodies(copies, cuts) -> TrimTable:
    """Exact boundary of each body with its cut half-planes removed, as a
    ``TrimTable`` with a row per body.

    ``copies`` stacks the bodies, all of n arcs: (centers (body, n, 2),
    radii (body, n), breaks (body, n + 1)), as from ``lattice.place_patch``.
    ``cuts`` is their cut table, as from ``lattice.patch_cuts``: normals
    (body, cut, 2), offsets (body, cut) and the mask of real cuts, each
    real (n, c) the removed half-plane {x : n.x >= c}.
    Each cut line is crossed with the arcs under the cap it removes
    (``cap_arcs``, ``_crossings``); one sort of every crossing
    and every arc end of every body by (body, arc, angle) splits all arcs
    at once, and the pieces whose midpoints satisfy n.x <= c for every cut
    of their body are kept; a line within TANGENCY_TOL of tangent to an
    arc's circle keeps or drops the whole arc by its centre's side, as the
    clip does.  Each cut line adds the chord between its two extreme
    boundary crossings, clipped as an interval by the other cuts of its
    body; all chords are clipped in one pass.

    Every dot product is a matrix product of one body's rows with its own
    cut normals, padded to common counts, so each body's row is bit for
    bit the one it gets trimmed alone.  Every piece end is a vertex, the
    shared end of two pieces of one arc twice.
    """
    centers, radii, breaks = copies
    normals, offsets, cut_ok = cuts
    count, arcs = radii.shape
    width = normals.shape[1]
    # every crossing (arc, angle, body * width + cut) of a cut line with an
    # arc under its cap, then both ends of every arc (cut -1), sorted by arc
    # number and angle; the arcs of all bodies are numbered in turn
    lists = list(zip(centers.tolist(), radii.tolist(), breaks.tolist()))
    lines = normals.tolist(), offsets.tolist()
    found = []
    for k, j in zip(*(x.tolist() for x in np.nonzero(cut_ok))):
        (n0, n1), c = lines[0][k][j], lines[1][k][j]
        alpha = math.atan2(n1, n0)
        arc_centers, arc_radii, arc_breaks = lists[k]
        for i in cap_arcs(lists[k], n0, n1, alpha, c):
            found += [(k * arcs + i, phi, k * width + j) for phi in _crossings(
                *arc_centers[i], arc_radii[i], arc_breaks[i], arc_breaks[i + 1],
                alpha, n0, n1, c)]
    arc, angle, cut = np.array(found, dtype=float).reshape(-1, 3).T
    ends = np.arange(count * arcs)
    arc = np.concatenate([arc, ends, ends])
    angle = np.concatenate([angle, breaks[:, :-1].ravel(), breaks[:, 1:].ravel()])
    cut = np.concatenate([cut, np.full(2 * count * arcs, -1.0)])
    centers, radii = centers.reshape(-1, 2), radii.reshape(-1)
    order = np.lexsort((angle, arc))
    arc, angle, cut = arc[order].astype(int), angle[order], cut[order]
    # consecutive angles on one arc bound a piece
    same = arc[1:] == arc[:-1]
    idx, lo, hi = arc[:-1][same], angle[:-1][same], angle[1:][same]
    piece_body = idx // arcs
    mid, slot = _padded(np.bincount(piece_body, minlength=count),
                        centers[idx] + radii[idx][:, None] * _unit(0.5 * (lo + hi)))
    side = (mid @ np.swapaxes(normals, 1, 2) - offsets[:, None] <= KEEP_TOL)[slot]
    # a line within TANGENCY_TOL of tangent does not cross the circle
    # (``_crossings``): the clip's t = (c - n.M)/r keeps the arc if t > 0
    n, r, m = normals[piece_body], radii[idx, None], centers[idx, None]
    t = offsets[piece_body] - (n[..., 0] * m[..., 0] + n[..., 1] * m[..., 1])
    t = np.divide(t, r, out=np.zeros_like(t), where=r > 0.0)  # a corner has no tangent
    kept = np.all(np.where(np.abs(t) >= 1.0 - TANGENCY_TOL, t > 0.0, side), axis=1)
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
    p0, p1, chord_body, j = p0[left], p1[left], chord_body[left], j[left]
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
    # every piece end of every body, a stable sort by body keeping within
    # each its starts, ends, chord starts, chord ends
    vertex_body = np.concatenate([piece_body, piece_body, chord_body, chord_body])
    order = np.argsort(vertex_body, kind="stable")
    vertices = np.concatenate([start, stop, chord_a, chord_b])[order]
    # every group is sorted by body, so each pads into its rows as it is
    own = (idx % arcs)[wide]  # each piece's arc in its own body
    groups = ((piece_body[wide], centers[wide], radii[wide], u0[wide], u1[wide], own),
              (chord_body, chord_a, chord_b, j), (vertex_body[order], vertices))
    table = TrimTable(*(x for rows, *flat in groups
                        for x in _padded(np.bincount(rows, minlength=count), *flat)))
    return table

