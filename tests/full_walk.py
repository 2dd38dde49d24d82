"""Clip, crossings and trim by trying every arc of the boundary, and
distances by trying every pair of pieces.

The reference the cap walk of ``croft_forge.clip.cap_arcs`` is checked
against: the same closed forms as ``croft_forge.clip`` and
``croft_forge.clip.trim_bodies``, but each line is intersected with all n
arcs instead of the one to three arcs under its cap.  ``closest_pair`` and
``farthest_pair`` are the reference for the batched, strip-pruned
``croft_forge.lattice.closest_pairs`` and ``farthest_pairs``: the same
candidates, one body pair at a time, every piece against every piece.
The reference keeps one record per trimmed body (``TrimmedBody``);
``body_of_row`` reads a row of a ``croft_forge.clip.TrimTable`` back into
one, and ``table_of`` stacks records into a table.  Only the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from croft_forge.body import ArcBody, _in_arc, _unit
from croft_forge.clip import (
    ANGLE_TOL,
    KEEP_TOL,
    _GROUPS,
    TrimTable,
    _arc_piece_area,
    _arc_point,
    _chord_derivatives,
    _padded,
    arc_line_crossings,
)
from croft_forge.lattice import CONCENTRIC_TOL, Witness


@dataclass(frozen=True)
class TrimmedBody:
    """Boundary of one body cut by half-planes: arc pieces, chords, vertices.

    Arc piece i is centers[i] + radii[i] * u for the unit vectors u from
    ``u0[i]`` counter-clockwise to ``u1[i]``; chord j runs from chord_a[j]
    to chord_b[j]; ``vertices`` holds the piece endpoints.  One row of a
    ``croft_forge.clip.TrimTable`` without its padding.
    """

    centers: np.ndarray   # (k, 2)
    radii: np.ndarray     # (k,)
    u0: np.ndarray        # (k, 2)
    u1: np.ndarray        # (k, 2)
    chord_a: np.ndarray   # (m, 2)
    chord_b: np.ndarray   # (m, 2)
    vertices: np.ndarray  # (v, 2)


def body_of_row(table: TrimTable, r: int) -> TrimmedBody:
    """Row r of ``table`` as the trimmed body it holds: its real entries,
    in order."""
    arcs, chords, vertices = table.arc_ok[r], table.chord_ok[r], table.vertex_ok[r]
    return TrimmedBody(table.centers[r][arcs], table.radii[r][arcs], table.u0[r][arcs],
                       table.u1[r][arcs], table.chord_a[r][chords], table.chord_b[r][chords],
                       table.vertices[r][vertices])


def table_of(bodies) -> TrimTable:
    """Trimmed bodies as the rows of one ``TrimTable``, padded by
    ``clip._padded`` as ``trim_bodies`` pads its own rows."""
    return TrimTable(*(x for g in _GROUPS for x in _padded(
        np.array([len(getattr(t, g[0])) for t in bodies]),
        *(np.concatenate([getattr(t, f) for t in bodies]) for f in g))))


def halfplane_clip_area(body: ArcBody, n, c: float) -> float:
    """Area of body ∩ {x : n.x >= c}, walking all arcs from arc 0."""
    n = np.asarray(n, dtype=float)
    pieces = []  # (area contribution, start point, end point)
    for i in range(body.n_arcs):
        center = body.centers[i]
        radius = body.radii[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        if radius <= 0.0 or b - a <= 0.0:
            continue
        cuts = [a] + arc_line_crossings(center, radius, a, b, n, c) + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:  # a crossing at the start break
                continue
            mid = 0.5 * (lo + hi)
            p_mid = _arc_point(center, radius, mid)
            if n[0] * p_mid[0] + n[1] * p_mid[1] >= c:
                pieces.append(
                    (
                        _arc_piece_area(center, radius, lo, hi,
                                        (math.cos(lo), math.sin(lo)),
                                        (math.cos(hi), math.sin(hi))),
                        _arc_point(center, radius, lo),
                        _arc_point(center, radius, hi),
                    )
                )
    if not pieces:
        return 0.0
    area = sum(p[0] for p in pieces)
    for j, piece in enumerate(pieces):
        end = piece[2]
        start = pieces[(j + 1) % len(pieces)][1]
        area += 0.5 * (end[0] * start[1] - end[1] * start[0])
    return float(area)


def halfplane_clip_derivatives(body: ArcBody, n, c: float):
    """(grad, hess) in (c, theta) by the closed form of ``croft_forge.clip``
    from the crossings on all arcs; (None, None) unless there are two."""
    n = (float(n[0]), float(n[1]))
    hits = []
    for i in range(body.n_arcs):
        center = body.centers[i]
        radius = body.radii[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        hits += [(center, _arc_point(center, radius, phi))
                 for phi in arc_line_crossings(center, radius, a, b, n, c)]
    return _chord_derivatives(hits, n, c)


def boundary_line_crossings(body: ArcBody, n, c: float) -> list[np.ndarray]:
    """All boundary points on the line n.x = c, in arc order from arc 0."""
    n = np.asarray(n, dtype=float)
    pts = []
    for i in range(body.n_arcs):
        center = body.centers[i]
        radius = body.radii[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        if radius <= 0.0:
            continue
        for phi in arc_line_crossings(center, radius, a, b, n, c):
            pts.append(np.array(_arc_point(center, radius, phi)))
    return pts


def trim_body(body: ArcBody, cuts) -> TrimmedBody:
    """``clip.trim_bodies`` of one body with every cut line tried on every
    arc, as one record; each cut (n, c) removes {x : n.x >= c}.  Its
    vertices are every piece end, repeats included."""
    normals = np.array([n for n, _ in cuts], dtype=float).reshape(-1, 2)
    offsets = np.array([c for _, c in cuts], dtype=float)
    hits: list[list[np.ndarray]] = [[] for _ in cuts]
    pieces = []  # (arc index, start angle, end angle)
    for i in range(body.n_arcs):
        center, radius = body.centers[i], body.radii[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        angles = [a, b]
        for j, (n, c) in enumerate(cuts):
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
    kept = np.all(mid @ normals.T - offsets <= KEEP_TOL, axis=1)
    centers, radii, lo, hi = centers[kept], radii[kept], lo[kept], hi[kept]

    chords = []
    for j, pts in enumerate(hits):
        if len(pts) < 2:
            continue
        n = normals[j]
        pts = np.array(pts)
        along = pts @ np.array([-n[1], n[0]])
        p0, p1 = pts[np.argmin(along)], pts[np.argmax(along)]
        g0 = normals @ p0 - offsets
        g1 = normals @ (p1 - p0)
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
