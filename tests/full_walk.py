"""Clip, crossings and trim by trying every arc of the boundary.

The reference the cap walk of ``croft_forge.clip.cap_arcs`` is checked
against: the same closed forms as ``croft_forge.clip`` and
``croft_forge.lattice.trim_body``, but each line is intersected with all n
arcs instead of the one to three arcs under its cap.  Only the tests use it.
"""

from __future__ import annotations

import numpy as np

from croft_forge.body import ArcBody
from croft_forge.clip import (
    _arc_piece_area,
    _arc_point,
    _chord_derivatives,
    arc_line_crossings,
)
from croft_forge.lattice import ANGLE_TOL, KEEP_TOL, TrimmedBody, _unit


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
                        _arc_piece_area(center, radius, lo, hi),
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
        hits += [(center, radius, phi)
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
    """``lattice.trim_body`` with every cut line tried on every arc; each
    cut (n, c) removes {x : n.x >= c}."""
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
