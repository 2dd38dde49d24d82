"""SVG rendering of bodies, single cut bodies, and lattice patches.

Boundaries are emitted as closed paths of native SVG arc commands (one
``A`` per circular arc), so the files stay exact and tiny.  A group-level
y-flip maps the math orientation (counterclockwise positive) onto SVG's
y-down canvas.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .body import ArcBody, build_body
from .lattice import (
    LATTICE_CONSTANT,
    PATCH_SITES,
    patch_cuts,
    patch_layout,
    place_patch,
)
from .stepfn import StepFunction

FILLS = ("#d66", "#6b6", "#68c")  # red, green, blue, by color index
STROKE = "#222"
CUT_LINE_HALF_LENGTH = 2.2  # a drawn cut line runs this far each way from its anchor


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def body_path_d(b: ArcBody) -> str:
    """SVG path data for the closed arc-chain boundary of a body."""
    parts = []
    for i in range(b.n_arcs):
        rho = b.radii[i]
        a0, a1 = b.breaks[i], b.breaks[i + 1]
        p0 = b.centers[i] + rho * np.array([math.cos(a0), math.sin(a0)])
        p1 = b.centers[i] + rho * np.array([math.cos(a1), math.sin(a1)])
        if i == 0:
            parts.append(f"M {_fmt(p0[0])} {_fmt(p0[1])}")
        if rho <= 0.0:
            parts.append(f"L {_fmt(p1[0])} {_fmt(p1[1])}")
        else:
            large = 1 if (a1 - a0) > math.pi else 0
            parts.append(
                f"A {_fmt(rho)} {_fmt(rho)} 0 {large} 1 {_fmt(p1[0])} {_fmt(p1[1])}"
            )
    parts.append("Z")
    return " ".join(parts)


def _line_segment(n, c, anchor) -> str:
    """A drawable segment of the line n.x = c near the point ``anchor``."""
    n = np.asarray(n, dtype=float)
    t = np.array([-n[1], n[0]])
    foot = np.asarray(anchor, dtype=float)
    foot = foot + (c - foot @ n) * n
    p0, p1 = foot - CUT_LINE_HALF_LENGTH * t, foot + CUT_LINE_HALF_LENGTH * t
    return (
        f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
        f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}" '
        f'stroke="#a33" stroke-width="0.02" stroke-dasharray="0.1 0.05"/>'
    )


def svg_document(elements: list[str], bounds: tuple[float, float, float, float]) -> str:
    """Wrap elements in an SVG document; bounds = (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = bounds
    w, h = xmax - xmin, ymax - ymin
    body = "\n".join("    " + e for e in elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(100 * w)}" '
        f'height="{_fmt(100 * h)}" viewBox="{_fmt(xmin)} {_fmt(-ymax)} '
        f'{_fmt(w)} {_fmt(h)}">\n'
        f'  <g transform="scale(1,-1)">\n{body}\n  </g>\n</svg>\n'
    )


def render_body_svg(b: ArcBody) -> str:
    """Standalone picture of one body."""
    d = body_path_d(b)
    cx, cy = float(np.mean(b.centers[:, 0])), float(np.mean(b.centers[:, 1]))
    pad = 1.4
    return svg_document(
        [f'<path d="{d}" fill="#ddd" stroke="{STROKE}" stroke-width="0.01"/>'],
        (cx - pad, cy - pad, cx + pad, cy + pad),
    )


def _patch_svg(q, eps, stripes, shift, sites, bounds) -> str:
    """The patch copies at ``sites``, each filled in its color with its cut
    lines, in a document of ``bounds``: the rows of the patch's cut table
    and stacked copies (``lattice.patch_cuts``, ``lattice.place_patch``)."""
    layout = patch_layout()
    normals, offsets, cut_ok = patch_cuts(stripes)
    centers, radii, breaks = place_patch(build_body(q, eps), shift)
    elements = []
    for r in map(PATCH_SITES.index, sites):
        elements.append(
            f'<path d="{body_path_d(ArcBody(centers[r], radii[r], breaks[r], eps))}" '
            f'fill="{FILLS[layout.colors[r]]}" stroke="{STROKE}" stroke-width="0.01"/>'
        )
        for n, c in zip(normals[r][cut_ok[r]], offsets[r][cut_ok[r]]):
            elements.append(_line_segment(n, c, layout.positions[r]))
    return svg_document(elements, bounds)


def render_tortoise_svg(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    shift=None,
) -> str:
    """One body with the six cut lines of its incident stripes: the centre
    copy of the patch."""
    return _patch_svg(q, eps, stripes, shift, [(0, 0)], (-1.6, -1.6, 1.6, 1.6))


def render_lattice_svg(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    shift=None,
) -> str:
    """The 3x3 patch of colored bodies with every stripe's two cut lines."""
    lo, hi = -1.6 * LATTICE_CONSTANT, 2.2 * LATTICE_CONSTANT
    return _patch_svg(q, eps, stripes, shift, PATCH_SITES, (lo, lo, hi, hi))


def write_svg(svg: str, path: str | Path) -> None:
    Path(path).write_text(svg)
