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
    COLORS,
    LatticeConfig,
    collect_patch_cuts,
    color_index,
    default_config,
    place_body,
)
from .stepfn import StepFunction

FILL_BY_COLOR = {"red": "#d66", "green": "#6b6", "blue": "#68c"}
STROKE = "#222"


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


def _line_segment(n, c, anchor, half_len: float = 2.2) -> str:
    """A drawable segment of the line n.x = c near the point ``anchor``."""
    n = np.asarray(n, dtype=float)
    t = np.array([-n[1], n[0]])
    foot = np.asarray(anchor, dtype=float)
    foot = foot + (c - foot @ n) * n
    p0, p1 = foot - half_len * t, foot + half_len * t
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


def render_body_svg(b: ArcBody, fill: str = "#ddd") -> str:
    """Standalone picture of one body."""
    d = body_path_d(b)
    cx, cy = float(np.mean(b.centers[:, 0])), float(np.mean(b.centers[:, 1]))
    pad = 1.4
    return svg_document(
        [f'<path d="{d}" fill="{fill}" stroke="{STROKE}" stroke-width="0.01"/>'],
        (cx - pad, cy - pad, cx + pad, cy + pad),
    )


def render_tortoise_svg(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    config: LatticeConfig | None = None,
) -> str:
    """One body with the six cut lines of its incident stripes."""
    if config is None:
        config = default_config()
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    cuts, _ = collect_patch_cuts(sites, stripes, config, 2.0)
    body = place_body(build_body(q, eps), 0, 0, config)
    elements = [
        f'<path d="{body_path_d(body)}" fill="{FILL_BY_COLOR["red"]}" '
        f'stroke="{STROKE}" stroke-width="0.01"/>'
    ]
    for n, c, keep in cuts[(0, 0)]:
        elements.append(_line_segment(n, c, (0.0, 0.0)))
    pad = 1.6
    return svg_document(elements, (-pad, -pad, pad, pad))


def render_lattice_svg(
    q: StepFunction,
    eps: float,
    stripes: dict[int, tuple[float, float]],
    config: LatticeConfig | None = None,
    extent: int = 1,
) -> str:
    """A patch of colored bodies with every stripe's two cut lines."""
    if config is None:
        config = default_config()
    sites = [
        (i, j)
        for i in range(-extent, extent + 1)
        for j in range(-extent, extent + 1)
    ]
    cuts, _ = collect_patch_cuts(sites, stripes, config, 2.0)
    body = build_body(q, eps)
    elements = []
    for s in sites:
        fill = FILL_BY_COLOR[COLORS[color_index(*s)]]
        elements.append(
            f'<path d="{body_path_d(place_body(body, *s, config))}" fill="{fill}" '
            f'stroke="{STROKE}" stroke-width="0.01"/>'
        )
        for n, c, keep in cuts[s]:
            elements.append(_line_segment(n, c, config.position(*s)))
    L = config.lattice_constant
    lo = -(extent + 0.6) * L
    hi = (extent + 1.2) * L
    return svg_document(elements, (lo, lo, hi, hi))


def write_svg(svg: str, path: str | Path) -> None:
    Path(path).write_text(svg)
