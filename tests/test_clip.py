"""Closed-form clip derivatives against finite differences of the clip area."""

import math

import numpy as np
import pytest

from croft_forge.body import body_area, build_body
from croft_forge.clip import (
    Clip,
    _chord_derivatives,
    _crossings,
    boundary_line_crossings,
    halfplane_clip_area,
)
from croft_forge.lattice import (
    copy_motion,
    cut_parameters,
    default_config,
    edge_ends,
    place_copy,
    stripe_caps,
)
from croft_forge.segments import minimize_pair_shift_tilt
from croft_forge.stepfn import reference_step_function, zero_step_function
from croft_forge.tortoise import (
    DEFAULT_FIT_EPS,
    ConvergenceError,
    _pair_derivatives,
    pair_clip_area,
    tortoise_area,
    unplaced_caps,
)

Q = reference_step_function()
SHIFT = default_config()
H_GRAD = 1e-6  # central-difference step for first derivatives
H_HESS = 1e-4  # second differences of the area need a wider step


def hess_tol(hess):
    # the O(H_HESS^2) truncation error of second differences scales with |A''|
    return 1e-5 * max(1.0, float(np.max(np.abs(hess))))


def clip_area(body, c, theta):
    return halfplane_clip_area(body, (math.cos(theta), math.sin(theta)), c).area


def fd_gradient(f, x, h):
    x = np.asarray(x, dtype=float)
    out = []
    for e in np.eye(len(x)):
        out.append((f(*(x + h * e)) - f(*(x - h * e))) / (2.0 * h))
    return np.array(out)


def fd_hessian(f, x, h):
    """Second differences of ``f`` itself (no derivative code involved)."""
    x = np.asarray(x, dtype=float)
    e = np.eye(len(x))
    hess = np.empty((len(x), len(x)))
    for i in range(len(x)):
        for j in range(len(x)):
            hess[i, j] = (
                f(*(x + h * e[i] + h * e[j]))
                - f(*(x + h * e[i] - h * e[j]))
                - f(*(x - h * e[i] + h * e[j]))
                + f(*(x - h * e[i] - h * e[j]))
            ) / (4.0 * h * h)
    return hess


def stripe_clips(eps, k):
    """The two (body, c, theta) clips of class k's stripe at its series seed."""
    body = build_body(Q, eps)
    left, right = (place_copy(body, c, p, SHIFT) for c, p in edge_ends(k))
    s, delta, _ = minimize_pair_shift_tilt(cut_parameters(Q, SHIFT)[k].scaled(eps))
    return [(body, c, math.atan2(n[1], n[0]))
            for body, (n, c, _, _) in zip((left, right), stripe_caps(s, delta))]


@pytest.mark.parametrize("eps", [-0.08, 0.08])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_clip_derivatives_match_finite_differences(eps, k):
    for body, c, theta in stripe_clips(eps, k):
        _, grad, hess = halfplane_clip_area(body, (math.cos(theta), math.sin(theta)), c)

        def f(c_, t_):
            return clip_area(body, c_, t_)

        assert np.max(np.abs(grad - fd_gradient(f, (c, theta), H_GRAD))) <= 1e-8
        assert np.max(np.abs(hess - fd_hessian(f, (c, theta), H_HESS))) <= hess_tol(hess)

        # tighter: central differences of the (just checked) gradient
        def g(c_, t_):
            return np.array(halfplane_clip_area(body, (math.cos(t_), math.sin(t_)), c_).grad)

        fd = np.stack(
            [(g(c + H_GRAD, theta) - g(c - H_GRAD, theta)) / (2 * H_GRAD),
             (g(c, theta + H_GRAD) - g(c, theta - H_GRAD)) / (2 * H_GRAD)]
        )
        assert np.max(np.abs(hess - fd)) <= 1e-7


@pytest.mark.parametrize("c", [-0.6, 0.0, 0.3, 0.96])
@pytest.mark.parametrize("theta", [0.0, 1.1, -2.5])
def test_unit_disc_clip_derivatives(c, theta):
    """Oracle: the kept part of the unit disc loses the chord 2*sqrt(1-c^2)
    per unit offset and does not depend on the line angle."""
    disc = build_body(zero_step_function(), 0.0)
    _, grad, hess = halfplane_clip_area(disc, (math.cos(theta), math.sin(theta)), c)
    root = math.sqrt(1.0 - c * c)
    assert grad[0] == pytest.approx(-2.0 * root, abs=1e-12)
    assert grad[1] == pytest.approx(0.0, abs=1e-12)
    assert hess[0][0] == pytest.approx(2.0 * c / root, abs=1e-10)
    assert np.max(np.abs([hess[0][1], hess[1][0], hess[1][1]])) <= 1e-10


def test_line_through_a_break_crosses_twice():
    """x = 1/2 meets the unit disc at the breaks at +-pi/3; each crossing is
    reported once, by the arc that starts there."""
    disc = build_body(reference_step_function(), 0.0)
    assert np.isclose(disc.breaks, math.pi / 3, rtol=0, atol=1e-15).sum() == 1
    pts = boundary_line_crossings(disc, (1.0, 0.0), 0.5)
    assert len(pts) == 2
    assert np.allclose(sorted(p[1] for p in pts), [-math.sqrt(0.75), math.sqrt(0.75)],
                       rtol=0, atol=1e-15)
    area, grad, hess = halfplane_clip_area(disc, (1.0, 0.0), 0.5)
    assert grad[0] == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    assert grad[1] == pytest.approx(0.0, abs=1e-14)
    assert hess[0][0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert area == pytest.approx(
        math.pi / 3 - math.sqrt(3.0) / 4, abs=1e-14
    )


def test_arc_crossing_at_its_ends():
    """A crossing at an arc's start is reported at the start angle; one at
    its end is left to the next arc."""
    assert _crossings(0.0, 0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 0.0, math.cos(0.5)) == [0.5]
    assert _crossings(0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.0, math.cos(0.5)) == []


def test_clip_derivatives_are_zero_off_the_boundary():
    """A line that misses the body moves no area: beyond the disc none is
    kept, behind it all of it, and both give zero derivatives.  One
    crossing, or three, gives none."""
    disc = build_body(zero_step_function(), 0.0)
    zero = ((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    for c, area in ((1.5, 0.0), (-1.5, math.pi)):
        clip = halfplane_clip_area(disc, (1.0, 0.0), c)
        assert clip.area == pytest.approx(area, abs=1e-14)
        assert (clip.grad, clip.hess) == zero
    hit = ((0.0, 0.0), (0.5, 0.5))
    for hits in ([hit], [hit] * 3):
        assert _chord_derivatives(hits, (1.0, 0.0), 0.5) == (None, None)


@pytest.mark.parametrize("eps", [-0.08, 0.08])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_pair_derivatives_match_finite_differences(eps, k):
    """The chain rule through the ``stripe_caps`` derivatives against
    differences of pair_clip_area."""
    body = build_body(Q, eps)
    motions = [copy_motion(c, p, eps, SHIFT) for c, p in edge_ends(k)]
    s, delta, _ = minimize_pair_shift_tilt(cut_parameters(Q, SHIFT)[k].scaled(eps))
    s, delta = s + 3e-3, delta - 5e-3  # off the minimum, where the gradient is not 0
    grad, hess = _pair_derivatives(pair_clip_area(body, motions, s, delta), s, delta)

    def f(s_, d_):
        return pair_clip_area(body, motions, s_, d_).area

    assert np.max(np.abs(grad)) > 1e-3
    assert np.max(np.abs(grad - fd_gradient(f, (s, delta), H_GRAD))) <= 1e-8
    assert np.max(np.abs(hess - fd_hessian(f, (s, delta), H_HESS))) <= hess_tol(hess)


def test_pair_chain_rule_matches_the_numpy_chain():
    """``pair_clip_area``'s float chain rule against jac^T H jac + A_c c_hess
    in NumPy, both copies summed, on the reference fit's exact2 edges: on
    the unplaced body through the caps of ``unplaced_caps``, and, to
    rounding of the larger Hessian entries, on the placed copies through
    the caps of ``stripe_caps``."""
    for eps in DEFAULT_FIT_EPS:
        rec = tortoise_area(eps, "exact2")
        body = build_body(Q, eps)
        for e in rec.per_edge:
            ends = edge_ends(e.k)
            motions = [copy_motion(c, p, eps, SHIFT) for c, p in ends]
            pair = pair_clip_area(body, motions, e.s, e.delta)
            placed = [place_copy(body, c, p, SHIFT) for c, p in ends]
            for copies, caps, tol in (
                    ((body, body), unplaced_caps(e.s, e.delta, motions), 1e-14),
                    (placed, stripe_caps(e.s, e.delta), 1e-14 * max(1.0, *map(abs, pair.hess[0])))):
                grad, hess = np.zeros(2), np.zeros((2, 2))
                for copy, (n, c, jac, c_hess) in zip(copies, caps):
                    clip = halfplane_clip_area(copy, n, c)
                    jac, clip_hess = np.array(jac), np.array(clip.hess)
                    grad += jac.T @ np.array(clip.grad)
                    hess += jac.T @ clip_hess @ jac + clip.grad[0] * np.array(c_hess)
                assert np.max(np.abs(np.array(pair.grad) - grad)) <= 1e-14
                assert np.max(np.abs(np.array(pair.hess) - hess)) <= tol


def test_pair_derivatives_are_zero_when_both_lines_miss():
    """Far out both stripe lines miss their copies: the whole right copy
    lies on its removed side, and moving the stripe a little removes no
    more and no less, so the derivatives are zero.  A pair clip without
    derivatives (a line that crosses its copy once) still raises."""
    body = build_body(Q, 0.05)
    pair = pair_clip_area(body, [copy_motion(c, p, 0.05, SHIFT) for c, p in edge_ends(0)],
                          5.0, 0.0)
    assert pair.area == pytest.approx(body_area(body), abs=1e-14)
    grad, hess = _pair_derivatives(pair, 5.0, 0.0)
    assert grad == (0.0, 0.0) and hess == ((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ConvergenceError, match="neither 0 nor 2"):
        _pair_derivatives(Clip(pair.area), 5.0, 0.0)
