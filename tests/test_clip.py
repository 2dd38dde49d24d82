"""Closed-form clip derivatives against finite differences of the clip area."""

import math

import numpy as np
import pytest

from croft_forge.body import build_body
from croft_forge.clip import (
    arc_line_crossings,
    boundary_line_crossings,
    halfplane_clip_area,
    halfplane_clip_derivatives,
)
from croft_forge.lattice import _stripe_lines, cut_parameters, default_config, edge_copies
from croft_forge.segments import series_tilt_minimizer
from croft_forge.stepfn import reference_step_function, zero_step_function
from croft_forge.tortoise import (
    ConvergenceError,
    _pair_clip_derivatives,
    pair_clip_area,
)

Q = reference_step_function()
CONFIG = default_config()
H_GRAD = 1e-6  # central-difference step for first derivatives
H_HESS = 1e-4  # second differences of the area need a wider step


def hess_tol(hess):
    # the O(H_HESS^2) truncation error of second differences scales with |A''|
    return 1e-5 * max(1.0, float(np.max(np.abs(hess))))


def clip_area(body, c, theta):
    return halfplane_clip_area(body, (math.cos(theta), math.sin(theta)), c)


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
    left, right = edge_copies(body, k, CONFIG)
    cut = cut_parameters(Q, body, k, CONFIG)
    s, delta = series_tilt_minimizer(cut)
    n, c_left, c_right = _stripe_lines((0.0, 0.0), 0.0, s, delta, 2.0)
    theta = math.atan2(n[1], n[0])
    return [(left, c_left, theta), (right, -c_right, theta + math.pi)]


@pytest.mark.parametrize("eps", [-0.08, 0.08])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_clip_derivatives_match_finite_differences(eps, k):
    for body, c, theta in stripe_clips(eps, k):
        grad, hess = halfplane_clip_derivatives(
            body, (math.cos(theta), math.sin(theta)), c
        )

        def f(c_, t_):
            return clip_area(body, c_, t_)

        assert np.max(np.abs(grad - fd_gradient(f, (c, theta), H_GRAD))) <= 1e-8
        assert np.max(np.abs(hess - fd_hessian(f, (c, theta), H_HESS))) <= hess_tol(hess)

        # tighter: central differences of the (just checked) gradient
        def g(c_, t_):
            return halfplane_clip_derivatives(
                body, (math.cos(t_), math.sin(t_)), c_
            )[0]

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
    grad, hess = halfplane_clip_derivatives(disc, (math.cos(theta), math.sin(theta)), c)
    root = math.sqrt(1.0 - c * c)
    assert grad[0] == pytest.approx(-2.0 * root, abs=1e-12)
    assert grad[1] == pytest.approx(0.0, abs=1e-12)
    assert hess[0, 0] == pytest.approx(2.0 * c / root, abs=1e-10)
    assert np.max(np.abs([hess[0, 1], hess[1, 0], hess[1, 1]])) <= 1e-10


def test_line_through_a_break_crosses_twice():
    """x = 1/2 meets the unit disc at the breaks at +-pi/3; each crossing is
    reported once, by the arc that starts there."""
    disc = build_body(reference_step_function(), 0.0)
    assert np.isclose(disc.breaks, math.pi / 3, rtol=0, atol=1e-15).sum() == 1
    pts = boundary_line_crossings(disc, (1.0, 0.0), 0.5)
    assert len(pts) == 2
    assert np.allclose(sorted(p[1] for p in pts), [-math.sqrt(0.75), math.sqrt(0.75)],
                       rtol=0, atol=1e-15)
    grad, hess = halfplane_clip_derivatives(disc, (1.0, 0.0), 0.5)
    assert grad[0] == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    assert grad[1] == pytest.approx(0.0, abs=1e-14)
    assert hess[0, 0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert halfplane_clip_area(disc, (1.0, 0.0), 0.5) == pytest.approx(
        math.pi / 3 - math.sqrt(3.0) / 4, abs=1e-14
    )


def test_arc_crossing_at_its_ends():
    """A crossing at an arc's start is reported at the start angle; one at
    its end is left to the next arc."""
    start = arc_line_crossings((0.0, 0.0), 1.0, 0.5, 1.0, (1.0, 0.0), math.cos(0.5))
    assert start == [0.5]
    assert arc_line_crossings((0.0, 0.0), 1.0, 0.0, 0.5, (1.0, 0.0), math.cos(0.5)) == []


def test_clip_derivatives_need_two_crossings():
    disc = build_body(zero_step_function(), 0.0)
    with pytest.raises(ValueError, match="0 points"):
        halfplane_clip_derivatives(disc, (1.0, 0.0), 1.5)


@pytest.mark.parametrize("eps", [-0.08, 0.08])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_pair_derivatives_match_finite_differences(eps, k):
    """The stripe-line chain rule against differences of pair_clip_area."""
    body = build_body(Q, eps)
    left, right = edge_copies(body, k, CONFIG)
    s, delta = series_tilt_minimizer(cut_parameters(Q, body, k, CONFIG))
    s, delta = s + 3e-3, delta - 5e-3  # off the minimum, where the gradient is not 0
    grad, hess = _pair_clip_derivatives(left, right, s, delta)

    def f(s_, d_):
        return pair_clip_area(left, right, s_, d_)

    assert np.max(np.abs(grad)) > 1e-3
    assert np.max(np.abs(grad - fd_gradient(f, (s, delta), H_GRAD))) <= 1e-8
    assert np.max(np.abs(hess - fd_hessian(f, (s, delta), H_HESS))) <= hess_tol(hess)


def test_pair_derivatives_raise_when_a_line_misses():
    left, right = edge_copies(build_body(Q, 0.05), 0, CONFIG)
    with pytest.raises(ConvergenceError, match="not 2"):
        _pair_clip_derivatives(left, right, 5.0, 0.0)
