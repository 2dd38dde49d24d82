import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from croft_forge.body import croft_constants
from croft_forge.segments import series_coefficients
from disc_reference import (
    CapGeometryError,
    DiscCut,
    difference_grid,
    minimize_pair_shift_exact,
    minimize_pair_shift_tilt_exact,
    minimize_pair_shift_tilt_series,
    pair_area_series_shift,
    pair_objective_shift_tilt,
    segment_area_exact,
    segment_area_exact_tilted,
    segment_area_series,
    segment_area_series_tilted,
    series_shift_minimizer,
    series_tilt_minimizer,
)


def cap_area_quadrature(d, r, delta=0.0):
    """Oracle: doubled upper-half cap area by direct quadrature.

    Integrates the horizontal gap between the circle of radius R = 1 + r
    and the cut line through (R - D, 0) tilted by delta, over the upper
    cap height, then doubles it.
    """
    R = 1.0 + r
    D = croft_constants().w_c + d
    phi = math.acos((R - D) / R * math.cos(delta)) - delta

    def integrand(y):
        return math.sqrt(R * R - y * y) - (R - D) - y * math.tan(delta)

    val, err = quad(integrand, 0.0, R * math.sin(phi), epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val


@pytest.mark.parametrize("d,r", [(0.0, 0.0), (0.01, 0.0), (-0.008, 0.05), (0.005, -0.09)])
def test_exact_cap_area_against_quadrature(d, r):
    assert segment_area_exact(d, r) == pytest.approx(
        cap_area_quadrature(d, r), abs=1e-11
    )


@pytest.mark.parametrize(
    "d,r,delta",
    [(0.0, 0.0, 0.05), (0.01, -0.04, -0.08), (-0.005, 0.06, 0.1), (0.0, 0.0, -0.12)],
)
def test_exact_tilted_cap_area_against_quadrature(d, r, delta):
    assert segment_area_exact_tilted(d, r, delta) == pytest.approx(
        cap_area_quadrature(d, r, delta), abs=1e-11
    )


def test_tilted_reduces_to_untilted():
    assert segment_area_exact_tilted(0.003, -0.02, 0.0) == pytest.approx(
        segment_area_exact(0.003, -0.02), abs=0
    )


def test_cap_geometry_errors():
    with pytest.raises(CapGeometryError):
        segment_area_exact(0.0, -1.5)
    with pytest.raises(CapGeometryError):
        segment_area_exact(-3.0, 0.0)
    with pytest.raises(CapGeometryError):
        segment_area_exact_tilted(0.0, 0.0, 1.6)


def test_series_coefficients_match_finite_differences():
    """(d, r, delta) first/second derivatives of the exact area at 0."""
    sc = series_coefficients()
    h = 1e-5

    def A(d=0.0, r=0.0, t=0.0):
        return segment_area_exact_tilted(d, r, t)

    fd = {
        "a0": A(),
        "b": (A(d=h) - A(d=-h)) / (2 * h),
        "c": (A(r=h) - A(r=-h)) / (2 * h),
        "d": (A(d=h) + A(d=-h) - 2 * A()) / h**2,
        "e": (A(d=h, r=h) + A(d=-h, r=-h) - A(d=h, r=-h) - A(d=-h, r=h)) / (4 * h**2),
        "f": (A(r=h) + A(r=-h) - 2 * A()) / h**2,
        "h": (A(t=h) - A(t=-h)) / (2 * h),
        "j": (A(d=h, t=h) + A(d=-h, t=-h) - A(d=h, t=-h) - A(d=-h, t=h)) / (4 * h**2),
        "k": (A(r=h, t=h) + A(r=-h, t=-h) - A(r=h, t=-h) - A(r=-h, t=h)) / (4 * h**2),
        "l": (A(t=h) + A(t=-h) - 2 * A()) / h**2,
    }
    for name, value in fd.items():
        assert value == pytest.approx(getattr(sc, name), abs=1e-6), name


def test_series_remainder_is_cubic():
    def max_diff(d_box, r_box):
        rows = difference_grid((-d_box, d_box), (-r_box, r_box), n=41)
        return max(abs(row["diff"]) for row in rows)

    full = max_diff(0.01, 0.1)
    half = max_diff(0.005, 0.05)
    assert full / half >= 7.0


def random_cuts(n, scale=0.02, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        vals = rng.uniform(-scale, scale, size=6)
        yield DiscCut(*vals)


def test_minimization_never_increases():
    for cut in random_cuts(100):
        unmin = pair_objective_shift_tilt(cut, 0.0, 0.0)
        _, a1 = minimize_pair_shift_exact(cut)
        _, _, a2 = minimize_pair_shift_tilt_exact(cut)
        assert a2 <= a1 + 1e-12
        assert a1 <= unmin + 1e-12


def test_series_matches_exact_minimum_to_cubic_order():
    base = DiscCut(0.013, -0.007, 0.011, -0.009, 0.006, -0.012)
    diffs = {}
    for t in (0.5, 1.0):
        cut = base.scaled(t)
        _, _, exact = minimize_pair_shift_tilt_exact(cut)
        _, _, series = minimize_pair_shift_tilt_series(cut)
        diffs[t] = abs(exact - series)
    assert diffs[1.0] <= 2e-5
    assert diffs[0.5] <= 0.2 * diffs[1.0]  # cubic remainder: factor ~1/8


def test_series_minimizer_near_exact_minimizer():
    cut = DiscCut(0.008, -0.004, 0.006, -0.005, 0.003, -0.007)
    s0, d0 = series_tilt_minimizer(cut)
    s_star, d_star, _ = minimize_pair_shift_tilt_exact(cut)
    assert abs(s_star - s0) <= 5e-4
    assert abs(d_star - d0) <= 5e-4


def test_hessian_at_exact_minimum():
    # the stated (d, 0, l+b) curvature is the limit at vanishing cut size,
    # so probe it on a very small cut where the drift is below 1e-4 relative
    sc = series_coefficients()
    cut = DiscCut(0.006, -0.003, 0.004, -0.002, 0.005, -0.004).scaled(1e-3)
    s_star, d_star, _ = minimize_pair_shift_tilt_exact(cut)
    h = 1e-4

    def f(s, t):
        return pair_objective_shift_tilt(cut, s, t)

    hss = (f(s_star + h, d_star) + f(s_star - h, d_star) - 2 * f(s_star, d_star)) / h**2
    htt = (f(s_star, d_star + h) + f(s_star, d_star - h) - 2 * f(s_star, d_star)) / h**2
    hst = (
        f(s_star + h, d_star + h)
        + f(s_star - h, d_star - h)
        - f(s_star + h, d_star - h)
        - f(s_star - h, d_star + h)
    ) / (4 * h**2)
    assert hss / 2 == pytest.approx(sc.d, rel=1e-4)
    assert htt / 2 == pytest.approx(sc.l + sc.b, rel=1e-4)
    assert abs(hst / 2) <= 1e-4 * (sc.l + sc.b)


def test_shift_minimizer_closed_form():
    sc = series_coefficients()
    cut = DiscCut(0.004, 0.0, 0.009, 0.007, -0.006, -0.004)
    assert series_shift_minimizer(cut) == pytest.approx(
        -sc.e * cut.r_l / (4 * sc.d), abs=0
    )
    s_exact, _ = minimize_pair_shift_exact(cut)
    assert abs(s_exact - series_shift_minimizer(cut)) <= 1e-4


def test_pair_series_shift_value():
    # closed form equals brute-force minimization of the series objective
    cut = DiscCut(0.006, 0.0, 0.005, -0.008, 0.002, 0.007)
    closed = pair_area_series_shift(cut)
    s_grid = np.linspace(-0.01, 0.01, 20001)
    half = cut.d_x / 2

    def series_pair(s):
        return 0.5 * (
            segment_area_series(half + s, cut.r_lu)
            + segment_area_series(half - s, cut.r_ru)
            + segment_area_series(half + s, cut.r_ll)
            + segment_area_series(half - s, cut.r_rl)
        )

    brute = min(series_pair(s) for s in s_grid)
    assert closed == pytest.approx(brute, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    d=st.floats(-0.01, 0.01, allow_nan=False),
    r=st.floats(-0.08, 0.08, allow_nan=False),
    delta=st.floats(-0.1, 0.1, allow_nan=False),
)
def test_series_close_to_exact_property(d, r, delta):
    exact = segment_area_exact_tilted(d, r, delta)
    series = segment_area_series_tilted(d, r, delta)
    assert abs(exact - series) <= 2e-3
