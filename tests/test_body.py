import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croft_forge import ansatz, reference, tortoise
from croft_forge.body import (
    BodyError,
    _unit,
    body_area,
    boundary_point,
    build_body,
    center_offsets,
    chain_closure_residual,
    croft_constants,
    cut_disc_density,
    diameter_profile,
    transform,
)
from croft_forge.stepfn import make_step_function, reference_step_function
from break_sets import seeded_profile, uniform_zero_profile

Q = reference_step_function()


def test_center_offsets_match_reference_tables():
    offs = center_offsets(Q.breaks, Q.values)
    assert np.max(np.abs(offs[:, 0] - reference.X_OFFSETS)) <= 1e-12
    assert np.max(np.abs(offs[:, 1] - reference.Y_OFFSETS)) <= 1e-12


def test_center_offsets_of_a_value_matrix_are_its_columns():
    """One cumulative sum serves a value matrix: each column's offsets equal
    those of that column alone, bit for bit, and the anchor is (q_0, +0.0)
    also where q_0 < 0, as chaining from (q_0, 0) gives."""
    q = np.random.default_rng(3).standard_normal((Q.n_intervals, 5))
    q[0, 0] = -1.0
    offs = center_offsets(Q.breaks, q)
    assert offs.shape == (Q.n_intervals, 5, 2)
    for a in range(5):
        assert offs[:, a].tobytes() == center_offsets(Q.breaks, q[:, a]).tobytes()
    assert np.array_equal(offs[0, :, 0], q[0])
    assert not np.any(np.signbit(offs[0, :, 1])) and not np.any(offs[0, :, 1])


def test_chain_closes():
    assert chain_closure_residual(Q) <= 1e-12


def chained_closure_residual(q):
    """Test-only oracle: chain the center offsets once around the full turn
    and measure how far the chain ends from where it started."""
    offs = center_offsets(q.breaks, q.values)
    dq0 = q.values[0] - q.values[-1]
    end = offs[-1] + dq0 * np.array([math.cos(q.breaks[0]), math.sin(q.breaks[0])])
    return math.hypot(*(end - offs[0]))


def test_closure_residual_is_the_chained_gap():
    """Summed by parts, the chain's gap is -du^T q: the closed form agrees
    with chaining the offsets on seeded (open) profiles, to rounding of the
    n terms |q_i du_i| <= 2|q_i| of the sum."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        q = seeded_profile(rng)
        gap = abs(chain_closure_residual(q) - chained_closure_residual(q))
        assert gap <= 1e-15 * np.sum(np.abs(q.values))
    assert abs(chain_closure_residual(Q) - chained_closure_residual(Q)) <= 1e-15


def test_anchor_convention_boundary_starts_at_unit_x():
    b = build_body(Q, 0.3)
    assert boundary_point(b, 0.0) == pytest.approx([1.0, 0.0], abs=1e-14)


def test_boundary_continuity_at_breaks():
    b = build_body(Q, 0.2)
    for brk in b.breaks[:-1]:
        left = boundary_point(b, brk - 1e-13)
        right = boundary_point(b, brk + 1e-13)
        assert np.hypot(*(left - right)) <= 1e-9


def test_open_chain_rejected():
    bad = make_step_function(
        [Fraction(0), Fraction(1), Fraction(2)], [0.5, -0.5]
    )
    with pytest.raises(BodyError, match="close"):
        build_body(bad, 0.1)


def test_closure_is_one_rule_at_every_eps():
    """``build_body`` refuses a profile by its unit-eps residual, as
    ``cut_parameters`` does, not by the eps-scaled gap of the built chain:
    a residual of 5e-9, whose gap at eps 0.05 is 2.5e-10, is refused at
    every eps, and each mode refuses it alike."""
    # raising q_0 by d lowers q_{n/2} by d: the residual is 2 d |du_0|
    half = Q.values[: Q.n_intervals // 2].copy()
    half[0] += 2.5e-9 / np.hypot(math.cos(Q.breaks[1]) - 1.0, math.sin(Q.breaks[1]))
    q = ansatz.step_from_halfvalues(half, Q)
    assert 4e-9 <= chain_closure_residual(q) <= 6e-9
    for eps in (0.0, 0.05, 0.1):
        with pytest.raises(BodyError, match="close"):
            build_body(q, eps)
    for mode in ("series2", "exact2"):
        with pytest.raises(BodyError, match="close"):
            tortoise.tortoise_area(0.05, mode, q=q)


def test_negative_radius_rejected_zero_radius_allowed():
    with pytest.raises(BodyError, match="radius"):
        build_body(Q, 1.2)
    b = build_body(Q, 1.0)  # the +1 step value gives an exact corner
    assert b.radii.min() == 0.0


def test_antipodal_distance_is_two():
    b = build_body(Q, 0.4)
    phis = np.linspace(0, math.pi, 500)
    p = boundary_point(b, phis)
    opposite = boundary_point(b, phis + math.pi)
    d = np.hypot(*(p - opposite).T)
    assert np.max(np.abs(d - 2.0)) <= 1e-12


def test_diameter_profile():
    dmax, dmin = diameter_profile(build_body(Q, 0.25))
    assert abs(dmax - 2.0) <= 1e-9
    assert abs(dmin - 2.0) <= 1e-9


def sampled_diameter_profile(b, samples=10_000):
    """Test-only oracle: (max, min) antipodal distance over evenly spaced
    angles in [0, pi), plus each break sampled 1e-9 inside both of its arcs."""
    phis = np.linspace(0.0, math.pi, samples, endpoint=False)
    extra = np.concatenate([b.breaks[:-1] + 1e-9, b.breaks[:-1] - 1e-9])
    phis = np.concatenate([phis, extra % (2.0 * math.pi)])
    d = np.hypot(*(boundary_point(b, phis) - boundary_point(b, phis + math.pi)).T)
    return float(d.max()), float(d.min())


def test_diameter_profile_matches_the_sampled_oracle():
    bodies = [build_body(Q, eps) for eps in (0.1, 0.25, -0.3)]
    rng = np.random.default_rng(23)
    for _ in range(3):
        v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
        bodies.append(build_body(ansatz.step_from_halfvalues(v / np.max(np.abs(v))), 0.4))
    for b in bodies:
        gap = np.subtract(diameter_profile(b), sampled_diameter_profile(b))
        assert np.max(np.abs(gap)) <= 1e-12


def _centres_moved(b, moves):
    """``b`` with the centres of ``moves`` {arc: centre} put in place."""
    centers = b.centers.copy()
    for arc, centre in moves.items():
        centers[arc] = centre
    return dataclasses.replace(b, centers=centers)


def _range_boundary_bodies():
    """Bodies whose D = M_i - M_(i+n/2) sits on the range test's boundary:
    D = 0, and D = +-K u exactly for u = u(lo) or u(hi) of arc i, on arc 3
    of the reference body and on the width-pi arcs of the break set
    {0, pi}, where D along the normal of the range's diameter is tried too.
    K = 2^-20 is exact and small enough that the oracle's grid is within
    1e-14 of an interior extreme."""
    K = 2.0 ** -20
    ref, two = build_body(Q, 0.1), build_body(uniform_zero_profile(2), 0.0)
    half = ref.n_arcs // 2
    bodies = {"disc": build_body(Q, 0.0), "two-discs": two,
              "shared-centre": _centres_moved(ref, {3: ref.centers[3 + half]})}
    for sign in (1.0, -1.0):
        for end, phi in (("lo", ref.breaks[3]), ("hi", ref.breaks[4])):
            D = sign * K * _unit(phi)
            bodies[f"{sign:+.0f}u({end})"] = _centres_moved(ref, {3: D, 3 + half: (0.0, 0.0)})
        for end, phi in (("lo", two.breaks[0]), ("hi", two.breaks[1]), ("normal", 0.5 * math.pi)):
            bodies[f"two-{sign:+.0f}u({end})"] = _centres_moved(two, {0: sign * K * _unit(phi)})
    return bodies


RANGE_BOUNDARY_BODIES = _range_boundary_bodies()


@pytest.mark.parametrize("name", list(RANGE_BOUNDARY_BODIES))
def test_diameter_profile_on_the_range_boundaries(name):
    """D = 0 and D exactly along an end of its arc's range, on arcs up to
    pi wide, agree with the sampled oracle."""
    b = RANGE_BOUNDARY_BODIES[name]
    gap = np.subtract(diameter_profile(b), sampled_diameter_profile(b))
    assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_diameter_profile_sees_a_centre_nudge_of_1e_7(sign):
    """Moving one centre by 1e-7 along its arc's middle direction moves the
    antipodal distance there by exactly that, at a point inside the arc."""
    b = build_body(Q, 0.1)
    arc = 3
    mid = 0.5 * (b.breaks[arc] + b.breaks[arc + 1])
    centers = b.centers.copy()
    centers[arc] += sign * 1e-7 * np.array([math.cos(mid), math.sin(mid)])
    dmax, dmin = diameter_profile(dataclasses.replace(b, centers=centers))
    moved, kept = (dmax, dmin) if sign > 0 else (dmin, dmax)
    assert moved - 2.0 == pytest.approx(sign * 1e-7, abs=1e-14)
    assert kept == pytest.approx(2.0, abs=1e-14)


def test_area_closed_form_against_polygon_oracle():
    b = build_body(Q, 0.3)
    phis = np.linspace(0, 2 * math.pi, 200_000, endpoint=False)
    pts = boundary_point(b, phis)
    x, y = pts[:, 0], pts[:, 1]
    shoelace = 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))
    assert body_area(b) == pytest.approx(shoelace, abs=1e-7)


def test_area_quadratic_in_parameter():
    # area(eps) = pi + c2*eps^2 exactly: the same c2 from any step
    c2 = {}
    for h in (0.1, 0.2, 0.4):
        a = body_area(build_body(Q, h))
        am = body_area(build_body(Q, -h))
        c2[h] = (a + am - 2 * math.pi) / (2 * h * h)
    assert c2[0.1] == pytest.approx(c2[0.4], abs=1e-12)
    assert c2[0.2] == pytest.approx(-reference.AREA_COEFF, abs=1e-12)


def test_disc_case():
    from croft_forge.stepfn import zero_step_function

    b = build_body(zero_step_function(), 0.0)
    assert body_area(b) == pytest.approx(math.pi, abs=1e-14)


def test_transform_preserves_area_and_moves_boundary():
    b = build_body(Q, 0.2)
    t = transform(b, rotation=0.7, translation=(3.0, -1.0))
    assert body_area(t) == pytest.approx(body_area(b), abs=1e-12)
    p = boundary_point(b, 0.3)
    c, s = math.cos(0.7), math.sin(0.7)
    expect = np.array([c * p[0] - s * p[1] + 3.0, s * p[0] + c * p[1] - 1.0])
    assert boundary_point(t, 0.3 + 0.7) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("rotation", [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
def test_boundary_lookup_on_rotated_body(rotation):
    # angles past the last shifted break wrap around from breaks[0]
    b = build_body(Q, 0.1)
    t = transform(b, rotation)
    phi = np.linspace(0.0, 2.0 * math.pi, 2001)
    c, s = math.cos(rotation), math.sin(rotation)
    expect = boundary_point(b, phi) @ np.array([[c, s], [-s, c]])
    assert np.max(np.abs(boundary_point(t, phi + rotation) - expect)) <= 1e-12


def test_croft_constants_against_quadrature_free_scan():
    # independent oracle: dense golden-section-free grid refinement
    c = croft_constants()
    phis = np.linspace(0.2, 0.35, 20001)
    dens = [cut_disc_density(p) for p in phis]
    grid_best = phis[int(np.argmax(dens))]
    assert abs(grid_best - c.phi_c) <= 1e-5
    assert cut_disc_density(c.phi_c) >= max(dens) - 1e-12
    # internal identities
    assert c.w_c == pytest.approx(1 - math.cos(c.phi_c), abs=0)
    assert c.a_c == pytest.approx(c.phi_c - math.sin(c.phi_c) * math.cos(c.phi_c), abs=1e-16)
    assert c.density == pytest.approx(
        (math.pi - 6 * c.a_c) / (c.lattice_constant**2 * math.sqrt(3) / 2), abs=1e-15
    )


def test_croft_constants_newton_solve(monkeypatch):
    """The Newton root is a density stationary point with full-precision
    derivative numerator and slope; too few steps raise RuntimeError."""
    from croft_forge import body as body_module

    phi_c = croft_constants().phi_c
    g, slope = body_module._density_derivative_numerator(phi_c)
    assert abs(g) <= 1e-15
    h = 1e-6
    g_plus, _ = body_module._density_derivative_numerator(phi_c + h)
    g_minus, _ = body_module._density_derivative_numerator(phi_c - h)
    assert slope == pytest.approx((g_plus - g_minus) / (2 * h), rel=1e-8)
    monkeypatch.setattr(body_module, "PHI_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match="no convergence in 2 steps"):
        croft_constants.__wrapped__()


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(-0.9, 0.9, allow_nan=False),
    phi=st.floats(0, 2 * math.pi, allow_nan=False),
)
def test_antipodal_property(eps, phi):
    b = build_body(Q, eps)
    p = boundary_point(b, phi)
    o = boundary_point(b, phi + math.pi)
    assert math.hypot(*(p - o)) == pytest.approx(2.0, abs=1e-11)
