import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from scipy.optimize import minimize

from croft_forge import ansatz, reference, tortoise
from croft_forge import body as body_module
from croft_forge.body import boundary_point, build_body, croft_constants, transform
from croft_forge.clip import halfplane_clip_area
from croft_forge.lattice import (
    LatticeConfig,
    collect_patch_cuts,
    cut_parameters,
    default_config,
    edge_copies,
    place_body,
    verify_avoidance,
)
from croft_forge.segments import series_tilt_minimizer
from croft_forge.stepfn import make_step_function, reference_step_function, zero_step_function
from croft_forge.tortoise import (
    DEFAULT_FIT_EPS,
    MODES,
    SCAN_FIELDS,
    ConvergenceError,
    NarrowCapError,
    body_area_coefficient,
    fit_eps2_coefficient,
    fit_net_coefficient,
    pair_clip_area,
    require_single_arc_caps,
    scan,
    series_cut_coefficients,
    series_net_coefficient,
    tortoise_area,
    write_scan_csv,
    write_scan_json,
)

Q = reference_step_function()
CROFT = croft_constants()


def disc_segment_area(depth, radius=1.0):
    """Oracle: circular segment area at cut depth ``depth``."""
    phi = math.acos((radius - depth) / radius)
    return radius * radius * (phi - math.sin(phi) * math.cos(phi))


@pytest.mark.parametrize("mode", MODES)
def test_zero_parameter_recovers_baseline_density(mode):
    rec = tortoise_area(0.0, mode)
    assert rec.body_area == pytest.approx(math.pi, abs=1e-14)
    assert rec.density == pytest.approx(CROFT.density, abs=1e-12)
    # each of the three stripe pairs removes two baseline segments
    for e in rec.per_edge:
        assert e.area == pytest.approx(2 * CROFT.a_c, abs=1e-11)
        assert abs(e.s) <= 1e-6
        assert abs(e.delta) <= 1e-6


def test_clip_area_against_segment_formula():
    """Oracle: clipping a unit disc by a straight cut is a known segment."""
    disc = build_body(zero_step_function(), 0.0)
    for depth in (0.05, CROFT.w_c, 0.3):
        n = (1.0, 0.0)
        a = halfplane_clip_area(disc, n, -(1.0 - depth))
        # area kept on the wrong side = disc minus segment
        assert math.pi - a == pytest.approx(disc_segment_area(depth), abs=1e-12)


def test_pair_clip_area_symmetric_discs():
    disc = build_body(zero_step_function(), 0.0)
    config = default_config()
    right = transform(disc, 0.0, (config.lattice_constant, 0.0))
    a = pair_clip_area(disc, right, 0.0, 0.0)
    assert a == pytest.approx(2 * CROFT.a_c, abs=1e-12)


@pytest.mark.parametrize("eps", [0.05, -0.07])
def test_exact_modes_are_ordered(eps):
    a1 = tortoise_area(eps, "exact1").cut_area
    a2 = tortoise_area(eps, "exact2").cut_area
    assert a2 <= a1 + 1e-12


@pytest.mark.parametrize("eps", [0.04, -0.06])
def test_series_close_to_exact(eps):
    for series_mode, exact_mode in (("series1", "exact1"), ("series2", "exact2")):
        rs = tortoise_area(eps, series_mode)
        re_ = tortoise_area(eps, exact_mode)
        assert rs.cut_area == pytest.approx(re_.cut_area, abs=5e-5)


def test_series_net_coefficients_pinned():
    assert series_net_coefficient(mode="series1") == pytest.approx(
        -0.0048968129, abs=1e-9
    )
    assert series_net_coefficient(mode="series2") == pytest.approx(
        -0.0044167857, abs=1e-9
    )


def test_series_modes_second_improves():
    c1 = series_net_coefficient(mode="series1")
    c2 = series_net_coefficient(mode="series2")
    assert c2 >= c1  # tilting never increases the removed area


def test_body_area_coefficient_matches_reference():
    assert body_area_coefficient() == pytest.approx(-reference.AREA_COEFF, abs=1e-12)


def test_printed_coefficients_not_reproduced():
    """The published second-order cut coefficients disagree with both our
    closed-form series and the independent exact-clip fit; record the gap
    so any silent convergence toward them would be flagged."""
    _, cut2 = series_cut_coefficients(mode="series2")
    assert abs(cut2 - reference.PRINTED_CUT_COEFF_SHIFT_TILT) > 1e-3
    net2 = series_net_coefficient(mode="series2")
    assert abs(net2 - reference.PRINTED_NET_COEFF_SHIFT_TILT) > 1e-3
    assert net2 < 0  # no improvement over the disc construction


def test_fit_matches_series_closed_form():
    for mode in ("exact1", "exact2"):
        series_mode = "series1" if mode == "exact1" else "series2"
        fit = fit_net_coefficient(mode)
        assert fit.a0 == pytest.approx(math.pi - 6 * CROFT.a_c, abs=1e-10)
        assert fit.c2 == pytest.approx(
            series_net_coefficient(mode=series_mode), abs=5e-7
        )
        a_t0 = tortoise_area(0.0, mode).tortoise_area
        assert fit.max_residual <= 1e-10 * a_t0


def test_fit_exact2_pinned_value():
    fit = fit_net_coefficient("exact2")
    assert fit.c2 == pytest.approx(-0.004416796094533, abs=1e-9)


def test_fit_recovers_synthetic_polynomial():
    eps = np.array(DEFAULT_FIT_EPS)
    y = 2.0 - 0.3 * eps**2 + 0.05 * eps**4 + 1e-4 * eps**3
    fit = fit_eps2_coefficient(eps, y)
    assert fit.a0 == pytest.approx(2.0, abs=1e-12)
    assert fit.c2 == pytest.approx(-0.3, abs=1e-9)
    assert fit.c4 == pytest.approx(0.05, abs=1e-7)
    assert fit.max_residual <= 1e-12


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError, match="samples"):
        fit_eps2_coefficient([0.0, 0.1], [1.0, 1.0])


def test_scan_and_csv_json_round_trip(tmp_path):
    records = scan([-0.02, 0.0, 0.02], "series2")
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    write_scan_csv(records, csv_path)
    write_scan_json(records, json_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[1]["eps"]) == 0.0
    data = json.loads(json_path.read_text())
    # JSON round-trips the float values exactly
    assert data[2]["tortoise_area"] == records[2].tortoise_area
    assert data[2]["density"] == records[2].density
    assert {"s_0", "delta_1", "pair_area_2"} <= set(data[0])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        tortoise_area(0.1, "series3")


def test_shift_matters():
    with_shift = series_net_coefficient(mode="series1")
    without = series_net_coefficient(
        mode="series1", config=LatticeConfig(croft_constants().lattice_constant)
    )
    assert with_shift > without + 0.1  # the shift recovers most of the loss


def test_edge_pair_bodies_are_the_patch_copies():
    """The exact-mode cuts and ``verify_avoidance`` see the same copies:
    across every edge of a 3x3 patch, the two ``place_body`` copies moved
    so that the edge starts at the origin along +x are ``edge_copies``."""
    eps = 0.07
    config = default_config()
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    stripes = {k: (0.0, 0.0) for k in range(3)}
    _, edges = collect_patch_cuts(sites, stripes, config, 2.0)
    phi = np.linspace(0.0, 2.0 * math.pi, 721)
    built = build_body(Q, eps)
    for a, b, k in edges:
        pos_a = config.position(*a)
        d = config.position(*b) - pos_a
        beta = math.atan2(d[1], d[0])
        expected = edge_copies(built, k, config)
        for site, body in zip((a, b), expected):
            moved = transform(transform(place_body(built, *site, config), 0.0, -pos_a), -beta)
            assert np.max(np.abs(boundary_point(moved, phi) - boundary_point(body, phi))) <= 1e-12
    assert {k for _, _, k in edges} == {0, 1, 2}


def _count_build_body(monkeypatch) -> list:
    """Record each ``build_body`` call, under every name croft_forge binds it to."""
    calls = []
    original = body_module.build_body

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "croft_forge" or name.startswith("croft_forge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_one_body_per_profile_and_eps(monkeypatch):
    """Every copy is a rigid motion of one body: an exact2 evaluation and
    a 3x3 patch check each build it once."""
    calls = _count_build_body(monkeypatch)
    rec = tortoise_area(0.05, "exact2")
    assert len(calls) == 1
    assert verify_avoidance(Q, 0.05, rec.stripes()).ok
    assert len(calls) == 2


NARROW = make_step_function(
    [Fraction(0), Fraction(1, 24), Fraction(1), Fraction(25, 24), Fraction(2)],
    [0.5, -0.25, -0.5, 0.25],
)


def test_series_modes_refuse_narrow_caps(monkeypatch):
    """A break pi/24 from the cut angle 0 lies inside the cap (phi_c =
    0.2633): the series modes refuse the profile before building a body."""
    calls = _count_build_body(monkeypatch)
    for mode in ("series1", "series2"):
        for evaluate in (
            lambda: tortoise_area(0.05, mode, q=NARROW),
            lambda: series_cut_coefficients(NARROW, mode),
            lambda: series_net_coefficient(NARROW, mode),
        ):
            with pytest.raises(NarrowCapError, match=r"break 1/24\*pi"):
                evaluate()
    assert calls == []
    wide = make_step_function(
        [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3), Fraction(2)],
        [0.5, -0.25, -0.5, 0.25],
    )
    for q in (wide, Q):  # Q's nearest off-cut break is 4*pi/45 = 0.2793 away
        require_single_arc_caps(q)


def test_write_scan_csv_of_no_records_writes_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_scan_csv([], path)
    assert path.read_text().splitlines() == [",".join(SCAN_FIELDS)]


# ---------------------------------------------------------------------------
# Exact-mode Newton solver


def test_exact2_fit_edges_are_certified():
    for rec in scan(DEFAULT_FIT_EPS, "exact2"):
        for e in rec.per_edge:
            assert e.grad_norm <= 1e-10
            assert 1 <= e.iterations <= 6


def test_series_edges_carry_no_certificate():
    for e in tortoise_area(0.05, "series2").per_edge:
        assert (e.iterations, e.grad_norm) == (0, 0.0)


def test_newton_step_descends_on_indefinite_hessian():
    grad = np.array([0.3, -0.2])
    for hess in (np.diag([2.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert grad @ tortoise._newton_step(grad, hess) < 0


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(tortoise, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="no convergence"):
        tortoise_area(0.08, "exact2")


def random_profile(rng):
    v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
    return ansatz.step_from_halfvalues(v / np.max(np.abs(v)))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_newton_matches_nelder_mead_reference(seed):
    """A derivative-free simplex from the series seed finds no lower cut
    than Newton on seeded random profiles, in both exact modes."""
    rng = np.random.default_rng(seed)
    q = random_profile(rng)
    eps = float(rng.uniform(-0.1, 0.1))
    config = default_config()
    body = build_body(q, eps)
    for mode in ("exact1", "exact2"):
        rec = tortoise_area(eps, mode, q=q)
        for e in rec.per_edge:
            left, right = edge_copies(body, e.k, config)
            s0, delta0 = series_tilt_minimizer(cut_parameters(q, body, e.k, config))
            if mode == "exact1":
                x0 = [s0]
                f = lambda x: pair_clip_area(left, right, x[0], 0.0)
            else:
                x0 = [s0, delta0]
                f = lambda x: pair_clip_area(left, right, x[0], x[1])
            # a simplex of side 1e-3, far wider than the series-to-exact gap
            simplex = np.vstack([x0, np.add(x0, 1e-3 * np.eye(len(x0)))])
            ref = minimize(f, x0=x0, method="Nelder-Mead", options={
                "xatol": 1e-11, "fatol": 1e-15, "maxiter": 2000,
                "initial_simplex": simplex,
            })
            assert ref.success
            assert ref.fun >= e.area - 1e-12
            assert e.grad_norm <= 1e-10
