import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from scipy.optimize import minimize

from croft_forge import ansatz, lattice, reference, tortoise
from croft_forge import body as body_module
from croft_forge.body import (
    BodyError,
    body_area,
    boundary_point,
    build_body,
    croft_constants,
    transform,
)
from croft_forge.cli import main
from croft_forge.clip import halfplane_clip_area
from croft_forge.lattice import (
    PATCH_SITES,
    PSI,
    class_cuts,
    cut_parameters,
    copy_motion,
    default_config,
    edge_ends,
    patch_cuts,
    patch_layout,
    place_body,
    place_copy,
    second_order_read,
    site_position,
    stripe_caps,
    verify_avoidance,
)
from croft_forge.segments import minimize_pair_shift_tilt
from croft_forge.stepfn import make_step_function, reference_step_function, zero_step_function
from croft_forge.tortoise import (
    DEFAULT_FIT_EPS,
    MODES,
    SCAN_FIELDS,
    ConvergenceError,
    body_area_coefficient,
    fit_eps2_coefficient,
    fit_net_coefficient,
    pair_clip_area,
    scan,
    series_cut_coefficients,
    series_net_coefficient,
    tortoise_area,
    unplaced_caps,
    write_scan_csv,
    write_scan_json,
)
from break_sets import q36_profile, seeded_break_set, seeded_profile, uniform_zero_profile
from call_counts import count_calls
from disc_reference import (
    disc_cut_coefficients,
    disc_tortoise_area,
    unit_disc_cuts,
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
        a = halfplane_clip_area(disc, n, -(1.0 - depth)).area
        # area kept on the wrong side = disc minus segment
        assert math.pi - a == pytest.approx(disc_segment_area(depth), abs=1e-12)


def test_pair_clip_area_symmetric_discs():
    disc = build_body(zero_step_function(), 0.0)
    motions = [(0.0, (0.0, 0.0)), (0.0, (CROFT.lattice_constant, 0.0))]
    a = pair_clip_area(disc, motions, 0.0, 0.0).area
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
    """The series1 c2 to 1e-9, and the headline series2 c2 as tightly as the
    runtime install's check pins it: 1e-15 from -0.004416785740810."""
    assert series_net_coefficient(mode="series1") == pytest.approx(
        -0.0048968129, abs=1e-9
    )
    assert abs(series_net_coefficient(mode="series2") - -0.004416785740810) <= 1e-15


def test_cut_sums_add_the_classes_left_to_right():
    """``cut_area`` is (a0 + a1) + a2 over the per-edge areas, to the bit,
    and the series linear coefficient is (l0 + l1) + l2 over the classes'
    cut data: no compensated sum, which the built-in ``sum`` is from
    Python 3.12 on (it moves about one seeded record in seven here)."""
    rng = np.random.default_rng(11)
    profiles = [(Q, None)]
    for _ in range(6):
        v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
        profiles.append((ansatz.step_from_halfvalues(v / np.max(np.abs(v))),
                         tuple(0.1 * rng.standard_normal(2))))
    for q, shift in profiles:
        for mode in ("series2", "exact2"):
            for eps in (-0.5, -0.1, 0.05, 0.3):
                record = tortoise_area(eps, mode, q=q, shift=shift)
                a0, a1, a2 = (e.area for e in record.per_edge)
                assert record.cut_area == (a0 + a1) + a2
        l0, l1, l2 = (cut.linear for cut in lattice.second_order_read(q, shift)[1])
        assert series_cut_coefficients(q, "series2", shift)[0] == (l0 + l1) + l2


def test_series_modes_second_improves():
    c1 = series_net_coefficient(mode="series1")
    c2 = series_net_coefficient(mode="series2")
    assert c2 >= c1  # tilting never increases the removed area


def test_body_area_coefficient_matches_reference():
    assert body_area_coefficient() == pytest.approx(-reference.AREA_COEFF, abs=1e-12)


UNIFORM_12 = make_step_function([Fraction(i, 6) for i in range(13)], np.zeros(12))


@pytest.mark.parametrize("template", [Q, UNIFORM_12], ids=["reference", "uniform12"])
def test_body_area_coefficient_matches_the_area_probe(template):
    """Oracle: the area is exactly quadratic in eps, so the symmetric probe
    (A(h) + A(-h) - 2 pi) / (2 h^2) of built bodies gives the closed form,
    on seeded closure-projected profiles with max|q| = 1."""
    rng = np.random.default_rng(13)
    h = 0.25
    for _ in range(10):
        v = ansatz.closure_project(rng.normal(size=template.n_intervals // 2), template)
        q = ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template)
        probe = (body_area(build_body(q, h)) + body_area(build_body(q, -h))
                 - 2.0 * math.pi) / (2.0 * h * h)
        assert abs(body_area_coefficient(q) - probe) <= 1e-13


def test_printed_coefficients_not_reproduced():
    """The published second-order cut coefficients disagree with both our
    closed-form series and the independent exact-clip fit; record the gap
    so any silent convergence toward them would be flagged."""
    _, cut2 = series_cut_coefficients(mode="series2")
    assert abs(cut2 - reference.PRINTED_CUT_COEFF_SHIFT_TILT) > 1e-3
    net2 = series_net_coefficient(mode="series2")
    assert abs(net2 - reference.PRINTED_NET_COEFF_SHIFT_TILT) > 1e-3
    assert net2 < 0  # no improvement over the disc construction


def test_printed_coefficients_drop_d_y_from_the_tilt():
    """The printed values are the disc-cap series2 model with the vertical
    cap-point displacement d_y dropped from the tilt term: zeroing d_y in
    the oracle's unit cuts reproduces the printed cut and net c2.  The
    printed shift-only value is the eps-linear cut coefficient, which
    vanishes."""
    lin, _ = series_cut_coefficients(mode="series1")
    assert abs(lin - reference.PRINTED_NET_COEFF_SHIFT_ONLY) <= 1e-14
    cuts = [dataclasses.replace(c, d_y=0.0) for c in unit_disc_cuts(Q)]
    _, cut2 = disc_cut_coefficients(cuts, with_tilt=True)
    assert cut2 == pytest.approx(reference.PRINTED_CUT_COEFF_SHIFT_TILT, abs=1e-10)
    net2 = body_area_coefficient(Q) - cut2
    assert net2 == pytest.approx(reference.PRINTED_NET_COEFF_SHIFT_TILT, abs=1e-10)


def _single_arc_cap_profiles():
    """The reference, uniform 12 with seeded closure-projected values and two
    seeded profiles whose caps lie on one arc per side: every break is a cut
    angle j*pi/3 or at least phi_c from one."""
    rng = np.random.default_rng(29)
    phi_c = CROFT.phi_c
    out = [Q]
    while len(out) < 4:
        p = UNIFORM_12 if len(out) == 1 else seeded_profile(rng)
        off = np.abs(p.breaks - PSI * np.round(p.breaks / PSI))
        if np.any((off > 1e-12) & (off < phi_c)) or ansatz.closure_nullspace(p).size == 0:
            continue
        v = ansatz.closure_project(rng.standard_normal(p.n_intervals // 2), p)
        out.append(ansatz.step_from_halfvalues(v / np.max(np.abs(v)), p))
    return out


@pytest.mark.parametrize("mode", ["series1", "series2"])
def test_cap_read_series_is_the_disc_cap_model_on_single_arc_caps(mode):
    """Where each side of a cap lies on one arc, the cap read and the paper's
    disc-cap model (the test oracle) agree: cut-body areas, stripe tilts and
    the cut and net c2 within 1e-13.  The stripe shifts do not: the oracle
    measures s from the midpoint of the two cap points."""
    with_tilt = mode == "series2"
    for q in _single_arc_cap_profiles():
        shift = (0.3, -0.2)
        for eps in (-0.08, 0.01, 0.08):
            rec = tortoise_area(eps, mode, q=q, shift=shift)
            area, stripes = disc_tortoise_area(q, eps, with_tilt, shift)
            assert abs(rec.tortoise_area - area) <= 1e-13
            for e, (_, delta) in zip(rec.per_edge, stripes):
                assert abs(e.delta - delta) <= 1e-13
        lin, quad = series_cut_coefficients(q, mode, shift)
        want_lin, want_quad = disc_cut_coefficients(unit_disc_cuts(q, shift), with_tilt)
        assert abs(lin - want_lin) <= 1e-13
        assert abs(quad - want_quad) <= 1e-13
        net = series_net_coefficient(q, mode, shift)
        assert abs(net - (body_area_coefficient(q) - want_quad)) <= 1e-13


# A shift at which the disc-cap start put a stripe line off its copy.
FAR_SHIFT = (-0.08652130762749417, 0.3322999516644883)


@pytest.mark.parametrize("shift", [None, FAR_SHIFT], ids=["reference", "far"])
def test_series_shift_is_the_exact_shift_limit(shift):
    """s/eps of the series modes is the eps -> 0 limit of the exact s/eps,
    per class, in the edge frame the exact clip uses: within 1e-6 of the
    central difference (s(h) - s(-h)) / 2h at h = 1e-3.  The disc-cap
    model's midpoint frame reads -1.39e-3 on class 0 of the reference,
    against 1.69e-5."""
    h = 1e-3
    for series, exact in (("series1", "exact1"), ("series2", "exact2")):
        got = tortoise_area(h, series, shift=shift).per_edge
        plus, minus = (tortoise_area(e, exact, shift=shift).per_edge for e in (h, -h))
        for a, b, c in zip(got, plus, minus):
            assert abs(a.s / h - (b.s - c.s) / (2.0 * h)) <= 1e-6
            assert abs(a.delta / h - (b.delta - c.delta) / (2.0 * h)) <= 1e-6


def test_exact2_fit_converges_at_a_far_shift():
    """At FAR_SHIFT the disc-cap start put a line off its copy at eps = +-0.08
    (``ConvergenceError``); the cap-read start converges on the whole fit
    grid.  There the eps^4 term is large: the fit on the grid / 8 is within
    1e-5 of the series2 closed form."""
    for rec in scan(DEFAULT_FIT_EPS, "exact2", shift=FAR_SHIFT):
        assert all(e.grad_norm <= 1e-10 for e in rec.per_edge)
    fine = fit_net_coefficient("exact2", [e / 8 for e in DEFAULT_FIT_EPS], shift=FAR_SHIFT)
    want = series_net_coefficient(mode="series2", shift=FAR_SHIFT)
    assert abs(fine.c2 - want) <= 1e-5


def _closed_profile(template, seed):
    """A seeded closure-projected profile on ``template``'s break set, scaled
    to max |q| = 1; its values are writable, as ``step_from_halfvalues``
    builds them."""
    v = np.random.default_rng(seed).standard_normal(template.n_intervals // 2)
    v = ansatz.closure_project(v, template)
    return ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template)


def _uniform_48_profile():
    return _closed_profile(uniform_zero_profile(48), 48)


def _cut_bits(cuts):
    """Every field of three ``PairCut``s under ``float.hex``."""
    return [(c.linear.hex(), c.p_ex[0].hex(), c.p_ex[1].hex(), c.p_ee.hex()) for c in cuts]


def assert_direct_read(q, shift):
    """``second_order_read(q, shift)``, a contraction of the break set's cut
    model, is a direct one-column ``class_cuts`` read of x = (q, shift)
    within 1e-14 (1 + |x|^2) for B and P_ee and 1e-14 (1 + |x|) for P_e
    and P_ex.  The name ``class_cuts`` bound here is not the one
    ``count_calls`` counts."""
    shift = default_config() if shift is None else shift
    gram, p_e, p_ex, p_ee = class_cuts(q.breaks, q.values[:, None], [shift])
    x = math.hypot(*q.values, *shift)
    got_b, cuts = second_order_read(q, shift)
    assert abs(got_b - gram[0, 0]) <= 1e-14 * (1.0 + x * x)
    for k, c in enumerate(cuts):
        assert abs(c.p_ee - p_ee[k, 0, 0]) <= 1e-14 * (1.0 + x * x)
        assert abs(c.linear - p_e[k, 0]) <= 1e-14 * (1.0 + x)
        assert np.all(np.abs(np.array(c.p_ex) - p_ex[k, :, 0]) <= 1e-14 * (1.0 + x))


def _clear_cut_caches():
    lattice._cut_model.cache_clear()
    lattice._profile_cuts.cache_clear()


@pytest.mark.parametrize(
    "shift", [None, (0.0, 0.0), (-0.0, 0.0), FAR_SHIFT], ids=["reference", "zero", "minus-zero", "far"]
)
def test_cached_cut_parameters_are_the_direct_read(shift):
    """``second_order_read`` returns the same bits on the first call (a
    cache miss) and the second (a hit), and both are a direct
    ``class_cuts`` read (``assert_direct_read``): the reference, q36 and a
    seeded uniform-48 profile."""
    _clear_cut_caches()
    for q in (Q, q36_profile(), _uniform_48_profile()):
        b, cuts = second_order_read(q, shift)
        assert_direct_read(q, shift)
        assert second_order_read(q, shift)[0].hex() == b.hex()
        assert _cut_bits(cut_parameters(q, shift)) == _cut_bits(cuts)


def test_cut_cache_keys_are_bit_patterns():
    """A profile or a shift that differs only in the sign of a zero is read
    on its own, and values changed in place after a call are read afresh:
    each is a computed read (a miss of ``_profile_cuts``)."""
    _clear_cut_caches()
    zero = uniform_zero_profile(48)
    signed = ansatz.step_from_halfvalues(np.zeros(24), zero)  # -0.0 on the second half
    assert np.array_equal(signed.values, zero.values)
    for q, shift in ((zero, (0.0, 0.0)), (signed, (0.0, 0.0)), (zero, (-0.0, 0.0)),
                     (zero, (0.0, 0.0)), (signed, (0.0, 0.0))):
        assert_direct_read(q, shift)
    assert lattice._profile_cuts.cache_info().misses == 3
    q = _uniform_48_profile()
    before = _cut_bits(cut_parameters(q))
    q.values[:] *= 2.0  # closure is linear, so the doubled profile closes too
    assert _cut_bits(cut_parameters(q)) != before
    assert_direct_read(q, None)
    assert lattice._profile_cuts.cache_info().misses == 5


def test_exact2_fit_and_scan_read_the_cut_data_once_per_profile_and_shift(monkeypatch):
    """Each exact2 record reads the cut data (``lattice.second_order_read``),
    but it is computed (a miss of ``_profile_cuts``) once per (profile,
    shift), and ``class_cuts`` runs once per break set.  Closure is checked
    once per record, by ``build_body``, and once per read that computes."""
    _clear_cut_caches()
    cuts = count_calls(monkeypatch, lattice, "second_order_read")
    reads = count_calls(monkeypatch, lattice, "class_cuts")
    closures = count_calls(monkeypatch, body_module, "require_closure")
    for run, n_computes, n_reads in (
        (lambda: fit_net_coefficient("exact2"), 1, 1),
        (lambda: scan(DEFAULT_FIT_EPS, "exact2"), 0, 0),
        (lambda: scan(DEFAULT_FIT_EPS, "exact2", shift=FAR_SHIFT), 1, 0),
    ):
        cuts.clear()
        reads.clear()
        closures.clear()
        misses = lattice._profile_cuts.cache_info().misses
        run()
        assert (len(cuts), len(reads)) == (len(DEFAULT_FIT_EPS), n_reads)
        assert lattice._profile_cuts.cache_info().misses - misses == n_computes
        # each check is at unit eps, on the profile's breaks and values
        assert all(len(args) == 2 for args in closures)
        assert len(closures) == len(cuts) + n_computes


@pytest.mark.parametrize(
    "shift", [None, (0.0, -0.0), (0.3, -0.1)], ids=["reference", "zero", "shifted"]
)
def test_contraction_is_the_direct_read(shift):
    """On the reference, q36, seeded profiles on uniform 12, 24, 48 and 96
    and on 20 seeded 24-interval break sets, each with caps over one to
    several arcs."""
    _clear_cut_caches()
    profiles = [Q, q36_profile()]
    profiles += [_closed_profile(uniform_zero_profile(n), n) for n in (12, 24, 48, 96)]
    profiles += [_closed_profile(seeded_break_set(24, seed), seed) for seed in range(20)]
    for q in profiles:
        assert_direct_read(q, shift)


def test_contraction_is_the_direct_read_on_uniform_288():
    _clear_cut_caches()
    assert_direct_read(_closed_profile(uniform_zero_profile(288), 288), (0.3, -0.1))


def test_cut_model_is_read_once_per_break_set():
    """Six profile reads on one break set compute six times but read its cut
    model once; the model's four arrays are shaped by m = n/2 + 2 columns,
    x = (v, shift), and read-only."""
    _clear_cut_caches()
    template = uniform_zero_profile(48)
    for seed in range(3):
        for shift in (None, (0.3, -0.1)):
            second_order_read(_closed_profile(template, seed), shift)
    second_order_read(Q)
    assert lattice._profile_cuts.cache_info().misses == 7
    assert lattice._cut_model.cache_info().misses == 2
    model = lattice._cut_model(template.breaks.tobytes())
    assert lattice._cut_model.cache_info().misses == 2
    m = 26
    assert [x.shape for x in model] == [(m, m), (3, m), (3, 2, m), (3, m, m)]
    for x in model:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1.0


def test_nearly_antisymmetric_profile_reads_its_antisymmetric_part():
    """A profile whose second half is off by up to 1e-13, within
    ``ANTISYMMETRY_TOL``, reads the cut data of its antisymmetric part
    (v, -v), v = (values[:h] - values[h:]) / 2, to the bit, and that part
    is a direct ``class_cuts`` read; its first half alone reads other
    bits."""
    _clear_cut_caches()
    for template in (Q, q36_profile(), _uniform_48_profile()):
        h = template.n_intervals // 2
        off = 1e-13 * np.random.default_rng(h).uniform(-1.0, 1.0, h)
        values = np.concatenate([template.values[:h], template.values[h:] + off])
        q = make_step_function(template.break_fractions, values)
        v = 0.5 * (values[:h] - values[h:])
        part = make_step_function(template.break_fractions, np.concatenate([v, -v]))
        first = make_step_function(template.break_fractions,
                                   np.concatenate([values[:h], -values[:h]]))
        for shift in (None, (0.3, -0.1)):
            b, cuts = second_order_read(q, shift)
            assert_direct_read(part, shift)
            assert (b.hex(), _cut_bits(cuts)) == (second_order_read(part, shift)[0].hex(),
                                                   _cut_bits(cut_parameters(part, shift)))
            assert _cut_bits(cuts) != _cut_bits(cut_parameters(first, shift))


def test_open_profile_is_refused_on_every_cut_read():
    """No failure is cached and no check is skipped: an open profile raises
    on each call, also one that was read while it closed and then changed
    in place."""
    lattice._profile_cuts.cache_clear()
    q = _uniform_48_profile()
    cut_parameters(q)
    q.values[0] += 0.5
    q.values[24] -= 0.5  # its antipode: still antisymmetric, no longer closed
    for _ in range(3):
        with pytest.raises(BodyError, match="does not close"):
            cut_parameters(q)


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


def test_fit_requires_enough_samples(monkeypatch):
    """The fit counts distinct eps values: a repeated one repeats a row of
    the five-column design, which lstsq would solve by its minimum-norm
    answer.  ``fit_net_coefficient`` refuses before it evaluates an area."""
    with pytest.raises(ValueError, match="at least 5 distinct eps values, got 2"):
        fit_eps2_coefficient([0.0, 0.1], [1.0, 1.0])
    repeated = (0.01, 0.01, 0.02, 0.04, 0.08)
    areas = [tortoise_area(e, "series2").tortoise_area for e in repeated]
    with pytest.raises(ValueError, match="at least 5 distinct eps values, got 4"):
        fit_eps2_coefficient(repeated, areas)
    calls = count_calls(monkeypatch, tortoise, "tortoise_area")
    with pytest.raises(ValueError, match="at least 5 distinct eps values, got 4"):
        fit_net_coefficient("exact2", eps_values=repeated)
    assert calls == []


def test_fit_reads_its_eps_values_once():
    """A generator of eps values fits as its tuple does: the values are
    read once, before the sample count is checked."""
    fit = fit_net_coefficient("series2", eps_values=(e for e in DEFAULT_FIT_EPS))
    assert fit == fit_net_coefficient("series2", eps_values=DEFAULT_FIT_EPS)


NON_FINITE_SHIFT = "shift must be a list of two finite numbers"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shift", [(math.nan, 0.0), (0.0, math.inf)])
def test_a_record_refuses_a_non_finite_shift(mode, shift):
    """A NaN or infinite shift is refused where None resolves to the
    reference shift, not carried into a NaN area or a failed clip."""
    with pytest.raises(ValueError, match=NON_FINITE_SHIFT):
        tortoise_area(0.05, mode, shift=shift)


@pytest.mark.parametrize("mode", ["series1", "series2"])
def test_series_coefficients_refuse_a_non_finite_shift(mode):
    with pytest.raises(ValueError, match=NON_FINITE_SHIFT):
        series_net_coefficient(Q, mode, (math.nan, 0.0))


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
    without = series_net_coefficient(mode="series1", shift=(0.0, 0.0))
    assert with_shift > without + 0.1  # the shift recovers most of the loss


def test_edge_pair_bodies_are_the_patch_copies():
    """The exact-mode cuts and ``verify_avoidance`` see the same copies and
    the same caps: across every edge of a 3x3 patch, the two ``place_body``
    copies moved so that the edge starts at the origin along +x are the
    ``place_copy`` copies at ``edge_ends``, and their two slots of the
    patch cut table moved the same way are ``stripe_caps``.  Each copy
    loses to its cut what the unplaced body loses to its cap of
    ``unplaced_caps``, moved back by the copy's ``copy_motion``: that
    side's term of ``pair_clip_area``."""
    eps = 0.07
    shift = default_config()
    rng = np.random.default_rng(5)
    stripes = {k: (float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.05, 0.05)))
               for k in range(3)}
    normals, offsets, ok = patch_cuts(stripes, 2.0)
    edges = [(PATCH_SITES[a], PATCH_SITES[b], k, (i, j))
             for (a, i), (b, j), k in patch_layout().edges]
    # the edges name every real slot once, each row's in turn
    unread = {site: iter(range(ok[r].sum())) for r, site in enumerate(PATCH_SITES)}
    phi = np.linspace(0.0, 2.0 * math.pi, 721)
    built = build_body(Q, eps)
    for a, b, k, slots in edges:
        pos_a = site_position(*a)
        d = site_position(*b) - pos_a
        beta = math.atan2(d[1], d[0])
        back = np.array([[math.cos(beta), math.sin(beta)],
                         [-math.sin(beta), math.cos(beta)]])  # rotation by -beta
        ends = edge_ends(k)
        expected = [place_copy(built, color, position, shift) for color, position in ends]
        motions = [copy_motion(color, position, eps, shift) for color, position in ends]
        caps = stripe_caps(*stripes[k], 2.0)
        moved_caps = unplaced_caps(*stripes[k], motions)
        for site, slot, body, (n, c, _, _), (n_b, c_b, _, _) in zip(
                (a, b), slots, expected, caps, moved_caps):
            placed = place_body(built, *site, shift)
            moved = transform(transform(placed, 0.0, -pos_a), -beta)
            assert np.max(np.abs(boundary_point(moved, phi) - boundary_point(body, phi))) <= 1e-12
            assert next(unread[site]) == slot
            r = PATCH_SITES.index(site)
            n_patch, c_patch = normals[r, slot], offsets[r, slot]
            assert np.max(np.abs(back @ n_patch - n)) <= 1e-15
            assert abs(c_patch - n_patch @ pos_a - c) <= 1e-14
            lost = halfplane_clip_area(placed, n_patch, c_patch).area
            assert abs(lost - halfplane_clip_area(body, n, c).area) <= 1e-14
            assert abs(lost - halfplane_clip_area(built, n_b, c_b).area) <= 1e-14
        pair = pair_clip_area(built, motions, *stripes[k]).area
        assert pair > 0.0
        assert abs(pair - sum(halfplane_clip_area(body, n, c).area
                              for body, (n, c, _, _) in zip(expected, caps))) <= 1e-14
    assert all(next(rest, None) is None for rest in unread.values())
    assert {k for _, _, k, _ in edges} == {0, 1, 2}


def test_one_body_per_profile_and_eps(monkeypatch):
    """Every copy is a rigid motion of one body: an exact2 evaluation and
    a 3x3 patch check each build it once."""
    calls = count_calls(monkeypatch, body_module, "build_body")
    rec = tortoise_area(0.05, "exact2")
    assert len(calls) == 1
    assert verify_avoidance(Q, 0.05, rec.stripes()).ok
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["series1", "series2"])
def test_series_modes_build_no_body(monkeypatch, mode):
    """A series evaluation takes the body area in closed form, pi + B eps^2
    with B of ``body_area_coefficient``, bit for bit, and builds no body: on
    the reference, q36 and a seeded uniform-12 profile."""
    calls = count_calls(monkeypatch, body_module, "build_body")
    v = ansatz.closure_project(np.random.default_rng(13).normal(size=6), UNIFORM_12)
    u12 = ansatz.step_from_halfvalues(v / np.max(np.abs(v)), UNIFORM_12)
    for q in (Q, q36_profile(), u12):
        for eps in (-0.08, 0.01, 0.08):
            rec = tortoise_area(eps, mode, q=q)
            assert rec.body_area == math.pi + body_area_coefficient(q) * eps * eps
    assert calls == []


@pytest.mark.parametrize("mode", ["series1", "series2"])
def test_series_modes_check_eps_as_build_body_does(mode):
    """Without a body, a series evaluation still refuses a non-finite eps
    and a negative radius, with ``build_body``'s messages."""
    for eps, match in ((math.nan, "finite"), (math.inf, "finite"),
                       (-math.inf, "finite"), (3.0, "non-positive radius")):
        with pytest.raises(BodyError, match=match) as built:
            build_body(Q, eps)
        with pytest.raises(BodyError, match=match) as series:
            tortoise_area(eps, mode)
        assert str(series.value) == str(built.value)


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
def test_each_edge_pair_is_placed_once(monkeypatch, mode):
    """An exact evaluation places no copy: the Newton clips cut the one
    unplaced body by the caps moved onto it (``unplaced_caps``), and the
    start point reads no copy either."""
    calls = count_calls(monkeypatch, body_module, "transform")
    tortoise_area(0.05, mode)
    assert len(calls) == 0


@pytest.mark.parametrize("mode", ["series1", "series2"])
def test_series_modes_read_narrow_caps(mode):
    """On q36 every cap covers four arcs.  The series modes read it like any
    other profile: the series net c2 is the form's value there, the cut-body
    area is that c2 in eps^2 (the linear term cancels), and its gap to the
    exact area shrinks by a cubic ratio (~1/8) as eps halves."""
    q = q36_profile()
    shift = default_config()
    form = ansatz.assemble_quadratic_form(mode, template=q)
    c2 = series_net_coefficient(q, mode)
    assert abs(c2 - form.value(q.values[: q.n_intervals // 2], shift)) <= 1e-13
    a0 = math.pi - 6.0 * CROFT.a_c
    for eps in (-0.05, 0.05):
        rec = tortoise_area(eps, mode, q=q)
        assert abs(rec.tortoise_area - a0 - c2 * eps * eps) <= 1e-14
    exact = "exact2" if mode == "series2" else "exact1"
    gap = {eps: abs(tortoise_area(eps, mode, q=q).tortoise_area
                    - tortoise_area(eps, exact, q=q).tortoise_area) for eps in (0.05, 0.1)}
    assert gap[0.1] <= 1e-4
    assert gap[0.05] <= 0.2 * gap[0.1]


@pytest.mark.parametrize("eps, area, missed", [(0.45, 3.01582796041145, (0, 1)),
                                                (-0.25, 3.04821038063543, (2,))])
def test_exact2_goes_on_where_a_stripe_line_misses_its_copy(eps, area, missed):
    """Far enough out on q36 the series start's line of some classes misses
    a copy: a missed copy loses no area wherever the line moves, so its
    derivatives are zero and Newton goes on.  Those classes remove nothing
    and the patch check passes on the stripes returned."""
    q = q36_profile()
    rec = tortoise_area(eps, "exact2", q=q)
    assert float(f"{rec.tortoise_area:.15g}") == area
    assert [e.k for e in rec.per_edge if e.area == 0.0] == list(missed)
    assert verify_avoidance(q, eps, rec.stripes()).ok


def test_closure_is_checked_without_a_body():
    """The closed forms at unit eps build no body, and still refuse a profile
    whose arc chain does not close, as ``build_body`` does."""
    q = make_step_function(
        [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3), Fraction(2)],
        [0.5, -0.25, -0.5, 0.25],
    )
    for evaluate in (
        lambda: body_area_coefficient(q),
        lambda: series_cut_coefficients(q, "series2"),
        lambda: series_net_coefficient(q, "series1"),
        lambda: tortoise_area(0.05, "series1", q=q),
        lambda: tortoise_area(0.05, "series2", q=q),
        lambda: build_body(q, 0.05),
    ):
        with pytest.raises(BodyError, match="does not close"):
            evaluate()


def test_open_chain_error_names_the_unit_eps_residual():
    """Every mode, ``build_body`` and ``cut_parameters`` refuse the open
    profile with one message, which names its unit-eps residual |du^T q|
    (about 1.32), not the eps-scaled gap of the built body."""
    q = make_step_function(
        [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3), Fraction(2)],
        [0.5, -0.25, -0.5, 0.25],
    )
    messages = set()
    for evaluate in [lambda mode=mode: tortoise_area(0.05, mode, q=q) for mode in MODES] + [
        lambda: build_body(q, 0.05),
        lambda: cut_parameters(q),
        lambda: series_net_coefficient(q, "series2"),
    ]:
        with pytest.raises(BodyError) as err:
            evaluate()
        messages.add(str(err.value))
    assert messages == {
        "arc chain does not close (residual 1.32 at unit eps): "
        "the profile violates the closure constraints"
    }


def test_closure_is_checked_once_per_series_evaluation(monkeypatch):
    """A series ``tortoise_area``, ``series_net_coefficient`` and a series
    ``c2_net`` probe compute the closure residual once each, in the read
    that computes their second-order data, and not again on a cache hit."""
    calls = count_calls(monkeypatch, body_module, "chain_closure_residual")
    v = ansatz.closure_project(np.random.default_rng(3).normal(size=ansatz.N_FREE))
    for mode in ("series1", "series2"):
        for evaluate in (
            lambda: tortoise_area(0.05, mode),
            lambda: series_net_coefficient(Q, mode),
            lambda: ansatz.c2_net(v, (0.1, -0.2), mode),
        ):
            lattice._profile_cuts.cache_clear()
            for n_checks in (1, 0):
                calls.clear()
                evaluate()
                assert len(calls) == n_checks


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
def test_closure_is_checked_once_per_exact_record(monkeypatch, mode):
    """An exact ``tortoise_area`` computes the closure residual once in
    ``build_body``, and once more only when its read of the cut data
    computes; it starts Newton from that cut data: each edge's series gap
    is to the series record's pair area.  On the reference, q36 and the
    reference with another shift."""
    calls = count_calls(monkeypatch, body_module, "chain_closure_residual")
    series = "series2" if mode == "exact2" else "series1"
    lattice._profile_cuts.cache_clear()
    for q, shift in ((Q, None), (q36_profile(), None), (Q, (0.1, -0.2))):
        for n_checks in (2, 1):
            calls.clear()
            rec = tortoise_area(0.05, mode, q=q, shift=shift)
            assert len(calls) == n_checks
        start = tortoise_area(0.05, series, q=q, shift=shift)
        for e, s in zip(rec.per_edge, start.per_edge):
            assert e.series_gap == e.area - s.area


def test_write_scan_csv_prints_floats_as_the_cli_does(tmp_path, capsys):
    """One CSV format: ``write_scan_csv`` writes 15 significant digits, the
    bytes ``croft-forge scan`` prints for the same eps."""
    path = tmp_path / "scan.csv"
    write_scan_csv(scan([0.05]), path)
    header, row = path.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["body_area"] == "3.14156646682611"
    assert main(["scan", "--eps", "0.05"]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_write_scan_json_prints_as_the_cli_does(tmp_path, capsys):
    """One JSON format: ``write_scan_json`` writes the bytes ``croft-forge
    scan --format json`` prints for the same eps, final newline included."""
    path = tmp_path / "scan.json"
    write_scan_json(scan([0.05]), path)
    assert path.read_text().endswith("}\n]\n")
    assert main(["scan", "--eps", "0.05", "--format", "json"]) == 0
    assert capsys.readouterr().out == path.read_text()


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


# Newton steps per edge on the reference fit grid, eps by eps and class
# by class; no step is halved there, so each edge evaluates the pair area
# once more than it steps: at the start and after each step, the last
# point the one whose own step is below NEWTON_STEP_TOL.
REFERENCE_ITERATIONS = {
    "exact1": [1, 2, 2] + [1] * 19 + [2, 2],
    "exact2": [2, 2, 2, 1, 2, 2, 1, 2, 2] + [1] * 7 + [2, 2, 1] + [2] * 5,
}


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
def test_reference_fit_work_is_pinned(monkeypatch, mode):
    """Iterations and pair-area evaluations per edge of the reference fit
    grid, exactly: exact2 evaluates 62 pair areas over its 24 edges (2.58
    per edge) and exact1 52, each one ``pair_clip_area`` call."""
    calls = count_calls(monkeypatch, tortoise, "pair_clip_area")
    edges = [e for rec in scan(DEFAULT_FIT_EPS, mode) for e in rec.per_edge]
    assert [e.iterations for e in edges] == REFERENCE_ITERATIONS[mode]
    assert [e.evaluations for e in edges] == [i + 1 for i in REFERENCE_ITERATIONS[mode]]
    assert sum(e.evaluations for e in edges) == len(calls) == {"exact1": 52, "exact2": 62}[mode]


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
def test_each_exact_edge_is_an_evaluated_point(mode):
    """Newton stops at a point it has evaluated and reports that
    evaluation: ``pair_clip_area`` re-run at each edge's (s, delta) gives
    its area and grad_norm bit for bit, on the reference, q36 and a seeded
    uniform-96 profile, from eps -0.5 to 0.45."""
    u96 = uniform_zero_profile(96)
    v = ansatz.closure_project(np.random.default_rng(96).standard_normal(48), u96)
    u96 = ansatz.step_from_halfvalues(v / np.max(np.abs(v)), u96)
    dim = 2 if mode == "exact2" else 1
    for q in (Q, q36_profile(), u96):
        for eps in (-0.5, -0.05, 0.02, 0.1, 0.45):
            body = build_body(q, eps)
            for e in tortoise_area(eps, mode, q=q).per_edge:
                motions = [copy_motion(c, p, eps) for c, p in edge_ends(e.k)]
                pair = pair_clip_area(body, motions, e.s, e.delta)
                assert pair.area == e.area
                assert math.hypot(*pair.grad[:dim]) == e.grad_norm


def test_series_edges_carry_no_certificate():
    for mode in ("series1", "series2"):
        for e in tortoise_area(0.05, mode).per_edge:
            assert (e.iterations, e.evaluations, e.grad_norm, e.series_gap) == (0, 0, 0.0, 0.0)


def test_exact2_series_gap_shrinks_with_eps():
    """Each edge's series_gap is its exact minimized pair area minus the
    series2 minimized area Newton started from, and on the reference
    profile every |gap| shrinks at least 4x per halving of eps (about 8x:
    the series is exact to second order)."""
    gaps = []
    for eps in (0.08, 0.04, 0.02):
        exact, series = tortoise_area(eps, "exact2"), tortoise_area(eps, "series2")
        for e, s in zip(exact.per_edge, series.per_edge):
            assert e.series_gap == e.area - s.area
        gaps.append([abs(e.series_gap) for e in exact.per_edge])
    for wide, narrow in zip(gaps, gaps[1:]):
        assert all(0.0 < g <= w / 4.0 for w, g in zip(wide, narrow))


def test_newton_step_descends_on_indefinite_hessian():
    grad = np.array([0.3, -0.2])
    for hess in (np.diag([2.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert grad @ tortoise._newton_step(grad, hess) < 0


def lapack_newton_step(grad, hess):
    """Test-only reference: the same floor rule on ``np.linalg.eigvalsh``
    and ``solve``; returns the step and the shifted block's condition."""
    lam = np.linalg.eigvalsh(hess)
    floor = tortoise.HESSIAN_FLOOR * max(abs(lam[-1]), 1.0)
    if lam[0] < floor:
        hess = hess + (floor - lam[0]) * np.eye(len(grad))
    return -np.linalg.solve(hess, grad), np.linalg.cond(hess)


def test_newton_step_closed_form_matches_lapack():
    """The closed-form 1 x 1 and 2 x 2 steps against the LAPACK reference on
    seeded positive, indefinite, negative and near-singular blocks at
    scales 1e-3 to 1e3: within 1e-12 relative where the (shifted) block has
    condition up to 100, and within 1e-14 times the condition beyond, the
    forward error any backward-stable solve leaves.  A shift to the floor
    makes that condition up to 1e6 or more, and there the two eigenvalue
    routines' rounding of lam_min alone moves the step by ~1e-10."""
    rng = np.random.default_rng(17)
    kinds = {"positive": (1.0, 1.0), "indefinite": (1.0, -1.0), "negative": (-1.0, -1.0)}
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        blocks = [np.array([[scale * rng.normal()]])]
        turn = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        for signs in kinds.values():
            lam = scale * np.array(signs) * np.abs(rng.normal(size=2))
            blocks.append(rot @ np.diag(lam) @ rot.T)
        u = rng.normal(size=2)  # near-singular: rank one plus 1e-9
        blocks.append(scale * (np.outer(u, u) + 1e-9 * np.diag(rng.normal(size=2))))
        for hess in blocks:
            hess = 0.5 * (hess + hess.T)
            grad = rng.normal(size=len(hess))
            want, cond = lapack_newton_step(grad, hess)
            got = np.array(tortoise._newton_step(grad, hess))
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-14 * max(cond, 100.0)


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
    shift = default_config()
    body = build_body(q, eps)
    for mode in ("exact1", "exact2"):
        rec = tortoise_area(eps, mode, q=q)
        for e in rec.per_edge:
            motions = [copy_motion(c, p, eps, shift) for c, p in edge_ends(e.k)]
            s0, delta0, _ = minimize_pair_shift_tilt(cut_parameters(q, shift)[e.k].scaled(eps))
            if mode == "exact1":
                x0 = [s0]
                f = lambda x: pair_clip_area(body, motions, x[0], 0.0).area
            else:
                x0 = [s0, delta0]
                f = lambda x: pair_clip_area(body, motions, x[0], x[1]).area
            # a simplex of side 1e-3, far wider than the series-to-exact gap
            simplex = np.vstack([x0, np.add(x0, 1e-3 * np.eye(len(x0)))])
            ref = minimize(f, x0=x0, method="Nelder-Mead", options={
                "xatol": 1e-11, "fatol": 1e-15, "maxiter": 2000,
                "initial_simplex": simplex,
            })
            assert ref.success
            assert ref.fun >= e.area - 1e-12
            assert e.grad_norm <= 1e-10


def test_probe_eps_scales_with_the_profile():
    """The closed-form probes stay inside the valid eps range of a profile
    with max|q| > 4: five times the reference profile (and its shift) gives
    exactly 25 times the reference body-area and cut coefficients."""
    q = reference_step_function()
    big = make_step_function(q.break_fractions, 5.0 * q.values)
    big_shift = tuple(5.0 * v for v in default_config())
    assert body_area_coefficient(big) == pytest.approx(
        25.0 * body_area_coefficient(q), rel=1e-13
    )
    for mode in ("series1", "series2"):
        _, quad = series_cut_coefficients(big, mode, big_shift)
        _, ref_quad = series_cut_coefficients(q, mode)
        assert quad == pytest.approx(25.0 * ref_quad, rel=1e-12)
