import math
from fractions import Fraction

import numpy as np
import pytest

from croft_forge import ansatz, lattice, stepfn
from croft_forge import body as body_module
from croft_forge.ansatz import (
    EIGEN_REFERENCE_TOL,
    N_FREE,
    ZERO_EIGENVALUE_TOL,
    EigenReport,
    assemble_quadratic_form,
    c2_net,
    closure_matrix,
    closure_nullspace,
    closure_project,
    eigen_signature,
    jacobi_eigh,
    signature_of,
    step_from_halfvalues,
)
from croft_forge.body import build_body, center_offsets, croft_constants
from croft_forge.clip import halfplane_clip_area
from croft_forge.lattice import (
    PSI,
    cap_area_derivatives,
    class_cuts,
    copy_motion,
    default_config,
    edge_ends,
    place_copy,
    stripe_caps,
)
from croft_forge.segments import pair_envelope, series_coefficients
from croft_forge.reference import Q_VALUES, SHIFT_X, SHIFT_Y
from croft_forge.stepfn import (
    StepFunctionError,
    make_step_function,
    reference_step_function,
    zero_step_function,
)
from croft_forge.tortoise import (
    DEFAULT_FIT_EPS,
    MODES,
    SERIES_MODES,
    TILT_MODES,
    fit_net_coefficient,
    pair_clip_area,
    series_net_coefficient,
    tortoise_area,
)
from break_sets import (
    arcs_under_caps,
    q36_profile,
    seeded_break_set,
    seeded_profile,
    uniform_zero_profile,
)
from call_counts import count_calls

FD_STEP = 1e-3  # step of the test-only central-difference reference
N_VARS = closure_nullspace().shape[0] + 2  # reference step values and the shift pair

RNG = np.random.default_rng(7)
REF_V = np.array(Q_VALUES[:N_FREE])
UNIFORM_12 = make_step_function([Fraction(i, 6) for i in range(13)], np.zeros(12))
TWO = make_step_function([Fraction(0), Fraction(1), Fraction(2)], np.zeros(2))
FOUR = make_step_function([Fraction(i, 2) for i in range(5)], np.zeros(4))


@pytest.fixture(scope="module")
def form():
    return assemble_quadratic_form("series2")


def test_closure_matrix_annihilates_reference():
    A = closure_matrix()
    assert np.max(np.abs(A @ REF_V)) <= 1e-12


def test_closure_matrix_is_cached_and_read_only():
    q = reference_step_function()
    A = closure_matrix(q)
    assert closure_matrix(q) is A
    assert closure_matrix() is A
    fresh = ansatz._closure_matrix.__wrapped__(tuple(q.breaks))
    assert fresh is not A
    assert np.array_equal(A, fresh)
    with pytest.raises(ValueError):
        A[0, 0] = 1.0


def looped_closure_matrix(template):
    """Test-only oracle: chain the closure gap of each half-value's
    antisymmetric unit profile around the full turn, break by break."""
    breaks = template.breaks
    n = template.n_intervals
    half = n // 2
    A = np.zeros((2, half))
    for m in range(half):
        q = np.zeros(n)
        q[m], q[m + half] = 1.0, -1.0
        for i in range(n):
            phi = breaks[(i + 1) % n]
            A[:, m] += (q[(i + 1) % n] - q[i]) * np.array([math.cos(phi), math.sin(phi)])
    return A


def test_closure_matrix_is_the_looped_chain():
    """-2 du[:n/2]^T equals the chained gaps of the unit half-value profiles,
    to two ulps of the largest entry an |A| can have, 4."""
    rng = np.random.default_rng(19)
    templates = [reference_step_function(), UNIFORM_12, TWO, FOUR]
    for template in templates + [seeded_profile(rng) for _ in range(30)]:
        gap = np.max(np.abs(closure_matrix(template) - looped_closure_matrix(template)))
        assert gap <= 8.0 * np.finfo(float).eps


def test_nullspace_is_sized_by_the_rank():
    """Rank 2 from four intervals on, rank 1 on {0, pi}: the null space has
    n/2 - rank orthonormal columns, cached per break set and read-only."""
    rng = np.random.default_rng(29)
    for template in [UNIFORM_12, TWO, FOUR] + [seeded_profile(rng) for _ in range(30)]:
        half = template.n_intervals // 2
        N = closure_nullspace(template)
        assert N.shape == (half, half - (1 if half == 1 else 2))
        assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-13)
        assert np.max(np.abs(closure_matrix(template) @ N), initial=0.0) <= 1e-13
        assert closure_nullspace(template) is N
        assert not N.flags.writeable
    assert np.array_equal(closure_project([0.7], TWO), [0.0])


def test_projection_is_idempotent_and_feasible():
    A = closure_matrix()
    for _ in range(10):
        v = RNG.normal(size=N_FREE)
        p = closure_project(v)
        assert np.max(np.abs(A @ p)) <= 1e-12
        assert np.allclose(closure_project(p), p, atol=1e-13)
    # already-feasible vectors are fixed points
    assert np.allclose(closure_project(REF_V), REF_V, atol=1e-13)


def test_nullspace_orthonormal_and_in_kernel():
    N = closure_nullspace()
    assert N.shape == (N_FREE, N_FREE - 2)
    assert np.allclose(N.T @ N, np.eye(N_FREE - 2), atol=1e-13)
    assert np.max(np.abs(closure_matrix() @ N)) <= 1e-13


def test_step_from_halfvalues_reference_identity():
    q = step_from_halfvalues(REF_V)
    ref = reference_step_function()
    assert np.allclose(q.values, ref.values, atol=0)
    with pytest.raises(ValueError, match="values"):
        step_from_halfvalues(REF_V[:5])
    with pytest.raises(StepFunctionError, match=r"value\[3\]=nan is not finite"):
        step_from_halfvalues(np.where(np.arange(N_FREE) == 3, np.nan, REF_V))


def test_c2_net_builds_no_validated_profile(monkeypatch):
    """c2_net puts the probe on its template's break set without
    ``make_step_function``, and its value is bit-identical to that of the
    validated profile: 48 seeded probes on the reference and uniform
    12/36/48 intervals, series1 and series2."""
    rng = np.random.default_rng(5)
    probes = []
    for template in (None, UNIFORM_12, uniform_zero_profile(36), uniform_zero_profile(48)):
        n_free = (template or reference_step_function()).n_intervals // 2
        for mode in ("series1", "series2"):
            probes += [(rng.standard_normal(n_free), rng.standard_normal(2), mode, template)
                       for _ in range(6)]
    profiles = count_calls(monkeypatch, stepfn, "make_step_function")
    got = [c2_net(v, shift, mode, template=template) for v, shift, mode, template in probes]
    assert profiles == []
    for (v, shift, mode, template), c2 in zip(probes, got):
        vp = closure_project(v, template)
        fracs = (template or reference_step_function()).break_fractions
        q = make_step_function(fracs, np.concatenate([vp, -vp]))
        assert c2 == series_net_coefficient(q, mode, shift)


@pytest.mark.parametrize("mode, shift", [("series2", (math.inf, 0.0)),
                                         ("exact2", (math.nan, 0.0))])
def test_c2_net_refuses_a_non_finite_shift(mode, shift):
    """A non-finite shift is refused before any cut is read, in the closed
    form and in the clipped-area fit."""
    v = closure_project(np.ones(N_FREE))
    with pytest.raises(ValueError, match="shift must be a list of two finite numbers"):
        c2_net(v, shift, mode)


def test_c2_net_reference_point():
    got = c2_net(REF_V, (SHIFT_X, SHIFT_Y), "series2")
    assert got == pytest.approx(series_net_coefficient(mode="series2"), abs=1e-12)


def test_c2_net_exact_mode_is_the_headline_fit():
    got = c2_net(REF_V, (SHIFT_X, SHIFT_Y), "exact2")
    assert got == pytest.approx(-0.004416796094533, abs=1e-9)


def test_zero_profile_gives_zero():
    assert c2_net(np.zeros(N_FREE), (0.0, 0.0), "series2") == pytest.approx(
        0.0, abs=1e-12
    )


def test_form_matrix_symmetric(form):
    assert form.matrix.shape == (N_VARS - 2, N_VARS - 2)
    assert np.max(np.abs(form.matrix - form.matrix.T)) <= 1e-15
    assert np.max(np.abs(form.hessian - form.hessian.T)) <= 1e-15


def test_form_reproduces_functional(form):
    """Oracle: the form value equals the directly evaluated coefficient
    for random feasible points (the functional is exactly quadratic)."""
    for _ in range(20):
        v = closure_project(RNG.normal(scale=0.2, size=N_FREE))
        shifts = RNG.normal(scale=0.2, size=2)
        direct = c2_net(v, shifts, "series2")
        assert form.value(v, shifts) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("template", [None, UNIFORM_12], ids=["reference", "uniform12"])
def test_form_builds_no_body(monkeypatch, mode, template):
    """Every mode reads the form off the cap terms in closed form: no
    c2_net call, no body is built or moved, and no profile is built per
    column; the form contracts the break set's cut model."""
    c2_calls = count_calls(monkeypatch, ansatz, "c2_net")
    bodies = count_calls(monkeypatch, body_module, "build_body")
    copies = count_calls(monkeypatch, body_module, "transform")
    profiles = count_calls(monkeypatch, stepfn, "make_step_function")
    form = assemble_quadratic_form(mode, template=template)
    assert form.matrix.shape[0] == (12 if template is None else 6)
    assert c2_calls == bodies == copies == profiles == []


def _direct_form(mode, template):
    """The form read straight off ``class_cuts`` at its basis columns: step
    values (N; -N) over the two half-turns, then the shift columns."""
    basis = assemble_quadratic_form(mode, template=template).basis
    q = np.concatenate([basis[:-2], -basis[:-2]])
    gram, _, p_ex, p_ee = class_cuts(template.breaks, q, basis[-2:].T)
    matrix = gram - pair_envelope(p_ex, p_ee, mode in TILT_MODES)[1]
    return 0.5 * (matrix + matrix.T)


FORM_TEMPLATES = {
    "reference": [reference_step_function()],
    "q36": [q36_profile()],
    "uniform": [uniform_zero_profile(n) for n in range(12, 289, 12)],
    "seeded-24": [seeded_break_set(24, s) for s in range(20)],
}


@pytest.mark.parametrize("mode", SERIES_MODES)
@pytest.mark.parametrize("name", FORM_TEMPLATES)
def test_form_contraction_is_the_direct_read(name, mode):
    """The form, a contraction of the cached cut model over (v, shift), is
    a direct ``class_cuts`` read at its basis columns within
    1e-14 ||F||_F, with the same signature, with and without the tilt."""
    for template in FORM_TEMPLATES[name]:
        form = assemble_quadratic_form(mode, template=template).matrix
        direct = _direct_form(mode, template)
        assert np.max(np.abs(form - direct)) <= 1e-14 * np.linalg.norm(direct)
        assert signature_of(np.linalg.eigvalsh(form)) == signature_of(np.linalg.eigvalsh(direct))


def test_form_and_probes_read_the_cut_model_once_per_break_set(monkeypatch):
    """On a fresh break set the form runs ``class_cuts`` once, and neither
    the form again, in either tilt mode, nor a ``c2_net`` batch on that
    break set runs it again: all contract the one cached cut model."""
    lattice._cut_model.cache_clear()
    reads = count_calls(monkeypatch, lattice, "class_cuts")
    template = seeded_break_set(24, 7)
    assemble_quadratic_form("series2", template=template)
    assert len(reads) == 1
    rng = np.random.default_rng(2)
    for mode in SERIES_MODES:
        assemble_quadratic_form(mode, template=template)
        for _ in range(8):
            c2_net(rng.standard_normal(12), rng.standard_normal(2), mode, template=template)
    assert len(reads) == 1
    assert lattice._cut_model.cache_info().misses == 1


def test_unknown_form_mode_is_rejected():
    with pytest.raises(ValueError, match=r"mode must be one of \('series1'"):
        assemble_quadratic_form("bogus")


def test_form_reproduces_functional_to_rounding(form):
    """The series functional is exactly quadratic and the form is its closed
    form: they match to rounding of the form's largest value there."""
    rng = np.random.default_rng(11)
    norm = np.linalg.norm(form.hessian / 2.0, 2)
    for _ in range(20):
        v = closure_project(rng.normal(scale=0.2, size=N_FREE))
        shifts = rng.normal(scale=0.2, size=2)
        scale = norm * (v @ v + shifts @ shifts)
        assert abs(form.value(v, shifts) - c2_net(v, shifts, "series2")) <= 1e-12 * scale
    ref = form.value(REF_V, (SHIFT_X, SHIFT_Y))
    assert ref == pytest.approx(series_net_coefficient(mode="series2"), abs=1e-12)


def test_form_sizes_come_from_the_template():
    """A 12-interval form is (6, 6); its values are c2_net to rounding."""
    template = make_step_function([Fraction(i, 6) for i in range(13)], np.zeros(12))
    form = assemble_quadratic_form("series2", template=template)
    assert form.matrix.shape == (6, 6)
    assert form.basis.shape == form.hessian.shape[:1] + (6,) == (8, 6)
    report = eigen_signature(form)
    assert report.signature == (0, 0, 6)
    assert report.top_value == pytest.approx(-1.023e-2, rel=1e-3)
    assert report.top_v.shape == (6,) and report.top_shift.shape == (2,)
    rng = np.random.default_rng(3)
    norm = np.linalg.norm(form.hessian / 2.0, 2)
    for _ in range(20):
        v = closure_project(rng.normal(scale=0.2, size=6), template)
        shifts = rng.normal(scale=0.2, size=2)
        direct = c2_net(v, shifts, "series2", template=template)
        scale = norm * (v @ v + shifts @ shifts)
        assert abs(form.value(v, shifts) - direct) <= 1e-12 * scale


@pytest.mark.parametrize("n", [48, 96])
def test_c2_net_probes_are_the_form_on_wide_caps(n):
    """24 seeded series2 ``c2_net`` probes on uniform 48 and 96, break sets
    with caps over three or more arcs and null directions, each equal the
    form's value at the closure-projected point to 1e-8 ||H/2|| |u|^2, the
    rule the benchmark's probe batch is checked by."""
    template = uniform_zero_profile(n)
    form = assemble_quadratic_form(template=template)
    norm = np.linalg.norm(form.hessian / 2.0, 2)
    rng = np.random.default_rng(n)
    for _ in range(24):
        v = rng.standard_normal(n // 2)
        v /= np.max(np.abs(closure_project(v, template)))
        shift = rng.standard_normal(2)
        vp = closure_project(v, template)
        want = form.value(vp, shift)
        got = c2_net(v, shift, "series2", template=template)
        assert abs(got - want) <= 1e-8 * norm * (vp @ vp + shift @ shift)


@pytest.mark.parametrize("template", [TWO, FOUR], ids=["two", "four"])
def test_small_break_sets_give_the_shift_form(template):
    """On two and four intervals the closure null space is empty: every mode
    gives a 2 x 2 form on the shifts, and the series forms are c2_net."""
    rng = np.random.default_rng(5)
    for mode in ("series1", "series2"):
        form = assemble_quadratic_form(mode, template=template)
        assert form.matrix.shape == (2, 2)
        assert form.basis.shape == (template.n_intervals // 2 + 2, 2)
        norm = np.linalg.norm(form.hessian / 2.0, 2)
        for _ in range(10):
            v = rng.normal(size=template.n_intervals // 2)
            shifts = rng.normal(scale=0.2, size=2)
            direct = c2_net(v, shifts, mode, template=template)
            assert abs(form.value(closure_project(v, template), shifts) - direct) <= (
                1e-13 * norm * (shifts @ shifts)
            )
        assert eigen_signature(form).signature == (0, 0, 2)
    assert assemble_quadratic_form("exact2", template=template).matrix.shape == (2, 2)


def fd_form_matrix(form):
    """Test-only reference: central-difference Hessian of c2_net over the
    14 coordinates, restricted to the form's basis."""
    def f(u):
        return c2_net(u[:N_FREE], u[N_FREE:], "series2")

    e = FD_STEP * np.eye(N_VARS)
    H = np.empty((N_VARS, N_VARS))
    for i in range(N_VARS):
        for j in range(i, N_VARS):
            H[i, j] = H[j, i] = (
                f(e[i] + e[j]) - f(e[i] - e[j]) - f(e[j] - e[i]) + f(-e[i] - e[j])
            ) / (4.0 * FD_STEP**2)
    return form.basis.T @ (H / 2.0) @ form.basis


def test_form_matches_finite_differences(form):
    assert np.max(np.abs(form.matrix - fd_form_matrix(form))) <= 1e-8


def test_form_hessian_is_the_matrix_on_the_basis(form):
    assert np.allclose(form.basis.T @ (form.hessian / 2.0) @ form.basis, form.matrix,
                       rtol=0, atol=1e-14)
    assert not hasattr(form, "fd_step")


def test_exact2_form_agrees_with_series2(form):
    """The mode decides only the tilt: exact1/exact2 give the series1/series2
    form on every break set, narrow caps included."""
    assert np.array_equal(assemble_quadratic_form("exact2").matrix, form.matrix)
    rng = np.random.default_rng(23)
    seeded = [seeded_profile(rng) for _ in range(10)]
    for template in [UNIFORM_12, TWO, FOUR, q36_profile()] + seeded:
        for tilt in "12":
            series = assemble_quadratic_form("series" + tilt, template=template)
            exact = assemble_quadratic_form("exact" + tilt, template=template)
            assert np.array_equal(exact.matrix, series.matrix)


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
def test_exact_form_is_the_refined_fit_on_q36(mode):
    """Oracle where every cap covers four arcs: the form value at the q36
    profile and the reference shift against the exact fit on the grid
    DEFAULT_FIT_EPS / 8, which is within 5.1e-9 of it (the full grid is
    2.2e-5 off, and the gap shrinks as h^4)."""
    q = q36_profile()
    form = assemble_quadratic_form(mode, template=q)
    got = form.value(q.values[: q.n_intervals // 2], default_config())
    fit = fit_net_coefficient(mode, [e / 8 for e in DEFAULT_FIT_EPS], q=q)
    assert abs(got - fit.c2) <= 1e-8


def test_uniform_48_null_directions_hide_under_the_caps():
    """Uniform 48 reads (0, 6, 18): 12 arcs of the half-turn lie wholly
    under a cap, and each null direction changes the profile only there
    (with the shift that cancels the translation it causes)."""
    template = uniform_zero_profile(48)
    form = assemble_quadratic_form("exact2", template=template)
    assert eigen_signature(form).signature == (0, 6, 18)
    vals, vecs = jacobi_eigh(form.matrix)
    null_v = (form.basis @ vecs[:, np.abs(vals) <= ZERO_EIGENVALUE_TOL])[:-2]
    phi_c = croft_constants().phi_c
    lo, hi = template.breaks[:24], template.breaks[1:25]
    cut = PSI * np.round(0.5 * (lo + hi) / PSI)  # the nearest cut angle
    under = (lo >= cut - phi_c) & (hi <= cut + phi_c)
    assert np.count_nonzero(under) == 12
    assert np.max(np.abs(null_v[~under])) <= 1e-10
    assert np.min(np.max(np.abs(null_v[under]), axis=0)) > 0.1


def test_null_count_is_the_arcs_under_each_cap_less_two():
    """On 120 seeded break sets (n = 24, 48, 96, seeds 0-39) the exact2 form
    has sum_c max(0, m_c - 2) null eigenvalues, m_c the arcs wholly under cap
    c of a half-turn.  Seed 0 on 24 intervals covers (0, 3, 2) arcs and has
    one null, where "covered arcs less six" would give none."""
    assert arcs_under_caps(seeded_break_set(24, 0)) == [0, 3, 2]
    for n in (24, 48, 96):
        for seed in range(40):
            template = seeded_break_set(n, seed)
            vals = np.linalg.eigvalsh(assemble_quadratic_form("exact2", template=template).matrix)
            nulls = int(np.count_nonzero(np.abs(vals) <= ZERO_EIGENVALUE_TOL))
            expected = sum(max(0, m - 2) for m in arcs_under_caps(template))
            assert nulls == expected, (n, seed)


@pytest.mark.parametrize(
    "template",
    [uniform_zero_profile(48), seeded_break_set(24, 0)],
    ids=["uniform48", "seeded24"],
)
def test_null_direction_is_neutral_at_finite_eps(template):
    """A null direction of the exact2 form, scaled to max |v| = 1 with its
    shift, leaves the exact2 cut-body area at its eps = 0 value to rounding
    up to eps = 0.15, while the body area moves: the caps take the whole
    change, so a null direction gains nothing at higher order either."""
    form = assemble_quadratic_form("exact2", template=template)
    vals, vecs = np.linalg.eigh(form.matrix)
    null = form.basis @ vecs[:, np.flatnonzero(np.abs(vals) <= ZERO_EIGENVALUE_TOL)[0]]
    null /= np.max(np.abs(null[:-2]))
    q, shift = step_from_halfvalues(null[:-2], template), null[-2:]
    base = tortoise_area(0.0, "exact2", q=q, shift=shift)
    for eps in (0.01, 0.05, 0.1, 0.15):
        rec = tortoise_area(eps, "exact2", q=q, shift=shift)
        assert abs(rec.tortoise_area - base.tortoise_area) <= 1e-15
    assert abs(rec.body_area - base.body_area) > 1e-6


def _cap_differences(q, shift, h):
    """Test-only reference: per cap j, central first and second differences
    in eps of the area and first differences of its c- and theta-derivative,
    of ``halfplane_clip_area`` on the placed copy showing it, at the cap line
    of ``stripe_caps(0, 0)``."""
    clips = {}
    for eps in (-h, 0.0, h):
        body = build_body(q, eps)
        for k in range(3):
            caps = stripe_caps(0.0, 0.0)
            copies = (place_copy(body, c, p, shift) for c, p in edge_ends(k))
            for side, (copy, (n, c, _, _)) in enumerate(zip(copies, caps)):
                clips[eps, 2 * k + side] = halfplane_clip_area(copy, n, c)
    out = []
    for j in range(6):
        lo, mid, hi = clips[-h, j], clips[0.0, j], clips[h, j]
        out.append([
            (hi.area - lo.area) / (2.0 * h),
            (hi.area - 2.0 * mid.area + lo.area) / h**2,
            (hi.grad[0] - lo.grad[0]) / (2.0 * h),
            (hi.grad[1] - lo.grad[1]) / (2.0 * h),
        ])
    return np.array(out)


def _wide_cap_profiles(count):
    """Seeded closure-projected profiles, each with a seeded shift, whose
    breaks all lie at least 0.01 from every cap end j*pi/3 +- phi_c."""
    rng = np.random.default_rng(13)
    phi_c = croft_constants().phi_c
    ends = np.array([j * PSI + side * phi_c for j in range(7) for side in (-1, 1)])
    out = []
    while len(out) < count:
        p = seeded_profile(rng)
        if np.min(np.abs(p.breaks[:, None] - ends)) < 0.01:
            continue
        v = closure_project(p.values[: p.n_intervals // 2], p)
        out.append((step_from_halfvalues(v, p), tuple(rng.normal(size=2))))
    return out


def test_cap_derivatives_match_clip_differences():
    """Every cap's A_e, A_ee, A_ec and A_et against the Richardson limit of
    central differences at eps = 1e-3 and 5e-4, to 1e-6 of the largest cap
    term: the reference, q36 (caps over four arcs) and seeded profiles."""
    profiles = [(reference_step_function(), default_config()),
                (q36_profile(), default_config())] + _wide_cap_profiles(4)
    for q, shift in profiles:
        q_col = q.values[:, None]
        a_e, a_ee, a_ec, a_et = cap_area_derivatives(
            q.breaks, q_col, [shift], center_offsets(q.breaks, q_col))
        closed = np.stack([a_e[:, 0], a_ee[:, 0, 0], a_ec[:, 0], a_et[:, 0]], axis=1)
        fine, coarse = (_cap_differences(q, shift, h) for h in (5e-4, 1e-3))
        limit = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(limit - closed)) <= 1e-6 * np.max(np.abs(closed))


def test_pair_curvature_is_the_unit_disc_clip_hessian():
    """P_xx = diag(2d, 2(l + b)) of the cut-area Gram is ``pair_clip_area``'s
    Hessian in (s, delta) on two unit discs at (0, 0)."""
    sc = series_coefficients()
    disc = build_body(zero_step_function(), 0.0)
    motions = [copy_motion(c, p, 0.0, (0.0, 0.0)) for c, p in edge_ends(0)]
    hess = pair_clip_area(disc, motions, 0.0, 0.0).hess
    want = np.diag([2.0 * sc.d, 2.0 * (sc.l + sc.b)])
    assert np.allclose(hess, want, rtol=0, atol=1e-12)


def test_jacobi_matches_library_solver():
    for n in (3, 8, 12):
        A = RNG.normal(size=(n, n))
        A = A + A.T
        vals, vecs = jacobi_eigh(A)
        ref_vals, _ = np.linalg.eigh(A)
        assert np.allclose(vals, ref_vals[::-1], atol=1e-12)
        # residual and orthonormality
        resid = np.max(np.abs(A @ vecs - vecs @ np.diag(vals)))
        assert resid <= 1e-12 * np.linalg.norm(A)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_jacobi_residual_does_not_depend_on_test_order(scale):
    """The stopping test must resolve the off-diagonal norm (on the third of
    these matrices a norm taken as sqrt(sum A^2 - sum diag^2) cancels and
    stopped early, at residual 1.8e-10 |A|) and scale with the matrix."""
    rng = np.random.default_rng(7)
    for n in (3, 8, 12):
        A = rng.normal(size=(n, n))
        A = scale * (A + A.T)
        vals, vecs = jacobi_eigh(A)
        resid = np.max(np.abs(A @ vecs - vecs @ np.diag(vals)))
        assert resid <= 1e-14 * np.linalg.norm(A)
        assert np.allclose(vals, np.linalg.eigvalsh(A)[::-1], rtol=0, atol=1e-13 * scale)


def test_jacobi_known_signatures():
    vals, _ = jacobi_eigh(np.diag([3.0, -1.0, 0.5]))
    assert np.allclose(vals, [3.0, 0.5, -1.0])
    vals, _ = jacobi_eigh(np.eye(4))
    assert np.allclose(vals, 1.0)


def test_eigen_signature_all_negative(form):
    report = eigen_signature(form)
    assert isinstance(report, EigenReport)
    assert report.signature == (0, 0, N_VARS - 2)
    assert not report.improves
    assert report.top_value == pytest.approx(report.eigenvalues[0], abs=0)
    assert report.eigenvalues[0] < 0
    # top direction normalized by its largest profile entry
    assert np.max(np.abs(report.top_v)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, top", [(48, -1.43565e-4), (72, -4.8187e-5)])
def test_top_direction_skips_null_directions(n, top):
    """Uniform 48 and 72 have null directions (eigenvalues ~1e-17, zero
    to rounding); the top direction is that of the largest eigenvalue
    outside +-ZERO_EIGENVALUE_TOL, and the form's value there is that
    eigenvalue times its squared length."""
    form = assemble_quadratic_form("series2", template=uniform_zero_profile(n))
    report = eigen_signature(form)
    assert report.signature[1] > 0
    assert report.top_value == pytest.approx(top, rel=1e-4)
    nonzero = report.eigenvalues[np.abs(report.eigenvalues) > ZERO_EIGENVALUE_TOL]
    assert report.top_value == nonzero[0]
    length2 = report.top_v @ report.top_v + report.top_shift @ report.top_shift
    assert form.value(report.top_v, report.top_shift) == pytest.approx(
        report.top_value * length2, rel=1e-8
    )


def test_top_direction_of_a_zero_form_is_the_first():
    zero = ansatz.QuadraticForm(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)))
    report = eigen_signature(zero)
    assert report.signature == (0, 3, 0)
    assert report.top_value == 0.0
    assert not report.improves


def test_eigenvalue_residual(form):
    report = eigen_signature(form)
    for vals, vecs in (jacobi_eigh(form.matrix), (report.eigenvalues, report.eigenvectors)):
        resid = np.max(np.abs(form.matrix @ vecs - vecs @ np.diag(vals)))
        assert resid <= 1e-10 * np.linalg.norm(form.matrix)


@pytest.mark.parametrize(
    "template",
    [None, TWO] + [uniform_zero_profile(n) for n in (36, 48, 96)]
    + [seeded_break_set(n, seed) for n in (24, 48) for seed in range(5)],
    ids=["reference", "two", "uniform36", "uniform48", "uniform96"]
    + [f"seeded{n}-{seed}" for n in (24, 48) for seed in range(5)],
)
def test_eigen_signature_agrees_with_jacobi(template):
    """LAPACK's eigenvalues are Jacobi's to EIGEN_REFERENCE_TOL of the form's
    Frobenius norm, with the same signature, null count included."""
    form = assemble_quadratic_form("series2", template=template)
    report = eigen_signature(form)
    vals, _ = jacobi_eigh(form.matrix)
    assert np.max(np.abs(report.eigenvalues - vals)) <= (
        EIGEN_REFERENCE_TOL * np.linalg.norm(form.matrix)
    )
    assert report.signature == ansatz.signature_of(vals)


def test_eigen_signature_runs_no_jacobi_sweep(monkeypatch):
    """Uniform 288 reads (0, 66, 78) with ``jacobi_eigh`` unavailable."""

    def no_jacobi(A):
        raise AssertionError("jacobi_eigh called")

    monkeypatch.setattr(ansatz, "jacobi_eigh", no_jacobi)
    form = assemble_quadratic_form("series2", template=uniform_zero_profile(288))
    assert eigen_signature(form).signature == (0, 66, 78)


def test_top_gap_is_the_distance_to_the_nearest_eigenvalue(form):
    """3.83e-6 on the reference; a zero form's top eigenvalue has a twin."""
    report = eigen_signature(form)
    assert report.top_gap == pytest.approx(3.83e-6, rel=1e-3)
    assert report.top_gap == report.eigenvalues[0] - report.eigenvalues[1]
    zero = ansatz.QuadraticForm(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)))
    assert eigen_signature(zero).top_gap == 0.0


def test_top_direction_cannot_improve(form):
    """Even along the best direction the second-order coefficient stays
    negative when evaluated directly on the functional."""
    report = eigen_signature(form)
    scale = 0.1 / np.max(np.abs(report.top_v))
    got = c2_net(report.top_v * scale, report.top_shift * scale, "series2")
    assert got < 0
