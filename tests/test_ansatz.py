import math
from fractions import Fraction

import numpy as np
import pytest

from croft_forge import ansatz
from croft_forge import body as body_module
from croft_forge.ansatz import (
    N_FREE,
    N_VARS,
    EigenReport,
    assemble_quadratic_form,
    c2_net,
    closure_matrix,
    closure_nullspace,
    closure_project,
    eigen_signature,
    jacobi_eigh,
    step_from_halfvalues,
)
from croft_forge.reference import Q_VALUES, SHIFT_X, SHIFT_Y
from croft_forge.stepfn import make_step_function, reference_step_function
from croft_forge.tortoise import series_net_coefficient
from break_sets import seeded_profile
from call_counts import count_calls

FD_STEP = 1e-3  # step of the test-only central-difference reference

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


@pytest.mark.parametrize("mode", ["series1", "series2"])
@pytest.mark.parametrize("template", [None, UNIFORM_12], ids=["reference", "uniform12"])
def test_series_form_builds_one_body_per_column(monkeypatch, mode, template):
    """The series form reads the linear cut data of each basis column once:
    no c2_net call, one body and its six edge copies per column."""
    polarized = count_calls(monkeypatch, ansatz, "c2_net")
    bodies = count_calls(monkeypatch, body_module, "build_body")
    copies = count_calls(monkeypatch, body_module, "transform")
    form = assemble_quadratic_form(mode, template=template)
    n_free = form.matrix.shape[0]
    assert n_free == (12 if template is None else 6)
    assert polarized == []
    assert len(bodies) == n_free
    assert len(copies) == 6 * n_free


def test_form_reproduces_functional_to_rounding(form):
    """Polarization of an exactly quadratic functional is exact: the form
    matches direct evaluation to rounding of its largest value there."""
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
    exact = assemble_quadratic_form("exact2")
    report = eigen_signature(exact)
    assert report.signature == (0, 0, N_VARS - 2)
    series_vals = eigen_signature(form).eigenvalues
    assert np.max(np.abs(report.eigenvalues - series_vals)) <= 1e-7


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


def test_eigenvalue_residual(form):
    vals, vecs = jacobi_eigh(form.matrix)
    resid = np.max(np.abs(form.matrix @ vecs - vecs @ np.diag(vals)))
    assert resid <= 1e-10 * np.linalg.norm(form.matrix)


def test_top_direction_cannot_improve(form):
    """Even along the best direction the second-order coefficient stays
    negative when evaluated directly on the functional."""
    report = eigen_signature(form)
    scale = 0.1 / np.max(np.abs(report.top_v))
    got = c2_net(report.top_v * scale, report.top_shift * scale, "series2")
    assert got < 0
