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
from call_counts import count_calls

FD_STEP = 1e-3  # step of the test-only central-difference reference

RNG = np.random.default_rng(7)
REF_V = np.array(Q_VALUES[:N_FREE])
UNIFORM_12 = make_step_function([Fraction(i, 6) for i in range(13)], np.zeros(12))


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
