"""Quadratic form of the second-order density gain over profile space.

A candidate profile on n intervals (24 on the reference profile) is n/2
free step values v (the other n/2 follow by half-turn antisymmetry) plus
the 2 shift components, a plain pair.  The arc chain closes iff A v = 0,
with A read off the arc chords of ``body`` (``closure_matrix``); the form
lives on the null space of A plus the shifts, so its size is the
null-space dimension + 2 (10 + 2 on the reference, 0 + 2 on {0, pi}).
The eps^2 coefficient of the cut-body area is an exactly quadratic
function of these variables in the series modes, where this module reads
its matrix on the constraint subspace off the linear cut data (one body
per basis column); the exact modes assemble it by polarization.  A
self-contained Jacobi sweep diagonalizes it, so the best direction and
the signature do not depend on a library eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .body import _arc_sweeps, body_area_gram
from .segments import pair_area_gram
from .stepfn import StepFunction, make_step_function, reference_step_function
from .tortoise import (
    SERIES_MODES,
    _unit_cuts,
    fit_net_coefficient,
    require_single_arc_caps,
    series_net_coefficient,
)

# Sizes on the reference profile; the form takes its own from the template.
N_FREE = 12
N_VARS = 14  # 12 step values + 2 shift components
ZERO_EIGENVALUE_TOL = 1e-10
# Jacobi stops once the off-diagonal norm is below JACOBI_OFF_TOL times the
# matrix norm and fails after JACOBI_MAX_SWEEPS sweeps.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


def step_from_halfvalues(v, template: StepFunction | None = None) -> StepFunction:
    """Profile with first-half values ``v`` and the antipodal negation."""
    if template is None:
        template = reference_step_function()
    v = np.asarray(v, dtype=float)
    if len(v) * 2 != template.n_intervals:
        raise ValueError(
            f"expected {template.n_intervals // 2} values, got {len(v)}"
        )
    return make_step_function(
        template.break_fractions, np.concatenate([v, -v])
    )


def closure_matrix(template: StepFunction | None = None) -> np.ndarray:
    """(2, n/2) matrix A with A v = 0 iff the arc chain closes.

    The chain's gap is -du^T q (``body.chain_closure_residual``), and the
    antipodal arc of arc i has chord -du_i, so A = -2 du[:n/2]^T.  Built
    once per break set and returned read-only.
    """
    if template is None:
        template = reference_step_function()
    return _closure_matrix(tuple(template.breaks))


@lru_cache(maxsize=64)  # bounded for sweeps over many break sets
def _closure_matrix(breaks: tuple[float, ...]) -> np.ndarray:
    _, du = _arc_sweeps(np.array(breaks))
    A = -2.0 * du[: len(du) // 2].T
    A.setflags(write=False)
    return A


def closure_nullspace(template: StepFunction | None = None) -> np.ndarray:
    """Orthonormal basis (n/2, n/2 - rank A) of the closure subspace.

    The rank is 2 on every break set with at least four intervals and 1 on
    {0, pi}.  Built once per break set and returned read-only.
    """
    if template is None:
        template = reference_step_function()
    return _closure_nullspace(tuple(template.breaks))


@lru_cache(maxsize=64)
def _closure_nullspace(breaks: tuple[float, ...]) -> np.ndarray:
    A = _closure_matrix(breaks)
    N = np.linalg.svd(A)[2][np.linalg.matrix_rank(A) :].T.copy()
    N.setflags(write=False)
    return N


def closure_project(v, template: StepFunction | None = None) -> np.ndarray:
    """Orthogonal projection N N^T v of ``v`` onto the closure subspace."""
    N = closure_nullspace(template)
    return N @ (N.T @ np.asarray(v, dtype=float))


def c2_net(
    v,
    shifts=(0.0, 0.0),
    mode: str = "series2",
    *,
    template: StepFunction | None = None,
) -> float:
    """Second-order density-gain coefficient of a candidate profile.

    ``v`` is projected onto the closure subspace before evaluation, so
    the functional is defined (and exactly quadratic, in series modes)
    on all of R^(n/2) x R^2.
    """
    q = step_from_halfvalues(closure_project(v, template), template)
    if mode in SERIES_MODES:
        return series_net_coefficient(q, mode, shifts)
    return fit_net_coefficient(mode, q=q, shift=shifts).c2


@dataclass(frozen=True)
class QuadraticForm:
    """The density-gain form restricted to the constraint subspace.

    ``basis`` is the (n/2 + 2, m) block diagonal diag(N, I_2) of the closure
    null space N and the two shifts, so m = N.shape[1] + 2 (12 on the
    reference); its rows are (v, shift).  ``matrix`` is the (m, m) form on
    those columns, whose values are the c2 coefficients; ``hessian`` =
    2 basis matrix basis^T is the (n/2 + 2, n/2 + 2) second-derivative
    matrix over (v, shifts).
    """

    matrix: np.ndarray
    basis: np.ndarray
    hessian: np.ndarray
    mode: str

    def value(self, v, shifts=(0.0, 0.0)) -> float:
        """Form value u^T (H/2) u at a full-coordinate point."""
        u = np.concatenate([np.asarray(v, dtype=float), np.asarray(shifts, dtype=float)])
        return float(u @ self.hessian @ u) / 2.0


# Polarization probe length t of the exact modes.  c2 is homogeneous of
# degree two (a profile scaled by t is the family at t*eps), so t cancels
# but for the fit: exact2 differs from series2 by 6e-5 at t = 0.1, 7e-9 at
# 1e-2, 9e-7 at 1e-3, and at t = 1 the shift probes move cut lines off the
# body.
POLARIZATION_SCALE = {"exact1": 1e-2, "exact2": 1e-2}


def _series_matrix(basis: np.ndarray, mode: str, template: StepFunction) -> np.ndarray:
    """Series form on ``basis``, read off the linear cut data.

    c2_net is the body-area coefficient minus the summed even parts of the
    three pair areas at the unit cuts c_k, and c_k is linear in (v, shift):
    with J_k the (6, m) cuts of the m basis columns and M the pair-area
    Gram, the form is the body-area Gram of the column profiles minus
    sum_k J_k^T M J_k.  One body per column.
    """
    profiles = [step_from_halfvalues(b[:-2], template) for b in basis.T]
    cuts = np.array([
        [astuple(c) for c in _unit_cuts(q, b[-2:])] for q, b in zip(profiles, basis.T)
    ])  # (column, class, cut coordinate)
    gram = pair_area_gram(mode == "series2")
    matrix = body_area_gram(profiles)
    for jac in cuts.transpose(1, 2, 0):
        matrix -= jac.T @ gram @ jac
    return 0.5 * (matrix + matrix.T)


def _polarized_matrix(basis: np.ndarray, mode: str, template: StepFunction) -> np.ndarray:
    """Form on ``basis`` by polarization of ``c2_net`` at probe length t."""
    t = POLARIZATION_SCALE[mode]

    def f(u):
        return c2_net(t * u[:-2], t * u[-2:], mode, template=template) / (t * t)

    diag = [f(b) for b in basis.T]
    matrix = np.diag(diag)
    m = len(diag)
    for i in range(m):
        for j in range(i + 1, m):
            matrix[i, j] = matrix[j, i] = 0.5 * (
                f(basis[:, i] + basis[:, j]) - diag[i] - diag[j]
            )
    return matrix


def assemble_quadratic_form(
    mode: str = "series2", *, template: StepFunction | None = None
) -> QuadraticForm:
    """The c2 form of ``mode`` on the closure subspace plus the shifts.

    The series modes read it off the linear cut data: one probe per basis
    column, exact up to rounding (``require_single_arc_caps`` first).  The
    exact modes polarize ``c2_net`` at probe length t, with orthonormal
    basis columns b_i and f = ``c2_net``:
    matrix[i, i] = f(t b_i) / t^2 and
    matrix[i, j] = (f(t (b_i + b_j)) - f(t b_i) - f(t b_j)) / (2 t^2),
    78 evaluations for 12 columns.  The columns are the closure null space
    and the two shifts, so the form is 2 x 2 on the break set {0, pi}.
    """
    if template is None:
        template = reference_step_function()
    N = closure_nullspace(template)
    n_half, n_null = N.shape
    basis = np.zeros((n_half + 2, n_null + 2))
    basis[:n_half, :n_null] = N
    basis[n_half:, n_null:] = np.eye(2)
    if mode in SERIES_MODES:
        require_single_arc_caps(template)
        matrix = _series_matrix(basis, mode, template)
    else:
        matrix = _polarized_matrix(basis, mode, template)
    hessian = 2.0 * basis @ matrix @ basis.T
    hessian = 0.5 * (hessian + hessian.T)
    return QuadraticForm(matrix=matrix, basis=basis, hessian=hessian, mode=mode)


# ---------------------------------------------------------------------------
# Self-contained cyclic Jacobi eigensolver


def jacobi_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps 2x2 rotations over all off-diagonal entries until their
    Frobenius norm drops below JACOBI_OFF_TOL times that of the whole
    matrix, which the rotations keep.  Returns (eigenvalues,
    eigenvectors) sorted in descending eigenvalue order, eigenvectors in
    columns.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    n = A.shape[0]
    V = np.eye(n)
    tol = JACOBI_OFF_TOL * float(np.linalg.norm(A))
    for _ in range(JACOBI_MAX_SWEEPS):
        if np.linalg.norm(A - np.diag(np.diag(A))) <= tol:
            break
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                apq = A[p, q_]
                if abs(apq) <= tol / (n * n):
                    continue
                theta = 0.5 * (A[q_, q_] - A[p, p]) / apq
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q_]
                rot_q = s * A[:, p] + c * A[:, q_]
                A[:, p], A[:, q_] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q_, :]
                rot_q = s * A[p, :] + c * A[q_, :]
                A[p, :], A[q_, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q_]
                rot_q = s * V[:, p] + c * V[:, q_]
                V[:, p], V[:, q_] = rot_p, rot_q
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    vals = np.diag(A).copy()
    order = np.argsort(vals)[::-1]
    return vals[order], V[:, order]


@dataclass(frozen=True)
class EigenReport:
    """Diagonalization of the density-gain form.

    ``signature`` counts (positive, zero, negative) eigenvalues; the top
    direction is mapped back to full coordinates and normalized so its
    largest step-value entry is +1.
    """

    eigenvalues: np.ndarray
    signature: tuple[int, int, int]
    top_value: float
    top_v: np.ndarray
    top_shift: np.ndarray

    @property
    def improves(self) -> bool:
        return self.signature[0] > 0


def eigen_signature(form: QuadraticForm) -> EigenReport:
    """Diagonalize the form and extract the best candidate direction."""
    vals, vecs = jacobi_eigh(form.matrix)
    n_pos = int(np.sum(vals > ZERO_EIGENVALUE_TOL))
    n_neg = int(np.sum(vals < -ZERO_EIGENVALUE_TOL))
    n_zero = len(vals) - n_pos - n_neg
    top = form.basis @ vecs[:, 0]
    v, shift = top[:-2], top[-2:]  # the last two basis rows are the shifts
    pivot = v[np.argmax(np.abs(v))]
    if pivot != 0.0:
        v = v / pivot
        shift = shift / pivot
    return EigenReport(
        eigenvalues=vals,
        signature=(n_pos, n_zero, n_neg),
        top_value=float(vals[0]),
        top_v=v,
        top_shift=shift,
    )
