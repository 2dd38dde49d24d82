"""Quadratic form of the second-order density gain over profile space.

A candidate profile on n intervals (24 on the reference profile) is n/2
free step values v (the other n/2 follow by half-turn antisymmetry) plus
the 2 shift components, a plain pair.  The arc chain closes iff A v = 0,
with A read off the arc chords of ``body`` (``closure_matrix``); the form
lives on the null space of A plus the shifts, so its size is the
null-space dimension + 2 (10 + 2 on the reference, 0 + 2 on {0, pi}).
The eps^2 coefficient of the cut-body area is an exactly quadratic
function of these variables in every mode.  ``assemble_quadratic_form``
contracts the break set's cut model (``lattice._cut_model``), read off the
six caps of the body at eps = 0 in the form's own coordinates (v, shift),
with its basis columns, in one closed form for every mode and break set:
the same cut model the series modes minimize and every ``c2_net`` probe
contracts; the mode decides only the stripe tilt.  LAPACK
(``numpy.linalg.eigh``) diagonalizes it, checked against the reference
``jacobi_eigh``; the best direction skips null directions, which change
c2 by nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body import _unit_chords
from .lattice import _cut_model
from .segments import pair_envelope
from .stepfn import StepFunction, reference_step_function, require_finite
from .tortoise import MODES, SERIES_MODES, TILT_MODES, fit_net_coefficient, series_net_coefficient

N_FREE = 12  # free step values on the reference profile; a form sizes from its template
ZERO_EIGENVALUE_TOL = 1e-10
# Jacobi stops once the off-diagonal norm is below JACOBI_OFF_TOL times the
# matrix norm and fails after JACOBI_MAX_SWEEPS sweeps.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
EIGEN_REFERENCE_TOL = 1e-13  # |LAPACK - Jacobi| per eigenvalue, times ||F||_F


def step_from_halfvalues(v, template: StepFunction | None = None) -> StepFunction:
    """Profile with first-half values ``v`` and the antipodal negation, on
    the template's already checked break set; ``v`` needs only checking."""
    if template is None:
        template = reference_step_function()
    v = np.asarray(v, dtype=float)
    if len(v) * 2 != template.n_intervals:
        raise ValueError(f"expected {template.n_intervals // 2} values, got {len(v)}")
    require_finite(v)
    return StepFunction(template.breaks, np.concatenate([v, -v]), template.break_fractions)


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
    du = _unit_chords(breaks)
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

    def value(self, v, shifts=(0.0, 0.0)) -> float:
        """Form value u^T (H/2) u at a full-coordinate point."""
        u = np.concatenate([np.asarray(v, dtype=float), np.asarray(shifts, dtype=float)])
        return float(u @ self.hessian @ u) / 2.0


def assemble_quadratic_form(
    mode: str = "series2", *, template: StepFunction | None = None
) -> QuadraticForm:
    """The c2 form of ``mode`` on the closure subspace plus the shifts.

    The body-area Gram B of the basis columns minus the cut-area Gram, the
    eps^2 term 1/2 (P_ee - P_ex^T P_xx^-1 P_ex) of ``segments.pair_envelope``,
    both contractions of the break set's cached cut model
    (``lattice._cut_model``, over x = (v, shift), the rows of ``basis``)
    with the basis: basis^T G basis, P_ex basis and basis^T P_ee basis.  No
    body is built, no ``c2_net`` is called, and the mode decides only the
    stripe tilt (``TILT_MODES``).  The columns are the closure null space
    and the two shifts, so the form is 2 x 2 on {0, pi}.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if template is None:
        template = reference_step_function()
    N = closure_nullspace(template)
    basis = np.zeros((len(N) + 2, N.shape[1] + 2))
    basis[:-2, :-2], basis[-2:, -2:] = N, np.eye(2)
    gram, _, p_ex, p_ee = _cut_model(np.asarray(template.breaks, dtype=float).tobytes())
    envelope = pair_envelope(p_ex @ basis, basis.T @ p_ee @ basis, mode in TILT_MODES)[1]
    matrix = basis.T @ gram @ basis - envelope
    matrix = 0.5 * (matrix + matrix.T)
    hessian = 2.0 * basis @ matrix @ basis.T
    hessian = 0.5 * (hessian + hessian.T)
    return QuadraticForm(matrix=matrix, basis=basis, hessian=hessian)


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

    ``eigenvalues`` descend, ``eigenvectors`` are the matching columns and
    ``signature`` counts (positive, zero, negative) eigenvalues.  The top
    direction is mapped back to full coordinates and normalized so its
    largest step-value entry is +1.  Rounding turns it by about eps ||F|| /
    ``top_gap``, the distance from its eigenvalue to the nearest other one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    signature: tuple[int, int, int]
    top_value: float
    top_gap: float
    top_v: np.ndarray
    top_shift: np.ndarray

    @property
    def improves(self) -> bool:
        return self.signature[0] > 0


def signature_of(vals: np.ndarray) -> tuple[int, int, int]:
    """(positive, zero, negative) counts; zero is within ZERO_EIGENVALUE_TOL."""
    pos, neg = (int(np.sum(sign * vals > ZERO_EIGENVALUE_TOL)) for sign in (1, -1))
    return pos, len(vals) - pos - neg, neg


def eigen_signature(form: QuadraticForm) -> EigenReport:
    """Diagonalize the form (``numpy.linalg.eigh``) and extract the best direction.

    The top direction is that of the largest eigenvalue outside
    +-ZERO_EIGENVALUE_TOL: a null direction changes c2 by nothing, so it is
    no candidate.  Only when every eigenvalue is zero is it the first one.
    """
    vals, vecs = np.linalg.eigh(form.matrix)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending, as jacobi_eigh
    nonzero = np.flatnonzero(np.abs(vals) > ZERO_EIGENVALUE_TOL)
    i = int(nonzero[0]) if len(nonzero) else 0  # vals descend
    top = form.basis @ vecs[:, i]
    v, shift = top[:-2], top[-2:]  # the last two basis rows are the shifts
    pivot = v[np.argmax(np.abs(v))]
    if pivot != 0.0:
        v = v / pivot
        shift = shift / pivot
    return EigenReport(
        eigenvalues=vals,
        eigenvectors=vecs,
        signature=signature_of(vals),
        top_value=float(vals[i]),
        top_gap=float(np.min(np.abs(np.delete(vals, i) - vals[i]), initial=math.inf)),
        top_v=v,
        top_shift=shift,
    )
