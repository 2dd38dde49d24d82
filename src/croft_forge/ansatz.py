"""Quadratic form of the second-order density gain over profile space.

A candidate profile on n intervals (24 on the reference profile) is n/2
free step values (the other n/2 follow by half-turn antisymmetry) plus
the 2 shift components, subject to the two linear closure constraints of
the arc chain.  The eps^2 coefficient of the cut-body area is an exactly
quadratic function of these variables in the series modes; this module
assembles its matrix on the constraint subspace by polarization and
diagonalizes it with a self-contained Jacobi sweep, so the best direction
and the signature do not depend on a library eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body import croft_constants
from .lattice import LatticeConfig
from .stepfn import StepFunction, make_step_function, reference_step_function
from .tortoise import DEFAULT_FIT_EPS, fit_net_coefficient, series_net_coefficient

# Sizes on the reference profile; the form takes its own from the template.
N_FREE = 12
N_VARS = 14  # 12 step values + 2 shift components
ZERO_EIGENVALUE_TOL = 1e-10


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

    Built once per break set and returned read-only.
    """
    if template is None:
        template = reference_step_function()
    return _closure_matrix(tuple(template.breaks))


@lru_cache(maxsize=64)  # bounded for sweeps over many break sets
def _closure_matrix(breaks: tuple[float, ...]) -> np.ndarray:
    n = len(breaks) - 1
    half = n // 2
    A = np.zeros((2, half))
    for m in range(half):
        q = np.zeros(n)
        q[m], q[m + half] = 1.0, -1.0
        res = np.zeros(2)
        for i in range(n):
            phi = breaks[(i + 1) % n]
            dq = q[(i + 1) % n] - q[i]
            res += dq * np.array([math.cos(phi), math.sin(phi)])
        A[:, m] = res
    A.setflags(write=False)
    return A


def closure_project(v, template: StepFunction | None = None) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the closure subspace A v = 0."""
    A = closure_matrix(template)
    v = np.asarray(v, dtype=float)
    lam = np.linalg.solve(A @ A.T, A @ v)
    return v - A.T @ lam


def closure_nullspace(template: StepFunction | None = None) -> np.ndarray:
    """Orthonormal basis (n/2, n/2 - 2) of the closure subspace."""
    A = closure_matrix(template)
    _, s, vt = np.linalg.svd(A)
    return vt[len(s):].T


def c2_net(
    v,
    shifts=(0.0, 0.0),
    mode: str = "series2",
    *,
    template: StepFunction | None = None,
    fit_eps=DEFAULT_FIT_EPS,
) -> float:
    """Second-order density-gain coefficient of a candidate profile.

    ``v`` is projected onto the closure subspace before evaluation, so
    the functional is defined (and exactly quadratic, in series modes)
    on all of R^(n/2) x R^2.
    """
    vp = closure_project(v, template)
    q = step_from_halfvalues(vp, template)
    config = LatticeConfig(
        croft_constants().lattice_constant, (float(shifts[0]), float(shifts[1]))
    )
    if mode in ("series1", "series2"):
        return series_net_coefficient(q, mode, config=config)
    return fit_net_coefficient(mode, eps_values=fit_eps, q=q, config=config).c2


@dataclass(frozen=True)
class QuadraticForm:
    """The density-gain form restricted to the constraint subspace.

    ``basis`` has orthonormal columns spanning the closure subspace plus
    the shifts; ``matrix`` is the (n/2, n/2) form on those columns, whose
    values are the c2 coefficients; ``hessian`` = 2 basis matrix basis^T
    is the (n/2 + 2, n/2 + 2) second-derivative matrix over (v, shifts).
    """

    matrix: np.ndarray
    basis: np.ndarray
    hessian: np.ndarray
    mode: str

    def value(self, v, shifts=(0.0, 0.0)) -> float:
        """Form value u^T (H/2) u at a full-coordinate point."""
        u = np.concatenate([np.asarray(v, dtype=float), np.asarray(shifts, dtype=float)])
        return float(u @ self.hessian @ u) / 2.0


# Polarization probe length t.  c2 is homogeneous of degree two (a profile
# scaled by t is the family at t*eps), so t cancels in the series modes,
# whose absolute area rounding is smallest relative to c2 at t = 1.  The
# exact-mode fit trades eps^4 truncation against rounding: exact2 differs
# from series2 by 6e-5 at t = 0.1, 7e-9 at 1e-2, 9e-7 at 1e-3, and at t = 1
# the shift probes move cut lines off the body.
POLARIZATION_SCALE = {"series1": 1.0, "series2": 1.0, "exact1": 1e-2, "exact2": 1e-2}


def assemble_quadratic_form(
    mode: str = "series2", *, template: StepFunction | None = None
) -> QuadraticForm:
    """Build the form by polarization of the c2 functional on its basis.

    With f = ``c2_net`` and orthonormal basis columns b_i, the form is
    matrix[i, i] = f(t b_i) / t^2 and
    matrix[i, j] = (f(t (b_i + b_j)) - f(t b_i) - f(t b_j)) / (2 t^2),
    78 evaluations for 12 columns.  f is exactly quadratic in the series
    modes, so there the form is exact up to rounding.
    """
    if template is None:
        template = reference_step_function()
    t = POLARIZATION_SCALE[mode]
    n_free = template.n_intervals // 2

    def f(u):
        return c2_net(t * u[:n_free], t * u[n_free:], mode, template=template) / (t * t)

    null = closure_nullspace(template)  # (n_free, n_free - 2)
    basis = np.zeros((n_free + 2, n_free))
    basis[:n_free, : n_free - 2] = null
    basis[n_free, n_free - 2] = 1.0
    basis[n_free + 1, n_free - 1] = 1.0
    diag = [f(b) for b in basis.T]
    matrix = np.diag(diag)
    for i in range(n_free):
        for j in range(i + 1, n_free):
            matrix[i, j] = matrix[j, i] = 0.5 * (
                f(basis[:, i] + basis[:, j]) - diag[i] - diag[j]
            )
    hessian = 2.0 * basis @ matrix @ basis.T
    hessian = 0.5 * (hessian + hessian.T)
    return QuadraticForm(matrix=matrix, basis=basis, hessian=hessian, mode=mode)


# ---------------------------------------------------------------------------
# Self-contained cyclic Jacobi eigensolver


def jacobi_eigh(
    A: np.ndarray, *, off_tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps 2x2 rotations over all off-diagonal entries until their
    Frobenius norm drops below ``off_tol`` times that of the whole matrix,
    which the rotations keep.  Returns (eigenvalues,
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
    tol = off_tol * float(np.linalg.norm(A))
    for _ in range(max_sweeps):
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


def eigen_signature(
    form: QuadraticForm, *, zero_tol: float = ZERO_EIGENVALUE_TOL
) -> EigenReport:
    """Diagonalize the form and extract the best candidate direction."""
    vals, vecs = jacobi_eigh(form.matrix)
    n_pos = int(np.sum(vals > zero_tol))
    n_neg = int(np.sum(vals < -zero_tol))
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
