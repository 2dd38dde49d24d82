"""The series2 c2 as an off-cap energy plus a cap-end form, by quadrature.

For a closed antisymmetric profile and any shift, with h1 the support-
function rate, h1 = (m_i + shift).u(phi) - q_i on arc i (m =
``center_offsets``), psi = pi/3 and the six off-cap intervals
I_j = [j psi + phi_c, (j + 1) psi - phi_c]:

    c2(series2) = sum_j 1/2 int_{I_j} (h1^2 - h1'^2)
                  - 1/2 cot(phi_c) sum_{12 cap ends} h1^2
                  + 1/2 sum_k (r_s^2 / P_ss + r_delta^2 / P_dd).

Class k's rows are r_s = A_ec[2k] - A_ec[2k+1] and
r_delta = -(A_et[2k] + A_et[2k+1]), with A_ec = -(h1(phi_1) + h1(phi_2)) /
sin(phi_c) and A_et = h1(phi_2) - h1(phi_1) at each cap's ends
phi_1 < phi_2, and P_ss = 2d, P_dd = 2(l + b) the pair Hessian of
``segments.pair_envelope``.  The off-cap integrals are taken here by
``scipy.integrate.quad`` on each arc part, not by the closed forms the
package sums, and the right side reads no cut data of ``lattice``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from croft_forge import ansatz
from croft_forge.body import center_offsets, croft_constants
from croft_forge.lattice import PSI, default_config
from croft_forge.segments import series_coefficients
from croft_forge.stepfn import TWO_PI, reference_step_function
from croft_forge.tortoise import series_net_coefficient
from break_sets import q36_profile, uniform_zero_profile


def _h1(q, shift):
    """h1 and h1' of (q, shift) as functions of the angle in [0, 2*pi]."""
    centers = center_offsets(q.breaks, q.values) + np.asarray(shift, dtype=float)

    def arc(phi):
        return min(int(np.searchsorted(q.breaks, phi % TWO_PI, side="right")) - 1,
                   q.n_intervals - 1)

    def h(phi, i=None):
        i = arc(phi) if i is None else i
        return centers[i] @ (math.cos(phi), math.sin(phi)) - q.values[i]

    def dh(phi, i=None):
        i = arc(phi) if i is None else i
        return centers[i] @ (-math.sin(phi), math.cos(phi))

    return h, dh


def identity_right_side(q, shift) -> float:
    phi_c = croft_constants().phi_c
    h, dh = _h1(q, shift)
    energy = 0.0
    for j in range(6):
        lo, hi = j * PSI + phi_c, (j + 1) * PSI - phi_c
        cuts = [lo] + [b for b in q.breaks if lo < b < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            i = int(np.searchsorted(q.breaks, 0.5 * (a + b), side="right")) - 1
            energy += 0.5 * quad(lambda phi: h(phi, i) ** 2 - dh(phi, i) ** 2, a, b,
                                 epsabs=1e-15, epsrel=1e-14)[0]
    ends = np.array([[h(j * PSI - phi_c), h(j * PSI + phi_c)] for j in range(6)])
    cot = 1.0 / math.tan(phi_c)
    a_ec = -(ends[:, 0] + ends[:, 1]) / math.sin(phi_c)
    a_et = ends[:, 1] - ends[:, 0]
    sc = series_coefficients()
    p_ss, p_dd = 2.0 * sc.d, 2.0 * (sc.l + sc.b)
    rows = sum((a_ec[2 * k] - a_ec[2 * k + 1]) ** 2 / p_ss
               + (a_et[2 * k] + a_et[2 * k + 1]) ** 2 / p_dd for k in range(3))
    return energy - 0.5 * cot * float(np.sum(ends**2)) + 0.5 * rows


def _projected_uniform(n, rng):
    template = uniform_zero_profile(n)
    v = ansatz.closure_project(rng.standard_normal(n // 2), template)
    return ansatz.step_from_halfvalues(v, template), tuple(0.3 * rng.standard_normal(2))


def _profiles():
    rng = np.random.default_rng(7)
    return [(reference_step_function(), default_config()), (q36_profile(), (0.1, -0.2))] + [
        _projected_uniform(n, rng) for n in (24, 48, 96)
    ]


@pytest.mark.parametrize("index", range(5), ids=["reference", "q36", "u24", "u48", "u96"])
def test_series2_c2_is_off_cap_energy_plus_cap_end_form(index):
    q, shift = _profiles()[index]
    c2 = series_net_coefficient(q, "series2", shift)
    assert abs(identity_right_side(q, shift) - c2) <= 1e-14 * (abs(c2) + 1.0)


def test_harmonic_off_cap_energy():
    """The harmonic with end values 0.7 and -0.4 on an off-cap interval of
    length L = pi/3 - 2 phi_c: int (h^2 - h'^2) is 2xy/sin L - cot L (x^2 +
    y^2) = -2.2596772678, by quadrature and by the closed form."""
    x, y = 0.7, -0.4
    L = PSI - 2.0 * croft_constants().phi_c
    a, b = x, (y - x * math.cos(L)) / math.sin(L)
    integral = quad(lambda p: (a * math.cos(p) + b * math.sin(p)) ** 2
                    - (b * math.cos(p) - a * math.sin(p)) ** 2, 0.0, L)[0]
    closed = 2.0 * x * y / math.sin(L) - (x * x + y * y) / math.tan(L)
    assert integral == pytest.approx(-2.2596772678, abs=1e-10)
    assert closed == pytest.approx(-2.2596772678, abs=1e-10)
