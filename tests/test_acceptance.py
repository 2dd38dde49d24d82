"""Acceptance gate: one check per headline claim, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
for every criterion.  Criteria that compare against published values
which this implementation could not reproduce (the second-order cut
coefficients and the form signature) assert internal consistency and
print the documented discrepancy rather than forcing agreement.
"""

import math

import numpy as np
import pytest

from croft_forge import reference
from croft_forge.ansatz import (
    assemble_quadratic_form,
    eigen_signature,
    jacobi_eigh,
)
from croft_forge.body import (
    build_body,
    boundary_point,
    center_offsets,
    chain_closure_residual,
    croft_constants,
)
from croft_forge.lattice import verify_avoidance
from croft_forge.segments import series_coefficients
from croft_forge.stepfn import reference_step_function
from croft_forge.tortoise import (
    body_area_coefficient,
    fit_net_coefficient,
    series_cut_coefficients,
    series_net_coefficient,
    tortoise_area,
)
from disc_reference import (
    DiscCut,
    difference_grid,
    minimize_pair_shift_exact,
    minimize_pair_shift_tilt_exact,
    minimize_pair_shift_tilt_series,
    pair_objective_shift_tilt,
    segment_area_exact_tilted,
)

Q = reference_step_function()


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_baseline_constants():
    c = croft_constants()
    errs = {
        "cap_angle": (abs(c.phi_c - 0.263315538964831), 1e-9),
        "cap_area": (abs(c.a_c - 0.012003664907850), 1e-12),
        "lattice_constant": (abs(c.lattice_constant - 3.93106461489781), 1e-11),
        "density": (abs(c.density - 0.22936), 1e-5),
    }
    ok = all(err <= tol for err, tol in errs.values())
    worst = max(err / tol for err, tol in errs.values())
    report(
        "baseline-constants",
        ok,
        f"four optimized-disc constants within tolerance (worst err/tol {worst:.2e})",
    )


def test_criterion_2_series_coefficients():
    s = series_coefficients()
    targets = {
        "b": 0.5205664,
        "c": 0.0060646,
        "d": 7.4190894,
        "e": 0.2648475,
        "f": -0.0030640,
        "h": -0.0677473,
        "j": -1.9310646,
        "k": -0.0689353,
        "l": 0.5026237,
    }
    errs = {n: abs(getattr(s, n) - t) for n, t in targets.items()}
    pair = (
        s.k / (4.0 * math.sqrt(s.l + s.b)),
        2.0 * s.b / (4.0 * math.sqrt(s.l + s.b)),
    )
    errs["coupling_1"] = abs(pair[0] - (-0.0170374276))
    errs["coupling_2"] = abs(pair[1] - 0.2573167207)
    ok = all(e <= 1e-7 for e in errs.values())
    report(
        "series-coefficients",
        ok,
        f"nine expansion constants and derived coupling pair, max err {max(errs.values()):.2e}",
    )


def test_criterion_3_body_family():
    closure = chain_closure_residual(Q.breaks, Q.values)
    offs = center_offsets(Q.breaks, Q.values)
    off_err = max(
        float(np.max(np.abs(offs[:, 0] - reference.X_OFFSETS))),
        float(np.max(np.abs(offs[:, 1] - reference.Y_OFFSETS))),
    )
    body = build_body(Q, 0.3)
    phis = np.linspace(0.0, math.pi, 10_000, endpoint=False)
    d = np.hypot(*(boundary_point(body, phis) - boundary_point(body, phis + math.pi)).T)
    diam_err = float(np.max(np.abs(d - 2.0)))
    c2_err = abs(body_area_coefficient(Q) + reference.AREA_COEFF)
    ok = closure <= 1e-12 and off_err <= 1e-12 and diam_err <= 1e-9 and c2_err <= 1e-9
    report(
        "body-family",
        ok,
        f"closure {closure:.1e}, offsets {off_err:.1e}, diameter {diam_err:.1e}, "
        f"area coefficient err {c2_err:.1e}",
    )


def test_criterion_4_series_remainder_and_derivatives():
    def max_diff(d_box, r_box):
        rows = difference_grid((-d_box, d_box), (-r_box, r_box), n=41)
        return max(abs(row["diff"]) for row in rows)

    full = max_diff(0.01, 0.1)
    half = max_diff(0.005, 0.05)
    ratio = full / half

    s = series_coefficients()
    hstep = 1e-5

    def A(d=0.0, r=0.0):
        return segment_area_exact_tilted(d, r, 0.0)

    fd_errs = [
        abs((A(d=hstep) - A(d=-hstep)) / (2 * hstep) - s.b),
        abs((A(r=hstep) - A(r=-hstep)) / (2 * hstep) - s.c),
        abs((A(d=hstep) + A(d=-hstep) - 2 * A()) / hstep**2 - s.d),
        abs(
            (A(d=hstep, r=hstep) + A(d=-hstep, r=-hstep)
             - A(d=hstep, r=-hstep) - A(d=-hstep, r=hstep)) / (4 * hstep**2)
            - s.e
        ),
        abs((A(r=hstep) + A(r=-hstep) - 2 * A()) / hstep**2 - s.f),
    ]
    ok = ratio >= 7.0 and max(fd_errs) <= 1e-6
    report(
        "series-remainder",
        ok,
        f"box-halving ratio {ratio:.2f} (need >= 7), "
        f"derivative check max err {max(fd_errs):.2e}",
    )


def test_criterion_5_minimizer_correctness():
    rng = np.random.default_rng(11)
    ordered = True
    for _ in range(100):
        cut = DiscCut(*rng.uniform(-0.02, 0.02, size=6))
        unmin = pair_objective_shift_tilt(cut, 0.0, 0.0)
        _, a1 = minimize_pair_shift_exact(cut)
        _, _, a2 = minimize_pair_shift_tilt_exact(cut)
        ordered = ordered and (a2 <= a1 + 1e-12 <= unmin + 2e-12)

    base = DiscCut(0.013, -0.007, 0.011, -0.009, 0.006, -0.012)
    diffs = {}
    for t in (0.5, 1.0):
        _, _, exact = minimize_pair_shift_tilt_exact(base.scaled(t))
        _, _, series = minimize_pair_shift_tilt_series(base.scaled(t))
        diffs[t] = abs(exact - series)
    cubic = diffs[1.0] <= 2e-5 and diffs[0.5] <= 0.2 * diffs[1.0]

    s = series_coefficients()
    small = DiscCut(0.006, -0.003, 0.004, -0.002, 0.005, -0.004).scaled(1e-3)
    s_star, d_star, _ = minimize_pair_shift_tilt_exact(small)
    h = 1e-4

    def f(x, y):
        return pair_objective_shift_tilt(small, x, y)

    hss = (f(s_star + h, d_star) + f(s_star - h, d_star) - 2 * f(s_star, d_star)) / h**2
    htt = (f(s_star, d_star + h) + f(s_star, d_star - h) - 2 * f(s_star, d_star)) / h**2
    hst = (
        f(s_star + h, d_star + h) + f(s_star - h, d_star - h)
        - f(s_star + h, d_star - h) - f(s_star - h, d_star + h)
    ) / (4 * h**2)
    hess_ok = (
        abs(hss / 2 - s.d) <= 1e-4 * s.d
        and abs(htt / 2 - (s.l + s.b)) <= 1e-4 * (s.l + s.b)
        and abs(hst / 2) <= 1e-4 * (s.l + s.b)
    )
    ok = ordered and cubic and hess_ok
    report(
        "minimizer-correctness",
        ok,
        f"100 random cuts ordered {ordered}, cubic gap {diffs[1.0]:.2e} "
        f"(halved {diffs[0.5]:.2e}), Hessian at minimum within 1e-4 relative: {hess_ok}",
    )


def test_criterion_6_linear_cancellation():
    lin, _ = series_cut_coefficients(Q, "series1")
    ok = abs(lin) <= 1e-12
    report("linear-cancellation", ok, f"summed first-order cut coefficient {lin:.2e}")


def test_criterion_7_second_order_coefficient():
    _, cut2 = series_cut_coefficients(Q, "series2")
    net2 = series_net_coefficient(Q, "series2")
    fit = fit_net_coefficient("exact2", q=Q)
    a_t0 = tortoise_area(0.0, "exact2", q=Q).tortoise_area
    resid_ok = fit.max_residual <= 1e-10 * a_t0
    agree_ok = abs(fit.c2 - net2) <= 5e-7  # independent pipelines agree
    # step-halving error bar on the fitted coefficient: refit on half grid
    fit_half = fit_net_coefficient(
        "exact2", eps_values=(-0.04, -0.02, -0.01, -0.005, 0.005, 0.01, 0.02, 0.04), q=Q
    )
    bar = abs(fit_half.c2 - fit.c2)
    sign_ok = fit.c2 < 0 and net2 < 0
    ok = resid_ok and agree_ok and sign_ok
    report(
        "second-order-coefficient",
        ok,
        f"closed-form cut {cut2:.10f} vs published {reference.PRINTED_CUT_COEFF_SHIFT_TILT} "
        f"(NOT reproduced); net {net2:.10f} vs published "
        f"{reference.PRINTED_NET_COEFF_SHIFT_TILT} (NOT reproduced); "
        f"fitted c2 {fit.c2:.12f} +/- {bar:.1e}, residual {fit.max_residual:.2e} "
        f"<= {1e-10 * a_t0:.2e}; headline sign NEGATIVE: no density improvement",
    )


def test_criterion_8_avoidance():
    ok = True
    details = []
    for eps in (0.0, 0.05, 0.1):
        rec = tortoise_area(eps, "series2", q=Q)
        rep = verify_avoidance(Q, eps, rec.stripes())
        ok = ok and rep.ok and rep.min_cross_distance >= 2.0 - 1e-9
        details.append(
            f"eps={eps}: halfplane {rep.max_halfplane_violation:.1e}, "
            f"min distance {rep.min_cross_distance:.6f}"
        )
    rec = tortoise_area(0.05, "series2", q=Q)
    injected = verify_avoidance(Q, 0.05, rec.stripes(), stripe_width=1.9)
    ok = ok and not injected.ok
    report(
        "avoidance",
        ok,
        "; ".join(details)
        + f"; width-1.9 fault caught (min distance {injected.min_cross_distance:.4f})",
    )


def test_criterion_9_quadratic_form():
    form = assemble_quadratic_form("series2")
    asym = float(np.max(np.abs(form.matrix - form.matrix.T)))
    vals, vecs = jacobi_eigh(form.matrix)
    norm = float(np.linalg.norm(form.matrix, 2))
    resid = float(np.max(np.abs(form.matrix @ vecs - vecs @ np.diag(vals))))
    rep = eigen_signature(form)
    ref_v = np.array(reference.Q_VALUES[:12])
    vec_dev = float(np.max(np.abs(rep.top_v - ref_v)))
    ok = asym <= 1e-12 and resid <= 1e-10 * norm
    published = "(1, 0, 11)"
    report(
        "quadratic-form",
        ok,
        f"symmetry {asym:.1e}, eigen residual {resid:.1e} (norm {norm:.1e}); "
        f"signature {rep.signature} vs published {published} (NOT reproduced: "
        f"all eigenvalues negative); top-direction max deviation from the "
        f"reference profile {vec_dev:.3f} under max-entry normalization",
    )
