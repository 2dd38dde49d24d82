"""Command-line front end.

Subcommands: ``constants`` (baseline and series constants with reference
targets), ``scan`` (density records over a family-parameter grid),
``fit`` (even-polynomial fit of the second-order coefficient), ``eigen``
(quadratic form spectrum), ``verify`` (invariant suite with optional
fault injection), ``render`` (SVG output).  Exit codes: 0 success,
1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import math
import sys

import numpy as np

from . import ansatz, reference, segments, svgout, tortoise
from .body import (
    CLOSURE_TOL,
    BodyError,
    build_body,
    chain_closure_residual,
    croft_constants,
    diameter_profile,
)
from .lattice import second_order_read, verify_avoidance
from .stepfn import read_qspec, reference_step_function

DEFAULT_TOL = 1e-9
MAX_EPS_GRID = 100_000


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _load_profile(args):
    """The profile and the shift of ``--q-spec`` (None: the reference
    shift), or the reference profile and shift."""
    if args.q_spec:
        try:
            return read_qspec(args.q_spec)
        except (ValueError, KeyError, TypeError) as exc:
            # malformed JSON, a missing key, an invalid profile or shift
            _usage_error(f"--q-spec {args.q_spec}: {type(exc).__name__}: {exc}")
    return reference_step_function(), None


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _eps_list(args, default=(0.0,)):
    if args.eps_range:
        spec = args.eps_range
        try:
            a, b, step = (float(x) for x in spec.split(":"))
        except ValueError:
            _usage_error(f"--eps-range must be a:b:step, got {spec!r}")
        if step == 0.0 or not all(math.isfinite(x) for x in (a, b, step)):
            _usage_error(
                f"--eps-range needs finite bounds and a nonzero step, got {spec!r}"
            )
        count = (b - a) / step
        if not count < MAX_EPS_GRID:
            _usage_error(f"--eps-range {spec!r} has more than {MAX_EPS_GRID} points")
        n = int(round(max(count, -1.0))) + 1  # count may be -inf
        if n < 1:
            _usage_error(f"--eps-range {spec!r} is an empty grid")
        return [a + i * step for i in range(n)]
    if args.eps is not None:
        return [float(e) for e in args.eps]
    return list(default)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(rows, obj, args) -> None:
    """Write ``obj`` as JSON with ``--format json``, else ``rows`` as CSV
    lines (``tortoise.csv_text``)."""
    if args.format == "json":
        _emit(json.dumps(obj, indent=2) + "\n", args)
    else:
        _emit(tortoise.csv_text(rows), args)


# ---------------------------------------------------------------------------
# constants


CONSTANT_TARGETS = [
    # (name, getter, reference value, tolerance)
    ("phi_c", lambda c, s: c.phi_c, 0.263315538964831, 1e-9),
    ("w_c", lambda c, s: c.w_c, 0.034467692551095, 1e-9),
    ("a_c", lambda c, s: c.a_c, 0.012003664907850, 1e-12),
    ("lattice_constant", lambda c, s: c.lattice_constant, 3.93106461489781, 1e-11),
    ("density", lambda c, s: c.density, 0.22936, 1e-5),
    ("b", lambda c, s: s.b, 0.5205664, 1e-7),
    ("c", lambda c, s: s.c, 0.0060646, 1e-7),
    ("d", lambda c, s: s.d, 7.4190894, 1e-7),
    ("e", lambda c, s: s.e, 0.2648475, 1e-7),
    ("f", lambda c, s: s.f, -0.0030640, 1e-7),
    ("h", lambda c, s: s.h, -0.0677473, 1e-7),
    ("j", lambda c, s: s.j, -1.9310646, 1e-7),
    ("k", lambda c, s: s.k, -0.0689353, 1e-7),
    ("l", lambda c, s: s.l, 0.5026237, 1e-7),
    (
        "tilt_radius_coupling",
        lambda c, s: s.k / (4.0 * math.sqrt(s.l + s.b)),
        -0.0170374276,
        1e-7,
    ),
    (
        "tilt_depth_coupling",
        lambda c, s: 2.0 * s.b / (4.0 * math.sqrt(s.l + s.b)),
        0.2573167207,
        1e-7,
    ),
]


def constant_checks():
    """(name, value, target, delta, within tolerance) per CONSTANT_TARGETS row."""
    c = croft_constants()
    s = segments.series_coefficients()
    for name, getter, target, tol in CONSTANT_TARGETS:
        value = getter(c, s)
        delta = abs(value - target)
        yield name, value, target, delta, delta <= tol


def cmd_constants(args) -> int:
    lines = [f"{'name':<22} {'value':>22} {'reference':>20} {'delta':>10}"]
    ok = True
    fmt = tortoise.format_float
    for name, value, target, delta, good in constant_checks():
        ok = ok and good
        lines.append(
            f"{name:<22} {fmt(value):>22} {fmt(target):>20} {delta:>10.1e}"
            + ("" if good else "  MISMATCH")
        )
    _emit("\n".join(lines) + "\n", args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    q, shift = _load_profile(args)
    rows = []
    for eps in _eps_list(args):
        try:
            rec = tortoise.tortoise_area(eps, args.mode, q=q, shift=shift)
            rows.append(tortoise.record_row(rec))
        except (BodyError, tortoise.ConvergenceError) as exc:
            rows.append({"eps": eps, "mode": args.mode, "error": str(exc)})
    _emit_table(tortoise.scan_table(rows), rows, args)
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    q, shift = _load_profile(args)
    eps_values = _eps_list(args, default=tortoise.DEFAULT_FIT_EPS)
    try:
        fit = tortoise.fit_net_coefficient(args.mode, eps_values=eps_values, q=q, shift=shift)
    except ValueError as exc:  # too few distinct eps values, or a BodyError
        _usage_error(str(exc))
    body_c2 = second_order_read(q, shift)[0]
    out = {
        "mode": args.mode,
        "eps_values": list(eps_values),
        "a0": fit.a0,
        "c2": fit.c2,
        "c4": fit.c4,
        "max_residual": fit.max_residual,
        "body_area_c2": body_c2,
        "reference_body_area_c2": -reference.AREA_COEFF,
    }
    for mode in tortoise.SERIES_MODES:
        lin, quad = tortoise.series_cut_coefficients(q, mode, shift)
        out[f"{mode}_cut_linear"] = lin
        out[f"{mode}_cut_c2"] = quad
        out[f"{mode}_net_c2"] = tortoise.series_net_coefficient(q, mode, shift)
    out["reference_cut_c2_shift_tilt"] = reference.PRINTED_CUT_COEFF_SHIFT_TILT
    out["reference_net_c2_shift_tilt"] = reference.PRINTED_NET_COEFF_SHIFT_TILT
    out["reference_net_c2_shift_only"] = reference.PRINTED_NET_COEFF_SHIFT_ONLY
    _emit_table(out.items(), out, args)
    return 0


# ---------------------------------------------------------------------------
# eigen


def cmd_eigen(args) -> int:
    q, _ = _load_profile(args)  # only its break set is read
    form = ansatz.assemble_quadratic_form(args.mode, template=q)
    rep = ansatz.eigen_signature(form)
    out = {
        "mode": args.mode,
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "signature": {
            "positive": rep.signature[0],
            "zero": rep.signature[1],
            "negative": rep.signature[2],
        },
        "top_eigenvector": [float(v) for v in rep.top_v],
        "top_shift": [float(v) for v in rep.top_shift],
        "top_gap": rep.top_gap,
    }
    # the published vector lives on the reference break set only
    on_reference = q.break_fractions == reference_step_function().break_fractions
    header = ["index", "top_eigenvector"]
    rows = [[i, v] for i, v in enumerate(out["top_eigenvector"])]
    if on_reference:
        ref_v = reference.Q_VALUES[:len(rep.top_v)]
        out["reference_vector"] = [float(v) for v in ref_v]
        out["reference_shift"] = [reference.SHIFT_X, reference.SHIFT_Y]
        out["max_vector_deviation"] = float(np.max(np.abs(rep.top_v - ref_v)))
        header += ["reference", "delta"]
        rows = [[i, v, r, v - r] for (i, v), r in zip(rows, out["reference_vector"])]
    _emit_table([header, *rows, ["top_shift", *out["top_shift"]], ["top_gap", rep.top_gap],
                 ["signature", *rep.signature]], out, args)
    return 0


# ---------------------------------------------------------------------------
# verify


def _check_constants(q, shift, inject):
    bad = [name for name, *_, good in constant_checks() if not good]
    if bad:
        return False, f"constants outside tolerance: {', '.join(bad)}"
    return True, "all baseline/series constants within tolerance"


def _check_closure(q, shift, inject):
    res = chain_closure_residual(q.breaks, q.values)
    return res <= CLOSURE_TOL, f"arc-chain closure residual {res:.3e}"


def _check_antipodal(q, shift, inject):
    eps = inject.get("eps", 0.1)
    dmax, dmin = diameter_profile(build_body(q, eps))
    worst = max(abs(dmax - 2.0), abs(dmin - 2.0))
    return worst <= DEFAULT_TOL, f"antipodal distance deviation {worst:.3e} at eps={eps}"


def _check_cancellation(q, shift, inject):
    lin, _ = tortoise.series_cut_coefficients(q, "series1", shift)
    return abs(lin) <= DEFAULT_TOL, f"summed first-order cut coefficient {lin:.3e}"


def _check_series_vs_exact(q, shift, inject):
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        a_series = tortoise.tortoise_area(eps, "series2", q=q, shift=shift).tortoise_area
        a_exact = tortoise.tortoise_area(eps, "exact2", q=q, shift=shift).tortoise_area
        gaps.append(abs(a_series - a_exact))
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(gaps, gaps[1:])]
    # a cubic remainder shrinks by ~8 when eps halves, once eps is small
    # enough for it to lead: the last halving is the one judged
    ok = gaps[0] <= 1e-3 and ratios[-1] <= 0.3
    return ok, (
        f"series2-vs-exact2 area gap {gaps[0]:.3e} at eps=0.1, "
        f"halving ratios {ratios[0]:.3f}, {ratios[1]:.3f}"
    )


def _check_avoidance(q, shift, inject):
    width = inject.get("stripe-width", 2.0)
    worst: list[str] = []
    for eps in (0.0, 0.05, 0.1):
        rec = tortoise.tortoise_area(eps, "exact2", q=q, shift=shift)
        report = verify_avoidance(q, eps, rec.stripes(), shift=shift, stripe_width=width)
        if not report.ok:
            # the first three violations per eps, and how many more there are
            shown = [f"eps={eps}: {v}" for v in report.violations[:3]]
            if len(report.violations) > 3:
                shown[-1] += f" (+{len(report.violations) - 3} more)"
            worst.extend(shown)
    if worst:
        return False, "; ".join(worst)
    return True, f"patch separation holds at eps in (0, 0.05, 0.1), width {width}"


def _check_eigen(q, shift, inject):
    form = ansatz.assemble_quadratic_form("series2", template=q)
    asym = float(np.max(np.abs(form.matrix - form.matrix.T)))
    rep = ansatz.eigen_signature(form)
    vals, vecs = rep.eigenvalues, rep.eigenvectors
    norm = float(np.linalg.norm(form.matrix, 2))
    resid = float(np.max(np.linalg.norm(form.matrix @ vecs - vecs * vals, axis=0)))
    ref_vals = ansatz.jacobi_eigh(form.matrix)[0]
    dlam = float(np.max(np.abs(vals - ref_vals)))
    ok = (asym <= 1e-12 and resid <= 1e-10 * max(norm, 1e-300)
          and rep.signature == ansatz.signature_of(ref_vals)
          and dlam <= ansatz.EIGEN_REFERENCE_TOL * float(np.linalg.norm(form.matrix)))
    return ok, (f"form asymmetry {asym:.1e}, eigen residual {resid:.1e} (norm {norm:.1e}), "
                f"largest |dlambda| vs Jacobi {dlam:.1e}, signature {rep.signature}")


# the fault-injection settings the checks read
INJECT_KEYS = ("eps", "stripe-width")

# every check, in the order a plain ``verify`` runs them
CHECK_FUNCS = {
    "constants": _check_constants,
    "closure": _check_closure,
    "antipodal": _check_antipodal,
    "cancellation": _check_cancellation,
    "series-vs-exact": _check_series_vs_exact,
    "avoidance": _check_avoidance,
    "eigen": _check_eigen,
}


def cmd_verify(args) -> int:
    q, shift = _load_profile(args)
    inject = {}
    for item in args.inject or []:
        key, _, val = item.partition("=")
        if key not in INJECT_KEYS:
            _usage_error(
                f"--inject key must be one of {', '.join(INJECT_KEYS)}, got {item!r}"
            )
        try:
            inject[key] = _finite_float(val)
        except argparse.ArgumentTypeError:
            _usage_error(f"--inject needs KEY=NUMBER, a finite number, got {item!r}")
        if key == "stripe-width" and inject[key] <= 0.0:
            _usage_error(f"--inject stripe-width must be positive, got {item!r}")
    names = [c.strip() for c in args.checks.split(",")] if args.checks else list(CHECK_FUNCS)
    bad = [n for n in names if n not in CHECK_FUNCS]
    if bad:
        _usage_error(f"unknown checks: {', '.join(bad)}")
    failures = 0
    for name in names:
        try:
            ok, detail = CHECK_FUNCS[name](q, shift, inject)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(names) - failures}/{len(names)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    q, shift = _load_profile(args)
    eps_values = _eps_list(args, default=(0.0,))
    if len(eps_values) != 1:
        _usage_error(f"render draws one eps, got {len(eps_values)}")
    (eps,) = eps_values
    if args.target == "body":
        svg = svgout.render_body_svg(build_body(q, eps))
    else:
        rec = tortoise.tortoise_area(eps, args.mode, q=q, shift=shift)
        if args.target == "tortoise":
            svg = svgout.render_tortoise_svg(q, eps, rec.stripes(), shift=shift)
        else:
            svg = svgout.render_lattice_svg(q, eps, rec.stripes(), shift=shift)
    _emit(svg, args)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="croft-forge",
        description="Constant-diameter bodies, stripe cuts, and packing density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, *names):
        """Register the shared options ``names`` that the subcommand reads."""
        # let values like "-0.1:0.1:0.01" or "-0.05" follow an option flag
        p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+(:.*)?$")
        if "eps" in names:
            eps = p.add_mutually_exclusive_group()
            eps.add_argument(
                "--eps", action="append", type=_finite_float, help="family parameter"
            )
            eps.add_argument("--eps-range", help="grid a:b:step of family parameters")
        if "mode" in names:
            p.add_argument(
                "--mode",
                choices=tortoise.MODES,
                default="series2",
            )
        if "q-spec" in names:
            p.add_argument(
                "--q-spec",
                help="JSON step-function file, with an optional lattice shift "
                "(default: the reference profile and shift)",
            )
        if "format" in names:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if "out" in names:
            p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("constants", help="baseline and series constants")
    add_options(p, "out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("scan", help="density records over a parameter grid")
    add_options(p, "eps", "mode", "q-spec", "format", "out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="second-order coefficient fit")
    add_options(p, "eps", "mode", "q-spec", "format", "out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eigen", help="quadratic form spectrum")
    add_options(p, "mode", "q-spec", "format", "out")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="invariant suite")
    add_options(p, "q-spec")
    p.add_argument("--inject", action="append", help="fault injection KEY=VAL")
    p.add_argument("--checks", help="comma-separated subset of checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG output")
    p.add_argument("target", choices=("body", "tortoise", "lattice"))
    add_options(p, "eps", "mode", "q-spec", "out")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tortoise.ConvergenceError as exc:  # a valid input the solver failed on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BodyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
