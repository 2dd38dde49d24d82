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
import os
import sys

import numpy as np

from . import ansatz, reference, segments, svgout, tortoise
from .body import (
    BodyError,
    build_body,
    chain_closure_residual,
    croft_constants,
    diameter_profile,
)
from .lattice import verify_avoidance
from .stepfn import load_qspec, reference_step_function

DEFAULT_TOL = 1e-9
MAX_EPS_GRID = 100_000


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _tolerance(default: float = DEFAULT_TOL) -> float:
    env = os.environ.get("CROFT_FORGE_TOL")
    if not env:
        return default
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        _usage_error(f"CROFT_FORGE_TOL must be a finite number >= 0, got {env!r}")
    return tol


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
    if args.q_spec:
        try:
            return load_qspec(args.q_spec)
        except (ValueError, KeyError, TypeError) as exc:
            # malformed JSON, a missing key or an invalid profile
            _usage_error(f"--q-spec {args.q_spec}: {type(exc).__name__}: {exc}")
    return reference_step_function()


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


def cmd_constants(args) -> int:
    c = croft_constants()
    s = segments.series_coefficients()
    ok = True
    lines = [f"{'name':<22} {'value':>22} {'reference':>20} {'delta':>10}"]
    for name, getter, target, tol in CONSTANT_TARGETS:
        val = getter(c, s)
        delta = abs(val - target)
        good = delta <= tol
        ok = ok and good
        lines.append(
            f"{name:<22} {_fmt(val):>22} {_fmt(target):>20} {delta:>10.1e}"
            + ("" if good else "  MISMATCH")
        )
    _emit("\n".join(lines) + "\n", args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    q = _load_profile(args)
    rows = []
    for eps in _eps_list(args):
        try:
            rec = tortoise.tortoise_area(eps, args.mode, q=q)
            rows.append(tortoise.record_row(rec))
        except (BodyError, segments.CapGeometryError, tortoise.ConvergenceError) as exc:
            rows.append({"eps": eps, "mode": args.mode, "error": str(exc)})
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args)
    else:
        fields = list(rows[0].keys())
        for r in rows:
            for key in r:
                if key not in fields:
                    fields.append(key)
        lines = [",".join(fields)]
        for r in rows:
            lines.append(
                ",".join(
                    _fmt(r[f]) if isinstance(r.get(f), float) else str(r.get(f, ""))
                    for f in fields
                )
            )
        _emit("\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    q = _load_profile(args)
    eps_values = _eps_list(args, default=tortoise.DEFAULT_FIT_EPS)
    distinct = len(set(eps_values))
    if distinct < tortoise.FIT_MIN_SAMPLES:
        _usage_error(
            f"fit needs at least {tortoise.FIT_MIN_SAMPLES} distinct eps values, "
            f"got {distinct}"
        )
    fit = tortoise.fit_net_coefficient(args.mode, eps_values=eps_values, q=q)
    out = {
        "mode": args.mode,
        "eps_values": list(eps_values),
        "a0": fit.a0,
        "c2": fit.c2,
        "c4": fit.c4,
        "max_residual": fit.max_residual,
        "body_area_c2": tortoise.body_area_coefficient(q),
        "reference_body_area_c2": -reference.AREA_COEFF,
    }
    for mode in ("series1", "series2"):
        try:
            lin, quad = tortoise.series_cut_coefficients(q, mode)
        except tortoise.NarrowCapError as exc:
            lin = quad = net = "refused"
            out["series_refused"] = str(exc)
        else:
            net = tortoise.series_net_coefficient(q, mode)
        out[f"{mode}_cut_linear"] = lin
        out[f"{mode}_cut_c2"] = quad
        out[f"{mode}_net_c2"] = net
    out["reference_cut_c2_shift_tilt"] = reference.PRINTED_CUT_COEFF_SHIFT_TILT
    out["reference_net_c2_shift_tilt"] = reference.PRINTED_NET_COEFF_SHIFT_TILT
    out["reference_net_c2_shift_only"] = reference.PRINTED_NET_COEFF_SHIFT_ONLY
    if args.format == "json":
        _emit(json.dumps(out, indent=2) + "\n", args)
    else:
        _emit(
            "".join(
                f"{k},{_fmt(v) if isinstance(v, float) else v}\n" for k, v in out.items()
            ),
            args,
        )
    return 0


# ---------------------------------------------------------------------------
# eigen


def cmd_eigen(args) -> int:
    form = ansatz.assemble_quadratic_form(args.mode)
    rep = ansatz.eigen_signature(form)
    ref_v = reference.Q_VALUES[:12]
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
        "reference_vector": [float(v) for v in ref_v],
        "reference_shift": [reference.SHIFT_X, reference.SHIFT_Y],
        "max_vector_deviation": float(np.max(np.abs(rep.top_v - ref_v))),
    }
    if args.format == "json":
        _emit(json.dumps(out, indent=2) + "\n", args)
    else:
        lines = ["index,top_eigenvector,reference,delta"]
        for i in range(12):
            lines.append(
                f"{i},{_fmt(float(rep.top_v[i]))},{_fmt(float(ref_v[i]))},"
                f"{_fmt(float(rep.top_v[i] - ref_v[i]))}"
            )
        lines.append(f"signature,{rep.signature[0]},{rep.signature[1]},{rep.signature[2]}")
        _emit("\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# verify


ALL_CHECKS = (
    "constants",
    "closure",
    "antipodal",
    "cancellation",
    "series-vs-exact",
    "avoidance",
    "eigen",
)


def _check_constants(q, inject, tol):
    c = croft_constants()
    s = segments.series_coefficients()
    bad = [
        name
        for name, getter, target, tol_i in CONSTANT_TARGETS
        if abs(getter(c, s) - target) > tol_i
    ]
    if bad:
        return False, f"constants outside tolerance: {', '.join(bad)}"
    return True, "all baseline/series constants within tolerance"


def _check_closure(q, inject, tol):
    res = chain_closure_residual(q)
    return res <= max(tol, 1e-12), f"arc-chain closure residual {res:.3e}"


def _check_antipodal(q, inject, tol):
    eps = inject.get("eps", 0.1)
    dmax, dmin = diameter_profile(build_body(q, eps))
    worst = max(abs(dmax - 2.0), abs(dmin - 2.0))
    return worst <= max(tol, 1e-9), f"antipodal distance deviation {worst:.3e} at eps={eps}"


def _check_cancellation(q, inject, tol):
    lin, _ = tortoise.series_cut_coefficients(q, "series1")
    return abs(lin) <= max(tol, 1e-12), f"summed first-order cut coefficient {lin:.3e}"


def _check_series_vs_exact(q, inject, tol):
    diffs = {}
    for eps in (0.05, 0.1):
        a_series = tortoise.tortoise_area(eps, "series2", q=q).tortoise_area
        a_exact = tortoise.tortoise_area(eps, "exact2", q=q).tortoise_area
        diffs[eps] = abs(a_series - a_exact)
    ratio = diffs[0.05] / diffs[0.1] if diffs[0.1] > 0 else 0.0
    # a cubic remainder should shrink by ~8 when eps halves
    ok = diffs[0.1] <= 1e-3 and ratio <= 0.3
    return ok, (
        f"series2-vs-exact2 area gap {diffs[0.1]:.3e} at eps=0.1, "
        f"halving ratio {ratio:.3f}"
    )


def _check_avoidance(q, inject, tol):
    width = inject.get("stripe-width", 2.0)
    worst: list[str] = []
    for eps in (0.0, 0.05, 0.1):
        rec = tortoise.tortoise_area(eps, "series2", q=q)
        report = verify_avoidance(
            q, eps, rec.stripes(), stripe_width=width, tol=max(tol, 1e-9)
        )
        if not report.ok:
            worst.extend(f"eps={eps}: {v}" for v in report.violations[:3])
    if worst:
        return False, "; ".join(worst)
    return True, f"patch separation holds at eps in (0, 0.05, 0.1), width {width}"


def _check_eigen(q, inject, tol):
    form = ansatz.assemble_quadratic_form("series2")
    asym = float(np.max(np.abs(form.matrix - form.matrix.T)))
    vals, vecs = ansatz.jacobi_eigh(form.matrix)
    norm = float(np.linalg.norm(form.matrix, 2))
    resid = max(
        float(np.linalg.norm(form.matrix @ vecs[:, i] - vals[i] * vecs[:, i]))
        for i in range(len(vals))
    )
    ok = asym <= 1e-12 and resid <= 1e-10 * max(norm, 1e-300)
    return ok, f"form asymmetry {asym:.1e}, eigen residual {resid:.1e} (norm {norm:.1e})"


# the fault-injection settings the checks read
INJECT_KEYS = ("eps", "stripe-width")

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
    q = _load_profile(args)
    tol = _tolerance()
    inject = {}
    for item in args.inject or []:
        key, _, val = item.partition("=")
        if key not in INJECT_KEYS:
            _usage_error(
                f"--inject key must be one of {', '.join(INJECT_KEYS)}, got {item!r}"
            )
        try:
            inject[key] = float(val)
        except ValueError:
            _usage_error(f"--inject needs KEY=NUMBER, got {item!r}")
    names = (
        [c.strip() for c in args.checks.split(",")] if args.checks else list(ALL_CHECKS)
    )
    bad = [n for n in names if n not in CHECK_FUNCS]
    if bad:
        print(f"unknown checks: {', '.join(bad)}", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        try:
            ok, detail = CHECK_FUNCS[name](q, inject, tol)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(names) - failures}/{len(names)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    q = _load_profile(args)
    eps = _eps_list(args, default=(0.0,))[0]
    if args.target == "body":
        svg = svgout.render_body_svg(build_body(q, eps))
    else:
        rec = tortoise.tortoise_area(eps, args.mode, q=q)
        if args.target == "tortoise":
            svg = svgout.render_tortoise_svg(q, eps, rec.stripes())
        else:
            svg = svgout.render_lattice_svg(q, eps, rec.stripes())
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
            p.add_argument(
                "--eps", action="append", type=_finite_float, help="family parameter"
            )
            p.add_argument("--eps-range", help="grid a:b:step of family parameters")
        if "mode" in names:
            p.add_argument(
                "--mode",
                choices=("series1", "series2", "exact1", "exact2"),
                default="series2",
            )
        if "q-spec" in names:
            p.add_argument("--q-spec", help="JSON step-function file (default: bundled)")
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
    add_options(p, "mode", "format", "out")
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
    except (
        BodyError,
        segments.CapGeometryError,
        tortoise.ConvergenceError,
        tortoise.NarrowCapError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
