import dataclasses
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import croft_forge
import croft_forge.cli
from croft_forge import ansatz, lattice, svgout, tortoise
from croft_forge.cli import main
from croft_forge.lattice import PATCH_SITES
from croft_forge.stepfn import reference_step_function
from croft_forge.tortoise import format_float
from break_sets import q36_profile, uniform_zero_profile
from call_counts import count_calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_table(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "phi_c" in out and "lattice_constant" in out
    assert "MISMATCH" not in out


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--eps", "0.0", "--eps", "0.05")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("eps,mode,body_area")
    assert len(lines) == 3
    assert float(lines[1].split(",")[5]) == pytest.approx(0.2293647, abs=1e-6)


def test_scan_csv_columns_do_not_depend_on_row_order(capsys):
    """An error row first or last, the record columns keep their order and
    the error column comes last."""
    _, record, _ = run(capsys, "scan", "--eps", "0.05")
    header = record.splitlines()[0]
    for argv in (("--eps", "5", "--eps", "0.05"), ("--eps", "0.05", "--eps", "5")):
        code, out, _ = run(capsys, "scan", *argv)
        assert code == 0
        assert out.splitlines()[0] == header + ",error"


def test_scan_json_with_eps_range(capsys, tmp_path):
    out_path = tmp_path / "scan.json"
    code, _, _ = run(
        capsys,
        "scan",
        "--eps-range",
        "-0.04:0.04:0.04",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert [r["eps"] for r in rows] == [-0.04, 0.0, 0.04]


def test_scan_reports_infeasible_parameter(capsys):
    code, out, _ = run(capsys, "scan", "--eps", "1.5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert "error" in rows[0]


def test_fit_json(capsys):
    code, out, _ = run(
        capsys,
        "fit",
        "--mode",
        "exact2",
        "--eps",
        "-0.04",
        "--eps",
        "-0.02",
        "--eps",
        "-0.01",
        "--eps",
        "0.01",
        "--eps",
        "0.02",
        "--eps",
        "0.04",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["c2"] == pytest.approx(-0.0044168, abs=1e-6)
    assert data["series2_net_c2"] == pytest.approx(-0.0044168, abs=1e-6)
    assert data["c2"] < 0  # the family does not beat the baseline density


def _cell(value):
    return format_float(value) if isinstance(value, float) else str(value)


def _csv_and_json(capsys, *argv):
    """The CSV lines and the parsed JSON of one command."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, data, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    return out.splitlines(), json.loads(data)


def test_scan_csv_cells_are_the_json_values(capsys):
    """One emitter: each CSV cell of a scan, an error row among them, is
    the matching JSON value through ``format_float`` (floats) or ``str``,
    and a field a row lacks is empty."""
    lines, rows = _csv_and_json(capsys, "scan", "--eps", "5", "--eps", "0.05")
    header = lines[0].split(",")
    assert header[-1] == "error" and "error" in rows[0] and "error" not in rows[1]
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        assert line.split(",") == [_cell(row.get(f, "")) for f in header]


def test_fit_csv_cells_are_the_json_values(capsys):
    """Each fit CSV line is a JSON key and its value, in the JSON order, and
    each net c2 is the body-area c2 minus that mode's cut c2."""
    lines, data = _csv_and_json(capsys, "fit", "--mode", "series2")
    assert [line.split(",", 1) for line in lines] == [[k, _cell(v)] for k, v in data.items()]
    for mode in tortoise.SERIES_MODES:
        assert data[f"{mode}_net_c2"] == data["body_area_c2"] - data[f"{mode}_cut_c2"]
        assert data[f"{mode}_net_c2"] == tortoise.series_net_coefficient(mode=mode)


def test_fit_reads_each_series_coefficient_once(capsys, monkeypatch):
    """An exact2 fit reads the second-order data
    (``lattice.second_order_read``) once per grid eps, once for the
    body-area c2 and twice per series mode, its cut and its net c2
    (8 + 1 + 2 * 2), computes it (a miss of ``_profile_cuts``) once, and
    reads the break set's cut model (``class_cuts``) once."""
    lattice._cut_model.cache_clear()
    lattice._profile_cuts.cache_clear()
    cuts = count_calls(monkeypatch, lattice, "second_order_read")
    reads = count_calls(monkeypatch, lattice, "class_cuts")
    code, _, _ = run(capsys, "fit", "--mode", "exact2")
    assert code == 0
    assert (len(cuts), len(reads)) == (13, 1)
    assert lattice._profile_cuts.cache_info().misses == 1


@pytest.mark.parametrize("n", [None, 2])
def test_eigen_csv_cells_are_the_json_values(capsys, tmp_path, n):
    """On the reference and on {0, pi}: each CSV cell of ``eigen`` is a JSON
    value through ``format_float`` or ``str``; delta is top minus reference."""
    q_spec = () if n is None else ("--q-spec", str(_uniform_qspec(tmp_path, n)))
    lines, data = _csv_and_json(capsys, "eigen", *q_spec)
    top = data["top_eigenvector"]
    ref = data.get("reference_vector")
    want = [["index", "top_eigenvector"] + (["reference", "delta"] if ref else [])]
    for i, v in enumerate(top):
        want.append([str(i), format_float(v)]
                    + ([format_float(ref[i]), format_float(v - ref[i])] if ref else []))
    want += [["top_shift", *map(format_float, data["top_shift"])],
             ["top_gap", format_float(data["top_gap"])],
             ["signature", *map(str, data["signature"].values())]]
    assert [line.split(",") for line in lines] == want
    assert (ref is None) == (n is not None)


def test_eigen_json(capsys):
    code, out, _ = run(capsys, "eigen", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == {"positive": 0, "zero": 0, "negative": 12}
    assert len(data["eigenvalues"]) == 12
    assert max(data["eigenvalues"]) < 0
    assert data["top_gap"] == pytest.approx(3.83e-6, rel=1e-3)


def test_verify_passes(capsys):
    """A plain verify runs every check, in the order of ``CHECK_FUNCS``."""
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "7/7 checks passed" in out
    assert "FAIL" not in out
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
        f"PASS {name}" for name in ("constants", "closure", "antipodal", "cancellation",
                                    "series-vs-exact", "avoidance", "eigen")
    ]


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "closure,antipodal")
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_unknown_check(capsys):
    code = _exit_code(["verify", "--checks", "closure,nonsense,foo"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "error: unknown checks: nonsense, foo\n"
    assert out == ""


def test_verify_catches_injected_narrow_stripe(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "avoidance", "--inject", "stripe-width=1.9"
    )
    assert code == 1
    assert "FAIL avoidance" in out


def test_verify_fails_when_the_stripes_leave_no_copy(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "avoidance", "--inject", "stripe-width=4"
    )
    assert code == 1
    assert "FAIL avoidance" in out and "leave nothing of its copy" in out
    assert "inf" not in out
    # all nine sites are empty at each eps: three are named, six counted
    for eps in ("0.0", "0.05", "0.1"):
        assert (f"eps={eps}: site (-1, 1): its cut lines leave nothing of its copy (+6 more)"
                in out)
    assert out.count("more)") == 3


def test_verify_reads_no_tolerance_env(capsys, monkeypatch):
    # the width-1.9 fault leaves a separation shortfall of ~0.035; no
    # environment variable loosens the checks enough to accept it
    argv = ("verify", "--checks", "avoidance", "--inject", "stripe-width=1.9")
    monkeypatch.setenv("CROFT_FORGE_TOL", "0.1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "FAIL avoidance" in out


@pytest.mark.parametrize("target", ["body", "tortoise", "lattice"])
def test_render_valid_svg(capsys, tmp_path, target):
    out_path = tmp_path / f"{target}.svg"
    code, _, _ = run(
        capsys, "render", target, "--eps", "0.05", "--out", str(out_path)
    )
    assert code == 0
    root = ET.parse(out_path).getroot()
    assert root.tag.endswith("svg")


def _drawn_copies(svg):
    """The drawn copies of a picture, each its path and then its cut lines,
    as lists of (tag, attributes)."""
    copies = []
    for e in ET.fromstring(svg)[0]:
        if e.tag.endswith("path"):
            copies.append([])
        copies[-1].append((e.tag, e.attrib))
    return copies


def test_tortoise_drawing_is_the_lattice_centre_copy():
    """The tortoise picture is the patch's centre copy: its path and its six
    cut lines are the lattice picture's elements for site (0, 0)."""
    q = reference_step_function()
    stripes = tortoise.tortoise_area(0.05, "exact2", q=q).stripes()
    (centre,) = _drawn_copies(svgout.render_tortoise_svg(q, 0.05, stripes))
    assert [tag.rsplit("}", 1)[-1] for tag, _ in centre] == ["path"] + ["line"] * 6
    copies = _drawn_copies(svgout.render_lattice_svg(q, 0.05, stripes))
    assert len(copies) == len(PATCH_SITES)
    assert copies[PATCH_SITES.index((0, 0))] == centre


def test_custom_profile_round_trip(capsys, tmp_path):
    from croft_forge.stepfn import dump_qspec, reference_step_function

    path = tmp_path / "q.json"
    dump_qspec(reference_step_function(), path)
    code, out, _ = run(
        capsys, "scan", "--eps", "0.05", "--q-spec", str(path), "--format", "json"
    )
    assert code == 0
    ref_code, ref_out, _ = run(capsys, "scan", "--eps", "0.05", "--format", "json")
    assert json.loads(out) == json.loads(ref_out)


def _q36_profile(tmp_path):
    """The seeded uniform 36-interval profile, written as a q-spec file."""
    from croft_forge.stepfn import dump_qspec

    path = tmp_path / "q36.json"
    dump_qspec(q36_profile(), path)
    return path


def test_series_modes_read_a_narrow_cap_profile(capsys, tmp_path):
    """On a uniform 36-interval profile a break lies pi/18 from each cut
    angle, inside the cap: series scan and fit read it like any profile, and
    the series fields of an exact2 fit are numbers, the series2 net c2 that
    of the form."""
    path = _q36_profile(tmp_path)
    code, out, err = run(capsys, "scan", "--eps", "0.05", "--mode", "series2",
                         "--q-spec", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert "error" not in json.loads(out)[0]
    code, out, err = run(capsys, "fit", "--mode", "series2", "--q-spec", str(path))
    assert (code, err) == (0, "")
    assert "refused" not in out
    code, out, _ = run(
        capsys, "fit", "--mode", "exact2", "--q-spec", str(path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert "series_refused" not in data
    q = q36_profile()
    form = ansatz.assemble_quadratic_form("series2", template=q)
    want = form.value(q.values[:18], croft_forge.default_config())
    assert abs(data["series2_net_c2"] - want) <= 1e-13
    assert abs(data["c2"] - want) <= 1e-4  # the fit grid's eps^4 error
    assert all(isinstance(data[f"{m}_cut_{f}"], float)
               for m in ("series1", "series2") for f in ("linear", "c2"))


def test_verify_runs_every_check_on_a_narrow_cap_profile(capsys, tmp_path):
    """All seven checks run and pass on the q36 profile: the cancellation
    and series-vs-exact checks read the caps (halving ratio <= 0.3), the
    eigen check reads the closed-form series2 form, and the avoidance check
    runs on exact2 stripes, passes at width 2 and still catches the
    width-1.9 fault (closest pair 1.9655 at eps 0)."""
    path = _q36_profile(tmp_path)
    code, out, _ = run(capsys, "verify", "--q-spec", str(path))
    assert code == 0
    assert "SKIP" not in out and "FAIL" not in out
    assert "PASS cancellation" in out and "PASS series-vs-exact" in out
    assert "PASS eigen" in out and "PASS avoidance" in out
    assert out.splitlines()[-1] == "7/7 checks passed"
    code, out, _ = run(
        capsys, "verify", "--q-spec", str(path), "--checks", "avoidance",
        "--inject", "stripe-width=1.9",
    )
    assert code == 1
    assert "FAIL avoidance" in out and "only 1.965532" in out


def _uniform_qspec(tmp_path, n):
    """The zero profile on n uniform intervals, written as a q-spec file."""
    from croft_forge.stepfn import dump_qspec

    path = tmp_path / f"u{n}.json"
    dump_qspec(uniform_zero_profile(n), path)
    return path


def test_eigen_on_a_q_spec_break_set(capsys, tmp_path):
    """The exact2 form on the uniform 12-interval break set: n/2 = 6
    eigenvalues, all negative, and no published vector to compare with."""
    path = _uniform_qspec(tmp_path, 12)
    code, out, _ = run(capsys, "eigen", "--mode", "exact2", "--q-spec", str(path),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == {"positive": 0, "zero": 0, "negative": 6}
    assert data["eigenvalues"][0] == pytest.approx(-1.023e-2, abs=5e-6)
    assert len(data["top_eigenvector"]) == 6
    assert "reference_vector" not in data and "max_vector_deviation" not in data
    code, out, _ = run(capsys, "eigen", "--mode", "exact2", "--q-spec", str(path))
    lines = out.splitlines()
    assert lines[0] == "index,top_eigenvector"
    assert [line.split(",")[0] for line in lines[1:]] == [
        *map(str, range(6)), "top_shift", "top_gap", "signature"
    ]
    assert lines[-1] == "signature,0,0,6"


def test_verify_eigen_checks_the_q_spec_form(capsys, tmp_path):
    """``verify --checks eigen`` diagonalizes the series2 form on the
    q-spec's break set (norm 8.7 on the uniform 12 intervals), not the
    reference form (norm 8.4)."""
    from croft_forge.stepfn import read_qspec

    path = _uniform_qspec(tmp_path, 12)
    form = ansatz.assemble_quadratic_form("series2", template=read_qspec(path)[0])
    norm = f"(norm {np.linalg.norm(form.matrix, 2):.1e})"
    code, out, _ = run(capsys, "verify", "--q-spec", str(path), "--checks", "eigen")
    assert code == 0
    assert out.startswith("PASS eigen: ") and norm in out
    code, out, _ = run(capsys, "verify", "--checks", "eigen")
    assert code == 0
    assert "(norm 8.4e+00)" in out and norm not in out


def test_verify_eigen_cross_checks_jacobi(capsys, monkeypatch):
    """The eigen check holds the reported eigenvalues to the Jacobi
    reference: one 1e-11 off (above 1e-13 of the form's Frobenius norm,
    11.7) fails it, and the message names the largest difference."""
    jacobi = ansatz.jacobi_eigh
    monkeypatch.setattr(ansatz, "jacobi_eigh", lambda A: (jacobi(A)[0] + 1e-11, None))
    code, out, _ = run(capsys, "verify", "--checks", "eigen")
    assert code == 1
    assert out.startswith("FAIL eigen: ") and "largest |dlambda| vs Jacobi 1.0e-11" in out


def test_eigen_on_the_reference_q_spec_is_unchanged(capsys, tmp_path):
    """The reference break set as a q-spec gives the default output,
    with the comparison to the published vector."""
    from croft_forge.stepfn import dump_qspec, reference_step_function

    path = tmp_path / "q.json"
    dump_qspec(reference_step_function(), path)
    for fmt in ("csv", "json"):
        code, out, _ = run(capsys, "eigen", "--q-spec", str(path), "--format", fmt)
        assert code == 0
        assert (code, out) == run(capsys, "eigen", "--format", fmt)[:2]
    assert "max_vector_deviation" in out


@pytest.mark.parametrize("mode", ["series1", "series2", "exact1", "exact2"])
def test_eigen_reads_a_narrow_cap_break_set(capsys, tmp_path, mode):
    """On the uniform 36 intervals every cap covers four arcs; the closed
    form reads it in every mode, negative definite."""
    code, out, err = run(
        capsys, "eigen", "--mode", mode, "--q-spec", str(_uniform_qspec(tmp_path, 36))
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "signature,0,0,18"


@pytest.mark.parametrize("mode", ["series1", "series2", "exact1", "exact2"])
def test_eigen_on_the_two_interval_break_set(capsys, tmp_path, mode):
    """On {0, pi} the closure null space is empty: the form is the 2 x 2
    shift form, negative definite, and no mode hits a singular solve."""
    code, out, err = run(
        capsys, "eigen", "--mode", mode, "--q-spec", str(_uniform_qspec(tmp_path, 2)),
        "--format", "json",
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["signature"] == {"positive": 0, "zero": 0, "negative": 2}
    assert len(data["eigenvalues"]) == 2 and len(data["top_shift"]) == 2


def test_eigen_csv_prints_the_top_shift(capsys, tmp_path):
    """On {0, pi} the top direction is all shift: the CSV prints its two
    components and the top gap, as the JSON output does, before the
    signature.  The shift form is a multiple of the identity to rounding,
    so the gap is rounding and the direction any unit shift."""
    path = str(_uniform_qspec(tmp_path, 2))
    code, out, _ = run(capsys, "eigen", "--q-spec", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    shift = data["top_shift"]
    assert np.hypot(*shift) == pytest.approx(1.0, abs=1e-12)
    assert data["top_gap"] <= 1e-13
    code, out, _ = run(capsys, "eigen", "--q-spec", path)
    assert code == 0
    assert out.splitlines()[-3:] == [
        "top_shift," + ",".join(f"{x:.15g}" for x in shift),
        f"top_gap,{data['top_gap']:.15g}", "signature,0,0,2"
    ]


@pytest.mark.parametrize("values", ["NaN, NaN", "Infinity, -Infinity"])
def test_fit_on_a_non_finite_profile_is_usage_error(capsys, tmp_path, values):
    """JSON reads NaN and Infinity; an antipodal pair of them must not reach
    the fit, which printed c2,nan for NaN."""
    path = tmp_path / "q.json"
    path.write_text(
        '{"breaks": [{"num": 0, "den": 1}, {"num": 1, "den": 1}, {"num": 2, "den": 1}], '
        f'"values": [{values}]}}'
    )
    code = _exit_code(["fit", "--q-spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: --q-spec") and "is not finite" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("mode", ["series2", "exact2"])
def test_fit_on_a_large_profile(capsys, tmp_path, mode):
    """max|q| = 5: the closed-form probes shrink with the profile, so a fit
    on small eps runs, and the body-area c2 is 25 times the reference."""
    from croft_forge.stepfn import dump_qspec, make_step_function, reference_step_function

    q = reference_step_function()
    path = tmp_path / "q5.json"
    dump_qspec(make_step_function(q.break_fractions, 5.0 * q.values), path)
    eps = ["--eps=-0.01", "--eps=-0.005", "--eps=0.0025", "--eps=0.005", "--eps=0.01"]
    code, out, err = run(
        capsys, "fit", "--mode", mode, "--q-spec", str(path), *eps, "--format", "json"
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["body_area_c2"] == pytest.approx(
        25.0 * data["reference_body_area_c2"], rel=1e-13
    )
    assert isinstance(data["series2_net_c2"], float)


def test_missing_profile_is_usage_error(capsys):
    code, _, err = run(capsys, "scan", "--eps", "0.0", "--q-spec", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_bad_eps_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--eps-range", "garbage"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "eps_range, message",
    [
        ("0:0.1:0", "nonzero step"),
        ("0.1:0:0.05", "empty grid"),
        ("0:1:nan", "nonzero step"),
        ("0:1:1e-9", "more than"),
    ],
)
def test_degenerate_eps_range_is_usage_error(eps_range, message):
    env = dict(os.environ)
    src = str(Path(croft_forge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "croft_forge.cli", "scan", f"--eps-range={eps_range}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _no_convergence(*args, **kwargs):
    raise tortoise.ConvergenceError("no convergence (injected)")


def test_scan_reports_convergence_error_as_row(capsys, monkeypatch):
    monkeypatch.setattr(tortoise, "_minimize_pair_clip", _no_convergence)
    code, out, err = run(capsys, "scan", "--eps", "0.05", "--mode", "exact2",
                         "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"eps": 0.05, "mode": "exact2",
                     "error": "no convergence (injected)"}]
    assert "Traceback" not in err


def test_fit_convergence_error_is_exit_1(capsys, monkeypatch):
    """A solver that stops on a valid input is not a usage error: exit 1,
    with the solver's message."""
    monkeypatch.setattr(tortoise, "NEWTON_MAX_ITER", 1)
    code, out, err = run(capsys, "fit", "--mode", "exact2")
    assert code == 1
    assert err.startswith("error: class 0 at eps=")
    assert "no convergence in 1 Newton steps" in err
    assert out == ""


@pytest.mark.parametrize("mode", ["series1", "exact1", "exact2"])
def test_eigen_runs_the_requested_mode(capsys, monkeypatch, mode):
    seen = []
    n_vars = ansatz.closure_nullspace().shape[0] + 2  # step values and the shift pair

    def fake_form(mode_arg="series2", **kwargs):
        seen.append(mode_arg)
        return ansatz.QuadraticForm(
            matrix=-np.eye(n_vars - 2),
            basis=np.eye(n_vars)[:, : n_vars - 2],
            hessian=-2.0 * np.eye(n_vars),
        )

    monkeypatch.setattr(ansatz, "assemble_quadratic_form", fake_form)
    code, out, _ = run(capsys, "eigen", "--mode", mode, "--format", "json")
    assert code == 0
    assert seen == [mode]
    assert json.loads(out)["mode"] == mode


def _exit_code(argv):
    """Exit code of ``main(argv)`` in-process, whether returned or raised."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fit", "--eps", "0.1"), "at least 5 distinct eps values"),
        (("scan", "--mode", "series2", "--eps", "nan"), "expected a finite number"),
        (("scan", "--mode", "exact2", "--eps", "nan"), "expected a finite number"),
        (("scan", "--mode", "exact2", "--eps", "inf"), "expected a finite number"),
        (("fit", "--mode", "series2", "--eps=-inf"), "expected a finite number"),
        # render draws one picture, so it takes one eps
        (("render", "body", "--eps", "0.1", "--eps", "0.9"), "render draws one eps, got 2"),
        (("render", "lattice", "--eps-range", "-0.1:0.1:0.05"), "render draws one eps, got 5"),
    ],
)
def test_bad_eps_is_usage_error(capsys, argv, message):
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", [("scan",), ("fit",), ("render", "body")])
def test_eps_and_eps_range_together_are_a_usage_error(capsys, command):
    """``--eps`` and ``--eps-range`` exclude each other: given both, each
    command that takes an eps exits 2 naming the two options, in either
    order, and prints nothing on stdout."""
    for argv in ((*command, "--eps-range", "0:1:0.5", "--eps", "0.1"),
                 (*command, "--eps", "0.1", "--eps-range", "0:1:0.5")):
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert "not allowed with argument" in err
        assert "--eps-range" in err and "argument --eps" in err
        assert out == ""


@pytest.mark.parametrize(
    "content, message",
    [
        ("{bad", "JSONDecodeError"),
        ('{"breaks": [0, 1], "values": [1]}', "StepFunctionError"),
        # a zero denominator and an infinite radian break name the break
        pytest.param(
            '{"breaks": [{"num": 0, "den": 1}, {"num": 0, "den": 0}, {"num": 2, "den": 1}],'
            ' "values": [0, 0]}',
            "StepFunctionError: cannot interpret break {'num': 0, 'den': 0}",
            id="zero-denominator",
        ),
        pytest.param(
            '{"breaks": [0, Infinity, 6.283185307179586], "values": [0, 0]}',
            "StepFunctionError: cannot interpret break inf",
            id="infinite-break",
        ),
        ('{"breaks": [0, 2]}', "KeyError"),
        ("[1]", "TypeError"),
    ],
)
def test_bad_profile_file_is_usage_error(capsys, tmp_path, content, message):
    path = tmp_path / "q.json"
    path.write_text(content)
    code = _exit_code(["scan", "--eps", "0.0", "--q-spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: --q-spec") and message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--checks", "avoidance", "--inject", "stripe-width=abc"),
        # a misspelt key would otherwise leave the fault out and pass
        ("verify", "--checks", "avoidance", "--inject", "stripe_width=1.9"),
        ("verify", "--checks", "avoidance", "--inject", "stripe-width"),
        ("scan", "--eps", "0.0", "--q-spec", "."),
        ("constants", "--out", "."),
        # a value no check can run on: caught before any check runs
        ("verify", "--inject", "eps=nan"),
        ("verify", "--inject", "eps=inf"),
        ("verify", "--inject", "stripe-width=-1"),
        ("verify", "--inject", "stripe-width=0"),
        ("verify", "--inject", "stripe-width=nan"),
    ],
)
def test_bad_inject_or_path_is_usage_error(capsys, argv):
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ")
    if "--inject" in argv:
        assert err.startswith("error: --inject")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # verify reads eps from --inject, not from --eps
        ("verify", "--checks", "antipodal", "--eps", "0.3"),
        ("verify", "--checks", "antipodal", "--eps-range", "0:0.2:0.1"),
        ("eigen", "--eps-range", "0:0.2:0.1"),
        ("eigen", "--eps", "0.1"),
        ("constants", "--eps", "0.1"),
        ("constants", "--q-spec", "q.json"),
        # verify reads none of --mode, --format, --out; constants and render no --format
        ("verify", "--checks", "closure", "--mode", "series1"),
        ("verify", "--checks", "closure", "--format", "json"),
        ("constants", "--format", "json"),
        ("render", "body", "--format", "json"),
    ],
)
def test_unused_option_is_usage_error(capsys, argv):
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("usage: croft-forge")
    assert f"unrecognized arguments: {argv[-2]}" in err
    assert out == ""


def test_verify_out_is_usage_error_and_writes_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = _exit_code(["verify", "--checks", "closure", "--out", "v.txt", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("usage: croft-forge")
    assert "unrecognized arguments: --out v.txt --format json" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


_EPS_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-0.2, max_value=0.2).map(repr),
)
_RANGE_TEXT = st.one_of(
    st.text(max_size=12),
    st.tuples(_EPS_TEXT, _EPS_TEXT, _EPS_TEXT).map(":".join),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["scan", "fit", "render body", "verify"]))
    argv = command.split()
    if command == "verify":
        # verify takes no --mode or --eps; those usage errors have their own tests
        return argv + ["--checks", "closure,antipodal"]
    if draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(["series1", "series2"]))]
    if draw(st.booleans()):
        argv.append(f"--eps-range={draw(_RANGE_TEXT)}")
    for eps in draw(st.lists(_EPS_TEXT, max_size=6)):
        argv.append(f"--eps={eps}")
    return argv


@settings(max_examples=40, deadline=None)
@given(_argv())
def test_generated_argv_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    # grids beyond about 50 points are refused, which keeps each call short
    with mock.patch("croft_forge.cli.MAX_EPS_GRID", 50), \
            redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the q-spec's optional lattice shift


def _qspec_with_shift(tmp_path, shift, name="q.json"):
    """The reference profile as a q-spec file, with ``shift`` unless None."""
    from croft_forge.stepfn import dump_qspec

    path = tmp_path / name
    dump_qspec(reference_step_function(), path, shift=shift)
    return str(path)


SHIFT_ARGV = [
    ("fit", "--mode", "series2"),
    ("fit", "--mode", "exact1", "--format", "json"),
    ("scan", "--eps", "0.05", "--mode", "exact2"),
    ("verify", "--checks", "cancellation,series-vs-exact,avoidance"),
    ("render", "lattice", "--eps", "0.08"),
]


@pytest.mark.parametrize("argv", SHIFT_ARGV, ids=[" ".join(a[:2]) for a in SHIFT_ARGV])
def test_a_reference_shift_spec_prints_what_no_spec_prints(capsys, tmp_path, argv):
    """Without a shift, or with the reference one, a q-spec of the
    reference profile prints byte for byte what no q-spec prints; another
    shift prints something else."""
    code, want, _ = run(capsys, *argv)
    for shift in (None, lattice.default_config()):
        assert run(capsys, *argv, "--q-spec", _qspec_with_shift(tmp_path, shift)) == (
            code, want, "")
    _, other, _ = run(capsys, *argv, "--q-spec", _qspec_with_shift(tmp_path, (0.1, -0.2)))
    assert other != want


def test_fit_scan_and_verify_pass_the_shift_through(capsys, tmp_path, monkeypatch):
    """A shifted q-spec reaches every read of a shift: the cut data of each
    record and series coefficient of ``fit`` and ``scan``, and of each
    stripe fit of ``verify``, and each of its patch checks."""
    shift = (0.1, -0.2)
    path = _qspec_with_shift(tmp_path, shift)
    q = reference_step_function()
    net = tortoise.series_net_coefficient(q, "series2", shift)
    area = tortoise.tortoise_area(0.05, "series2", q=q, shift=shift).tortoise_area
    seen = []
    read, check = lattice.second_order_read, lattice.verify_avoidance
    for module in (tortoise, croft_forge.cli):
        monkeypatch.setattr(module, "second_order_read",
                            lambda q, shift=None: seen.append(shift) or read(q, shift))
    monkeypatch.setattr(croft_forge.cli, "verify_avoidance",
                        lambda *a, **kw: seen.append(kw["shift"]) or check(*a, **kw))
    code, out, _ = run(capsys, "fit", "--mode", "series2", "--q-spec", path, "--format", "json")
    assert code == 0 and json.loads(out)["series2_net_c2"] == net
    code, out, _ = run(capsys, "scan", "--eps", "0.05", "--q-spec", path, "--format", "json")
    assert code == 0 and json.loads(out)[0]["tortoise_area"] == area
    code, _, _ = run(capsys, "verify", "--checks", "cancellation,series-vs-exact,avoidance",
                     "--q-spec", path)
    assert code == 0
    assert len(seen) == (8 + 1 + 2 * 2) + 1 + (1 + 6 + 3 + 3) and all(s == shift for s in seen)


def test_series_vs_exact_judges_the_last_halving(capsys, tmp_path, monkeypatch):
    """Far from the reference shift the gap shrinks by 0.461 from eps 0.1 to
    0.05, before its cubic term leads, and by 0.170 from 0.05 to 0.025: the
    check passes on the last ratio and prints both.  A gap linear in eps
    (ratio 0.5 at every halving) fails it."""
    path = _qspec_with_shift(tmp_path, (0.3, -0.1))
    argv = ("verify", "--checks", "series-vs-exact", "--q-spec", path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("PASS series-vs-exact: series2-vs-exact2 area gap 4.069e-05 at "
                          "eps=0.1, halving ratios 0.461, 0.170\n")
    area = tortoise.tortoise_area

    def linear_gap(eps, mode="series2", **kw):
        rec = area(eps, mode, **kw)
        if mode != "exact2":
            return rec
        return dataclasses.replace(rec, tortoise_area=rec.tortoise_area + 1e-3 * eps)

    monkeypatch.setattr(tortoise, "tortoise_area", linear_gap)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.startswith("FAIL series-vs-exact:")


@pytest.mark.parametrize("spec, message", [
    ('"breaks": [0, 3.141592653589793, 6.283185307179586], "values": [true, -1.0]',
     "value[0]=True is not a real number"),
    ('"breaks": [0, 3.141592653589793, 6.283185307179586], "values": ["0", "-0"]',
     "value[0]='0' is not a real number"),
    ('"breaks": [false, 3.141592653589793, 6.283185307179586], "values": [0, 0]',
     "cannot interpret break False"),
], ids=["bool-value", "string-value", "bool-break"])
@pytest.mark.parametrize("command", [("eigen",), ("verify", "--checks", "closure")])
def test_qspec_entry_that_is_no_real_number_is_usage_error(capsys, tmp_path, spec, message,
                                                          command):
    """JSON's true and "0" are no numbers of a q-spec, though NumPy reads
    them as 1.0 and 0.0."""
    path = tmp_path / "q.json"
    path.write_text("{" + spec + "}")
    code = _exit_code([*command, "--q-spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith(f"error: --q-spec {path}: StepFunctionError: {message}")
    assert out == ""


@pytest.mark.parametrize("shift", ['[0.1]', '[0.1, "0.2"]', '[true, 0]', 'null', '"0, 0"',
                                   '[NaN, 0]', '[1e400, 0]'])
@pytest.mark.parametrize("command", [("fit",), ("scan", "--eps", "0.05"),
                                     ("verify", "--checks", "avoidance")])
def test_malformed_shift_is_usage_error(capsys, tmp_path, shift, command):
    path = tmp_path / "q.json"
    spec = json.loads(Path(_qspec_with_shift(tmp_path, None)).read_text())
    path.write_text(json.dumps(spec)[:-1] + f', "shift": {shift}}}')
    code = _exit_code([*command, "--q-spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith(f"error: --q-spec {path}: StepFunctionError: shift must be a list")
    assert out == ""
