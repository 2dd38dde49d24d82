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
from croft_forge import ansatz, tortoise
from croft_forge.cli import main


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


def test_eigen_json(capsys):
    code, out, _ = run(capsys, "eigen", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == {"positive": 0, "zero": 0, "negative": 12}
    assert len(data["eigenvalues"]) == 12
    assert max(data["eigenvalues"]) < 0


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "7/7 checks passed" in out
    assert "FAIL" not in out


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "closure,antipodal")
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "nonsense")
    assert code == 2
    assert "unknown checks" in err


def test_verify_catches_injected_narrow_stripe(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "avoidance", "--inject", "stripe-width=1.9"
    )
    assert code == 1
    assert "FAIL avoidance" in out


def test_verify_tolerance_env_loosens(capsys, monkeypatch):
    # the width-1.9 fault leaves a separation shortfall of ~0.035; a loose
    # enough environment tolerance must accept it, a default one must not
    argv = ("verify", "--checks", "avoidance", "--inject", "stripe-width=1.9")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    monkeypatch.setenv("CROFT_FORGE_TOL", "0.1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "PASS avoidance" in out


@pytest.mark.parametrize("target", ["body", "tortoise", "lattice"])
def test_render_valid_svg(capsys, tmp_path, target):
    out_path = tmp_path / f"{target}.svg"
    code, _, _ = run(
        capsys, "render", target, "--eps", "0.05", "--out", str(out_path)
    )
    assert code == 0
    root = ET.parse(out_path).getroot()
    assert root.tag.endswith("svg")


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


def test_series_modes_refuse_a_narrow_cap_profile(capsys, tmp_path):
    """On a uniform 36-interval profile a break lies pi/18 from each cut
    angle, inside the cap: series scan and fit exit 2 with the reason and
    print no rows; an exact2 fit still runs and marks its series fields."""
    from fractions import Fraction

    from croft_forge.stepfn import dump_qspec, make_step_function

    template = make_step_function([Fraction(i, 18) for i in range(37)], np.zeros(36))
    v = ansatz.closure_project(np.random.default_rng(1).standard_normal(18), template)
    path = tmp_path / "q36.json"
    dump_qspec(ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template), path)
    for argv in (["scan", "--eps", "0.05"], ["fit"]):
        code, out, err = run(capsys, *argv, "--mode", "series2", "--q-spec", str(path))
        assert (code, out) == (2, "")
        assert "inside the cap half-angle" in err
    code, out, _ = run(
        capsys, "fit", "--mode", "exact2", "--q-spec", str(path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data["c2"], float)
    assert data["series2_net_c2"] == data["series1_cut_c2"] == "refused"
    assert "inside the cap half-angle" in data["series_refused"]


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


def test_fit_convergence_error_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(tortoise, "_minimize_pair_clip", _no_convergence)
    code, out, err = run(capsys, "fit", "--mode", "exact1")
    assert code == 2
    assert err.startswith("error: no convergence (injected)")
    assert out == ""


@pytest.mark.parametrize("mode", ["series1", "exact1", "exact2"])
def test_eigen_runs_the_requested_mode(capsys, monkeypatch, mode):
    seen = []

    def fake_form(mode_arg="series2", **kwargs):
        seen.append(mode_arg)
        return ansatz.QuadraticForm(
            matrix=-np.eye(ansatz.N_VARS - 2),
            basis=np.eye(ansatz.N_VARS)[:, : ansatz.N_VARS - 2],
            hessian=-2.0 * np.eye(ansatz.N_VARS),
            mode=mode_arg,
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
    ],
)
def test_bad_eps_is_usage_error(capsys, argv, message):
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-9"])
def test_bad_tolerance_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CROFT_FORGE_TOL", value)
    code = _exit_code(["verify", "--checks", "closure"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: CROFT_FORGE_TOL")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "content, message",
    [
        ("{bad", "JSONDecodeError"),
        ('{"breaks": [0, 1], "values": [1]}', "StepFunctionError"),
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
    ],
)
def test_bad_inject_or_path_is_usage_error(capsys, argv):
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # verify reads eps from --inject, not from --eps
        ("verify", "--checks", "antipodal", "--eps", "0.3"),
        ("verify", "--checks", "antipodal", "--eps-range", "0:0.2:0.1"),
        ("eigen", "--q-spec", "q.json"),
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
