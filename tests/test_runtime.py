"""The package runs on NumPy alone: SciPy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter where any import of scipy fails.
NO_SCIPY_SCRIPT = r"""
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, RefuseScipy())

import croft_forge
from croft_forge.cli import main

c = croft_forge.croft_constants()
pinned = {
    "phi_c": 0.2633155389648316,
    "w_c": 0.034467692551095164,
    "a_c": 0.012003664907850708,
    "lattice_constant": 3.9310646148978097,
    "density": 0.22936473162975854,
}
for name, value in pinned.items():
    assert abs(getattr(c, name) - value) <= 1e-15, (name, getattr(c, name))
assert main(["fit", "--mode", "exact2", "--format", "json"]) == 0
assert main(["verify"]) == 0
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print("no-scipy run ok")
"""


def test_runtime_needs_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "7/7 checks passed" in proc.stdout
    assert proc.stdout.rstrip().endswith("no-scipy run ok")
