"""Piecewise-constant 2*pi-periodic functions with half-turn antisymmetry.

A :class:`StepFunction` holds the radius-perturbation profile q of the
constant-diameter construction: constant on each interval of a partition
of [0, 2*pi), with q(phi + pi) = -q(phi).  Break angles are kept both as
floats and as exact rational multiples of pi so that the pairing of a
break with its antipode is unambiguous.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

ANTISYMMETRY_TOL = 1e-12


class StepFunctionError(ValueError):
    """Malformed step-function specification."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, 2*pi) with antisymmetric values.

    ``breaks`` has one more entry than ``values``; interval i is
    [breaks[i], breaks[i+1]) and carries values[i].  ``break_fractions``
    are the same breaks as exact multiples of pi, read by
    :func:`make_step_function` from Fractions, {"num", "den"} dicts or
    plain radians.
    """

    breaks: np.ndarray
    values: np.ndarray
    break_fractions: tuple[Fraction, ...]

    @property
    def n_intervals(self) -> int:
        return len(self.values)


def _is_real(x) -> bool:
    """A real number that is no bool: ints, floats, Fractions, NumPy's."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _to_fraction(b) -> Fraction:
    """A break as a Fraction of pi; StepFunctionError names one it cannot read."""
    try:
        if isinstance(b, Fraction):
            return b
        if isinstance(b, dict) and _is_real(b["num"]) and _is_real(b["den"]):
            return Fraction(operator.index(b["num"]), operator.index(b["den"]))
        if _is_real(b):
            return Fraction(float(b) / math.pi).limit_denominator(10**6)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise StepFunctionError(f"cannot interpret break {b!r}: {exc}") from None
    raise StepFunctionError(f"cannot interpret break {b!r}")


@lru_cache(maxsize=64)  # bounded for sweeps over many break sets
def _break_set(fracs: tuple[Fraction, ...]) -> np.ndarray:
    """Checked float breaks of one break set, read-only.

    Enforces the endpoints 0 and 2*pi, strict monotonicity and the pairing
    of every break with its antipode by position, the rule the package
    reads antipodes by: n is even and break h + k is break k + 1 (in units
    of pi) for k < h = n/2, so interval i + h is the antipode of interval i.
    """
    if len(fracs) < 2 or fracs[0] != 0 or fracs[-1] != 2:
        raise StepFunctionError("breaks must start at 0 and end at 2*pi")
    if any(b2 <= b1 for b1, b2 in zip(fracs, fracs[1:])):
        raise StepFunctionError("breaks must be strictly increasing")
    h, odd = divmod(len(fracs) - 1, 2)
    if odd or any(fracs[h + k] - fracs[k] != 1 for k in range(h)):
        inner = fracs[:-1]
        f = next(f for f in inner if (f + 1) % 2 not in inner)
        raise StepFunctionError(f"break {f}*pi has no antipodal break")
    brk = np.array([float(f) * math.pi for f in fracs])
    brk[0] = 0.0
    brk[-1] = TWO_PI
    brk.setflags(write=False)
    return brk


def require_finite(vals: np.ndarray) -> None:
    """Raise StepFunctionError naming the first non-finite value."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise StepFunctionError(f"value[{bad[0]}]={float(vals[bad[0]])!r} is not finite")


def make_step_function(breaks: Sequence, values: Iterable[float]) -> StepFunction:
    """Validate and build a :class:`StepFunction`.

    ``breaks`` are rational multiples of pi, given as Fractions,
    {"num", "den"} dicts, or plain radians (converted to the nearest small
    rational multiple of pi); every number, value or break, is a real
    number that is no bool (``_is_real``).  The first break must
    be 0 and the last 2*pi.  Validation enforces strict monotonicity, the
    pairing of break k with its antipode k + n/2 (checked once per break
    set, ``_break_set``), the value/interval count, finite values (NaN would
    pass every comparison below) and the antisymmetry of the values.  The
    returned breaks are read-only and shared by every profile on the same
    break set.
    """
    fracs = tuple(_to_fraction(b) for b in breaks)
    brk = _break_set(fracs)
    values = list(values)
    bad = next((i for i, v in enumerate(values) if not _is_real(v)), None)
    if bad is not None:
        raise StepFunctionError(f"value[{bad}]={values[bad]!r} is not a real number")
    vals = np.asarray(values, dtype=float)
    if len(vals) != len(fracs) - 1:
        raise StepFunctionError(
            f"{len(fracs) - 1} intervals but {len(vals)} values"
        )
    require_finite(vals)
    # Value-by-value antisymmetry on paired intervals i and i + h.
    h = len(vals) // 2
    bad = np.flatnonzero(np.abs(vals[h:] + vals[:h]) > ANTISYMMETRY_TOL)
    if len(bad):
        i = int(bad[0])
        raise StepFunctionError(
            f"antisymmetry violated: value[{i}]={float(vals[i])!r} vs "
            f"value[{i + h}]={float(vals[i + h])!r} on the antipodal interval"
        )
    return StepFunction(breaks=brk, values=vals, break_fractions=fracs)


def zero_step_function() -> StepFunction:
    """The zero profile on {[0, pi), [pi, 2*pi)} (the disc case)."""
    return make_step_function([Fraction(0), Fraction(1), Fraction(2)], [0.0, 0.0])


# ---------------------------------------------------------------------------
# JSON q-spec files: {"breaks": [{"num": int, "den": int}, ...], "values": [...]}
# and optionally "shift": [sx, sy], the lattice shift of the copies


def finite_shift(shift) -> tuple[float, float]:
    """The lattice shift (sx, sy) as a pair of floats.  Raises
    StepFunctionError unless it is two finite numbers (a bool is none)."""
    try:
        ok = len(shift) == 2 and all(_is_real(x) and math.isfinite(x) for x in shift)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        ok = False
    if not ok:
        raise StepFunctionError(f"shift must be a list of two finite numbers, got {shift!r}")
    return float(shift[0]), float(shift[1])


def qspec_shift(spec: dict) -> tuple[float, float] | None:
    """The q-spec's ``"shift": [sx, sy]`` read by ``finite_shift``, or None
    (the reference shift) where the spec has none."""
    return finite_shift(spec["shift"]) if "shift" in spec else None


def read_qspec(path: str | Path) -> tuple[StepFunction, tuple[float, float] | None]:
    """The profile and the shift (``qspec_shift``) of a q-spec file."""
    with open(path) as fh:
        spec = json.load(fh)
    return make_step_function(spec["breaks"], spec["values"]), qspec_shift(spec)


def dump_qspec(f: StepFunction, path: str | Path, shift=None) -> None:
    """Write ``f`` as a q-spec file, with ``shift`` unless it is None."""
    spec = {
        "breaks": [
            {"num": fr.numerator, "den": fr.denominator} for fr in f.break_fractions
        ],
        "values": [float(v) for v in f.values],
    }
    if shift is not None:
        spec["shift"] = [float(x) for x in shift]
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2)


@lru_cache(maxsize=1)
def reference_step_function() -> StepFunction:
    """The 24-interval reference profile of ``reference``, built once and
    shared; its arrays are read-only."""
    from . import reference

    q = make_step_function(reference.BREAK_FRACTIONS, reference.Q_VALUES)
    q.values.setflags(write=False)
    return q
