"""Piecewise-constant 2*pi-periodic functions with half-turn antisymmetry.

A :class:`StepFunction` holds the radius-perturbation profile q of the
constant-diameter construction: constant on each interval of a partition
of [0, 2*pi), with q(phi + pi) = -q(phi).  Break angles are kept both as
floats and as exact rational multiples of pi so that the pairing of a
break with its antipode, and lookups exactly at a break, are unambiguous.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

ANTISYMMETRY_TOL = 1e-12
BREAK_SNAP_TOL = 1e-12


class StepFunctionError(ValueError):
    """Malformed step-function specification."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, 2*pi) with antisymmetric values.

    ``breaks`` has one more entry than ``values``; interval i is
    [breaks[i], breaks[i+1]) and carries values[i].
    """

    breaks: np.ndarray
    values: np.ndarray
    break_fractions: tuple[Fraction, ...]

    @property
    def n_intervals(self) -> int:
        return len(self.values)

    def __call__(self, phi: float, side: str = "right") -> float:
        return eval_step(self, phi, side)

    def interval_of(self, phi: float, side: str = "right") -> int:
        """Index of the interval containing phi (reduced mod 2*pi).

        Exactly at a break, ``side='right'`` selects the interval starting
        there and ``side='left'`` the one ending there.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        phi = phi % TWO_PI
        breaks = self.breaks
        # Snap to a break if within tolerance (handles pi/3 vs (1/3)*pi).
        j = bisect.bisect_left(breaks, phi)
        for cand in (j - 1, j):
            if 0 <= cand < len(breaks) and abs(breaks[cand] - phi) <= BREAK_SNAP_TOL:
                if side == "right":
                    return cand % self.n_intervals
                return (cand - 1) % self.n_intervals
        if phi >= TWO_PI - BREAK_SNAP_TOL:
            return 0 if side == "right" else self.n_intervals - 1
        return bisect.bisect_right(breaks, phi) - 1

    def scaled(self, factor: float) -> "StepFunction":
        """Same partition, values multiplied by ``factor``."""
        return StepFunction(
            breaks=self.breaks,
            values=self.values * factor,
            break_fractions=self.break_fractions,
        )


def _to_fraction(b) -> Fraction:
    if isinstance(b, Fraction):
        return b
    if isinstance(b, tuple):
        return Fraction(b[0], b[1])
    if isinstance(b, dict):
        return Fraction(b["num"], b["den"])
    if isinstance(b, (int, float)):
        return Fraction(float(b) / math.pi).limit_denominator(10**6)
    raise StepFunctionError(f"cannot interpret break {b!r}")


def make_step_function(breaks: Sequence, values: Iterable[float]) -> StepFunction:
    """Validate and build a :class:`StepFunction`.

    ``breaks`` are rational multiples of pi, given as Fractions,
    (num, den) tuples, {"num", "den"} dicts, or plain radians (converted
    to the nearest small rational multiple of pi).  The first break must
    be 0 and the last 2*pi.  Validation enforces strict monotonicity, the
    value/interval count, the pairing of every break with its antipode,
    and the antisymmetry of the values.
    """
    fracs = tuple(_to_fraction(b) for b in breaks)
    vals = np.asarray(list(values), dtype=float)

    if len(fracs) < 2 or fracs[0] != 0 or fracs[-1] != 2:
        raise StepFunctionError("breaks must start at 0 and end at 2*pi")
    if any(b2 <= b1 for b1, b2 in zip(fracs, fracs[1:])):
        raise StepFunctionError("breaks must be strictly increasing")
    if len(vals) != len(fracs) - 1:
        raise StepFunctionError(
            f"{len(fracs) - 1} intervals but {len(vals)} values"
        )

    inner = fracs[:-1]
    index = {f: i for i, f in enumerate(inner)}
    # Every break must have its antipode in the break list.
    for f in inner:
        if (f + 1) % 2 not in index:
            raise StepFunctionError(f"break {f}*pi has no antipodal break")
    # Value-by-value antisymmetry on paired intervals.
    for i, f in enumerate(inner):
        j = index[(f + 1) % 2]
        if abs(vals[j] + vals[i]) > ANTISYMMETRY_TOL:
            raise StepFunctionError(
                f"antisymmetry violated: value[{i}]={vals[i]!r} vs "
                f"value[{j}]={vals[j]!r} on the antipodal interval"
            )

    brk = np.array([float(f) * math.pi for f in fracs])
    brk[0] = 0.0
    brk[-1] = TWO_PI
    return StepFunction(breaks=brk, values=vals, break_fractions=fracs)


def eval_step(f: StepFunction, phi: float, side: str = "right") -> float:
    """Value of ``f`` at ``phi``; ``side`` picks the limit at a break."""
    return float(f.values[f.interval_of(phi, side)])


def zero_step_function() -> StepFunction:
    """The zero profile on {[0, pi), [pi, 2*pi)} (the disc case)."""
    return make_step_function([Fraction(0), Fraction(1), Fraction(2)], [0.0, 0.0])


# ---------------------------------------------------------------------------
# JSON q-spec files: {"breaks": [{"num": int, "den": int}, ...], "values": [...]}


def qspec_from_dict(spec: dict) -> StepFunction:
    return make_step_function(spec["breaks"], spec["values"])


def load_qspec(path: str | Path) -> StepFunction:
    with open(path) as fh:
        return qspec_from_dict(json.load(fh))


def dump_qspec(f: StepFunction, path: str | Path) -> None:
    spec = {
        "breaks": [
            {"num": fr.numerator, "den": fr.denominator} for fr in f.break_fractions
        ],
        "values": [float(v) for v in f.values],
    }
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2)


def reference_step_function() -> StepFunction:
    """The bundled 24-interval reference profile."""
    from . import reference

    return qspec_from_dict(reference.reference_qspec_dict())
