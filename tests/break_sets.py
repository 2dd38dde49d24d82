"""Seeded random profiles on random antipodal break sets, for the tests."""

import math
from fractions import Fraction

import numpy as np

from croft_forge import ansatz
from croft_forge.body import croft_constants
from croft_forge.lattice import PSI
from croft_forge.stepfn import TWO_PI, make_step_function


def uniform_zero_profile(n: int):
    """The zero profile on n uniform intervals."""
    return make_step_function([Fraction(2 * i, n) for i in range(n + 1)], np.zeros(n))


def q36_profile():
    """A seeded closure-projected profile on 36 uniform intervals, scaled to
    max |q| = 1.  Breaks lie pi/18 from each cut angle, so every cap covers
    four arcs; the cap ends stay 0.086 from every break."""
    template = uniform_zero_profile(36)
    v = ansatz.closure_project(np.random.default_rng(1).standard_normal(18), template)
    return ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template)


def seeded_profile(rng: np.random.Generator, max_den: int = 24):
    """Random antisymmetric values on a random antipodal break set: 0 and
    distinct multiples j/den of pi in (0, pi), den <= max_den, with their
    antipodes.  The values are not closure-projected."""
    den = int(rng.integers(2, max_den + 1))
    inner = sorted(rng.choice(np.arange(1, den), size=int(rng.integers(0, den)), replace=False))
    half = [Fraction(0)] + [Fraction(int(j), den) for j in inner]
    v = rng.standard_normal(len(half))
    breaks = half + [f + 1 for f in half] + [Fraction(2)]
    return make_step_function(breaks, np.concatenate([v, -v]))


def seeded_break_set(n: int, seed: int):
    """The zero profile on a seeded antipodal break set of n intervals: 0 and
    n/2 - 1 distinct multiples j pi/(4n), 0 < j < 4n, drawn by
    default_rng(100 seed + n), with their antipodes."""
    rng = np.random.default_rng(100 * seed + n)
    inner = sorted(rng.choice(range(1, 4 * n), n // 2 - 1, replace=False))
    half = [Fraction(0)] + [Fraction(int(j), 4 * n) for j in inner]
    return make_step_function(half + [f + 1 for f in half] + [Fraction(2)], np.zeros(n))


def arcs_under_caps(template) -> list[int]:
    """m_c for the caps c = 0, 1, 2 of a half-turn: the number of arcs wholly
    inside |phi - c pi/3| <= phi_c."""
    phi_c = croft_constants().phi_c
    lo, hi = template.breaks[:-1], template.breaks[1:]
    counts = []
    for c in range(3):
        start = (lo - c * PSI + math.pi) % TWO_PI - math.pi  # from the cap centre
        counts.append(int(np.count_nonzero((start >= -phi_c) & (start + hi - lo <= phi_c))))
    return counts
