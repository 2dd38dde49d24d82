"""Seeded random profiles on random antipodal break sets, for the tests."""

from fractions import Fraction

import numpy as np

from croft_forge.stepfn import make_step_function


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
