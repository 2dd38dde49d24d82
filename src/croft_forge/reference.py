"""Reference dataset for the 24-interval constant-diameter family.

The numbers below describe the published 1-parameter family of
constant-diameter-2 bodies used as the default input everywhere in this
package: the break angles and radius-perturbation step values (the
profile of ``stepfn.reference_step_function``), the per-interval center
offsets of the arc chain (at unit family parameter) and the pre-rotation
shift of the lattice copies.  All values are printed to 15 decimals.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Interval ends as rational multiples of pi (25 breaks, 24 intervals).
BREAK_FRACTIONS: tuple[Fraction, ...] = tuple(
    Fraction(n, d)
    for n, d in [
        (0, 1), (4, 45), (1, 6), (11, 45), (1, 3), (19, 45), (1, 2),
        (26, 45), (2, 3), (34, 45), (5, 6), (41, 45), (1, 1), (49, 45),
        (7, 6), (56, 45), (4, 3), (64, 45), (3, 2), (71, 45), (5, 3),
        (79, 45), (11, 6), (86, 45), (2, 1),
    ]
)

# 24 radius-perturbation values; the second half is the negated first half.
Q_VALUES = np.array([
    -0.977901957024321, +0.724209871347166, -0.733569955967565,
    +1.000000000000000, -0.922743876968233, +0.488920844394468,
    -0.126049416295258, +0.044264839209546, +0.004202409557006,
    -0.101935908145429, +0.472228160625608, -0.899297801582359,
    +0.977901957024321, -0.724209871347166, +0.733569955967565,
    -1.000000000000000, +0.922743876968233, -0.488920844394468,
    +0.126049416295258, -0.044264839209546, -0.004202409557006,
    +0.101935908145429, -0.472228160625608, +0.899297801582359,
])

# Per-interval x offsets of the arc centers at unit family parameter.
# Opposite intervals share their center, so the second half repeats.
X_OFFSETS = np.array([
    -0.977901957024321, +0.658272945792727, -0.604201417786322,
    +0.642824448212470, -0.318547490271646, +0.022965115071595,
    +0.022965115071595, -0.018237632467773, +0.001793582358496,
    +0.078143098622847, -0.419097570873107, +0.899297801582358,
    -0.977901957024321, +0.658272945792727, -0.604201417786322,
    +0.642824448212470, -0.318547490271646, +0.022965115071595,
    +0.022965115071595, -0.018237632467773, +0.001793582358496,
    +0.078143098622847, -0.419097570873107, +0.899297801582358,
])

# Per-interval y offsets of the arc centers at unit family parameter.
Y_OFFSETS = np.array([
    +0.000000000000000, +0.469165603677154, -0.259724309980211,
    +0.944514570708893, -0.720630471716577, +0.649101774356247,
    +0.034131513666520, +0.199386707906710, +0.164691626090284,
    +0.090961755271850, +0.378043789657369, +0.000000000000000,
    +0.000000000000000, +0.469165603677154, -0.259724309980211,
    +0.944514570708893, -0.720630471716577, +0.649101774356247,
    +0.034131513666520, +0.199386707906710, +0.164691626090284,
    +0.090961755271850, +0.378043789657369, +0.000000000000000,
])

# Shift (per unit family parameter) applied to every copy in its own frame,
# before it is rotated by its color angle (0, 2*pi/3 or 4*pi/3), as
# ``lattice.place_copy`` does.
SHIFT_X = -0.001383301426275
SHIFT_Y = -0.158574235421304

# The body area is pi - AREA_COEFF * eps**2 (exactly quadratic in eps).
AREA_COEFF = 0.010474705472633

# Printed second-order coefficients of the cut-area sum and of the net
# tortoise area, reproduced here for comparison reporting only.
PRINTED_CUT_COEFF_SHIFT_TILT = -0.0118673317
PRINTED_NET_COEFF_SHIFT_TILT = +0.0013926262
PRINTED_NET_COEFF_SHIFT_ONLY = +2.04e-15
