"""The diameter pass's shortcuts against the full lists they replace.

``lattice._vertex_pairs`` lists only the vertex pairs within
``DIAMETER_BAND`` of their row's largest squared distance, and
``lattice._within`` reduces angles with a floor instead of the float
``%``.  Here both meet the code they replaced: the full triangle of
vertex pairs, bit for bit through ``farthest_pairs``, and the ``%``
range test, entry by entry.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import full_walk
from call_counts import count_calls
from croft_forge import lattice, tortoise
from croft_forge.stepfn import TWO_PI, reference_step_function


def full_triangle(t):
    """Each unordered pair of a row's vertices once, i <= j in row-major
    order, padding included: the vertex pairs of the diameter pass before
    the band."""
    i, j = np.triu_indices(t.vertices.shape[1])
    return t.vertices[:, i], t.vertices[:, j], t.vertex_ok[:, i] & t.vertex_ok[:, j]


def points(*xy) -> full_walk.TrimmedBody:
    """A trimmed body of vertices alone: no arc pieces, no chords."""
    none = np.zeros((0, 2))
    return full_walk.TrimmedBody(none, np.zeros(0), none, none, none, none,
                                 np.array(xy, dtype=float).reshape(-1, 2))


def hexed(found):
    """Each diameter and both witness points as exact hex strings."""
    return [(d.hex(), [float(x).hex() for p in w for x in p]) for d, w in found]


def both(monkeypatch, table, rows):
    """``farthest_pairs`` with the band, and with the full triangle."""
    banded = lattice.farthest_pairs(table, rows)
    with monkeypatch.context() as m:
        m.setattr(lattice, "_vertex_pairs", full_triangle)
        full = lattice.farthest_pairs(table, rows)
    return hexed(banded), hexed(full)


# hypot(x, y) == 2.0 while x*x + y*y rounds above 4.0
TIE_D2 = (float.fromhex("0x1.8adc630ec0912p-2"), float.fromhex("0x1.f664c162733eap+0"))
# hypot 1.9999999999999998 and 2.0, with the squares the other way round
SHORT = (1.3532316284723667, 1.4726724549953483)
LONG = (1.7048982102979657, 1.0456204342507815)

CASES = {
    # exact ties at the maximum: the first tied pair in row-major order
    "ties": (points((1, 0), (0, 1), (-1, 0), (0, -1)), (2.0, ((1, 0), (-1, 0)))),
    "tie-in-hypot": (points((0, 0), (0, 2), TIE_D2), (2.0, ((0, 0), (0, 2)))),
    # hypot one ulp apart, in either order
    "ulp-short-first": (points((0, 0), SHORT, LONG), (2.0, ((0, 0), LONG))),
    "ulp-long-first": (points((0, 0), LONG, SHORT), (2.0, ((0, 0), LONG))),
    "one-vertex": (points((0.5, -0.25)), (0.0, ((0.5, -0.25), (0.5, -0.25)))),
    "coincident": (points((0.5, -0.25), (0.5, -0.25)), (0.0, ((0.5, -0.25), (0.5, -0.25)))),
}


def test_the_constructed_pairs_are_what_they_claim():
    x, y = TIE_D2
    assert math.hypot(x, y) == 2.0 and x * x + y * y > 4.0
    assert math.hypot(*SHORT) == np.nextafter(2.0, 0.0) and math.hypot(*LONG) == 2.0
    assert SHORT[0] ** 2 + SHORT[1] ** 2 > LONG[0] ** 2 + LONG[1] ** 2


@pytest.mark.parametrize("name", list(CASES))
def test_band_gives_the_full_triangles_first_maximum(monkeypatch, name):
    body, (d, witness) = CASES[name]
    banded, full = both(monkeypatch, full_walk.table_of([body]), [0])
    assert banded == full
    assert banded == hexed([(d, witness)])


def near_antipodal_rows(rng, n_rows):
    """Rows of points on circles of radius 1, each with a partner through
    the centre a few ulps off the antipode, so many pairs tie or differ by
    an ulp at the top; 1 to 12 vertices a row, so most rows are padded."""
    bodies = []
    for _ in range(n_rows):
        k = int(rng.integers(1, 7))
        c = rng.uniform(-4.0, 4.0, 2)
        u = rng.uniform(0.0, TWO_PI, k)
        a = c + np.stack([np.cos(u), np.sin(u)], axis=-1)
        b = 2.0 * c - a
        for _ in range(int(rng.integers(0, 3))):
            b = np.nextafter(b, b + rng.choice([-1.0, 1.0], b.shape))
        xy = np.concatenate([a, b])[:int(rng.integers(1, 2 * k + 1))]
        bodies.append(points(*rng.permutation(xy)))
    return bodies


def test_band_over_a_multi_row_pass(monkeypatch):
    """Every constructed row and 200 near-antipodal ones in one table:
    one pass, and then passes of three rows, each equal to the full
    triangle's to the bit and to each row alone."""
    bodies = [body for body, _ in CASES.values()] + near_antipodal_rows(
        np.random.default_rng(27), 200)
    table = full_walk.table_of(bodies)
    rows = list(range(len(bodies)))
    banded, full = both(monkeypatch, table, rows)
    assert banded == full
    assert banded[:len(CASES)] == hexed([want for _, want in CASES.values()])
    for r in (0, 5, 17, 199):
        assert both(monkeypatch, full_walk.table_of([bodies[r]]), [0])[0] == [banded[r]]
    monkeypatch.setattr(lattice, "DIAMETER_PAIRS", 3 * table.vertices.shape[1] ** 2)
    assert both(monkeypatch, table, rows) == (banded, full)


def test_band_lists_a_few_pairs_per_row(monkeypatch):
    """On the reference patch at width 2 the band hands hypot a few pairs
    a row, not the full triangle: at most 40 of the more than 300 live
    pairs i <= j of each row."""
    stripes = tortoise.tortoise_area(0.05, "series2").stripes()
    calls = count_calls(monkeypatch, lattice, "_vertex_pairs")
    assert lattice.verify_avoidance(reference_step_function(), 0.05, stripes).ok
    (t,), = calls
    assert (full_triangle(t)[2].sum(axis=1) > 300).all()
    assert (lattice._vertex_pairs(t)[2].sum(axis=1) <= 40).all()


# ---------------------------------------------------------------------------
# the range test of the prefilters


def within_by_remainder(angle, lo, span, slack):
    """``lattice._within`` as it was, reducing by the float ``%``."""
    off = (angle - lo) % TWO_PI
    return (off <= span + slack) | (off >= TWO_PI - slack)


def edge_distance(angle, lo, span, slack):
    """How far the ``%`` offset lies from the nearer end of the range, on
    the circle."""
    off = (angle - lo) % TWO_PI
    return min(abs((off - e + math.pi) % TWO_PI - math.pi) for e in (span + slack, -slack))


def ulps_off(x, n):
    for _ in range(abs(n)):
        x = np.nextafter(x, math.copysign(math.inf, n))
    return float(x)


BOUND = 3.0 * math.pi
angles = st.one_of(
    st.floats(-BOUND, BOUND),
    st.sampled_from([k * math.pi for k in range(-3, 4)]),
)


@st.composite
def range_tests(draw):
    """(angle, lo, span, slack): angle and lo in [-3 pi, 3 pi], span in
    [0, 2 pi), among them exact multiples of pi and angles a few ulps off
    a wrap point lo + 2 pi k or off a range end."""
    lo = draw(angles)
    span = draw(st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                          st.sampled_from([0.0, math.pi, np.nextafter(TWO_PI, 0.0)])))
    slack = draw(st.sampled_from([0.0, lattice.RANGE_SLACK, 1e-15]))
    pick = draw(st.integers(0, 2))
    if pick == 0:
        angle = draw(angles)
    else:
        base = lo + TWO_PI * draw(st.integers(-1, 1)) + (span + slack if pick == 2 else 0.0)
        angle = ulps_off(base, draw(st.integers(-3, 3)))
    return min(max(angle, -BOUND), BOUND), lo, span, slack


def check_within(angle, lo, span, slack):
    """The floor reduction takes whatever ``%`` takes, and differs from it
    only within 1e-12 of a range end."""
    new = lattice._within(angle, lo, span, slack)
    old = within_by_remainder(angle, lo, span, slack)
    assert np.all(new | ~old)
    differ = new != old
    if np.ndim(differ) == 0:
        assert not differ or edge_distance(angle, lo, span, slack) <= 1e-12
    else:
        for args in zip(*(np.broadcast_to(x, differ.shape)[differ]
                          for x in (angle, lo, span, slack))):
            assert edge_distance(*args) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(range_tests())
@example((-5e-324, 0.0, 0.0, 0.0))  # a quotient that underflows to -0
@example((-0.0, 0.0, 0.0, 0.0))
@example((float(np.nextafter(TWO_PI, 0.0)), 0.0, 0.0, 0.0))
@example((-BOUND, BOUND, 0.0, 0.0))  # d = -6 pi
@example((BOUND, -BOUND, math.pi, 0.0))  # d = 6 pi
def test_within_takes_what_the_remainder_takes(case):
    check_within(*case)


def test_within_on_a_dense_batch():
    """A million seeded entries, a third of them a few ulps off a wrap
    point, through the array path the prefilters take: the floor
    reduction gives ``%``'s offsets, so not one entry differs."""
    rng = np.random.default_rng(27)
    n = 1_000_000
    lo = rng.uniform(-BOUND, BOUND, n)
    angle = rng.uniform(-BOUND, BOUND, n)
    wrap = rng.random(n) < 1 / 3
    k = rng.integers(-1, 2, n)
    near = lo + TWO_PI * k
    for _ in range(2):
        near = np.nextafter(near, near + rng.choice([-1.0, 1.0], n))
    angle = np.where(wrap, np.clip(near, -BOUND, BOUND), angle)
    span = rng.uniform(0.0, TWO_PI, n)
    for slack in (0.0, lattice.RANGE_SLACK):
        assert np.array_equal(lattice._within(angle, lo, span, slack),
                              within_by_remainder(angle, lo, span, slack))
