"""The diameter pass's shortcuts against the full lists they replace.

``lattice._vertex_pairs`` lists only the vertex pairs within
``DIAMETER_BAND`` of their row's largest squared distance, and the
prefilters ``_far_vertex_arc`` and ``_opposite_arc_pairs`` only the
vertex-arc and arc pairs that pass a cross-product range test with
``RANGE_SLACK`` to spare.  Here both meet the full lists, bit for bit
through ``farthest_pairs``: the full triangle of vertex pairs, and every
pair, which an infinite RANGE_SLACK lists.
"""

import math

import numpy as np
import pytest

import full_walk
from break_sets import uniform_zero_profile
from call_counts import count_calls
from croft_forge import ansatz, lattice, tortoise
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
# the range tests of the prefilters


def form_verify_patches(seed):
    """Two patches as a ``form-verify`` benchmark pass draws them: the
    reference profile with series2 stripes and a closure-projected random
    profile with series1 stripes, each at an eps drawn in [-0.1, 0.1]."""
    rng = np.random.default_rng(seed)
    v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
    random = ansatz.step_from_halfvalues(v / np.max(np.abs(v)))
    return [(reference_step_function(), float(rng.uniform(-0.1, 0.1)), "series2"),
            (random, float(rng.uniform(-0.1, 0.1)), "series1")]


def patch_tables(monkeypatch, patches, widths):
    """Each (table, rows) that ``verify_avoidance`` hands ``farthest_pairs``
    on the patches (q, eps, mode) at the stripe widths."""
    with monkeypatch.context() as m:
        calls = count_calls(m, lattice, "farthest_pairs")
        for q, eps, mode in patches:
            stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
            for width in widths:
                lattice.verify_avoidance(q, eps, stripes, stripe_width=width)
    return calls


def random_arcs(rng, k) -> full_walk.TrimmedBody:
    """k random arc pieces with their ends as vertices, drawn as the line
    of centres tests draw an arc pair: ranges up to pi wide, some exactly
    lo + pi, some straddling the angle +-pi, and some turned by pi about
    the centre of the piece before."""
    centers = rng.uniform(-0.5, 0.5, (k, 2))
    radii = rng.uniform(0.3, 1.5, k)
    span = rng.uniform(0.05, math.pi, k)
    lo = rng.uniform(0.0, TWO_PI, k)
    kind = rng.integers(0, 4, k)
    span[kind == 1] = math.pi
    lo = np.where(kind == 2, math.pi - rng.uniform(0.1, 0.9, k) * span, lo)
    for i in np.flatnonzero(kind[1:] == 3) + 1:
        centers[i], span[i], lo[i] = centers[i - 1], span[i - 1], lo[i - 1] + math.pi
    hi = lo + span
    u0 = np.stack([np.cos(lo), np.sin(lo)], axis=-1)
    u1 = np.stack([np.cos(hi), np.sin(hi)], axis=-1)
    ends = np.concatenate([centers + radii[:, None] * u0, centers + radii[:, None] * u1])
    none = np.zeros((0, 2))
    return full_walk.TrimmedBody(centers, radii, u0, u1, none, none, ends)


def random_arc_table():
    """300 rows of one to five seeded random arc pieces."""
    rng = np.random.default_rng(28)
    return full_walk.table_of([random_arcs(rng, int(rng.integers(1, 6))) for _ in range(300)])


LISTING_CASES = {
    **{f"form-verify-{seed}": lambda mp, seed=seed: patch_tables(
        mp, form_verify_patches(seed), (2.0, 1.9, 2.1)) for seed in (0, 1, 2)},
    "uniform96-uniform288": lambda mp: patch_tables(
        mp, [(uniform_zero_profile(n), 0.05, "series2") for n in (96, 288)], (2.0,)),
    "random-arcs": lambda mp: [(random_arc_table(), list(range(300)))],
}


@pytest.mark.parametrize("name", list(LISTING_CASES))
def test_listing_every_pair_changes_no_diameter(monkeypatch, name):
    """With RANGE_SLACK infinite both prefilters list every pair; the
    diameters and witnesses must be the default pass's to the bit."""
    for table, rows in LISTING_CASES[name](monkeypatch):
        default = hexed(lattice.farthest_pairs(table, rows))
        with monkeypatch.context() as m:
            m.setattr(lattice, "RANGE_SLACK", math.inf)
            t = lattice._take(table, rows)
            everything = t.vertex_ok[..., None] & t.arc_ok[:, None]
            assert lattice._far_vertex_arc(t)[2].shape[1] == everything.sum(axis=(1, 2)).max()
            assert hexed(lattice.farthest_pairs(table, rows)) == default
