"""The cap walk (``clip.cap_arcs``) against the full walk over every arc.

Clip areas and their derivatives, line crossings and trimmed bodies are
compared with ``full_walk``, which intersects each line with all n arcs.
Bodies are closure-projected random profiles at |eps| <= 0.1, placed as
lattice copies so that their breaks are rotated and the walk wraps from
arc n-1 to arc 0; normals point at every angle, and offsets run from the
whole body kept, through tangency, to a line that misses the body.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import full_walk
from break_sets import q36_profile
from croft_forge import ansatz, clip, lattice, tortoise
from croft_forge.body import boundary_point, build_body, transform
from croft_forge.clip import (
    boundary_line_crossings,
    cap_arcs,
    halfplane_clip_area,
    trim_bodies,
)
from croft_forge.lattice import default_config, place_copy
from croft_forge.stepfn import TWO_PI, make_step_function, reference_step_function

SHIFT = default_config()
REF = reference_step_function()
UNIFORM_36 = make_step_function([Fraction(i, 18) for i in range(37)], np.zeros(36))
AREA_TOL = 1e-14


def _placed_bodies(seed):
    """Seeded placed copies: random profiles on the reference and on the
    uniform 36-interval breaks, every color, random eps and position."""
    rng = np.random.default_rng(seed)
    bodies = []
    for template in (REF, UNIFORM_36):
        for color in range(3):
            v = ansatz.closure_project(rng.standard_normal(template.n_intervals // 2), template)
            q = ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template)
            body = build_body(q, float(rng.uniform(-0.1, 0.1)))
            bodies.append(place_copy(body, color, rng.uniform(-3.0, 3.0, 2), SHIFT))
    return bodies


def _normals(rng, body, count):
    """Random angles, plus the angles of the copy's own breaks, where the
    support point is an arc endpoint."""
    thetas = list(rng.uniform(0.0, 2.0 * math.pi, count))
    thetas += list(rng.choice(body.breaks[:-1], 3, replace=False))
    return [np.array([math.cos(t), math.sin(t)]) for t in thetas]


def _offsets(rng, body, n):
    """Offsets from below the body (all kept) to above it (line misses),
    with both tangencies."""
    theta = math.atan2(n[1], n[0])
    top = float(n @ boundary_point(body, theta))
    bottom = float(n @ boundary_point(body, theta + math.pi))
    return [bottom - 0.1, bottom, bottom + 1e-9, *rng.uniform(bottom, top, 4),
            top - 1e-9, top, top + 0.1]


def _cases(seed, count=4):
    rng = np.random.default_rng(seed)
    for body in _placed_bodies(seed):
        for n in _normals(rng, body, count):
            for c in _offsets(rng, body, n):
                yield body, n, c


def _trim(body, cuts):
    """``trim_bodies`` of the one body by its (n, c) cuts: a table of one row."""
    return trim_bodies(full_walk.stacked([body]), full_walk.cut_table([cuts]))


def _key(points):
    return sorted(tuple(map(float, p)) for p in points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clip_area_matches_the_full_walk(seed):
    for body, n, c in _cases(seed):
        assert abs(halfplane_clip_area(body, n, c).area
                   - full_walk.halfplane_clip_area(body, n, c)) <= AREA_TOL


def _assert_clip_is_the_full_walk(body, n, c) -> int:
    """The clip's crossings and derivatives equal the full walk's, and its
    area is within AREA_TOL of the full walk's (the walk that gives the
    derivatives gives the area too, also where the line misses the body or
    touches it once).  With two crossings the derivatives are the chord's,
    with none they are zero, and otherwise None; returns the number of
    crossings."""
    got = boundary_line_crossings(body, n, c)
    assert _key(got) == _key(full_walk.boundary_line_crossings(body, n, c))
    clip_ = halfplane_clip_area(body, n, c)
    assert abs(clip_.area - full_walk.halfplane_clip_area(body, n, c)) <= AREA_TOL
    want_grad, want_hess = full_walk.halfplane_clip_derivatives(body, n, c)
    if len(got) in (0, 2):
        assert np.array_equal(clip_.grad, want_grad)
        assert np.array_equal(clip_.hess, want_hess)
    else:
        assert clip_.grad is clip_.hess is want_grad is want_hess is None
    if not got:
        assert not np.any(clip_.grad) and not np.any(clip_.hess)
    return len(got)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crossings_and_derivatives_match_the_full_walk(seed):
    for body, n, c in _cases(seed):
        _assert_clip_is_the_full_walk(body, n, c)


def _cornered_bodies(seed):
    """Seeded profiles with max|v| = 1 at eps = +-1, each placed as a
    random copy: the arcs of radius 1 - eps*q = 0 are corners, arcs the
    clip walk skips."""
    rng = np.random.default_rng(seed)
    bodies = []
    for template in (REF, UNIFORM_36):
        for eps in (1.0, -1.0):
            for _ in range(5):
                v = ansatz.closure_project(rng.standard_normal(template.n_intervals // 2),
                                           template)
                q = ansatz.step_from_halfvalues(v / np.max(np.abs(v)), template)
                body = place_copy(build_body(q, eps), int(rng.integers(3)),
                                  rng.uniform(-3.0, 3.0, 2), SHIFT)
                bodies.append(body)
    return bodies


def test_clip_of_cornered_bodies_matches_the_full_walk():
    """Lines through a corner point, 1e-13 to either side of it, and random
    lines, on 20 bodies with a corner each.  The walk skips a zero-radius
    arc, as the full walk does, and a line through the corner point may
    touch the boundary there without crossing it; each piece is kept by
    its own midpoint, so no side carries past the corner.

    Also one line 1e-13 below a corner point that passes as near a break
    between arcs of radii 2.0 and 0.033 (body 2 of seed 103).  The break
    window is a distance along the arc, so the crossing there belongs to
    the arc that starts at the break: both crossings are found, and the
    clip has derivatives (an angle window, narrower in distance on the
    small arc, lost it)."""
    body = _cornered_bodies(103)[2]
    point = body.centers[np.flatnonzero(body.radii == 0.0)[0]]
    n = np.array([math.cos(0.5 * math.pi), math.sin(0.5 * math.pi)])
    assert _assert_clip_is_the_full_walk(body, n, n @ point - 1e-13) == 2
    assert halfplane_clip_area(body, n, n @ point - 1e-13).grad is not None
    rng = np.random.default_rng(4)
    corners = crossed_twice = 0
    for body in _cornered_bodies(4):
        for i in np.flatnonzero(body.radii == 0.0):
            corners += 1
            point = body.centers[i]
            for n in _normals(rng, body, 6):
                for dc in (0.0, 1e-13, -1e-13):
                    crossed_twice += _assert_clip_is_the_full_walk(body, n, n @ point + dc) == 2
        for n in _normals(rng, body, 3):
            for c in _offsets(rng, body, n):
                _assert_clip_is_the_full_walk(body, n, c)
    assert corners >= 20
    assert crossed_twice > 0


@pytest.mark.parametrize("gap", [5e-13, 1e-15, 0.0])
def test_a_line_tangent_at_an_arc_midpoint_does_not_cross_it(gap):
    """A line ``gap`` inside the unit disc, normal to the midpoint of one
    of its arcs: within TANGENCY_TOL of tangent, so it does not cross the
    arc, though the arc's midpoint lies on its far side.  The half-plane
    beyond it holds none of the disc and the one behind it all of it."""
    disc = build_body(REF, 0.0)
    theta = 0.5 * (disc.breaks[5] + disc.breaks[6])
    n = np.array([math.cos(theta), math.sin(theta)])
    for side, want in ((1.0, 0.0), (-1.0, math.pi)):
        line = (disc, side * n, side * (1.0 - gap))
        assert abs(halfplane_clip_area(*line).area - want) <= AREA_TOL
        assert abs(full_walk.halfplane_clip_area(*line) - want) <= AREA_TOL


CROSSING_RADII = (0.0, 0.033, 2.0)


def _crossing_case(rng):
    """One (arc, line) pair as the arguments of ``clip._crossings``: a
    radius of CROSSING_RADII or a random one, an arc from anywhere in
    [-2pi, 2pi) spanning up to pi, the normal's angle wrapped by -2pi, 0 or
    2pi, and a line of one of four kinds: within 1e-12 of the point at a
    break, within about TANGENCY_TOL of tangent, through a point of the
    arc, or anywhere across the circle."""
    radius = CROSSING_RADII[rng.integers(3)] if rng.random() < 0.5 else rng.uniform(0.01, 3.0)
    cx, cy = rng.uniform(-3.0, 3.0, 2)
    a = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
    b = a + (math.pi if rng.random() < 0.1 else min(math.pi, 10.0 ** rng.uniform(-12.0, 0.5)))
    theta = rng.uniform(-math.pi, math.pi)
    n0, n1 = math.cos(theta), math.sin(theta)
    alpha = math.atan2(n1, n0) + 2.0 * math.pi * int(rng.integers(-1, 2))
    kind = rng.integers(4)
    if kind == 0:  # near the point at a break
        phi = a if rng.random() < 0.5 else b
        c = n0 * (cx + radius * math.cos(phi)) + n1 * (cy + radius * math.sin(phi))
        c += rng.uniform(-1e-12, 1e-12)
    elif kind == 1:  # near tangency, on either side of TANGENCY_TOL
        side = 1.0 if rng.random() < 0.5 else -1.0
        c = n0 * cx + n1 * cy + side * radius * (1.0 - 10.0 ** rng.uniform(-13.0, -11.0))
    elif kind == 2:  # through a point of the arc
        phi = rng.uniform(a, b)
        c = n0 * (cx + radius * math.cos(phi)) + n1 * (cy + radius * math.sin(phi))
    else:
        c = n0 * cx + n1 * cy + radius * rng.uniform(-1.1, 1.1)
    return (float(cx), float(cy), float(radius), float(a), float(b), float(alpha), n0, n1,
            float(c))


def test_crossings_are_the_three_turn_solver_to_the_bit():
    """``clip._crossings`` takes one turn of each branch; on 12,000 seeded
    (arc, line) pairs it returns what ``full_walk.crossings``, which tries
    three turns and sorts, returns, to the bit.  The pairs reach every
    outcome: no crossing, one, two, and a crossing clamped to the start
    break."""
    rng = np.random.default_rng(39)
    found = {0: 0, 1: 0, 2: 0, "at start": 0}
    for _ in range(12_000):
        case = _crossing_case(rng)
        got = clip._crossings(*case)[1]
        assert [x.hex() for x in got] == [x.hex() for x in full_walk.crossings(*case)], case
        found[len(got)] += 1
        found["at start"] += case[3] in got
    assert min(found.values()) >= 50, found


@settings(max_examples=2000, deadline=None)
@given(
    st.floats(-25.0, 25.0),
    st.integers(-4, 4),
    st.integers(-64, 64),
)
def test_second_turn_of_a_crossing_is_never_below_the_arc_start(branch, k, ulps):
    """Where the arc starts within 64 ulps of the branch's turn k, the floor
    of ``clip._crossings`` can round the wrong way, but the turn after it
    still lands at or past a: no third turn is ever needed."""
    a = branch + TWO_PI * k
    for _ in range(abs(ulps)):
        a = math.nextafter(a, math.copysign(math.inf, ulps))
    turn = math.floor((a - branch) / TWO_PI)
    assert branch + TWO_PI * (turn + 1) >= a


def test_cap_walk_wraps_and_covers():
    """The walk wraps past arc n-1 on a rotated copy, returns a contiguous
    run in boundary order, and every arc for a line below the body."""
    body = _placed_bodies(5)[1]  # a color-1 copy: breaks start at 2*pi/3
    count = body.n_arcs
    alpha = body.breaks[0]
    n = np.array([math.cos(alpha), math.sin(alpha)])
    top = float(n @ boundary_point(body, alpha))
    arcs = cap_arcs(body.arc_lists, *n, alpha, top - 0.05)
    assert count - 1 in arcs and 0 in arcs
    assert all((b - a) % count == 1 for a, b in zip(arcs, arcs[1:]))
    assert sorted(cap_arcs(body.arc_lists, *n, alpha, -10.0)) == list(range(count))
    assert len(cap_arcs(body.arc_lists, *n, alpha, top + 0.1)) <= 2


def _random_cuts(rng, body, count):
    """Cuts (n, c) that remove either side of a random line."""
    cuts = []
    for _ in range(count):
        n = _normals(rng, body, 1)[0]
        c = float(rng.choice(_offsets(rng, body, n)))
        side = float(rng.choice([-1.0, 1.0]))
        cuts.append((side * n, side * c))
    return cuts


def _assert_same_trim(body, cuts, table=None, row=0):
    """Row ``row`` of ``table`` (default: the one row of ``trim_bodies`` of
    the one body) equals the full walk's trim, its vertices with their
    repeats: each group's real entries come first, in order, and its
    padding is zero.  Values compare as numbers: where a crossing at 0.0
    meets a break at -0.0, the two walks order the two angles apart."""
    table = _trim(body, cuts) if table is None else table
    for fields, ok in zip(clip._GROUPS, ("arc_ok", "chord_ok", "vertex_ok")):
        mask = getattr(table, ok)[row]
        assert np.array_equal(mask, np.arange(len(mask)) < mask.sum())
        assert not any(getattr(table, f)[row][~mask].any() for f in fields)
    got = full_walk.body_of_row(table, row)
    want = full_walk.trim_body(body, cuts)
    for field in ("centers", "radii", "u0", "u1", "arc", "chord_a", "chord_b", "cut", "vertices"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("seed", [1, 2])
def test_trim_matches_the_full_walk(seed):
    rng = np.random.default_rng(seed)
    for body in _placed_bodies(seed):
        for count in (1, 2, 4, 6):
            _assert_same_trim(body, _random_cuts(rng, body, count))


@pytest.mark.parametrize("width", [2.0, 1.9, 3.2, 4.0])
def test_trim_matches_the_full_walk_on_a_patch(width):
    """The nine copies of a patch trimmed in one call, each equal to the
    full walk's trim of it alone; width 3.2 empties the centre copy, and
    width 4 every copy."""
    sites = lattice.PATCH_SITES
    eps = 0.07
    for q, mode in ((REF, "exact2"), (q36_profile(), "series2"), (UNIFORM_36, "series2")):
        body = build_body(q, eps)
        stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
        normals, offsets, cut_ok = lattice.patch_cuts(stripes, width)
        table = trim_bodies(lattice.place_patch(body, SHIFT), (normals, offsets, cut_ok))
        assert all(len(x) == len(sites) for x in table)
        for r, s in enumerate(sites):
            # each row is its site's copy trimmed alone by its real cuts
            cuts = list(zip(normals[r][cut_ok[r]], offsets[r][cut_ok[r]]))
            _assert_same_trim(lattice.place_body(body, *s, SHIFT), cuts, table, r)
        empty = [s for r, s in enumerate(sites) if not table.vertex_ok[r].any()]
        assert empty == {2.0: [], 1.9: [], 3.2: [(0, 0)], 4.0: list(sites)}[width]


def test_a_signed_zero_vertex_pair_stays_two_vertices():
    """The unit disc with its centres at (0, -0.0) and its first break at
    -0.0, cut by y >= 0: a piece ends at (1, -0.0) and the chord starts at
    (1, 0.0).  The two compare equal as numbers but are two bit patterns,
    and both stay vertices."""
    disc = build_body(REF, 0.0)
    breaks = disc.breaks.copy()
    breaks[0] = -0.0
    body = dataclasses.replace(disc, centers=np.array([[0.0, -0.0]] * disc.n_arcs),
                               breaks=breaks)
    cuts = [(np.array([0.0, 1.0]), 0.0)]
    _assert_same_trim(body, cuts)
    table = _trim(body, cuts)
    listed = {v.tobytes() for v in table.vertices[0][table.vertex_ok[0]]}
    assert {np.array([1.0, 0.0]).tobytes(), np.array([1.0, -0.0]).tobytes()} <= listed


def test_trim_decides_an_arc_tangent_to_its_cut_by_its_centre():
    """A line within TANGENCY_TOL of tangent to an arc's circle does not
    cross it, and the trim keeps or drops the whole arc by its centre's
    side, as the clip does, not by the arc's midpoint.

    The unit disc cut by n = -u, c = -(1 - 5e-13), u the direction of the
    midpoint of arc 5: the clip removes all of the disc, and the trim keeps
    nothing, where a midpoint rule kept arc 5 whole.  Arc 3 of the body at
    eps = -1 (radius 2) cut by n = u, c = n.M + 2(1 - 0.8e-12), u its
    midpoint direction and M its centre: the clip removes nothing, and the
    trim keeps the whole arc, where a midpoint rule dropped it."""
    disc = build_body(REF, 0.0)
    theta = 0.5 * (disc.breaks[5] + disc.breaks[6])
    u = np.array([math.cos(theta), math.sin(theta)])
    cuts = [(-u, -(1.0 - 5e-13))]
    _assert_same_trim(disc, cuts)
    assert not _trim(disc, cuts).vertex_ok.any()
    assert abs(halfplane_clip_area(disc, *cuts[0]).area - math.pi) <= AREA_TOL

    body = build_body(REF, -1.0)
    theta = 0.5 * (body.breaks[3] + body.breaks[4])
    u = np.array([math.cos(theta), math.sin(theta)])
    assert body.radii[3] == 2.0
    cuts = [(u, float(u @ body.centers[3]) + 2.0 * (1.0 - 0.8e-12))]
    _assert_same_trim(body, cuts)
    table = _trim(body, cuts)
    assert 3 in table.arc[0][table.arc_ok[0]]
    assert not table.chord_ok.any()
    assert abs(halfplane_clip_area(body, *cuts[0]).area) <= AREA_TOL


def test_trim_drops_a_chord_a_parallel_cut_removes():
    """The unit disc cut by x >= 0.5 and x >= 0.3: the line x = 0.5 lies
    wholly in the removed x >= 0.3, so its chord goes, and one chord is
    left, on x = 0.3 from (0.3, -sqrt(0.91)) to (0.3, sqrt(0.91)).

    The disc is turned by pi so that its breaks run from -pi to pi and the
    line x = c crosses it at the angles +-acos(c): the two ends of each
    chord then have the same x to the bit, and the chord of x = 0.5 meets
    the other cut as an exact parallel (g1 == 0), not through a rounded
    slope."""
    disc = transform(build_body(REF, 0.0), -math.pi)
    x = np.array([1.0, 0.0])
    ends = boundary_line_crossings(disc, x, 0.5)
    assert len(ends) == 2 and x @ (ends[1] - ends[0]) == 0.0
    cuts = [(x, 0.5), (x, 0.3)]
    t = _trim(disc, cuts)
    assert t.chord_ok[0].sum() == 1
    root = math.sqrt(0.91)
    assert np.allclose(t.chord_a[0, 0], [0.3, -root], rtol=0, atol=1e-15)
    assert np.allclose(t.chord_b[0, 0], [0.3, root], rtol=0, atol=1e-15)
    _assert_same_trim(disc, cuts)


def _counted(fn, counts, key):
    """``fn``, counting its calls in ``counts[key]``."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_exact2_record_tries_few_arcs(monkeypatch):
    """Each clip of an exact2 record tries at most four arcs on average
    (the full walk tried all 24); the arcs tried are the calls to the
    crossing solver ``clip._crossings``."""
    counts = {"arcs": 0, "clips": 0}
    monkeypatch.setattr(clip, "_crossings", _counted(clip._crossings, counts, "arcs"))
    wrapped = _counted(clip.halfplane_clip_area, counts, "clips")
    monkeypatch.setattr(clip, "halfplane_clip_area", wrapped)
    monkeypatch.setattr(tortoise, "halfplane_clip_area", wrapped)
    tortoise.tortoise_area(0.08, "exact2")
    assert counts["clips"] > 0
    assert 0 < counts["arcs"] <= 4 * counts["clips"]


def test_exact2_record_walks_each_cap_once(monkeypatch):
    """Each Newton point of an exact2 record walks the cap of each of its
    two copies once, for the area and its derivatives together."""
    counts = {"walks": 0, "points": 0}
    monkeypatch.setattr(clip, "cap_arcs", _counted(clip.cap_arcs, counts, "walks"))
    monkeypatch.setattr(tortoise, "pair_clip_area",
                        _counted(tortoise.pair_clip_area, counts, "points"))
    tortoise.tortoise_area(0.08, "exact2")
    assert counts["points"] == 9
    assert counts["walks"] == 2 * counts["points"]


@pytest.mark.parametrize("mode", ["exact1", "exact2"])
@pytest.mark.parametrize("eps", [1.0, -1.0])
def test_exact_records_past_a_corner_match_the_full_walk(monkeypatch, mode, eps):
    """At eps = +-1 one arc of the reference body has radius 0, and 3-4 of
    the 22-24 Newton clips of an exact record walk past that corner.  Each
    edge's area is the full walk's pair area at its (s, delta) on the
    ``place_copy`` copies at ``edge_ends``, and the stripes keep the
    copies of a patch 2 apart."""
    body = build_body(REF, eps)
    assert np.count_nonzero(body.radii == 0.0) == 1
    walk = clip.cap_arcs
    past = []

    def cap_arcs(arc_lists, *line):
        arcs = walk(arc_lists, *line)
        past.append(any(arc_lists[1][i] == 0.0 for i in arcs[1:-1]))
        return arcs

    monkeypatch.setattr(clip, "cap_arcs", cap_arcs)
    record = tortoise.tortoise_area(eps, mode)
    assert any(past)
    copies = [[place_copy(body, c, p, SHIFT) for c, p in lattice.edge_ends(k)] for k in range(3)]
    for e in record.per_edge:
        caps = lattice.stripe_caps(e.s, e.delta)
        want = sum(full_walk.halfplane_clip_area(b, n, c)
                   for b, (n, c, _, _) in zip(copies[e.k], caps))
        assert abs(e.area - want) <= AREA_TOL
    assert lattice.verify_avoidance(REF, eps, record.stripes()).ok
