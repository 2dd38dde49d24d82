import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

import full_walk
from break_sets import q36_profile, uniform_zero_profile
from call_counts import count_calls
from croft_forge import ansatz, clip, lattice, reference, tortoise
from croft_forge.body import build_body, boundary_point, transform
from croft_forge.clip import boundary_line_crossings, cut_table, trim_bodies
from croft_forge.lattice import (
    LATTICE_CONSTANT,
    NEIGHBOR_STEPS,
    PSI,
    collect_patch_cuts,
    color_index,
    color_of,
    default_config,
    left_color_of_class,
    place_body,
    rotation_of_color,
    site_position,
    verify_avoidance,
)
from croft_forge.stepfn import reference_step_function
from disc_reference import disc_cuts

Q = reference_step_function()
SHIFT = default_config()


def trim_body(body, cuts):
    """The one row of ``clip.trim_bodies`` of the one body, read back."""
    return full_walk.body_of_row(trim_bodies([body], [cuts])[0], 0)


def closest_pair(a, b, strip):
    """``lattice.closest_pairs`` of the one pair (a, b), pruned by the strip
    (n, c_a, c_b) with both lines moved out to the bodies' measured
    extremes, as in ``verify_avoidance``."""
    table = full_walk.table_of([a, b])
    n = np.asarray(strip[0], dtype=float)
    tops = lattice._support(table, np.array([[n], [-n]]))[:, 0]
    return lattice.closest_pairs(table, [(0, 1)], [strip], [tuple(tops)])[0]


def farthest_pair(t):
    """``lattice.farthest_pairs`` of the one body."""
    return lattice.farthest_pairs(full_walk.table_of([t]), [0])[0]


def halfplane_excess(t, cuts):
    """max of n.x - c over the trimmed body, one per cut (n, c)."""
    normals, offsets, _ = cut_table([cuts])
    return (lattice._support(full_walk.table_of([t]), normals) - offsets)[0]


def _cut(eps, k, shift=SHIFT):
    """The disc-cap oracle's boundary-point read of class ``k``."""
    return disc_cuts(Q, eps, shift)[k]


def test_coloring_is_proper():
    for i in range(-3, 4):
        for j in range(-3, 4):
            for di, dj in NEIGHBOR_STEPS:
                assert color_of(i, j) != color_of(i + di, j + dj)


def test_color_names():
    assert color_of(0, 0) == "red"
    assert {color_of(i, 0) for i in range(3)} == {"red", "green", "blue"}


def test_neighbor_distances():
    for di, dj in NEIGHBOR_STEPS:
        p = site_position(di, dj)
        assert np.hypot(*p) == pytest.approx(LATTICE_CONSTANT, abs=1e-12)


def _class_of_direction(c_left, beta):
    """Class of an edge leaving a color-c site at angle ``beta``: its
    direction is 2*c*psi + 2*k*psi (mod 2*pi)."""
    t = (beta - 2 * c_left * PSI) / (2 * PSI)
    assert abs(t - round(t)) <= 1e-9  # a class direction
    return round(t) % 3


def test_edge_class_round_trip():
    # the forward steps m = 0, 2, 4 of each color have the three classes
    # (m/2 - c) mod 3, the classes their directions give
    seen = set()
    for c_l in range(3):
        for m in (0, 2, 4):
            k = (m // 2 - c_l) % 3
            assert k == _class_of_direction(c_l, m * PSI)
            assert left_color_of_class(k) in range(3)
            seen.add((c_l, k))
    assert len(seen) == 9
    # the representative edge along +x starts at the class's left color
    for k in range(3):
        assert _class_of_direction(left_color_of_class(k), 0.0) == k


def _displacement(body, phi):
    """Boundary point at angle ``phi`` minus the unit disc's."""
    return boundary_point(body, phi) - np.array([math.cos(phi), math.sin(phi)])


def test_boundary_displacement_linear_in_eps():
    f1 = _displacement(build_body(Q, 0.05), 0.8)
    f2 = _displacement(build_body(Q, 0.10), 0.8)
    assert f2 == pytest.approx(2 * f1, abs=1e-13)


def test_boundary_antipodes_are_two_apart():
    # p(phi) - p(phi + pi) = 2 u(phi): the displacements flip sign
    b = build_body(Q, 0.2)
    for phi in (0.0, 0.3, PSI, 1.9, 4.0):
        u = np.array([math.cos(phi), math.sin(phi)])
        gap = boundary_point(b, phi) - boundary_point(b, phi + math.pi)
        assert gap == pytest.approx(2 * u, abs=1e-12)


def test_cut_parameters_linear_in_eps():
    c1 = _cut(0.04, 1)
    c2 = _cut(0.08, 1)
    for field in ("d_x", "d_y", "r_lu", "r_ll", "r_ru", "r_rl"):
        assert getattr(c2, field) == pytest.approx(2 * getattr(c1, field), abs=1e-13)


def test_cut_parameters_match_placed_geometry():
    """Oracle: recompute the cut data from actually placed copies.

    For every nearest-neighbor edge of a patch, measure the two cap
    displacements directly on the placed bodies and check they agree
    with the per-class cut parameters; in particular edges of the same
    class must yield identical data regardless of which colors they join.
    """
    eps = 0.03
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    body = build_body(Q, eps)
    bodies = {s: place_body(body, *s, SHIFT) for s in sites}
    per_class = dict(enumerate(disc_cuts(Q, eps, SHIFT)))
    checked = set()
    for (i, j) in sites:
        for di, dj in NEIGHBOR_STEPS:
            other = (i + di, j + dj)
            if other not in bodies:
                continue
            c_a, c_b = color_index(i, j), color_index(*other)
            if (c_a + 1) % 3 != c_b:
                continue
            pa, pb = site_position(i, j), site_position(*other)
            beta = math.atan2(pb[1] - pa[1], pb[0] - pa[0])
            k = _class_of_direction(c_a, beta)
            u = np.array([math.cos(beta), math.sin(beta)])
            t = np.array([-u[1], u[0]])
            pl = boundary_point(bodies[(i, j)], beta)
            pr = boundary_point(bodies[other], beta + math.pi)
            d_x = (float(u @ (pl - pa)) - 1.0) + (float(-u @ (pr - pb)) - 1.0)
            d_y = float(t @ (pl - pa)) + float(-t @ (pr - pb))
            cut = per_class[k]
            assert d_x == pytest.approx(cut.d_x, abs=1e-12)
            assert d_y == pytest.approx(cut.d_y, abs=1e-12)
            checked.add(k)
    assert checked == {0, 1, 2}


def test_shift_contribution_is_rotation_of_shift():
    base = _cut(0.5, 2, (0.0, 0.0))
    shifted = _cut(0.5, 2, (0.3, -0.2))
    expect = np.zeros(2)
    for phi in (4 * PSI, 5 * PSI):
        c, s = math.cos(-phi), math.sin(-phi)
        expect += 0.5 * np.array([0.3 * c + 0.2 * s, 0.3 * s - 0.2 * c])
    assert shifted.d_x - base.d_x == pytest.approx(expect[0], abs=1e-13)
    assert shifted.d_y - base.d_y == pytest.approx(expect[1], abs=1e-13)


def test_place_body_red_is_unrotated():
    body = build_body(Q, 0.1)
    b = place_body(body, 0, 0, SHIFT)
    direct = body.centers + 0.1 * np.asarray(SHIFT)
    assert np.allclose(b.centers, direct, atol=1e-15)
    assert np.array_equal(place_body(body, 0, 0).centers, b.centers)  # None: the reference
    assert b.breaks[0] == 0.0


def test_place_body_rotation():
    b = place_body(build_body(Q, 0.1), 1, 0, SHIFT)  # green: rotated by 2*pi/3
    assert b.breaks[0] == pytest.approx(rotation_of_color(1), abs=0)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
def test_avoidance_passes(eps):
    rec = tortoise.tortoise_area(eps, "series2", q=Q)
    report = verify_avoidance(Q, eps, rec.stripes())
    assert report.ok, report.violations
    assert report.min_cross_distance >= 2.0 - 1e-9
    assert report.max_same_body_diameter <= 2.0 + 1e-6


def test_avoidance_catches_narrow_stripe():
    rec = tortoise.tortoise_area(0.05, "series2", q=Q)
    report = verify_avoidance(Q, 0.05, rec.stripes(), stripe_width=1.9)
    assert not report.ok
    assert report.min_cross_distance < 2.0 - 1e-3


def test_collect_patch_cuts_structure():
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    stripes = {k: (0.0, 0.0) for k in range(3)}
    cuts, edges = collect_patch_cuts(sites, stripes)
    # interior site sees all six incident stripes
    assert len(cuts[(0, 0)]) == 6
    # the edges are the neighbor pairs from color c to c+1, each once
    forward = {
        ((i, j), (i + di, j + dj))
        for (i, j) in sites for di, dj in NEIGHBOR_STEPS
        if (i + di, j + dj) in sites
        and color_index(i + di, j + dj) == (color_index(i, j) + 1) % 3
    }
    assert len(edges) == len(forward) == 16
    assert {(a, b) for a, b, _, _, _ in edges} == forward
    slot = dict.fromkeys(sites, 0)
    for a, b, k, (n, c_a, c_b), slots in edges:
        pa, pb = site_position(*a), site_position(*b)
        beta = math.atan2(pb[1] - pa[1], pb[0] - pa[0])
        assert k == _class_of_direction(color_index(*a), beta)
        # the strip is a's cut for this edge, and b's cut is its mirror
        assert any(np.array_equal(m, n) and c == c_a for m, c in cuts[a])
        assert any(np.array_equal(m, -n) and c == -c_b for m, c in cuts[b])
        # each site's cuts come in the order of its edges, and the edge
        # names its two
        assert slots == (slot[a], slot[b])
        (m_a, d_a), (m_b, d_b) = cuts[a][slot[a]], cuts[b][slot[b]]
        assert np.array_equal(m_a, n) and d_a == c_a
        assert np.array_equal(m_b, -n) and d_b == -c_b
        slot[a] += 1
        slot[b] += 1
    assert slot == {s: len(cuts[s]) for s in sites}


# ---------------------------------------------------------------------------
# The exact verifier against code it does not share


def _dense_samples(body, cuts, n_boundary, n_chord):
    """Boundary and cut-chord samples of the trimmed body (test-only sampler).

    ``cuts`` holds (n, c) pairs, each removing {x : n.x >= c}.  Each chord
    is sampled between the extreme points where its line crosses the body
    boundary, ends included.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, n_boundary, endpoint=False)
    pts = [boundary_point(body, phis + body.breaks[0])]
    for n, c in cuts:
        hits = boundary_line_crossings(body, n, c)
        if len(hits) >= 2:
            hits = np.asarray(hits)
            t = hits @ np.array([-n[1], n[0]])
            lo, hi = hits[np.argmin(t)], hits[np.argmax(t)]
            frac = np.linspace(0.0, 1.0, n_chord)[:, None]
            pts.append(lo + frac * (hi - lo))
    pts = np.vstack(pts)
    keep = np.ones(len(pts), dtype=bool)
    for n, c in cuts:
        keep &= pts @ n - c <= 1e-12
    return pts[keep]


def _on_trimmed_body(body, cuts, x, tol=1e-12) -> bool:
    """Whether ``x`` satisfies every cut and lies on a body arc or on a cut
    line between that line's two boundary crossings."""
    if any(n @ x - c > tol for n, c in cuts):
        return False
    for i in range(body.n_arcs):
        w = x - body.centers[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        on_circle = abs(math.hypot(*w) - body.radii[i]) <= tol
        if on_circle and (math.atan2(w[1], w[0]) - a) % (2 * math.pi) <= b - a + tol:
            return True
    for n, c in cuts:
        if abs(n @ x - c) <= tol:
            along = np.array([-n[1], n[0]])
            t = [h @ along for h in boundary_line_crossings(body, n, c)]
            if t and min(t) - tol <= x @ along <= max(t) + tol:
                return True
    return False


def _random_profile(seed):
    rng = np.random.default_rng(seed)
    v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
    return ansatz.step_from_halfvalues(v / np.max(np.abs(v))), float(rng.uniform(-0.1, 0.1))


def _patch(q, eps, stripes, width):
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    body = build_body(q, eps)
    bodies = {s: place_body(body, *s, SHIFT) for s in sites}
    cuts, edges = collect_patch_cuts(sites, stripes, width)
    return bodies, cuts, edges


def _break_antipode_profile():
    """A seeded random profile and eps on whose patch a copy's largest
    diameter candidate is the (+,-) line-of-centres pair through a break:
    the points of a vertex candidate, rounded an ulp higher."""
    rng = np.random.default_rng(11)
    rng.uniform()
    v = ansatz.closure_project(rng.standard_normal(ansatz.N_FREE))
    return ansatz.step_from_halfvalues(v / np.max(np.abs(v))), float(rng.uniform(-0.1, 0.1))


PATCHES = [("reference", Q, 0.05, "series2")] + [
    (f"random-{seed}", *_random_profile(seed), "series1") for seed in (1, 2, 3)
]


@pytest.mark.parametrize("width", [2.0, 1.9])
@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_exact_distances_match_dense_sampling(name, q, eps, mode, width):
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, edges = _patch(q, eps, stripes, width)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in bodies}
    samples = {s: _dense_samples(bodies[s], cuts[s], 4000, 200) for s in bodies}
    for a, b, _, strip, _ in edges:
        exact, _ = closest_pair(trimmed[a], trimmed[b], strip)
        sampled = float(np.min(cKDTree(samples[a]).query(samples[b])[0]))
        assert exact <= sampled + 1e-12
        assert sampled - exact <= 1e-5
    for s in bodies:
        exact, _ = farthest_pair(trimmed[s])
        pts = _dense_samples(bodies[s], cuts[s], 1000, 2)
        assert exact == pytest.approx(pdist(pts).max(), abs=1e-6)
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.ok == (width == 2.0)


@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_witnesses_lie_on_the_trimmed_bodies(name, q, eps, mode):
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, edges = _patch(q, eps, stripes, 2.0)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in bodies}
    for a, b, _, strip, _ in edges:
        d, (p, r) = closest_pair(trimmed[a], trimmed[b], strip)
        assert _on_trimmed_body(bodies[a], cuts[a], p)
        assert _on_trimmed_body(bodies[b], cuts[b], r)
        assert abs(math.dist(p, r) - d) <= 1e-12
    for s in bodies:
        d, (p, r) = farthest_pair(trimmed[s])
        assert _on_trimmed_body(bodies[s], cuts[s], p)
        assert _on_trimmed_body(bodies[s], cuts[s], r)
        assert abs(math.dist(p, r) - d) <= 1e-12
    report = verify_avoidance(q, eps, stripes)
    for value, (p, r) in ((report.min_cross_distance, report.cross_witness),
                          (report.max_same_body_diameter, report.diameter_witness)):
        assert abs(math.dist(p, r) - value) <= 1e-12


def _bulge_radius(body, arc):
    radii = body.radii.copy()
    radii[arc] += 1e-7
    return dataclasses.replace(body, radii=radii)


def _shift_centre(body, arc):
    # outward along the arc's middle direction: its farthest pair from the
    # antipodal arc is then interior to both, on the line of centres
    mid = 0.5 * (body.breaks[arc] + body.breaks[arc + 1])
    centers = body.centers.copy()
    centers[arc] += 1e-7 * np.array([math.cos(mid), math.sin(mid)])
    return dataclasses.replace(body, centers=centers)


def _fault_at_origin(monkeypatch, fault):
    """Apply ``fault`` to arc 2 of the copy at site (0, 0); arc 2 spans
    [2, 2.93]*pi/12, between the caps at 0 and pi/3."""
    place = lattice.place_body

    def faulty(body, i, j, shift):
        copy = place(body, i, j, shift)
        return fault(copy, 2) if (i, j) == (0, 0) else copy

    monkeypatch.setattr(lattice, "place_body", faulty)


@pytest.mark.parametrize("fault", [_bulge_radius, _shift_centre])
def test_arc_fault_of_1e_7_is_caught(monkeypatch, fault):
    """A 1e-7 fault on one uncut arc makes the body exactly 1e-7 wider than 2."""
    eps = 0.05
    stripes = tortoise.tortoise_area(eps, "series2", q=Q).stripes()
    assert verify_avoidance(Q, eps, stripes).ok
    _fault_at_origin(monkeypatch, fault)
    report = verify_avoidance(Q, eps, stripes)
    assert not report.ok
    assert report.max_same_body_diameter == pytest.approx(2.0 + 1e-7, abs=1e-12)
    assert any("diameter" in v for v in report.violations)


DISC = build_body(Q, 0.0)  # the unit disc as 24 concentric arcs


def test_closest_pair_of_discs_is_on_the_line_of_centres():
    a = trim_body(DISC, [])
    b = trim_body(transform(DISC, 0.0, (3.0, 0.1)), [])
    d, (p, r) = closest_pair(a, b, (np.array([1.0, 0.0]), 1.0, 2.0))  # x <= 1 and x >= 2
    assert d == pytest.approx(math.hypot(3.0, 0.1) - 2.0, abs=1e-12)
    assert np.allclose(p, np.array([3.0, 0.1]) / math.hypot(3.0, 0.1), atol=1e-12)


def test_trimmed_corner_against_known_distances():
    """Two cuts x <= 0.5 and y <= 0.5 meet inside the disc: both chords end
    at the corner (0.5, 0.5), the nearest point to a disc centred at (3, 3)."""
    cuts = [(np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), 0.5)]
    t = trim_body(DISC, cuts)
    assert len(t.chord_a) == 2
    corner = np.array([0.5, 0.5])
    assert np.min(np.hypot(*(t.vertices - corner).T)) <= 1e-15
    d, (p, r) = closest_pair(t, trim_body(transform(DISC, 0.0, (3.0, 3.0)), []),
                             (np.array([1.0, 0.0]), 0.5, 2.0))  # x <= 0.5 and x >= 2
    assert d == pytest.approx(math.hypot(2.5, 2.5) - 1.0, abs=1e-12)
    assert np.allclose(p, corner, atol=1e-12)
    # what is left of the circle spans 150 to 300 degrees
    assert farthest_pair(t)[0] == pytest.approx(2.0 * math.sin(math.radians(75.0)), abs=1e-12)
    # the far side of a cut line that misses the body
    far = (np.array([1.0, 0.0]), 5.0)
    assert halfplane_excess(t, cuts + [far]) == pytest.approx([0.0, 0.0, -4.5], abs=1e-12)


def test_diameter_through_an_arc_interior():
    """One cut leaves the circle from 50 to 235 degrees.  Only the antipodal
    pairs with one point in [50, 55] or [230, 235] degrees are 2 apart, and
    no break of the profile lies there, so each has a cut vertex on one
    side and an arc interior on the other."""
    n = np.array([math.cos(math.radians(322.5)), math.sin(math.radians(322.5))])
    t = trim_body(DISC, [(n, math.cos(math.radians(87.5)))])
    d, (p, r) = farthest_pair(t)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert np.min(np.hypot(*(t.vertices - p).T)) == 0.0


def test_trim_keeps_no_degenerate_arc_piece():
    """Two cut lines through the boundary point at 100 degrees split its arc
    twice at the same angle.  The piece between the two splits must not
    stay an arc: with equal end vectors its range test would also admit
    the opposite direction."""
    p = np.array([math.cos(math.radians(100.0)), math.sin(math.radians(100.0))])
    cuts = []
    for normal_deg in (60.0, 140.0):
        n = np.array([math.cos(math.radians(normal_deg)), math.sin(math.radians(normal_deg))])
        cuts.append((n, float(n @ p)))
    t = trim_body(DISC, cuts)
    assert np.all(t.u0[:, 0] * t.u1[:, 1] - t.u0[:, 1] * t.u1[:, 0] > 0.0)
    assert np.min(np.hypot(*(t.vertices - p).T)) <= 1e-15
    # what is left of the circle spans 180 to 380 degrees, plus the corner
    assert farthest_pair(t)[0] == pytest.approx(2.0, abs=1e-12)


def test_halfplane_excess_is_the_support_function():
    eps = 0.05
    stripes = tortoise.tortoise_area(eps, "series2", q=Q).stripes()
    bodies, cuts, _ = _patch(Q, eps, stripes, 2.0)
    t = trim_body(bodies[(0, 0)], cuts[(0, 0)])
    pts = _dense_samples(bodies[(0, 0)], cuts[(0, 0)], 4000, 200)
    for angle in np.linspace(0.0, 2.0 * math.pi, 17)[:-1] + 0.1:
        n = np.array([math.cos(angle), math.sin(angle)])
        (exact,) = halfplane_excess(t, [(n, 0.0)])
        sampled = float(np.max(pts @ n))
        assert sampled - 1e-12 <= exact <= sampled + 1e-6


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_nonpositive_stripe_width_rejected(width):
    with pytest.raises(ValueError, match="stripe width"):
        verify_avoidance(Q, 0.05, {k: (0.0, 0.0) for k in range(3)}, stripe_width=width)


# ---------------------------------------------------------------------------
# The batched, strip-pruned distances against the per-pair walk


def _bits(report):
    """Every value of a report, each float as its exact hex string."""
    def hexed(w):
        return None if w is None else [float(x).hex() for point in w for x in point]

    return (report.ok, report.n_edges, float(report.max_halfplane_violation).hex(),
            float(report.min_cross_distance).hex(), float(report.max_same_body_diameter).hex(),
            report.violations, hexed(report.cross_witness), hexed(report.diameter_witness))


def _per_pair_report(monkeypatch, *args, **kwargs):
    """``verify_avoidance`` with every distance taken by ``full_walk``, one
    body pair at a time over all pieces, each body read back from its row
    of the patch table."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "closest_pairs", lambda table, pairs, strips, tops: [
            full_walk.closest_pair(full_walk.body_of_row(table, a),
                                   full_walk.body_of_row(table, b))
            for a, b in pairs])
        m.setattr(lattice, "farthest_pairs", lambda table, rows: [
            full_walk.farthest_pair(full_walk.body_of_row(table, r)) for r in rows])
        return verify_avoidance(*args, **kwargs)


ORACLE_CASES = [
    (f"{name}-{width}", q, eps, mode, width, None)
    for name, q, eps, mode in PATCHES for width in (2.0, 1.9, 2.1)
] + [
    (fault.__name__, Q, 0.05, "series2", 2.0, fault) for fault in (_bulge_radius, _shift_centre)
] + [
    ("uniform36", uniform_zero_profile(36), 0.05, "series2", 2.0, None),
    ("q36", q36_profile(), 0.05, "series2", 2.0, None),
    ("break-antipode-2.0", *_break_antipode_profile(), "series1", 2.0, None),
    ("break-antipode-2.1", *_break_antipode_profile(), "series1", 2.1, None),
    # diameters in passes of 4, 4 and 1 rows, and of one row each
    ("uniform96", uniform_zero_profile(96), 0.05, "series2", 2.0, None),
    ("uniform288", uniform_zero_profile(288), 0.05, "series2", 2.0, None),
]


@pytest.mark.parametrize("name, q, eps, mode, width, fault", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_batched_report_is_the_per_pair_report(monkeypatch, name, q, eps, mode, width, fault):
    """Pruning and batching change no value: distances, witnesses and
    every violation string equal the per-pair walk's to the bit."""
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    if fault is not None:
        _fault_at_origin(monkeypatch, fault)
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.ok == (width >= 2.0 and fault is None)
    assert _bits(report) == _bits(_per_pair_report(monkeypatch, q, eps, stripes,
                                                   stripe_width=width))


@pytest.mark.parametrize("q, passes", [(Q, 1), (uniform_zero_profile(96), 3),
                                       (uniform_zero_profile(288), 9)],
                         ids=["reference", "uniform96", "uniform288"])
def test_diameter_passes_are_bounded_by_size(monkeypatch, q, passes):
    """The nine diameters of a 24-arc patch take one candidate pass, those
    of the uniform 96-interval patch (86 vertices and 84 arc pieces wide)
    passes of four rows, and those of uniform 288 (246 vertices) one pass
    a row."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=q).stripes()
    calls = count_calls(monkeypatch, lattice, "_extreme")
    verify_avoidance(q, 0.05, stripes)
    assert len(calls) == 1 + passes  # one for the nearest pairs of all edges


def _arc_pair(rng) -> full_walk.TrimmedBody:
    """Two random non-concentric arc pieces, each spanning up to pi, as one
    trimmed body with their four ends as vertices."""
    centers = rng.uniform(-0.5, 0.5, (2, 2))
    radii = rng.uniform(0.3, 1.5, 2)
    lo = rng.uniform(0.0, 2.0 * math.pi, 2)
    hi = lo + rng.uniform(0.05, math.pi, 2)
    u0 = np.stack([np.cos(lo), np.sin(lo)], axis=-1)
    u1 = np.stack([np.cos(hi), np.sin(hi)], axis=-1)
    ends = np.concatenate([centers + radii[:, None] * u0, centers + radii[:, None] * u1])
    return full_walk.TrimmedBody(centers, radii, u0, u1, np.zeros((0, 2)), np.zeros((0, 2)),
                                 ends)


def _sampled_diameter(t: full_walk.TrimmedBody) -> float:
    """The diameter of two arcs from their parametrisation: each arc's chord
    between its ends, and the largest |P - X| over X on arc 1 for P on arc
    0 (the circle's far point where it lies in range, else an end),
    sampled densely and refined at each sampled local maximum."""
    lo = np.arctan2(t.u0[:, 1], t.u0[:, 0])
    span = (np.arctan2(t.u1[:, 1], t.u1[:, 0]) - lo) % (2.0 * math.pi)

    def far(phi):
        P = t.centers[0] + t.radii[0] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        w = t.centers[1] - P
        in_range = (np.arctan2(w[..., 1], w[..., 0]) - lo[1]) % (2.0 * math.pi) <= span[1]
        ends = [np.hypot(*(P - t.vertices[k]).T) for k in (1, 3)]
        return np.where(in_range, np.hypot(w[..., 0], w[..., 1]) + t.radii[1], np.maximum(*ends))

    phi = np.linspace(lo[0], lo[0] + span[0], 2001)
    g = far(phi)
    best = [float(g.max())]
    for i in np.flatnonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])) + 1:
        res = minimize_scalar(lambda x: -far(np.array([x]))[0], bounds=(phi[i - 1], phi[i + 1]),
                              method="bounded", options={"xatol": 1e-13})
        best.append(-res.fun)
    chords = np.hypot(*(t.vertices[:2] - t.vertices[2:]).T)
    return max(*best, *chords)


def test_only_one_sign_pair_on_the_line_of_centres_can_be_a_maximum():
    """The line-of-centres lemma of ``farthest_pairs`` on random arc pairs:
    with the end candidates, P = M_a - r_a*u, Q = M_b + r_b*u alone reach
    the maximum of all four sign pairs, the one the batched pass and the
    full walk report, and a dense sample agrees to 1e-12."""
    rng = np.random.default_rng(24)
    interior = other_signs = 0
    for _ in range(200):
        t = _arc_pair(rng)
        table = full_walk.table_of([t])

        def minus_plus():  # sign index 0 is +1, index 1 is -1
            P, Q, ok = lattice._arc_arc(table, table)
            return P[:, 1, 0], Q[:, 1, 0], ok[:, 1, 0]

        with np.errstate(divide="ignore", invalid="ignore"):
            d, (p, _) = lattice._extreme(np.argmax, -math.inf, [
                lambda: lattice._vertex_pairs(table),
                lambda: lattice._far_vertex_arc(table),
                minus_plus,
            ])[0]
            ok = lattice._arc_arc(table, table)[2][0]
        assert d == farthest_pair(t)[0] == full_walk.farthest_pair(t)[0]
        assert abs(d - _sampled_diameter(t)) <= 1e-12
        interior += not any(np.array_equal(p, v) for v in t.vertices)
        other_signs += bool(ok[0, 0].any() or ok[1, 1].any() or ok[0, 1].any())
    # some maxima lie inside both arcs, and the other sign pairs do occur
    assert interior > 0 and other_signs > 0


def test_strip_bound_adds_the_measured_excess():
    """A strip moved 1e-3 into body a, which then crosses it: the bound
    widens by the crossing, so the pruned nearest pair is still exact."""
    eps = 0.05
    stripes = tortoise.tortoise_area(eps, "series2", q=Q).stripes()
    bodies, cuts, edges = _patch(Q, eps, stripes, 2.0)
    a, b, _, _, (i, j) = edges[0]
    (n, c_a), (_, c_b) = cuts[a][i], cuts[b][j]
    ta, tb = trim_body(bodies[a], cuts[a]), trim_body(bodies[b], cuts[b])
    strip = (n, c_a - 1e-3, -c_b)
    assert halfplane_excess(ta, [(n, strip[1])])[0] >= 1e-3 - 1e-12
    d, (p, r) = closest_pair(ta, tb, strip)
    want, (p0, r0) = full_walk.closest_pair(ta, tb)
    assert (d.hex(), p.tolist(), r.tolist()) == (want.hex(), p0.tolist(), r0.tolist())
    assert closest_pair(ta, tb, (n, c_a, -c_b))[0] == want


def test_a_copy_trimmed_past_its_lines_keeps_the_nearest_pairs_exact(monkeypatch):
    """The centre copy trimmed with its six lines moved out by 1e-3 to
    6e-3, one amount each, crosses each by that much.  Check (a) names
    each crossing, and the six edges at the centre still measure their
    nearest pairs to the bit of the per-pair walk: each strip line moves
    out by its own cut's support value, read from check (a)'s table."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    trim = lattice.trim_bodies

    def loose(bodies, cuts_per_body):
        centre = lattice.PATCH_SITES.index((0, 0))
        moved = list(cuts_per_body)
        moved[centre] = [(n, c + 1e-3 * (j + 1)) for j, (n, c) in enumerate(moved[centre])]
        # a faulty trim: the copies are trimmed by the moved lines, and the
        # cut table it hands back holds the lines it was given
        return (trim(bodies, moved)[0], *cut_table(cuts_per_body))

    monkeypatch.setattr(lattice, "trim_bodies", loose)
    report = verify_avoidance(Q, 0.05, stripes)
    crossings = [v for v in report.violations if v.startswith("site (0, 0): trimmed body crosses")]
    assert len(crossings) == 6
    assert report.max_halfplane_violation == pytest.approx(6e-3, abs=1e-12)
    assert report.min_cross_distance < 2.0 - 6e-3 + 1e-9
    assert _bits(report) == _bits(_per_pair_report(monkeypatch, Q, 0.05, stripes))


@pytest.mark.parametrize("width", [2.0, 3.2])
def test_one_trim_and_one_table_per_verification(monkeypatch, width):
    """The nine copies are trimmed in one call, not one call each, and
    their cut table is built once, by that call; the three checks read
    the table it returns and build no cut table of their own."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    batched = count_calls(monkeypatch, clip, "trim_bodies")
    tables = count_calls(monkeypatch, clip, "cut_table")
    verify_avoidance(Q, 0.05, stripes, stripe_width=width)
    assert len(batched) == 1 and len(batched[0][0]) == len(lattice.PATCH_SITES)
    assert len(tables) == 1 and len(tables[0][0]) == len(lattice.PATCH_SITES)


def test_an_empty_copy_is_a_violation():
    """Width 4 cuts every copy away: no distance is measured, and that is a
    failure naming the sites, not a pass at inf."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    report = verify_avoidance(Q, 0.05, stripes, stripe_width=4.0)
    assert not report.ok
    assert report.violations == [
        f"site {s}: its cut lines leave nothing of its copy" for s in lattice.PATCH_SITES
    ]
    assert report.cross_witness is None and report.diameter_witness is None
    assert "inf" not in report.summary()
    # width 3.2 leaves only the centre copy empty; the rest is still measured
    report = verify_avoidance(Q, 0.05, stripes, stripe_width=3.2)
    assert report.violations == ["site (0, 0): its cut lines leave nothing of its copy"]
    assert math.isfinite(report.min_cross_distance)
