import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

import full_walk
from break_sets import q36_profile, seeded_break_set, uniform_zero_profile
from call_counts import count_calls
from croft_forge import ansatz, clip, lattice, reference, tortoise
from croft_forge.body import (
    boundary_point,
    build_body,
    croft_constants,
    diameter_profile,
    transform,
)
from croft_forge.clip import boundary_line_crossings, trim_bodies
from croft_forge.lattice import (
    LATTICE_CONSTANT,
    NEIGHBOR_STEPS,
    PATCH_SITES,
    PSI,
    color_index,
    default_config,
    left_color_of_class,
    patch_cuts,
    patch_layout,
    place_body,
    place_patch,
    rotation_of_color,
    site_position,
    verify_avoidance,
)
from croft_forge.stepfn import (
    TWO_PI,
    make_step_function,
    reference_step_function,
    zero_step_function,
)
from disc_reference import disc_cuts, one_sided_values

Q = reference_step_function()
SHIFT = default_config()


def trim_body(body, cuts):
    """The one row of ``clip.trim_bodies`` of the one body, read back."""
    table = trim_bodies(full_walk.stacked([body]), full_walk.cut_table([cuts]))
    return full_walk.body_of_row(table, 0)


def closest_pair(a, b, strip):
    """``lattice.closest_pairs`` of the one pair (a, b), pruned by the strip
    (n, c_a, c_b): a's row has the one cut (n, c_a) and b's the one cut
    (-n, -c_b), each line moved out to its body's extreme, as in
    ``verify_avoidance``."""
    table = full_walk.table_of([a, b])
    n, c_a, c_b = strip
    n = np.asarray(n, dtype=float)
    normals, offsets = np.array([[n], [-n]]), np.array([[c_a], [-c_b]], dtype=float)
    return lattice.closest_pairs(table, [((0, 0), (1, 0))], normals, offsets)[0]


def _strip(cut_a, cut_b):
    """The strip (n, c_a, c_b) of an edge whose cuts are (n, c_a) on a and
    (-n, -c_b) on b."""
    (n, c_a), (_, c) = cut_a, cut_b
    return n, c_a, -c


def halfplane_excess(t, cuts):
    """max of n.x - c over the trimmed body, one per cut (n, c)."""
    normals, offsets, _ = full_walk.cut_table([cuts])
    return (lattice._support(full_walk.table_of([t]), normals) - offsets)[0]


def _cut(eps, k, shift=SHIFT):
    """The disc-cap oracle's boundary-point read of class ``k``."""
    return disc_cuts(Q, eps, shift)[k]


def test_coloring_is_proper():
    for i in range(-3, 4):
        for j in range(-3, 4):
            for di, dj in NEIGHBOR_STEPS:
                assert color_index(i, j) != color_index(i + di, j + dj)


def test_color_indices():
    assert color_index(0, 0) == 0
    assert {color_index(i, 0) for i in range(3)} == {0, 1, 2}


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


def test_oracle_reads_one_sided_radii_exactly():
    """The disc-cap oracle reads each cap radius from ``break_fractions``:
    at a break (pi/3 on the reference) the right and left limits are the
    values on either side, the left limit at 0 wraps to the last interval,
    and off every break both limits are the value of the interval there."""
    i = Q.break_fractions.index(Fraction(1, 3))
    assert one_sided_values(Q, Fraction(1, 3)) == (Q.values[i], Q.values[i - 1])
    assert Q.values[i] != Q.values[i - 1]
    assert one_sided_values(Q, Fraction(0)) == (Q.values[0], Q.values[-1])
    template = seeded_break_set(24, 7)  # breaks at 0, pi/3, pi and 4pi/3 only
    h = template.n_intervals // 2
    v = np.random.default_rng(7).standard_normal(h)
    q = make_step_function(template.break_fractions, np.concatenate([v, -v]))
    for m in (2, 5):
        f = Fraction(m, 3)
        assert f not in q.break_fractions
        j = int(np.searchsorted(q.breaks, float(f) * math.pi)) - 1
        assert one_sided_values(q, f) == (q.values[j], q.values[j])


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


def _cap_parts(breaks, j):
    """Cap j's arcs (arc, a, b) by a walk over every arc of three turns: the
    arcs whose range meets the normal angles j*psi +- phi_c in more than a
    point, each cut to its part under the cap, in boundary order."""
    phi_c = croft_constants().phi_c
    lo, hi = j * PSI - phi_c, j * PSI + phi_c
    parts = []
    for turn in (-1, 0, 1):
        for i in range(len(breaks) - 1):
            a, b = breaks[i] + turn * TWO_PI, breaks[i + 1] + turn * TWO_PI
            if a < hi and b > lo:
                parts.append((i, max(a, lo), min(b, hi)))
    return parts


CAP_TABLE_SETS = {
    "uniform": [uniform_zero_profile(n) for n in range(12, 289, 12)],
    "two-q36": [zero_step_function(), q36_profile()],
    **{f"seeded-{n}": [seeded_break_set(n, s) for s in range(1, 41)] for n in (24, 48, 96)},
}


@pytest.mark.parametrize("name", CAP_TABLE_SETS)
def test_cap_table_is_the_per_cap_walk(name):
    """``_cap_sub_arcs`` against a cap-by-cap walk: each row lists the cap's
    arcs, its two end arcs are ``ends``, its parts' angles and unit chords
    match, and the padding is arc 0 with no part."""
    for template in CAP_TABLE_SETS[name]:
        _assert_cap_table_is_the_walk(template.breaks)


def _assert_cap_table_is_the_walk(breaks):
    arcs, ends, dphi, du, u, du_dphi = lattice._cap_sub_arcs(tuple(breaks))
    for j in range(6):
        parts = _cap_parts(breaks, j)
        size = len(parts)
        idx = [i for i, _, _ in parts]
        a = np.array([a for _, a, _ in parts])
        b = np.array([b for _, _, b in parts])
        assert list(arcs[j, :size]) == idx
        assert list(ends[j]) == [idx[0], idx[-1]]
        assert np.max(np.abs(dphi[j, :size] - (b - a))) <= 1e-15
        chords = [(math.cos(y) - math.cos(x), math.sin(y) - math.sin(x)) for x, y in zip(a, b)]
        assert np.max(np.abs(du[j, :size] - np.array(chords))) <= 1e-15
        assert not np.any(arcs[j, size:]) and not np.any(dphi[j, size:])
        assert not np.any(du[j, size:])
        for k, x in enumerate((a[0], b[-1])):
            assert np.max(np.abs(u[j, k] - (math.cos(x), math.sin(x)))) <= 1e-15
            assert np.max(np.abs(du_dphi[j, k] - (-math.sin(x), math.cos(x)))) <= 1e-15
    assert arcs.shape[1] == max(len(_cap_parts(breaks, j)) for j in range(6))


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


def test_avoidance_refuses_a_non_finite_shift():
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    with pytest.raises(ValueError, match="shift must be a list of two finite numbers"):
        verify_avoidance(Q, 0.05, stripes, shift=(math.nan, 0.0))


def _turned(beta, v):
    """``v`` turned by the angle ``beta``."""
    c, s = math.cos(beta), math.sin(beta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


PATCH_STRIPES = {
    "flat": {k: (0.0, 0.0) for k in range(3)},
    "seeded": {k: (float(s), float(t)) for k, (s, t)
               in enumerate(np.random.default_rng(3).uniform(-0.05, 0.05, (3, 2)))},
}


@pytest.mark.parametrize("width", [2.0, 1.9])
@pytest.mark.parametrize("stripes", PATCH_STRIPES.values(), ids=PATCH_STRIPES)
def test_patch_cut_table_structure(stripes, width):
    """The layout's rows are the patch sites and its edges the neighbor
    pairs from color c to c+1, each once, naming its two slots in the
    order each row lists its edges.  Each slot holds its edge's cap of
    ``stripe_caps`` turned onto the edge: b's normal is -(a's), each
    offset is its cap offset plus n.(edge origin), and the two lines sit
    a stripe width apart.  Padded slots are (0, 0) and masked."""
    layout = patch_layout()
    normals, offsets, ok = patch_cuts(stripes, width)
    sites = PATCH_SITES
    assert layout.colors.tolist() == [color_index(*s) for s in sites]
    assert np.array_equal(layout.positions, [site_position(*s) for s in sites])
    # the interior site sees all six incident stripes; real slots come first
    assert ok.shape == (len(sites), 6) and ok[sites.index((0, 0))].all()
    assert np.array_equal(ok, np.arange(6) < ok.sum(axis=1)[:, None])
    assert not normals[~ok].any() and not offsets[~ok].any()
    forward = {
        ((i, j), (i + di, j + dj))
        for (i, j) in sites for di, dj in NEIGHBOR_STEPS
        if (i + di, j + dj) in sites
        and color_index(i + di, j + dj) == (color_index(i, j) + 1) % 3
    }
    assert len(layout.edges) == len(forward) == 16
    assert {(sites[a], sites[b]) for (a, _), (b, _), _ in layout.edges} == forward
    slot = [0] * len(sites)
    for (a, i), (b, j), k in layout.edges:
        pa, pb = site_position(*sites[a]), site_position(*sites[b])
        beta = math.atan2(pb[1] - pa[1], pb[0] - pa[0])
        assert k == _class_of_direction(color_index(*sites[a]), beta)
        assert (i, j) == (slot[a], slot[b])
        for r, at, side in ((a, i, 0), (b, j, 1)):
            assert (layout.klass[r, at], layout.side[r, at]) == (k, side)
            assert np.array_equal(layout.origin[r, at], pa)
            assert np.allclose(layout.turn[r, at], [math.cos(beta), math.sin(beta)],
                               rtol=0.0, atol=1e-15)
        (cap, c_l, _, _), (_, c_r, _, _) = lattice.stripe_caps(*stripes[k], width)
        (n, c_a), (m, c) = (normals[a, i], offsets[a, i]), (normals[b, j], offsets[b, j])
        assert np.array_equal(m, -n)
        assert np.allclose(n, _turned(beta, cap), rtol=0.0, atol=1e-15)
        assert c_a == c_l + float(n @ pa) and c == c_r + float(m @ pa)
        assert -c - c_a == pytest.approx(width, abs=1e-12)
        slot[a] += 1
        slot[b] += 1
    assert slot == ok.sum(axis=1).tolist()


STACK_PROFILES = {"reference": Q, "q36": q36_profile(), "uniform96": uniform_zero_profile(96)}


@pytest.mark.parametrize("q", STACK_PROFILES.values(), ids=STACK_PROFILES)
def test_stacked_copies_are_the_placed_copies(q):
    """Each row of ``place_patch`` is ``place_body``'s copy at its site bit
    for bit (signed zeros included): centres, radii and breaks of all nine
    sites, at eps +-0.05, with the reference shift and another one."""
    for eps in (0.05, -0.05):
        body = build_body(q, eps)
        for shift in (None, (0.1, -0.2)):
            copies = place_patch(body, shift)
            assert [x.shape[0] for x in copies] == [len(PATCH_SITES)] * 3
            for r, s in enumerate(PATCH_SITES):
                copy = place_body(body, *s, shift)
                for got, want in zip(copies, (copy.centers, copy.radii, copy.breaks)):
                    assert got[r].shape == want.shape and got[r].tobytes() == want.tobytes()


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
    """The patch's copies, cut lists and edges by site, read off the rows
    of its cut table: each site's (n, c) pairs in slot order, each edge as
    (site_a, site_b, class, (slot_a, slot_b))."""
    body = build_body(q, eps)
    bodies = {s: place_body(body, *s, SHIFT) for s in PATCH_SITES}
    normals, offsets, ok = patch_cuts(stripes, width)
    cuts = {s: list(zip(normals[r][ok[r]], offsets[r][ok[r]])) for r, s in enumerate(PATCH_SITES)}
    edges = [(PATCH_SITES[a], PATCH_SITES[b], k, (i, j))
             for (a, i), (b, j), k in patch_layout().edges]
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
    for a, b, _, (i, j) in edges:
        exact, _ = closest_pair(trimmed[a], trimmed[b], _strip(cuts[a][i], cuts[b][j]))
        sampled = float(np.min(cKDTree(samples[a]).query(samples[b])[0]))
        assert exact <= sampled + 1e-12
        assert sampled - exact <= 1e-5
    for s in bodies:
        exact, _ = full_walk.farthest_pair(trimmed[s])
        pts = _dense_samples(bodies[s], cuts[s], 1000, 2)
        assert exact == pytest.approx(pdist(pts).max(), abs=1e-6)
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.ok == (width == 2.0)


@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_witnesses_lie_on_the_trimmed_bodies(name, q, eps, mode):
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, edges = _patch(q, eps, stripes, 2.0)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in bodies}
    for a, b, _, (i, j) in edges:
        d, (p, r) = closest_pair(trimmed[a], trimmed[b], _strip(cuts[a][i], cuts[b][j]))
        assert _on_trimmed_body(bodies[a], cuts[a], p)
        assert _on_trimmed_body(bodies[b], cuts[b], r)
        assert abs(math.dist(p, r) - d) <= 1e-12
    for s in bodies:
        d, (p, r) = full_walk.farthest_pair(trimmed[s])
        assert _on_trimmed_body(bodies[s], cuts[s], p)
        assert _on_trimmed_body(bodies[s], cuts[s], r)
        assert abs(math.dist(p, r) - d) <= 1e-12
    report = verify_avoidance(q, eps, stripes)
    for value, (p, r) in ((report.min_cross_distance, report.cross_witness),
                          (report.max_same_body_diameter, report.diameter_witness)):
        assert abs(math.dist(p, r) - value) <= 1e-12


BOUND_CASES = [
    (f"{name}-{width}", q, eps, mode, width)
    for name, q, eps, mode in PATCHES for width in (2.0, 1.9, 2.1)
] + [(f"uniform{n}", uniform_zero_profile(n), 0.05, "series2", 2.0) for n in (96, 288)]


@pytest.mark.parametrize("name, q, eps, mode, width", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_no_trimmed_copy_is_wider_than_its_copy(name, q, eps, mode, width):
    """The bound check (c) rests on: the exact diameter of each trimmed
    copy (the full walk over all its pieces) is at most its copy's
    closed-form diameter + 2e-15.  The report reads the largest copy
    diameter to the bit, with a witness pair on that copy."""
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, _ = _patch(q, eps, stripes, width)
    sites = lattice.PATCH_SITES
    table = trim_bodies(full_walk.stacked([bodies[s] for s in sites]),
                        full_walk.cut_table([cuts[s] for s in sites]))
    bounds = [diameter_profile(bodies[s])[0] for s in sites]
    for r, bound in enumerate(bounds):
        assert full_walk.farthest_pair(full_walk.body_of_row(table, r))[0] <= bound + 2e-15
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.max_same_body_diameter == max(bounds)
    p, r = report.diameter_witness
    assert abs(math.dist(p, r) - report.max_same_body_diameter) <= 1e-12
    assert any(_on_trimmed_body(bodies[s], [], p) and _on_trimmed_body(bodies[s], [], r)
               for s in sites)


def _bulge_radius(copies, r, arc):
    """Arc ``arc`` of the stacked copy in row r with its radius 1e-7 larger."""
    centers, radii, breaks = copies
    radii = radii.copy()
    radii[r, arc] += 1e-7
    return centers, radii, breaks


def _shift_centre(copies, r, arc):
    """Arc ``arc`` of the stacked copy in row r with its centre moved 1e-7
    outward along the arc's middle direction: its farthest pair from the
    antipodal arc is then interior to both, on the line of centres."""
    centers, radii, breaks = copies
    mid = 0.5 * (breaks[r, arc] + breaks[r, arc + 1])
    centers = centers.copy()
    centers[r, arc] += 1e-7 * np.array([math.cos(mid), math.sin(mid)])
    return centers, radii, breaks


def _fault_at_origin(monkeypatch, fault):
    """Apply ``fault`` to arc 2 of the copy at site (0, 0); arc 2 spans
    [2, 2.93]*pi/12, between the caps at 0 and pi/3."""
    place = lattice.place_patch

    def faulty(body, shift):
        return fault(place(body, shift), PATCH_SITES.index((0, 0)), 2)

    monkeypatch.setattr(lattice, "place_patch", faulty)


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


def _widen_piece(table, normals, r):
    """The first arc piece of row r (a copy of the reference body at eps
    0.05) that ends at its arc's end, turned on past it by 1e-6 rad."""
    breaks = place_body(build_body(Q, 0.05), *lattice.PATCH_SITES[r], SHIFT).breaks
    ends = np.stack([np.cos(breaks[table.arc[r] + 1]), np.sin(breaks[table.arc[r] + 1])], axis=-1)
    i = int(np.flatnonzero(table.arc_ok[r] & np.all(np.abs(table.u1[r] - ends) <= 1e-15,
                                                    axis=1))[0])
    c, s = math.cos(1e-6), math.sin(1e-6)
    u1 = table.u1.copy()
    u1[r, i] = u1[r, i] @ np.array([[c, s], [-s, c]])
    return table._replace(u1=u1), f"site (0, 0): trimmed arc piece {i} is off its copy"


def _bulge_piece(table, normals, r):
    """Arc piece 0 of row r with its radius 1e-7 larger than its arc's."""
    radii = table.radii.copy()
    radii[r, 0] += 1e-7
    return table._replace(radii=radii), "site (0, 0): trimmed arc piece 0 is off its copy"


def _move_chord(table, normals, r):
    """Chord 0 of row r moved 1e-7 off its cut line, into the kept side."""
    n = normals[r, table.cut[r, 0]]
    chord_a, chord_b = table.chord_a.copy(), table.chord_b.copy()
    chord_a[r, 0] -= 1e-7 * n
    chord_b[r, 0] -= 1e-7 * n
    return (table._replace(chord_a=chord_a, chord_b=chord_b),
            "site (0, 0): trimmed chord 0 is off its copy")


@pytest.mark.parametrize("fault", [_widen_piece, _bulge_piece, _move_chord])
def test_a_trim_off_its_copy_is_caught(monkeypatch, fault):
    """A trimmed piece that leaves its copy fails check (c), though the
    copy is 2 wide, and no other check sees it: an arc piece turned 1e-6
    rad past its arc's end, one 1e-7 wider than its arc, and a chord moved
    1e-7 off its cut line into the kept side."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    trim = lattice.trim_bodies
    messages = []

    def faulty(copies, cuts):
        table, message = fault(trim(copies, cuts), cuts[0], lattice.PATCH_SITES.index((0, 0)))
        messages.append(message)
        return table

    monkeypatch.setattr(lattice, "trim_bodies", faulty)
    report = verify_avoidance(Q, 0.05, stripes)
    assert not report.ok
    assert report.violations == messages
    assert report.max_same_body_diameter == pytest.approx(2.0, abs=1e-15)


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
    assert full_walk.farthest_pair(t)[0] == pytest.approx(2.0 * math.sin(math.radians(75.0)),
                                                          abs=1e-12)
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
    d, (p, r) = full_walk.farthest_pair(t)
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
    assert full_walk.farthest_pair(t)[0] == pytest.approx(2.0, abs=1e-12)


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
    """``verify_avoidance`` with every nearest pair taken by ``full_walk``,
    one body pair at a time over all pieces, each body read back from its
    row of the patch table."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "closest_pairs", lambda table, pairs, normals, offsets: [
            full_walk.closest_pair(full_walk.body_of_row(table, a),
                                   full_walk.body_of_row(table, b))
            for (a, _), (b, _) in pairs])
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
    ("uniform96", uniform_zero_profile(96), 0.05, "series2", 2.0, None),
    ("uniform288", uniform_zero_profile(288), 0.05, "series2", 2.0, None),
]


@pytest.mark.parametrize("name, q, eps, mode, width, fault", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_batched_report_is_the_per_pair_report(monkeypatch, name, q, eps, mode, width, fault):
    """Pruning and batching change no nearest pair: distances, witnesses
    and every violation string equal the per-pair walk's to the bit."""
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    if fault is not None:
        _fault_at_origin(monkeypatch, fault)
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.ok == (width >= 2.0 and fault is None)
    assert _bits(report) == _bits(_per_pair_report(monkeypatch, q, eps, stripes,
                                                   stripe_width=width))


@pytest.mark.parametrize("name, q, eps, mode, width", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_nearest_pairs_do_not_depend_on_the_edge_orientation(name, q, eps, mode, width):
    """Every edge of a patch measured from either side: with the two sides
    of each pair swapped, each distance is bit-identical, and each swapped
    witness attains it, its first point on the first side's trimmed body.
    A mirrored candidate kind of ``closest_pairs`` takes both orientations
    in one block, so this holds its b->a half to its a->b half."""
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, _ = _patch(q, eps, stripes, width)
    normals, offsets, ok = patch_cuts(stripes, width)
    table = trim_bodies(place_patch(build_body(q, eps), SHIFT), (normals, offsets, ok))
    pairs = [(a, b) for a, b, _ in patch_layout().edges]
    forward = lattice.closest_pairs(table, pairs, normals, offsets)
    swapped = lattice.closest_pairs(table, [(b, a) for a, b in pairs], normals, offsets)
    assert len(forward) == len(swapped) == 16
    for ((a, _), (b, _)), (d, _), (d_swapped, (p, r)) in zip(pairs, forward, swapped):
        assert d_swapped.hex() == d.hex()
        assert np.hypot(p[0] - r[0], p[1] - r[1]) == d
        assert _on_trimmed_body(bodies[PATCH_SITES[b]], cuts[PATCH_SITES[b]], p)
        assert _on_trimmed_body(bodies[PATCH_SITES[a]], cuts[PATCH_SITES[a]], r)


@pytest.mark.parametrize("width", [2.0, 1.9])
@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_repeated_vertices_change_no_report(monkeypatch, name, q, eps, mode, width):
    """``trim_bodies`` lists the shared end of two pieces of one arc twice.
    Keeping only the first copy of each vertex (by bit pattern) in every
    row changes no value, witness or violation string of the report."""
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    trim = lattice.trim_bodies
    repeats = []

    def first_copies(copies, cuts):
        table = trim(copies, cuts)
        first = np.zeros_like(table.vertex_ok)
        for r, (row, ok) in enumerate(zip(table.vertices, table.vertex_ok)):
            seen = set()
            for i in np.flatnonzero(ok):
                first[r, i] = row[i].tobytes() not in seen
                seen.add(row[i].tobytes())
        repeats.append(int(table.vertex_ok.sum() - first.sum()))
        return lattice._keep(table, table.arc_ok, table.chord_ok, first)

    monkeypatch.setattr(lattice, "trim_bodies", first_copies)
    assert _bits(verify_avoidance(q, eps, stripes, stripe_width=width)) == _bits(report)
    assert repeats[0] > 0


@pytest.mark.parametrize("q", [Q, uniform_zero_profile(96), uniform_zero_profile(288)],
                         ids=["reference", "uniform96", "uniform288"])
def test_diameter_passes_are_bounded_by_size(monkeypatch, q):
    """One candidate pass per verification, whatever the size of the
    copies: the nearest pairs of all 16 edges.  The diameters are closed
    forms and take no candidate pass."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=q).stripes()
    calls = count_calls(monkeypatch, lattice, "_extreme")
    verify_avoidance(q, 0.05, stripes)
    assert len(calls) == 1


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
    none = np.zeros((0, 2))
    return full_walk.TrimmedBody(centers, radii, u0, u1, np.arange(2), none, none,
                                 np.zeros(0, dtype=int), ends)


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
    """The line-of-centres lemma on random arc pairs: with the end
    candidates, P = M_a - r_a*u, Q = M_b + r_b*u alone reach the maximum of
    all four sign pairs, the diameter the full walk reports, and a dense
    sample agrees to 1e-12.  The full walk's diameter is the oracle of the
    copy bound of ``verify_avoidance``'s check (c)."""
    rng = np.random.default_rng(24)
    interior = other_signs = 0
    for _ in range(200):
        t = _arc_pair(rng)
        table = full_walk.table_of([t])
        with np.errstate(divide="ignore", invalid="ignore"):
            P, Q, ok = (x[0] for x in lattice._arc_arc(table, table))
        minus_plus = ok[1, 0]  # sign index 0 is +1, index 1 is -1
        d, (p, _) = full_walk._extreme(np.argmax, [
            full_walk._vertex_vertex(t.vertices, t.vertices),
            full_walk._vertex_arc(t.vertices, t, -1.0),
            (P[1, 0][minus_plus], Q[1, 0][minus_plus]),
        ])
        assert d == full_walk.farthest_pair(t)[0]
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
    a, b, _, (i, j) = edges[0]
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

    def loose(copies, cuts):
        centre = lattice.PATCH_SITES.index((0, 0))
        normals, offsets, ok = cuts
        moved = offsets.copy()
        moved[centre, ok[centre]] += 1e-3 * np.arange(1, ok[centre].sum() + 1)
        # a faulty trim: the copies are trimmed by the moved lines, while
        # the checks read the cut table they handed it
        return trim(copies, (normals, moved, ok))

    monkeypatch.setattr(lattice, "trim_bodies", loose)
    report = verify_avoidance(Q, 0.05, stripes)
    crossings = [v for v in report.violations if v.startswith("site (0, 0): trimmed body crosses")]
    assert len(crossings) == 6
    assert report.max_halfplane_violation == pytest.approx(6e-3, abs=1e-12)
    assert report.min_cross_distance < 2.0 - 6e-3 + 1e-9
    assert _bits(report) == _bits(_per_pair_report(monkeypatch, Q, 0.05, stripes))


@pytest.mark.parametrize("width", [2.0, 3.2])
def test_one_trim_and_one_table_per_verification(monkeypatch, width):
    """The nine copies are placed in one call as stacked arrays, not one
    ``place_body`` each, and trimmed in one call, by the one cut table
    built for the patch; the three checks read that table and build no
    cut table of their own."""
    stripes = tortoise.tortoise_area(0.05, "series2", q=Q).stripes()
    batched = count_calls(monkeypatch, clip, "trim_bodies")
    tables = count_calls(monkeypatch, lattice, "patch_cuts")
    placed = count_calls(monkeypatch, lattice, "place_patch")
    one_by_one = count_calls(monkeypatch, lattice, "place_body")
    verify_avoidance(Q, 0.05, stripes, stripe_width=width)
    assert len(placed) == 1 and not one_by_one
    assert len(batched) == 1 and all(len(x) == len(PATCH_SITES) for x in batched[0][0])
    assert len(tables) == 1
    assert all(len(x) == len(PATCH_SITES) for x in batched[0][1])


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


def test_an_overflowing_stripe_width_is_reported_without_a_warning():
    """Width 1e300 overflows the trim's chord parameters u = -g0/g1; the min
    and max that read them take +-inf as they should, so the report is the
    one for an empty patch and no warning is raised."""
    stripes = tortoise.tortoise_area(0.0, "exact2").stripes()
    report = verify_avoidance(Q, 0.0, stripes, stripe_width=1e300)
    assert not report.ok
    assert report.violations == [
        f"site {s}: its cut lines leave nothing of its copy" for s in lattice.PATCH_SITES
    ]
