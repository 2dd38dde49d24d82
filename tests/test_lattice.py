import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from croft_forge import ansatz, lattice, reference, tortoise
from croft_forge.body import build_body, boundary_point, transform
from croft_forge.clip import boundary_line_crossings
from croft_forge.lattice import (
    NEIGHBOR_STEPS,
    LatticeConfig,
    PSI,
    closest_pair,
    collect_patch_cuts,
    color_index,
    color_of,
    cut_parameters,
    default_config,
    edge_class,
    farthest_pair,
    halfplane_excess,
    left_color_of_class,
    place_body,
    rotated_frame,
    rotation_of_color,
    trim_body,
    verify_avoidance,
)
from croft_forge.stepfn import reference_step_function

Q = reference_step_function()
CONFIG = default_config()


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
        p = CONFIG.position(di, dj)
        assert np.hypot(*p) == pytest.approx(CONFIG.lattice_constant, abs=1e-12)


def test_edge_class_round_trip():
    # every color-to-next-color edge angle maps to a unique class
    seen = set()
    for c_l in range(3):
        for m in range(3):
            beta = 2 * (c_l + m) * PSI
            k = edge_class(c_l, beta)
            assert left_color_of_class(k) in range(3)
            seen.add((c_l, k))
    assert len(seen) == 9
    with pytest.raises(ValueError):
        edge_class(0, PSI)  # odd multiple is not a class direction


def test_rotated_frame_linear_in_eps():
    f1 = rotated_frame(build_body(Q, 0.05), 0.8)
    f2 = rotated_frame(build_body(Q, 0.10), 0.8)
    assert f2[0] == pytest.approx(2 * f1[0], abs=1e-13)
    assert f2[1] == pytest.approx(2 * f1[1], abs=1e-13)


def test_rotated_frame_antisymmetry():
    b = build_body(Q, 0.2)
    for phi in (0.0, 0.3, PSI, 1.9, 4.0):
        x1, y1 = rotated_frame(b, phi)
        x2, y2 = rotated_frame(b, phi + math.pi)
        assert x2 == pytest.approx(-x1, abs=1e-12)
        assert y2 == pytest.approx(-y1, abs=1e-12)


def test_cut_parameters_linear_in_eps():
    c1 = cut_parameters(Q, build_body(Q, 0.04), 1, CONFIG)
    c2 = cut_parameters(Q, build_body(Q, 0.08), 1, CONFIG)
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
    bodies = {s: place_body(body, *s, CONFIG) for s in sites}
    per_class = {k: cut_parameters(Q, body, k, CONFIG) for k in range(3)}
    checked = set()
    for (i, j) in sites:
        for di, dj in NEIGHBOR_STEPS:
            other = (i + di, j + dj)
            if other not in bodies:
                continue
            c_a, c_b = color_index(i, j), color_index(*other)
            if (c_a + 1) % 3 != c_b:
                continue
            pa, pb = CONFIG.position(i, j), CONFIG.position(*other)
            beta = math.atan2(pb[1] - pa[1], pb[0] - pa[0])
            k = edge_class(c_a, beta)
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
    body = build_body(Q, 0.5)
    base = cut_parameters(Q, body, 2, LatticeConfig(CONFIG.lattice_constant))
    shifted = cut_parameters(Q, body, 2, LatticeConfig(CONFIG.lattice_constant, (0.3, -0.2)))
    expect = np.zeros(2)
    for phi in (4 * PSI, 5 * PSI):
        c, s = math.cos(-phi), math.sin(-phi)
        expect += 0.5 * np.array([0.3 * c + 0.2 * s, 0.3 * s - 0.2 * c])
    assert shifted.d_x - base.d_x == pytest.approx(expect[0], abs=1e-13)
    assert shifted.d_y - base.d_y == pytest.approx(expect[1], abs=1e-13)


def test_place_body_red_is_unrotated():
    body = build_body(Q, 0.1)
    b = place_body(body, 0, 0, CONFIG)
    direct = body.centers + 0.1 * np.asarray(CONFIG.shift)
    assert np.allclose(b.centers, direct, atol=1e-15)
    assert b.breaks[0] == 0.0


def test_place_body_rotation():
    b = place_body(build_body(Q, 0.1), 1, 0, CONFIG)  # green: rotated by 2*pi/3
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
    cuts, edges = collect_patch_cuts(sites, stripes, CONFIG)
    # interior site sees all six incident stripes
    assert len(cuts[(0, 0)]) == 6
    for a, b, k in edges:
        assert (color_index(*a) + 1) % 3 == color_index(*b)
        assert k in (0, 1, 2)


# ---------------------------------------------------------------------------
# The exact verifier against code it does not share


def _dense_samples(body, cuts, n_boundary, n_chord):
    """Boundary and cut-chord samples of the trimmed body (test-only sampler).

    ``cuts`` holds (n, c, keep_sign); the kept side satisfies
    keep_sign * (n.x - c) <= 0.  Each chord is sampled between the extreme
    points where its line crosses the body boundary, ends included.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, n_boundary, endpoint=False)
    pts = [boundary_point(body, phis + body.breaks[0])]
    for n, c, _ in cuts:
        hits = boundary_line_crossings(body, n, c)
        if len(hits) >= 2:
            hits = np.asarray(hits)
            t = hits @ np.array([-n[1], n[0]])
            lo, hi = hits[np.argmin(t)], hits[np.argmax(t)]
            frac = np.linspace(0.0, 1.0, n_chord)[:, None]
            pts.append(lo + frac * (hi - lo))
    pts = np.vstack(pts)
    keep = np.ones(len(pts), dtype=bool)
    for n, c, k in cuts:
        keep &= k * (pts @ n - c) <= 1e-12
    return pts[keep]


def _on_trimmed_body(body, cuts, x, tol=1e-12) -> bool:
    """Whether ``x`` satisfies every cut and lies on a body arc or on a cut
    line between that line's two boundary crossings."""
    if any(k * (n @ x - c) > tol for n, c, k in cuts):
        return False
    for i in range(body.n_arcs):
        w = x - body.centers[i]
        a, b = body.breaks[i], body.breaks[i + 1]
        on_circle = abs(math.hypot(*w) - body.radii[i]) <= tol
        if on_circle and (math.atan2(w[1], w[0]) - a) % (2 * math.pi) <= b - a + tol:
            return True
    for n, c, _ in cuts:
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
    bodies = {s: place_body(body, *s, CONFIG) for s in sites}
    cuts, edges = collect_patch_cuts(sites, stripes, CONFIG, width)
    return bodies, cuts, edges


PATCHES = [("reference", Q, 0.05, "series2")] + [
    (f"random-{seed}", *_random_profile(seed), "series1") for seed in (1, 2, 3)
]


@pytest.mark.parametrize("width", [2.0, 1.9])
@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_exact_distances_match_dense_sampling(name, q, eps, mode, width):
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, edges = _patch(q, eps, stripes, width)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in bodies}
    for a, b, _ in edges:
        exact, _ = closest_pair(trimmed[a], trimmed[b])
        pa = _dense_samples(bodies[a], cuts[a], 4000, 200)
        pb = _dense_samples(bodies[b], cuts[b], 4000, 200)
        sampled = float(np.min(cKDTree(pa).query(pb)[0]))
        assert exact <= sampled + 1e-12
        assert sampled - exact <= 1e-5
    for s in bodies:
        exact, _ = farthest_pair(trimmed[s])
        pts = _dense_samples(bodies[s], cuts[s], 1000, 2)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        assert exact == pytest.approx(math.sqrt(d2.max()), abs=1e-6)
    report = verify_avoidance(q, eps, stripes, stripe_width=width)
    assert report.ok == (width == 2.0)


@pytest.mark.parametrize("name, q, eps, mode", PATCHES, ids=[p[0] for p in PATCHES])
def test_witnesses_lie_on_the_trimmed_bodies(name, q, eps, mode):
    stripes = tortoise.tortoise_area(eps, mode, q=q).stripes()
    bodies, cuts, edges = _patch(q, eps, stripes, 2.0)
    trimmed = {s: trim_body(bodies[s], cuts[s]) for s in bodies}
    for a, b, _ in edges:
        d, (p, r) = closest_pair(trimmed[a], trimmed[b])
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


@pytest.mark.parametrize("fault", [_bulge_radius, _shift_centre])
def test_arc_fault_of_1e_7_is_caught(monkeypatch, fault):
    """A 1e-7 fault on one uncut arc makes the body exactly 1e-7 wider than 2."""
    eps = 0.05
    stripes = tortoise.tortoise_area(eps, "series2", q=Q).stripes()
    assert verify_avoidance(Q, eps, stripes).ok
    place = lattice.place_body
    arc = 2  # spans [2, 2.93]*pi/12, between the caps at 0 and pi/3

    def faulty(body, i, j, config):
        copy = place(body, i, j, config)
        return fault(copy, arc) if (i, j) == (0, 0) else copy

    monkeypatch.setattr(lattice, "place_body", faulty)
    report = verify_avoidance(Q, eps, stripes)
    assert not report.ok
    assert report.max_same_body_diameter == pytest.approx(2.0 + 1e-7, abs=1e-12)
    assert any("diameter" in v for v in report.violations)


DISC = build_body(Q, 0.0)  # the unit disc as 24 concentric arcs


def test_closest_pair_of_discs_is_on_the_line_of_centres():
    a = trim_body(DISC, [])
    b = trim_body(transform(DISC, 0.0, (3.0, 0.1)), [])
    d, (p, r) = closest_pair(a, b)
    assert d == pytest.approx(math.hypot(3.0, 0.1) - 2.0, abs=1e-12)
    assert np.allclose(p, np.array([3.0, 0.1]) / math.hypot(3.0, 0.1), atol=1e-12)


def test_trimmed_corner_against_known_distances():
    """Two cuts x <= 0.5 and y <= 0.5 meet inside the disc: both chords end
    at the corner (0.5, 0.5), the nearest point to a disc centred at (3, 3)."""
    cuts = [(np.array([1.0, 0.0]), 0.5, 1.0), (np.array([0.0, 1.0]), 0.5, 1.0)]
    t = trim_body(DISC, cuts)
    assert len(t.chord_a) == 2
    corner = np.array([0.5, 0.5])
    assert np.min(np.hypot(*(t.vertices - corner).T)) <= 1e-15
    d, (p, r) = closest_pair(t, trim_body(transform(DISC, 0.0, (3.0, 3.0)), []))
    assert d == pytest.approx(math.hypot(2.5, 2.5) - 1.0, abs=1e-12)
    assert np.allclose(p, corner, atol=1e-12)
    # what is left of the circle spans 150 to 300 degrees
    assert farthest_pair(t)[0] == pytest.approx(2.0 * math.sin(math.radians(75.0)), abs=1e-12)
    # the far side of a cut line that misses the body
    far = (np.array([1.0, 0.0]), 5.0, 1.0)
    assert halfplane_excess(t, cuts + [far]) == pytest.approx([0.0, 0.0, -4.5], abs=1e-12)


def test_diameter_through_an_arc_interior():
    """One cut leaves the circle from 50 to 235 degrees.  Only the antipodal
    pairs with one point in [50, 55] or [230, 235] degrees are 2 apart, and
    no break of the profile lies there, so each has a cut vertex on one
    side and an arc interior on the other."""
    n = np.array([math.cos(math.radians(322.5)), math.sin(math.radians(322.5))])
    t = trim_body(DISC, [(n, math.cos(math.radians(87.5)), 1.0)])
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
        cuts.append((n, float(n @ p), 1.0))
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
        (exact,) = halfplane_excess(t, [(n, 0.0, 1.0)])
        sampled = float(np.max(pts @ n))
        assert sampled - 1e-12 <= exact <= sampled + 1e-6


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_nonpositive_stripe_width_rejected(width):
    with pytest.raises(ValueError, match="stripe width"):
        verify_avoidance(Q, 0.05, {k: (0.0, 0.0) for k in range(3)}, stripe_width=width)
