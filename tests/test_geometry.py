import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoggm import geometry as geo

import oracles


class PointCloud:
    """Minimal graph stand-in: points plus a torus."""

    def __init__(self, pts, s):
        self.points = np.asarray(pts, float)
        self.torus = geo.Torus(s)


def test_torus_distance_wraparound():
    t = geo.Torus(10.0)
    assert t.distance((1, 1), (9, 9)) == pytest.approx(2 * math.sqrt(2))


def test_torus_wrap_seam_and_non_finite():
    """The seam fix maps only s itself to 0: NaN and infinities stay NaN
    instead of becoming a vertex at the origin."""
    t = geo.Torus(10.0)
    assert t.wrap([-1e-20, 10.0, 3.5, -2.5]).tolist() == [0.0, 0.0, 3.5, 7.5]
    with np.errstate(invalid="ignore"):
        assert np.isnan(t.wrap([math.nan, math.inf, -math.inf])).all()


def test_torus_distance_identity():
    t = geo.Torus(10.0)
    assert t.distance((3.2, 7.7), (3.2, 7.7)) == 0.0


def test_torus_distance_antipodal():
    t = geo.Torus(10.0)
    assert t.distance((0, 0), (5, 0)) == pytest.approx(5.0)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_torus_refuses_a_side_by_name(s):
    """An infinite side once made a torus on which `distance((0, 0),
    (1, 0))` was NaN, `separated` kept two points 1 apart at sep 5, and
    `close_pairs` paired them."""
    with pytest.raises(ValueError, match=f"torus side must be positive and "
                                         f"finite, got {s}"):
        geo.Torus(s)


def test_torus_distance_symmetry_and_triangle():
    t = geo.Torus(7.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = rng.uniform(0, 7, (3, 2))
        dab = t.distance(a, b)
        assert dab == pytest.approx(t.distance(b, a))
        assert dab <= t.distance(a, c) + t.distance(c, b) + 1e-12


def _pair_list(pairs):
    return sorted(map(tuple, np.asarray(pairs).tolist()))


@st.composite
def pair_inputs(draw):
    """Points on a torus of side s and a radius: uniform points at any
    radius up to past s/sqrt(2) and at inf; lattice points of pitch s/m
    at whole pitches or whole diagonals, so that pairs lie exactly at the
    radius; repeated points at radius 0 or near it; and points a hair
    below s across the seam from points at 0.  From 0 points on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.floats(1.0, 30.0))
    n = draw(st.integers(0, 150))
    kind = draw(st.sampled_from(["uniform", "lattice", "repeated", "seam"]))
    if kind == "uniform":
        pts = rng.uniform(0.0, s, (n, 2))
        radius = draw(st.one_of(st.floats(0.0, s), st.just(s / math.sqrt(2)),
                                st.just(math.inf)))
    elif kind == "lattice":
        m = draw(st.integers(1, 12))
        pts = rng.integers(0, m, (n, 2)) * (s / m)
        radius = (draw(st.integers(0, m)) * s / m
                  * draw(st.sampled_from([1.0, math.sqrt(2)])))
    elif kind == "repeated":
        pool = rng.uniform(0.0, s, (draw(st.integers(1, 8)), 2))
        pts = pool[rng.integers(0, len(pool), n)]
        radius = draw(st.sampled_from([0.0, 1e-12, 0.3 * s]))
    else:
        below = np.nextafter(s, 0.0)
        pts = rng.choice([0.0, below, 0.5 * s, rng.uniform(0.0, s)], (n, 2))
        radius = draw(st.floats(0.0, 0.75 * s))
    return pts, s, radius


@settings(max_examples=400, deadline=None, database=None)
@given(pair_inputs())
def test_close_pairs_match_the_periodic_kdtree(inputs):
    """The cell grid returns the kd-tree's pair set, each pair once and
    as i < j."""
    pts, s, radius = inputs
    got = geo.Torus(s).close_pairs(pts, radius)
    assert got.shape == (len(got), 2) and (got[:, 0] < got[:, 1]).all()
    assert _pair_list(got) == _pair_list(oracles.kdtree_close_pairs(pts, s, radius))


def test_close_pairs_on_grids_of_one_and_two_cells():
    """A grid narrower than 3 cells is taken as one cell; each pair still
    comes once.  On side 10 the 300 uniform points (and the 100 lattice
    points) lie on a grid of 4 cells a side at radius 2 and of 3 at
    radius 3; radius 4, the only radius that gave a grid 2 cells wide, and
    radii 5 and 6 give one cell, as do the 3 lattice points at every
    radius.  The lattice's pairs lie exactly at each radius."""
    lattice = np.argwhere(np.ones((10, 10))).astype(float)
    uniform = np.random.default_rng(5).uniform(0.0, 10.0, (300, 2))
    for pts in (uniform, lattice, lattice[:3]):
        for radius in (2.0, 3.0, 4.0, 5.0, 6.0):
            got = geo.Torus(10.0).close_pairs(pts, radius)
            assert _pair_list(got) == _pair_list(
                oracles.kdtree_close_pairs(pts, 10.0, radius))


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_close_pairs_in_small_chunks(monkeypatch, chunk):
    """Candidates measured a few at a time, with rows longer than a chunk,
    give the pairs measured all at once."""
    monkeypatch.setattr(geo, "_PAIR_CHUNK", chunk)
    lattice = np.argwhere(np.ones((10, 10))).astype(float)
    uniform = np.random.default_rng(6).uniform(0.0, 10.0, (200, 2))
    for pts in (uniform, lattice):
        for radius in (1.0, 2.5, 6.0):
            assert _pair_list(geo.Torus(10.0).close_pairs(pts, radius)) == \
                _pair_list(oracles.kdtree_close_pairs(pts, 10.0, radius))


def test_close_pairs_at_radius_zero_and_infinity():
    """Radius 0 pairs the coincident points only, inf every two."""
    t = geo.Torus(10.0)
    pts = [[1.0, 1.0], [3.0, 3.0], [1.0, 1.0], [9.5, 0.0], [1.0, 1.0]]
    assert _pair_list(t.close_pairs(pts, 0.0)) == [(0, 2), (0, 4), (2, 4)]
    assert _pair_list(t.close_pairs(pts, math.inf)) == [
        (i, j) for i in range(5) for j in range(i + 1, 5)]


@pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan])
def test_close_pairs_refuses_a_negative_or_nan_radius(radius):
    """The kd-tree took radius -1.0 as 1.0 and NaN as no pair at all."""
    with pytest.raises(ValueError, match=f"radius must be nonnegative, got {radius}"):
        geo.Torus(10.0).close_pairs([[1.0, 1.0], [1.5, 1.0]], radius)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_close_pairs_refuses_a_non_finite_point(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        geo.Torus(10.0).close_pairs([[1.0, 1.0], [bad, 1.0]], 1.0)


@pytest.mark.parametrize("shape", [(4, 3), (8,), (2, 2, 2)])
def test_close_pairs_refuses_points_that_are_not_n_by_2(shape):
    """A (4, 3) array was read as six points, giving pairs up to index 5."""
    pts = np.random.default_rng(0).uniform(0.0, 10.0, shape)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        geo.Torus(10.0).close_pairs(pts, 3.0)


def test_close_pairs_of_an_empty_list():
    """The shape check lets an empty list through as no points."""
    assert geo.Torus(10.0).close_pairs([], 3.0).shape == (0, 2)


@pytest.mark.parametrize("sep", [-1.0, math.nan])
def test_separated_refuses_a_negative_or_nan_sep(sep):
    """-1.0 was reported as the radius -0.99999999 it gave close_pairs."""
    with pytest.raises(ValueError, match=f"sep must be nonnegative, got {sep}"):
        geo.Torus(10.0).separated([[1.0, 1.0], [1.5, 1.0]], sep)


@pytest.mark.parametrize("points", [[], np.empty((0, 2))])
def test_separated_of_no_points(points):
    """An empty list raised IndexError from `Torus.distance`, while
    `close_pairs` gives no pairs for it."""
    assert geo.Torus(10.0).separated(points, 1.0) == []


def test_matching_distance_simple():
    F = [(0, 0), (1, 0)]
    H = [(0, 0.1), (1, 0)]
    assert geo.matching_distance(F, H) == pytest.approx(0.1)


def test_matching_distance_identity():
    F = np.random.default_rng(1).uniform(0, 3, (5, 2))
    assert geo.matching_distance(F, F) == 0.0


def test_matching_distance_size_mismatch():
    with pytest.raises(ValueError):
        geo.matching_distance([(0, 0)], [(0, 0), (1, 1)])


def test_matching_distance_vs_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(40):
        r = int(rng.integers(1, 7))
        F = rng.uniform(0, 5, (r, 2))
        H = rng.uniform(0, 5, (r, 2))
        assert geo.matching_distance(F, H) == pytest.approx(
            oracles.brute_matching(F, H), abs=1e-12
        )


def test_matching_distance_metric_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        r = int(rng.integers(2, 7))
        A, B, C = rng.uniform(0, 4, (3, r, 2))
        dab = geo.matching_distance(A, B)
        assert dab == pytest.approx(geo.matching_distance(B, A), abs=1e-12)
        assert geo.matching_distance(A, A) == 0.0
        assert dab <= (
            geo.matching_distance(A, C) + geo.matching_distance(C, B) + 1e-9
        )


def test_grid_rotate_turn_arrays_match_single_turns():
    """An int array of turns gives, bit for bit, the stack of the single
    turns, and each single turn is the exact swap and negation of its
    quarter turn; `.tobytes()` tells signed zeros apart."""
    exact = (lambda x, y: (x, y), lambda x, y: (-y, x),
             lambda x, y: (-x, -y), lambda x, y: (y, -x))
    rng = np.random.default_rng(3)
    for pts in ([(0.0, -0.0), (-0.0, 2.5), (1.5, 0.0), (-3.0, -0.0)],
                rng.standard_normal((7, 2)), [(1, 2)]):
        P = np.asarray(pts, float)
        single = {}
        for q in range(-5, 9):
            got = geo.grid_rotate(pts, q)
            want = np.column_stack(exact[q % 4](P[:, 0], P[:, 1]))
            assert got.shape == P.shape and got.tobytes() == want.tobytes()
            single[q] = got
        for turns in (np.arange(4), np.arange(-5, 9), np.array([3, 3, -1, 0]),
                      np.array([[2, -7], [5, 1]]), np.array([], dtype=int)):
            got = geo.grid_rotate(pts, turns)
            want = np.array([single[q % 4] for q in turns.ravel()]).reshape(
                turns.shape + P.shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_similarity_exact_rigid_copy_on_grid_angle():
    rng = np.random.default_rng(4)
    F = rng.uniform(0, 2, (4, 2))
    ang = 2 * math.pi * 17 / 360  # on the 360 grid
    H = geo.rotate(F, ang) + np.array([5.0, -3.0])
    assert geo.similarity(F, H, 360) <= 1e-12


def test_similarity_identity():
    F = np.random.default_rng(5).uniform(0, 2, (3, 2))
    assert geo.similarity(F, F, 8) <= 1e-12


def test_similarity_monotone_under_grid_refinement():
    rng = np.random.default_rng(6)
    F = rng.uniform(0, 2, (3, 2))
    H = rng.uniform(0, 2, (3, 2))
    coarse = geo.similarity(F, H, 90)
    fine = geo.similarity(F, H, 360)  # integer refinement of the 90 grid
    assert fine <= coarse + 1e-12


def test_similarity_vs_dense_sweep():
    rng = np.random.default_rng(7)
    F = rng.uniform(0, 2, (3, 2))
    H = geo.rotate(F, 2 * math.pi * 17 / 360) + np.array([1.0, 2.0])
    got = geo.similarity(F, H, 360)
    dense = oracles.dense_angle_similarity(F, H, 36000)
    assert got <= geo.matching_distance(
        F, geo.rotate(H - H.mean(0), -2 * math.pi * 17 / 360) + F.mean(0)
    ) + 1e-12
    assert abs(got - dense) <= 1e-3


def test_similarity_grid_rotation_invariance():
    rng = np.random.default_rng(8)
    F = rng.uniform(0, 2, (4, 2))
    H = rng.uniform(0, 2, (4, 2))
    base = geo.similarity(F, H, 36)
    RH = geo.rotate(H, 2 * math.pi * 5 / 36) + np.array([0.4, -0.7])
    assert geo.similarity(F, RH, 36) == pytest.approx(base, abs=1e-9)


def test_convex_hull_triangle():
    hull = geo.convex_hull([(0, 0), (2, 0), (1, 1)])
    assert len(hull) == 3


def test_convex_hull_interior_point_dropped():
    hull = geo.convex_hull([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert len(hull) == 3
    assert (1, 1) not in set(map(tuple, hull.tolist()))


def test_convex_hull_collinear_degenerates_to_segment():
    hull = geo.convex_hull([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert len(hull) == 2
    assert set(map(tuple, hull.tolist())) == {(0.0, 0.0), (3.0, 0.0)}


def test_convex_hull_counterclockwise_and_vs_gift_wrap():
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = rng.uniform(0, 10, (100, 2))
        hull = geo.convex_hull(pts)
        area2 = 0.0
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            area2 += a[0] * b[1] - b[0] * a[1]
        assert area2 > 0  # counterclockwise
        oracle = oracles.gift_wrap_hull(pts)
        assert set(map(tuple, hull.tolist())) == set(map(tuple, oracle.tolist()))


@st.composite
def patterns(draw):
    """Normalized patterns: random cell sets, a single cell, or a line."""
    ints = st.integers(0, 9)
    kind = draw(st.sampled_from(["random", "single", "line"]))
    if kind == "random":
        cells = draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=12,
                              unique=True))
    elif kind == "single":
        cells = [draw(st.tuples(ints, ints))]
    else:
        d = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (3, 1)]))
        ks = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5,
                           unique=True))
        cells = [(5 + k * d[0], 5 + k * d[1]) for k in ks]
    return geo.PatternTemplate.from_offsets(cells)


@settings(max_examples=300, deadline=None, database=None)
@given(patterns())
def test_interior_cells_match_loop_oracle(template):
    for q in range(4):
        rot = geo.PatternTemplate.from_offsets(oracles.rotate_cells(template.offsets, q))
        assert list(rot.interior_cells()) == oracles.loop_interior_cells(rot.offsets)


def test_quantize_example():
    g = PointCloud([(0.7, 0.2), (3.0, 3.0)], 10.0)
    lat = geo.quantize(g, 0.5)
    assert lat.nodes[0].tolist() == [1, 0]
    disp = g.torus.distance((0.7, 0.2), lat.nodes[0] * lat.eps)
    assert disp == pytest.approx(math.sqrt(0.08))
    assert disp <= 0.5 / math.sqrt(2)


def test_quantize_on_node_zero_displacement():
    g = PointCloud([(1.5, 2.0)], 10.0)
    lat = geo.quantize(g, 0.5)
    assert lat.nodes[0].tolist() == [3, 4]
    assert g.torus.distance((1.5, 2.0), lat.nodes[0] * lat.eps) == 0.0


def test_quantize_displacement_bound_exhaustive():
    rng = np.random.default_rng(11)
    s = 40.0
    pts = rng.uniform(0, s, (1000, 2))
    g = PointCloud(pts, s)
    eps = 0.01  # collision-free at this density with this seed
    lat = geo.quantize(g, eps)
    bound = eps / math.sqrt(2) + 1e-12
    for v in range(1000):
        assert g.torus.distance(pts[v], lat.nodes[v] * lat.eps) <= bound


def test_quantize_collision_raises_with_pair():
    g = PointCloud([(1.01, 1.01), (1.02, 1.02)], 10.0)
    with pytest.raises(geo.CollisionError) as exc:
        geo.quantize(g, 0.5)
    assert {exc.value.vertex_a, exc.value.vertex_b} == {0, 1}


def test_quantize_collision_reports_first_clash():
    # vertices 0, 3 and 4 share node (5, 5), vertices 1 and 2 share node
    # (1, 1): vertex 2 is the first to land on an occupied node
    g = PointCloud(
        [(2.5, 2.5), (0.5, 0.5), (0.55, 0.5), (2.45, 2.5), (2.5, 2.6)], 10.0
    )
    with pytest.raises(geo.CollisionError) as exc:
        geo.quantize(g, 0.5)
    assert (exc.value.vertex_a, exc.value.vertex_b, exc.value.node) == (
        1, 2, (1, 1)
    )


def test_quantize_collision_matches_vertex_order_scan():
    rng = np.random.default_rng(8)
    m, eps = 8, 0.5
    clashes = 0
    for trial in range(30):
        nodes = rng.integers(0, m, size=(int(rng.integers(3, 20)), 2))
        jitter = rng.uniform(-0.2, 0.2, size=nodes.shape)
        g = PointCloud(nodes * eps + jitter, m * eps)
        want = oracles.first_node_collision(nodes.tolist())
        if want is None:
            lat = geo.quantize(g, eps)
            assert np.array_equal(lat.nodes, nodes)
            assert (lat.lookup(*np.indices((m, m))) == oracles.dense_grid(lat)).all()
            continue
        clashes += 1
        with pytest.raises(geo.CollisionError) as exc:
            geo.quantize(g, eps)
        assert (exc.value.vertex_a, exc.value.vertex_b, exc.value.node) == want
    assert clashes >= 10


def test_quantize_collision_on_crowded_nodes():
    """Three or four vertices on one node and three clashing nodes: the
    clash reported is not that of the lowest node, nor of the most crowded
    one, but that of the lowest vertex landing on an occupied node."""
    on = {(4, 4): [0, 7, 8, 9], (0, 1): [1, 5, 6], (2, 2): [2, 4], (5, 0): [3]}
    nodes = [None] * 10
    for node, vertices in on.items():
        for v in vertices:
            nodes[v] = node
    with pytest.raises(geo.CollisionError) as exc:
        geo.quantize(PointCloud(nodes, 6.0), 1.0)
    got = (exc.value.vertex_a, exc.value.vertex_b, exc.value.node)
    assert got == oracles.first_node_collision(nodes) == (2, 4, (2, 2))
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        for p in (10, 20):  # more vertices than nodes
            nodes = rng.integers(0, m, size=(p, 2))
            with pytest.raises(geo.CollisionError) as exc:
                geo.quantize(PointCloud(nodes, float(m)), 1.0)
            got = (exc.value.vertex_a, exc.value.vertex_b, exc.value.node)
            assert got == oracles.first_node_collision(nodes.tolist())


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 30), st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_lattice_lookup_matches_dense_grid(m, density, seed):
    """The node-code lookup equals the dense m x m grid on every node and
    on indices past the seam or negative, which wrap modulo m."""
    rng = np.random.default_rng(seed)
    occupied = rng.random((m, m)) < density
    nodes = np.argwhere(occupied)[rng.permutation(int(occupied.sum()))]
    lat = geo.quantize(PointCloud(nodes * 0.5, m * 0.5), 0.5)
    grid = oracles.dense_grid(lat)
    assert (lat.lookup(*np.indices((m, m))) == grid).all()
    i, j = rng.integers(-3 * m, 3 * m, size=(2, 500))
    assert (lat.lookup(i, j) == grid[i % m, j % m]).all()


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
def test_quantize_refuses_eps_by_name(eps):
    """NaN raised "cannot convert float NaN to integer"."""
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        geo.quantize(PointCloud([(1, 1)], 10.0), eps)


def test_quantize_requires_divisible_side():
    g = PointCloud([(1, 1)], 10.0)
    with pytest.raises(ValueError):
        geo.quantize(g, 0.3)


def test_quantize_tie_rounds_down():
    # 0.25/0.5 = 0.5 exactly: ties go to the lower node index
    g = PointCloud([(0.25, 0.75)], 10.0)
    lat = geo.quantize(g, 0.5)
    assert lat.nodes[0].tolist() == [0, 1]


def test_quantize_seam_wraps_to_node_zero():
    g = PointCloud([(9.9, 0.2)], 10.0)
    lat = geo.quantize(g, 0.5)
    assert lat.nodes[0].tolist() == [0, 0]
    assert lat.m == 20 and oracles.dense_grid(lat).shape == (20, 20)
    assert lat.lookup([0, 20, -20], [0, -20, 40]).tolist() == [0, 0, 0]


def test_pattern_template_normalization():
    t = geo.PatternTemplate.from_offsets([(2, 3), (3, 4), (2, 5)])
    assert min(a for a, _ in t.offsets) == 0
    assert min(b for _, b in t.offsets) == 0
    assert t.k == 3  # derived from the offsets, not stored
    assert [f.name for f in dataclasses.fields(t)] == ["offsets"]
    with pytest.raises(ValueError):
        geo.PatternTemplate(offsets=((1, 1),))


def test_pattern_template_interior_cells():
    square = geo.PatternTemplate.from_offsets([(0, 0), (0, 2), (2, 0), (2, 2)])
    assert set(square.interior_cells()) == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
    segment = geo.PatternTemplate.from_offsets([(0, 0), (1, 2)])
    assert segment.interior_cells() == ()
