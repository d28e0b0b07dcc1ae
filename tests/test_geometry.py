import dataclasses
import math

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


def test_torus_distance_symmetry_and_triangle():
    t = geo.Torus(7.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = rng.uniform(0, 7, (3, 2))
        dab = t.distance(a, b)
        assert dab == pytest.approx(t.distance(b, a))
        assert dab <= t.distance(a, c) + t.distance(c, b) + 1e-12


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
