import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from geoggm import gmrf, harness
from geoggm import graphgen as gg
from geoggm import selector as sel
from geoggm.geometry import CollisionError, PatternTemplate, Torus, quantize

import oracles
import plantcfg


def test_default_params_small_p_clamp():
    prm = sel.default_params(16, theta=0.2)
    assert prm.r == 2
    assert prm.detect_threshold == pytest.approx(0.1)


def test_default_params_closed_forms():
    # p just below e^(e^2): the double log is still under 2
    prm = sel.default_params(1618, theta=0.2)
    assert prm.r == 2
    assert prm.eps == pytest.approx(1 / math.log(1618), rel=1e-12)
    assert prm.w == pytest.approx(math.log(1618), rel=1e-12)
    assert sel.default_params(1619, theta=0.2).r == 3  # ceil crosses 2 here
    big = sel.default_params(10**6, theta=0.2)
    assert big.r == 3
    assert big.eps == pytest.approx(0.07238, abs=5e-6)


def test_default_params_w_follows_the_eps_in_use():
    """w = eps ln^2 p from the eps the params end up with, so an eps
    override alone neither trips `w >= eps` nor leaves w at ln p."""
    lp = math.log(100)
    assert sel.default_params(100, 0.1, eps=5.0).w == pytest.approx(5.0 * lp * lp)
    assert sel.default_params(100, 0.1, eps=0.06).w == pytest.approx(0.06 * lp * lp)
    assert sel.default_params(100, 0.1, eps=0.06, w=0.12).w == 0.12


def test_selector_params_validation():
    with pytest.raises(ValueError):
        sel.SelectorParams(r=1, eps=0.1, w=0.1, theta=0.2)
    with pytest.raises(ValueError):
        sel.SelectorParams(r=2, eps=0.1, w=0.05, theta=0.2)  # w < eps
    with pytest.raises(ValueError):
        sel.SelectorParams(r=2, eps=0.1, w=0.2, theta=0.2, detect_threshold=0.3)
    for k_cap in (0, -1):  # 0 once meant the default cap, -1 decided nothing
        with pytest.raises(ValueError, match="k_cap"):
            sel.SelectorParams(r=2, eps=0.1, w=0.2, theta=0.2, k_cap=k_cap)
    # r = 8.5 once decided nothing, r = np.int64(8) failed only in
    # `to_json`, and a float or numpy k_cap failed inside the scan
    for name, bad in (("r", 8.5), ("r", "8"), ("k_cap", 18.0)):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {bad!r}"):
            sel.SelectorParams(**{**dict(r=8, eps=0.1, w=0.2, theta=0.2), name: bad})
    prm = sel.SelectorParams(r=np.int64(8), eps=0.1, w=0.2, theta=0.2,
                             k_cap=np.int64(18))
    assert (prm.r, prm.k_cap) == (8, 18)
    assert type(prm.r) is type(prm.k_cap) is int
    zero = sel.SelectorParams(r=2, eps=0.1, w=0.2, theta=0.0, detect_threshold=0.1)
    assert zero.detect_threshold == 0.1


@pytest.mark.parametrize("name", ["eps", "w", "theta", "detect_threshold"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_selector_params_refuse_non_finite(name, bad):
    """theta = nan once gave a nan threshold that declared no edge, and
    w = nan a report whose JSON held `NaN`."""
    fields = dict(r=2, eps=0.1, w=0.2, theta=0.2, detect_threshold=0.1)
    fields[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sel.SelectorParams(**fields)


class _Cloud:
    def __init__(self, pts, s):
        self.points = np.asarray(pts, float)
        self.torus = Torus(s)


def _lattice_from_nodes(nodes, m, eps=1.0):
    pts = [(i * eps, j * eps) for i, j in nodes]
    cloud = _Cloud(pts, m * eps)
    return quantize(cloud, eps), cloud


def test_find_copies_single_node_template():
    nodes = [(1, 1), (4, 7), (9, 2)]
    lat, cloud = _lattice_from_nodes(nodes, 12)
    tm = PatternTemplate.from_offsets([(0, 0)])
    copies = sel.find_copies(lat, tm, cloud)
    assert len(copies.matches) == 3  # rotations coincide, one per node


def test_find_copies_planted_ground_truth():
    theta = 0.11
    graph, eps, cells = plantcfg.grid_plant_graph(
        p=260, theta=theta, seed=4, r_t=20, grid=7
    )
    lat = sel._quantize_with_backoff(graph, eps)
    tm = PatternTemplate.from_offsets(cells)
    copies = sel.find_copies(lat, tm, graph)
    assert len(copies.matches) == 13  # 12 planted copies plus the original
    found_sets = {frozenset(row) for row in copies.matches.tolist()}
    assert found_sets == {frozenset(plant) for plant in graph.plants}


def test_find_copies_slot_alignment():
    graph, eps, cells = plantcfg.grid_plant_graph(
        p=100, theta=0.11, seed=9, r_t=20, grid=7
    )
    lat = sel._quantize_with_backoff(graph, eps)
    tm = PatternTemplate.from_offsets(cells)
    copies = sel.find_copies(lat, tm, graph)
    # translations only: occurrence slot t must be plant slot t
    for row in copies.matches.tolist():
        plant = next(pl for pl in graph.plants if set(pl) == set(row))
        assert tuple(row) == tuple(plant)


def test_find_copies_matches_brute_force_scan():
    rng = np.random.default_rng(3)
    for trial in range(6):
        m = 14
        occupancy = rng.random((m, m)) < 0.22
        nodes = [tuple(x) for x in np.argwhere(occupancy)]
        if len(nodes) < 2:
            continue
        lat, cloud = _lattice_from_nodes(nodes, m)
        cells = [(0, 0), (1, 2)] if trial % 2 else [(0, 0), (0, 1), (1, 1)]
        tm = PatternTemplate.from_offsets(cells)
        copies = sel.find_copies(lat, tm, cloud)
        got = {frozenset(row) for row in copies.matches.tolist()}
        grid = oracles.dense_grid(lat)
        oracle = oracles.brute_copy_scan(grid >= 0, cells)
        want = {
            frozenset(grid[nd] for nd in nodes_)
            for *_, nodes_ in oracle
        }
        assert got == want


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=12, unique=True))
def test_rotated_cells_match_rotated_templates(offsets):
    """One hull serves all four rotations: each quarter turn gives the
    rotated template's offsets in slot order, then its interior cells."""
    template = PatternTemplate.from_offsets(offsets)
    for q, cells in enumerate(sel._rotated_cells(template)):
        rot = PatternTemplate.from_offsets(oracles.rotate_cells(template.offsets, q))
        interior = cells[template.size:].tolist()
        assert cells[:template.size].tolist() == [list(o) for o in rot.offsets]
        assert len(interior) == len(rot.interior_cells())
        assert set(map(tuple, interior)) == set(rot.interior_cells())


def test_find_copies_periodic_pattern_keeps_window_row():
    """A pattern periodic on the lattice: the placement two nodes on covers
    the window's vertices in another slot order, and must not replace the
    window's own row."""
    lat, cloud = _lattice_from_nodes([(0, 0), (0, 2), (0, 4), (3, 1)], 6)
    template = sel._window_template(lat, [0, 1, 2], 0, 1)
    copies = sel.find_copies(lat, template, cloud, first=[0, 1, 2])
    assert copies.matches.tolist() == [[0, 1, 2]]
    assert sel.find_copies(lat, template, cloud).matches.tolist() == [[2, 0, 1]]


def _copies_against_oracle(nodes, m, offsets):
    """`find_copies` rows on a unit lattice, checked against the rolled-mask
    search, with the rotation each oracle row was found under."""
    lat, cloud = _lattice_from_nodes(nodes, m)
    template = PatternTemplate.from_offsets(offsets)
    want = oracles.roll_find_copies(lat, template, cloud)
    got = sel.find_copies(lat, template, cloud)
    assert got.matches.tolist() == [list(o.vertex_ids) for o in want]
    assert np.array_equal(got.centers, np.array([o.center for o in want]))
    return got.matches.tolist(), [o.rotation for o in want]


def test_find_copies_half_turn_symmetric_pattern_keeps_first_rotation():
    """A segment is its own half turn: each copy is found under rotations
    0 and 2, with its slots swapped, and kept once, in rotation 0's order."""
    nodes = [(1, 1), (2, 3), (5, 4), (6, 6), (7, 0), (5, 1)]
    rows, rotations = _copies_against_oracle(nodes, 9, [(0, 0), (1, 2)])
    # (7, 0) and (5, 1) hold the quarter-turned segment
    assert rows == [[0, 1], [2, 3], [4, 5]]
    assert rotations == [0, 0, 1]
    occupied = np.zeros((9, 9), dtype=bool)
    occupied[tuple(np.array(nodes).T)] = True
    assert len(oracles.brute_copy_scan(occupied, [(0, 0), (1, 2)], dedup=False)) == 6


def test_find_copies_placement_across_the_seam():
    """An L whose arms wrap across both seams is found at (m-1, m-1)."""
    nodes = [(8, 8), (8, 0), (0, 8), (4, 4), (4, 5), (5, 4)]
    rows, rotations = _copies_against_oracle(nodes, 9, [(0, 0), (0, 1), (1, 0)])
    assert rows == [[3, 4, 5], [0, 1, 2]]
    assert rotations == [0, 0]


def test_find_copies_empty_rotation_between_full_ones():
    """Rotation 0 holds three copies, rotation 1 none (its first slot
    lands on every node, no placement survives), rotation 2 two."""
    rot0 = [(0, 0), (0, 1), (1, 0)]
    rot2 = [(1, 1), (1, 0), (0, 1)]
    nodes = [(a + i, b + j) for i, j in ((0, 0), (0, 4), (4, 0)) for a, b in rot0]
    nodes += [(a + i, b + j) for i, j in ((8, 8), (4, 8)) for a, b in rot2]
    rows, rotations = _copies_against_oracle(nodes, 12, rot0)
    assert rotations == [0, 0, 0, 2, 2]
    assert rows == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [12, 13, 14], [9, 10, 11]]


def test_separated_exact_distance_and_repeated_points():
    """A center exactly w from a kept one is kept, across the seam too; a
    repeated center is dropped; a center that clashes only with a dropped
    one is kept."""
    centers = np.array([(0.0, 0.0), (0.0, 0.0), (2.0, 0.0), (2.0, 0.0),
                        (4.0, 0.0), (1.0, 0.0), (8.0, 0.0), (5.5, 5.0),
                        (7.0, 5.0), (8.5, 5.0)])
    torus = Torus(10.0)
    occurrences = [oracles.Occurrence(None, 0, (i,), c)
                   for i, c in enumerate(centers)]
    want = oracles.scan_separated(occurrences, torus, 2.0)
    assert want == [0, 2, 4, 6, 7, 9]
    assert torus.separated(centers, 2.0) == want
    copies = _single_node_copies(centers, torus)
    assert sel.greedy_separated(copies, 2.0).separated == want


# rotation-symmetric patterns: their rotations coincide or cover the same
# vertex sets, which the search must deduplicate
SYMMETRIC = [
    [(0, 0)],
    [(0, 0), (1, 1)],
    [(0, 0), (0, 1), (1, 0), (1, 1)],
    [(0, 0), (0, 2), (2, 0), (2, 2)],
    [(0, 1), (1, 0), (1, 2), (2, 1)],
    [(0, 0), (0, 3)],
]


@st.composite
def copy_inputs(draw):
    """A random occupancy of an m x m unit lattice (vertex ids not in node
    order, points on their nodes or jittered inside their cells), a pattern
    and the window it came from, or a symmetric pattern with no window, and
    a separation (whole numbers give center distances of exactly w)."""
    m = draw(st.integers(4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random((m, m)) < draw(st.floats(0.1, 0.6))
    assume(occupied.any())
    nodes = np.argwhere(occupied)[rng.permutation(int(occupied.sum()))]
    jitter = rng.uniform(-0.45, 0.45, nodes.shape) * draw(st.sampled_from([0, 1]))
    cloud = _Cloud(nodes + jitter, float(m))
    lattice = quantize(cloud, 1.0)
    window = None
    if draw(st.booleans()):
        # a k x k window that straddles the seam in both directions
        k = draw(st.integers(2, m))
        i, j = m - draw(st.integers(1, k - 1)), m - draw(st.integers(1, k - 1))
        span = np.arange(k)
        cells = oracles.dense_grid(lattice)[np.ix_((i + span) % m, (j + span) % m)]
        ids = sorted(cells[cells >= 0].tolist())
        if ids:
            window = (ids, i, j)
    if window is None:
        template = PatternTemplate.from_offsets(draw(st.sampled_from(SYMMETRIC)))
    else:
        template = sel._window_template(lattice, *window)
    w = draw(st.one_of(st.integers(1, m // 2).map(float), st.floats(1.0, m / 2)))
    return lattice, cloud, template, window, w, rng


@settings(max_examples=150, deadline=None, database=None)
@given(copy_inputs())
def test_copy_stages_match_oracles(inputs):
    """Copy search, separation and pooling give the earlier stages' rows in
    the same order, the same centers, pooling subset and pooled matrix."""
    lattice, cloud, template, window, w, rng = inputs
    first = anchor = None
    if window is not None:
        first = window[0]
        anchor = oracles.window_anchor(lattice, *window)
    want = oracles.roll_find_copies(lattice, template, cloud, anchor)
    got = sel.find_copies(lattice, template, cloud, first=first)
    assert got.matches.shape == (len(want), template.size)
    assert got.matches.tolist() == [list(o.vertex_ids) for o in want]
    assert np.array_equal(got.centers,
                          np.array([o.center for o in want]).reshape(-1, 2))
    if not want:
        return
    sel.greedy_separated(got, w)
    separated = oracles.scan_separated(want, cloud.torus, w)
    assert got.separated == separated
    n = int(rng.integers(1, 6))
    samples = gmrf.SampleMatrix(
        data=rng.standard_normal((n, len(cloud.points))), seed=0)
    assert np.array_equal(
        sel.pooled_scm(samples, got),
        oracles.loop_pooled_scm(samples, want, separated, template.size))


def _single_node_copies(centers, torus):
    """One single-vertex occurrence per center, vertex i at center i."""
    centers = np.asarray(centers, float)
    return sel.CopySet(matches=np.arange(len(centers))[:, None],
                       centers=centers, torus=torus)


def test_greedy_separated_line_trace():
    copies = _single_node_copies([(float(i), 0.0) for i in range(4)],
                                 Torus(100.0))
    sel.greedy_separated(copies, w=2.0)
    assert copies.separated == [0, 2]  # distance exactly w is accepted


def test_greedy_separated_all_far_apart():
    copies = _single_node_copies([(10.0 * i, 0.0) for i in range(5)],
                                 Torus(100.0))
    sel.greedy_separated(copies, w=3.0)
    assert copies.separated == [0, 1, 2, 3, 4]


def test_greedy_separated_maximality():
    rng = np.random.default_rng(5)
    torus = Torus(50.0)
    centers = rng.uniform(0, 50, (40, 2))
    copies = _single_node_copies(centers, torus)
    w = 7.0
    sel.greedy_separated(copies, w)
    acc = copies.separated
    # pairwise separation
    for ii, a in enumerate(acc):
        for b in acc[ii + 1:]:
            assert torus.distance(centers[a], centers[b]) >= w
    # greedy-maximality: every reject conflicts with an accepted one
    for i in range(40):
        if i in acc:
            continue
        assert any(torus.distance(centers[i], centers[a]) < w for a in acc)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 30), st.floats(0.5, 100.0), st.integers(0, 2**32 - 1))
def test_greedy_separated_keeps_first_row(n, w, seed):
    """Row 0, the window's own occurrence, is always pooled, whatever the
    separation, so `run_selection` never pools over an empty set."""
    centers = np.random.default_rng(seed).uniform(0, 20, (n, 2))
    copies = _single_node_copies(centers, Torus(20.0))
    assert sel.greedy_separated(copies, w).separated[0] == 0


@st.composite
def separation_inputs(draw):
    """Centers on a torus of whole side m: on the whole-number lattice
    (pairs exactly w apart), uniform, or crowded about the corner where
    both seams meet; w whole or not, from below the lattice spacing to
    the side, so also past s/sqrt(2), where every pair is a `close_pairs`
    candidate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 24))
    n = draw(st.integers(1, 80))
    torus = Torus(float(m))
    kind = draw(st.sampled_from(["lattice", "uniform", "seam"]))
    if kind == "lattice":
        centers = rng.integers(0, m, (n, 2)).astype(float)
    elif kind == "uniform":
        centers = rng.uniform(0, m, (n, 2))
    else:
        centers = torus.wrap(rng.uniform(-1.5, 1.5, (n, 2)))
    w = draw(st.one_of(st.integers(1, m).map(float), st.floats(0.05, float(m))))
    return centers, torus, w


@settings(max_examples=300, deadline=None, database=None)
@given(separation_inputs())
def test_greedy_separated_matches_scan(inputs):
    """The `close_pairs` candidates accept what measuring against every
    accepted center accepts."""
    centers, torus, w = inputs
    copies = _single_node_copies(centers, torus)
    occurrences = [oracles.Occurrence(None, 0, (i,), c)
                   for i, c in enumerate(centers)]
    assert (sel.greedy_separated(copies, w).separated
            == oracles.scan_separated(occurrences, torus, w))


@settings(max_examples=300, deadline=None, database=None)
@given(separation_inputs(), st.floats(0.0, 1.0))
def test_separated_keeps_a_separated_prefix(inputs, cut):
    """Points kept by one scan stay kept, in front, when later points are
    scanned after them: `_place_anchors` separates each batch after the
    anchors it already holds."""
    centers, torus, sep = inputs
    X, Y = np.split(centers, [round(cut * len(centers))])
    S = torus.separated(X, sep)
    both = torus.separated(np.vstack([X[S], Y]), sep)
    assert both[:len(S)] == list(range(len(S)))


@st.composite
def ball_inputs(draw):
    """Points on a torus of whole side m and a radius beta below m/2:
    whole-number lattice points, with pairs exactly beta apart and
    repeated points, or uniform points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 14))
    n = draw(st.integers(1, 120))
    if draw(st.booleans()):
        pts = rng.integers(0, m, (n, 2)).astype(float)
        beta = float(draw(st.integers(1, (m - 1) // 2)))
    else:
        pts = rng.uniform(0, m, (n, 2))
        beta = draw(st.floats(0.1, 0.49 * m))
    return pts, float(m), beta


@settings(max_examples=300, deadline=None, database=None)
@given(ball_inputs())
def test_close_pairs_match_ball_queries(inputs):
    """The pair codes and ball sizes from one pair query equal the
    per-vertex ball queries: the codes are the pairs u < v, sorted and
    closed by the sentinel p * p."""
    pts, s, beta = inputs
    p = len(pts)
    codes, sizes = sel._close_pairs(Torus(s).close_pairs(pts, beta), p)
    balls = oracles.kdtree_balls(pts, s, beta)
    assert sizes.tolist() == [len(b) for b in balls]
    assert codes.tolist() == sorted(
        u * p + v for u, b in enumerate(balls) for v in b if u < v) + [p * p]


def test_selection_rejects_an_edge_longer_than_beta():
    """A decided vertex has all its edges inside its beta-ball, so a graph
    with a longer edge is refused, not reported as decided."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    far = int(np.argmax(graph.torus.distance(graph.points[0], graph.points)))
    assert graph.torus.distance(graph.points[0], graph.points[far]) > graph.params.beta
    # drop one edge at each end and join the ends: no degree exceeds d
    A = graph.adjacency.tolil()
    for u in (0, far):
        w = A.rows[u][0]
        A[u, w] = A[w, u] = 0
    A[0, far] = A[far, 0] = 1
    A = A.tocsr()
    A.eliminate_zeros()
    graph = dataclasses.replace(graph, adjacency=A)
    with pytest.raises(ValueError, match=rf"edge \(0, {far}\) is longer than beta"):
        sel.run_selection(graph, params, exact_cov=True)


def _spy_close_pairs(monkeypatch):
    """Record the radius of every `Torus.close_pairs` call."""
    radii = []
    close_pairs = Torus.close_pairs

    def spy(self, points, radius):
        radii.append(radius)
        return close_pairs(self, points, radius)

    monkeypatch.setattr(Torus, "close_pairs", spy)
    return radii


def test_generated_graph_carries_its_beta_pairs(monkeypatch):
    """`generate` queries the beta-close pairs once, wires from them and
    hands them to the graph, so selection makes no query of its own."""
    radii = _spy_close_pairs(monkeypatch)
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    beta = graph.params.beta
    assert radii.count(beta) == 1
    radii.clear()
    sel.run_selection(graph, plantcfg.grid_plant_selector_params(0.11, eps),
                      exact_cov=True)
    assert beta not in radii


def test_graph_without_carried_pairs_selects_the_same(tmp_path, monkeypatch):
    """A graph read from a file finds its beta-close pairs on first use and
    selects as the generated graph does; a graph made by
    `dataclasses.replace` with new points finds fresh pairs."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    path = tmp_path / "graph.txt"
    gg.write_graph(graph, path)
    read = gg.read_graph(path)
    radii = _spy_close_pairs(monkeypatch)
    _assert_same_reports(sel.run_selection(read, params, exact_cov=True),
                         sel.run_selection(graph, params, exact_cov=True))
    assert radii.count(graph.params.beta) == 1
    assert np.array_equal(read.beta_pairs(), graph.beta_pairs())

    moved = dataclasses.replace(graph, points=graph.points[::-1].copy())
    want = graph.torus.close_pairs(moved.points, graph.params.beta)
    assert np.array_equal(moved.beta_pairs(), want)
    assert not np.array_equal(moved.beta_pairs(), graph.beta_pairs())


def test_selection_takes_a_coordinate_just_below_zero(tmp_path):
    """np.mod(-1e-20, s) is s itself, outside the torus the beta-balls are
    found on; the wrap maps it to 0, so a graph file with that coordinate
    selects as the same graph with the coordinate 0."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    v = int(np.argmin(graph.points[:, 0]))
    reports = []
    for x in ("-1e-20", "0.0"):
        path = tmp_path / "graph.txt"
        gg.write_graph(graph, path)
        lines = path.read_text().splitlines()
        lines[v + 1] = f"v {v} {x} {graph.points[v, 1]:.17g}"
        path.write_text("\n".join(lines) + "\n")
        reports.append(sel.run_selection(gg.read_graph(path), params,
                                         exact_cov=True))
    below, zero = reports
    assert below.edges and below.edges == zero.edges
    _assert_same_reports(below, zero)


def test_pooled_scm_single_occurrence_is_plain_scm():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 6))
    samples = gmrf.SampleMatrix(data=X, seed=0)
    copies = sel.CopySet(matches=np.array([[1, 3, 5]]),
                         centers=np.zeros((1, 2)), separated=[0],
                         torus=Torus(10.0))
    # the pattern size is read off `matches`, not stored
    assert [f.name for f in dataclasses.fields(copies)] == [
        "matches", "centers", "torus", "separated"]
    got = sel.pooled_scm(samples, copies)
    want = X[:, [1, 3, 5]].T @ X[:, [1, 3, 5]] / 30
    assert np.allclose(got, want)


def test_pooled_scm_identical_occurrences_average_to_same():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 4))
    samples = gmrf.SampleMatrix(data=X, seed=0)
    copies = sel.CopySet(matches=np.array([[0, 2]] * 4),
                         centers=np.zeros((4, 2)), separated=[0, 1, 2, 3],
                         torus=Torus(10.0))
    got = sel.pooled_scm(samples, copies)
    want = X[:, [0, 2]].T @ X[:, [0, 2]] / 10
    assert np.allclose(got, want)


def test_pooled_alignment_rotation_consistency():
    """Pooling a rotation-symmetric occurrence of the same vertices equals
    pooling the occurrence with itself (slot permutation invariance)."""
    # 4-cycle: wiring and covariance are invariant under the quarter turn
    cycle = sp.csr_matrix(np.array([
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ], dtype=np.int8))
    model = gmrf.assemble_precision(cycle, 0.2, 2)
    theta_f = model.covariance_submatrix(np.arange(model.p))
    perm = [3, 0, 1, 2]  # slot map of the quarter-turn occurrence
    rotated = theta_f[np.ix_(perm, perm)]
    assert np.allclose(theta_f, rotated)
    X = model.sample(50, seed=1).data
    samples = gmrf.SampleMatrix(data=X, seed=1)
    base, turned = [0, 1, 2, 3], [3, 0, 1, 2]
    both = sel.CopySet(matches=np.array([base, turned]),
                       centers=np.zeros((2, 2)), separated=[0, 1],
                       torus=Torus(10.0))
    alone = sel.CopySet(matches=np.array([base]),
                        centers=np.zeros((1, 2)), separated=[0],
                        torus=Torus(10.0))
    pooled_both = sel.pooled_scm(samples, both)
    pooled_alone = sel.pooled_scm(samples, alone)
    # the two pooled estimates are permutation-averaged versions of one
    # another; with the exact covariance substituted they coincide
    assert np.allclose(
        0.5 * (theta_f + theta_f[np.ix_(perm, perm)]), theta_f
    )
    assert pooled_both.shape == pooled_alone.shape == (4, 4)


def test_detect_edges_exact_covariance_recovers_path():
    model = gmrf.assemble_precision(
        sp.diags([np.ones(2), np.ones(2)], [1, -1], format="csr").astype(np.int8),
        0.2, 2,
    )
    theta_f = model.covariance_submatrix(np.arange(model.p))
    adj, j_hat = sel.detect_edges(theta_f, [0, 1, 2], threshold=0.1)
    assert adj[0, 1] and adj[1, 2] and not adj[0, 2]
    assert np.abs(j_hat - model.J.toarray()).max() < 1e-12


def test_detect_edges_empty_graph():
    theta_f = np.eye(4)
    adj, j_hat = sel.detect_edges(theta_f, [0, 1, 2, 3], threshold=0.15)
    assert not adj.any()
    assert np.allclose(j_hat, np.eye(4))


def test_detect_edges_skips_singular():
    S = np.ones((3, 3))
    with pytest.raises(sel.DetectionSkipped):
        sel.detect_edges(S, [0, 1], threshold=0.1)


def test_detect_edges_margin_bound_under_windowing():
    """With the exact covariance over a window, the recovered core
    precision deviates from the true submatrix by no more than the
    truncation envelope amplified through the inversion."""
    theta, d, p = 0.2, 2, 30
    E = sp.diags([np.ones(p - 1), np.ones(p - 1)], [1, -1], format="csr").astype(np.int8)
    model = gmrf.assemble_precision(E, theta, d)
    F = list(range(7, 23))
    h_slots = list(range(4, 12))  # middle of the window
    h_ids = [F[t] for t in h_slots]
    theta_f = model.covariance_submatrix(F)
    _, j_hat = sel.detect_edges(theta_f, h_slots, threshold=0.1)
    true_core = model.J[np.ix_(h_ids, h_ids)].toarray()
    bfs = gmrf.graph_distance(E, h_ids, F)
    zeta = bfs - 2
    amplification = (1.0 / (1.0 - d * theta)) ** 2
    envelope = amplification * (theta * d) ** (zeta + 2)
    assert np.abs(j_hat - true_core).max() <= envelope


def test_zero_one_loss_cases():
    """Edge sets are sorted pair codes u * p + v (u < v); here p = 4."""
    c4 = np.array([1, 3, 6, 11])  # (0, 1), (0, 3), (1, 2), (2, 3)
    complement = np.array([2, 7])  # (0, 2), (1, 3)
    assert sel.zero_one_loss(c4, c4) == (0, 0, 0)
    assert sel.zero_one_loss(np.union1d(c4, [2]), c4) == (1, 0, 1)
    assert sel.zero_one_loss(complement, c4) == (1, 4, 2)
    assert sel.zero_one_loss(c4[:0], c4) == (1, 4, 0)
    assert sel.zero_one_loss(c4, c4[:0]) == (1, 0, 4)
    assert sel.zero_one_loss(c4[:0], c4[:0]) == (0, 0, 0)
    assert all(type(x) is int for x in sel.zero_one_loss(complement, c4))


def test_zero_one_loss_matches_matrix_oracle():
    """The code loss equals the matrix loss it replaced on 1,200 seeded
    pairs of random edge sets over p = 2..40, empty sets included: each
    set is an upper triangle of density 0 to 1, stored both ways."""
    rng = np.random.default_rng(33)
    empty = 0
    for _ in range(1200):
        p = int(rng.integers(2, 41))
        u, v = np.triu_indices(p, 1)
        sets = []
        for _ in range(2):
            density = rng.choice([0.0, rng.random(), 1.0], p=[0.1, 0.8, 0.1])
            keep = rng.random(len(u)) < density
            sets.append((u[keep], v[keep]))
        empty += sum(not len(a) for a, _ in sets)
        codes = [np.sort(a.astype(np.int64) * p + b) for a, b in sets]
        mats = [sp.csr_matrix((np.ones(2 * len(a), dtype=np.int8),
                               (np.r_[a, b], np.r_[b, a])), shape=(p, p))
                for a, b in sets]
        assert sel.zero_one_loss(*codes) == oracles.matrix_zero_one_loss(*mats)
    assert empty >= 100


def test_candidate_squares_planted_pattern_first():
    graph, eps, cells = plantcfg.grid_plant_graph(
        p=100, theta=0.11, seed=2, r_t=20, grid=7
    )
    lat = sel._quantize_with_backoff(graph, eps)
    i, j, k, ids = next(sel._candidate_squares(lat, 20, 18,
                                               np.zeros(graph.p, bool)))
    template = sel._window_template(lat, ids, i, j)
    assert set(template.offsets) == set(
        PatternTemplate.from_offsets(cells).offsets
    )
    assert set(ids) in [set(pl) for pl in graph.plants]


def _unplanted_sparse():
    """Unplanted p=200, d=1 graph: windows decide a few vertices each, so a
    run takes many iterations and leaves most vertices undecided."""
    return gg.generate(gg.FamilyParams(p=200, eta=1.0, d=1, beta=1.05,
                                       theta=0.1, seed=0))


def test_candidate_squares_overlap_with_detected_allowed(monkeypatch):
    """In run_selection the scan passes over a window exactly when each of
    its vertices is decided or hopeless (its beta-ball holds more than r
    vertices, so it can never be decided); windows overlapping decided
    vertices are offered.  Decisions are replayed from the copies and
    cores used, and the offers are matched against every window."""
    graph = _unplanted_sparse()
    events = []
    scan = sel._candidate_squares
    find, detect = sel.find_copies, sel.detect_edges

    def spy_scan(lattice, r, k_cap, settled):
        events.append(("every", list(
            oracles.table_candidate_squares(lattice, r, k_cap))))
        for square in scan(lattice, r, k_cap, settled):
            events.append(("offer", square))
            yield square

    def spy_find(*args, **kwargs):
        copies = find(*args, **kwargs)
        events.append(("copies", copies))
        return copies

    def spy_detect(S, h_slots, *args):
        out = detect(S, h_slots, *args)
        events.append(("detect", h_slots))
        return out

    monkeypatch.setattr(sel, "_candidate_squares", spy_scan)
    monkeypatch.setattr(sel, "find_copies", spy_find)
    monkeypatch.setattr(sel, "detect_edges", spy_detect)
    params = sel.SelectorParams(r=5, eps=0.3, w=1.0, theta=0.1)
    report = sel.run_selection(graph, params, exact_cov=True)

    balls = oracles.kdtree_balls(graph.points, graph.torus.s, graph.params.beta)

    def ball(v):
        return set(balls[v])

    hopeless = {v for v in range(graph.p) if len(ball(v)) > params.r}
    decided: set = set()
    skipped = overlapping = nxt = 0
    for kind, arg in events:
        if kind == "every":
            every = arg
        elif kind == "offer":
            while set(every[nxt][3]) <= decided | hopeless:
                skipped += 1
                nxt += 1
            assert arg == every[nxt]
            nxt += 1
            overlapping += bool(set(arg[3]) & decided)
        elif kind == "copies":
            copies = arg
        elif kind == "detect":
            for idx in copies.separated:
                img = copies.matches[idx, arg].tolist()
                decided |= {v for v in img if ball(v) <= set(img)}
    assert decided == set(range(graph.p)) - set(report.undecided_vertices)
    assert report.iterations > 1 and skipped > 0 and overlapping > 0
    assert hopeless and not hopeless & decided


def test_candidate_squares_none_on_empty_region():
    nodes = [(0, 0)]
    lat, cloud = _lattice_from_nodes(nodes, 30)
    assert list(sel._candidate_squares(lat, 5, 6, np.zeros(1, bool))) == []


def test_tiled_corner_matches_the_tiled_dense_grid():
    """The scan's one list of tiled vertices equals the M x M corner of
    the 2 x 2 tiled dense grid, read row-major, on 300 seeded cases:
    occupancy 0, 0.05, 0.3 or 1, m from 1 to 30 and K from 1 to m, so
    M = m + K - 1 runs from m to 2m - 1, and most cases put copies past
    the seam in rows and in columns."""
    rng = np.random.default_rng(41)
    crossing = 0
    for _ in range(300):
        m = int(rng.integers(1, 31))
        occupied = rng.random((m, m)) < rng.choice([0.0, 0.05, 0.3, 1.0])
        nodes = np.argwhere(occupied)[rng.permutation(int(occupied.sum()))]
        lat = quantize(_Cloud(nodes, m), 1.0)
        M = m + int(rng.integers(1, m + 1)) - 1
        tiled = np.tile(oracles.dense_grid(lat), (2, 2))[:M, :M].ravel()
        codes, vertices = sel._tiled_corner(lat, M)
        assert codes.tolist() == np.flatnonzero(tiled >= 0).tolist()
        assert vertices.tolist() == tiled[tiled >= 0].tolist()
        crossing += bool((codes // M >= m).any() and (codes % M >= m).any())
    assert crossing > 100
    empty = quantize(_Cloud(np.zeros((0, 2)), 4), 1.0)
    assert [x.tolist() for x in sel._tiled_corner(empty, 7)] == [[], []]


def _random_lattices(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(8, 20))
        occupancy = rng.random((m, m)) < 0.2
        nodes = [tuple(int(x) for x in nd) for nd in np.argwhere(occupancy)]
        order = rng.permutation(len(nodes))  # vertex ids not in node order
        nodes = [nodes[t] for t in order]
        lat, _ = _lattice_from_nodes(nodes, m)
        yield lat, nodes, m, int(rng.integers(2, 5))


def test_candidate_squares_window_contents_match_brute_scan():
    wrapped = 0
    for lat, nodes, m, r in _random_lattices(5, 8):
        for i, j, k, ids in sel._candidate_squares(lat, r, m,
                                                   np.zeros(len(nodes), bool)):
            assert ids == oracles.window_vertices_scan(nodes, m, i, j, k)
            assert len(ids) == r
            wrapped += (i + k > m) or (j + k > m)
    assert wrapped > 0  # some windows straddle the seam


def _all_but_one(count, rng):
    """A settled mask over every vertex but one drawn at random: the
    single-hopeful shape, where few K-windows hold an unsettled vertex."""
    settled = np.ones(count, bool)
    settled[rng.integers(count)] = False
    return settled


def test_candidate_squares_offers_every_qualifying_anchor():
    """Every qualifying window is offered unless each of its vertices is
    settled."""
    rng = np.random.default_rng(11)
    for lat, nodes, m, r in _random_lattices(11, 6):
        cap = max(3, m // 2)
        every = oracles.candidate_squares_scan(nodes, m, r, cap)
        masks = [rng.random(len(nodes)) < density for density in (0.0, 0.5, 0.9)]
        masks.append(_all_but_one(len(nodes), np.random.default_rng(m)))
        for settled in masks:
            got = list(sel._candidate_squares(lat, r, cap, settled))
            assert got == [w for w in every if not settled[w[3]].all()]


@st.composite
def scan_inputs(draw):
    """A random occupancy of an m x m unit lattice, sparse or dense, with
    m up to 220 (several bands), r in 2..8, k_cap below m, or at or above
    it for m <= 40 (a k_cap of m makes one band: larger m adds only time),
    and a settled mask over none, about half or most of the vertices, all
    but 1 to 3 of them, or every vertex but about half of those within
    K = min(k_cap, m) rows or columns of the seam."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(100, 220)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random((m, m)) < draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    assume(occupied.any())
    nodes = np.argwhere(occupied)[rng.permutation(int(occupied.sum()))]
    lattice, _ = _lattice_from_nodes(nodes.tolist(), m)
    k_caps = [st.integers(1, min(m, 40))]
    if m <= 40:
        k_caps += [st.just(m), st.integers(m + 1, m + 5)]
    k_cap = draw(st.one_of(*k_caps))
    mask = draw(st.sampled_from([0.0, 0.5, 0.9, "few", "seam"]))
    if mask == "few":
        settled = np.ones(len(nodes), bool)
        live = min(len(nodes), draw(st.integers(1, 3)))
        settled[rng.choice(len(nodes), live, replace=False)] = False
    elif mask == "seam":
        K = min(k_cap, m)
        near = ((nodes < K) | (nodes >= m - K)).any(axis=1)
        settled = ~near | (rng.random(len(nodes)) < 0.5)
    else:
        settled = rng.random(len(nodes)) < mask
    return lattice, draw(st.integers(2, 8)), k_cap, settled


@settings(max_examples=100, deadline=None, database=None)
@given(scan_inputs())
def test_candidate_squares_match_table_scan(inputs):
    """The banded scan yields the full-table scan's windows that hold an
    unsettled vertex, in order."""
    lattice, r, k_cap, settled = inputs
    got = list(sel._candidate_squares(lattice, r, k_cap, settled))
    assert got == [w for w in oracles.table_candidate_squares(lattice, r, k_cap)
                   if not settled[w[3]].all()]


@settings(max_examples=100, deadline=None, database=None)
@given(scan_inputs())
def test_window_core_never_empty(inputs):
    """The core of every scanned window is non-empty, so `run_selection`
    needs no branch for an empty core.  On a path through every vertex and
    one more off the lattice, an edge leaves every window, so its core is
    the middle of the square, grown up to the whole square, which holds
    the window.  With no edges every window is closed, and its core is
    every slot: checked on the first ten windows, since each check is one
    more search per window."""
    lattice, r, k_cap, settled = inputs
    n = len(settled)
    path = sp.eye(n + 1, k=1, format="csr") + sp.eye(n + 1, k=-1, format="csr")
    no_edges = sp.csr_matrix((n, n))
    squares = list(sel._candidate_squares(lattice, r, k_cap, np.zeros(n, bool)))
    for i, j, k, ids in squares:
        assert sel._window_core(lattice, path, ids, (i, j, k))
    for i, j, k, ids in squares[:10]:
        assert (sel._window_core(lattice, no_edges, ids, (i, j, k))
                == list(range(len(ids))))


def test_candidate_squares_match_table_scan_across_bands_and_seam():
    """Seeded cases the property test may miss: several bands, and
    windows across the seam."""
    bands = wrapped = 0
    for m, density, r, k_cap in [(260, 0.05, 3, 12), (300, 0.3, 8, 60),
                                 (90, 0.02, 2, 100), (37, 0.2, 5, 37)]:
        rng = np.random.default_rng(m)
        occupied = rng.random((m, m)) < density
        lattice, _ = _lattice_from_nodes(np.argwhere(occupied).tolist(), m)
        got = list(sel._candidate_squares(lattice, r, k_cap,
                                          np.zeros(occupied.sum(), bool)))
        assert got == list(oracles.table_candidate_squares(lattice, r, k_cap))
        band = min(k_cap, m)
        bands = max(bands, len({i // band for i, *_ in got}))
        wrapped += sum(i + k > m or j + k > m for i, j, k, _ in got)
    assert bands > 1 and wrapped > 0


def test_candidate_squares_ignore_rows_above_the_band():
    """Bands are K = 3 rows tall.  Vertex 0 sits on the last row of the
    first band, above and left of anchor (3, 1) in the next band: that
    band counts its windows from its own rows alone, and they are exact."""
    nodes = [(2, 0), (3, 1), (3, 2), (7, 5), (8, 9)]
    lattice, _ = _lattice_from_nodes(nodes, 12)
    got = list(sel._candidate_squares(lattice, 2, 3, np.zeros(5, bool)))
    assert (3, 1, 2, [1, 2]) in got
    assert got == list(oracles.table_candidate_squares(lattice, 2, 3))


@pytest.mark.parametrize("seed", [1, 32768])
def test_candidate_squares_read_the_live_mask(seed):
    """Vertices settled between yields drop the later windows that hold
    no other vertex, also within the band already built: with k_cap = m
    (one band) and with a smaller cap (several bands of K rows)."""
    bands = 0
    for lat, nodes, m, r in _random_lattices(seed, 6):
        for k_cap in (m, m // 3):
            want, settled = [], np.zeros(len(nodes), bool)
            for i, j, k, ids in oracles.table_candidate_squares(lat, r, k_cap):
                if not settled[ids].all():
                    want.append((i, j, k, ids))
                    settled[ids[::2]] = True
            got, settled = [], np.zeros(len(nodes), bool)
            for i, j, k, ids in sel._candidate_squares(lat, r, k_cap, settled):
                got.append((i, j, k, ids))
                settled[ids[::2]] = True
            assert got == want and (len(want) > 1 or k_cap < m)
            bands = max(bands, len({i // k_cap for i, *_ in got}))
    assert bands > 1  # the live mask also reaches bands not yet built


def test_candidate_squares_first_window_memory():
    """Drawing the first window of an m = 3000 lattice allocates a band of
    prefix rows, not the (2m+1)^2 prefix table: the full-table scan peaks
    at about 860 MB of traced memory here."""
    m = 3000
    rng = np.random.default_rng(0)
    cells = rng.choice(m * m, size=20_000, replace=False)
    nodes = np.column_stack(np.divmod(cells, m)).tolist()
    lattice, _ = _lattice_from_nodes(nodes, m)
    settled = np.zeros(len(nodes), bool)
    tracemalloc.start()
    try:
        next(sel._candidate_squares(lattice, 4, 18, settled))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_find_copies_memory():
    """The copy search reads the hull interior only at placements whose
    every slot is occupied: gathering every slot and interior cell at all
    20,000 placements of each rotation peaks at about 260 MB of traced
    memory here."""
    m = 3000
    offsets = [(a, 7 * a % 25) for a in range(25)]  # a 25 x 25 bounding box
    template = PatternTemplate.from_offsets(offsets)
    assert len(template.interior_cells()) > 200
    rng = np.random.default_rng(0)
    cells = rng.choice(m * m, size=20_000, replace=False)
    nodes = [(i, j) for i, j in np.column_stack(np.divmod(cells, m)).tolist()
             if not (100 <= i < 125 and 100 <= j < 125)]
    planted = list(range(len(nodes), len(nodes) + 25))
    nodes += [(100 + a, 100 + b) for a, b in offsets]
    lattice, cloud = _lattice_from_nodes(nodes, m)
    tracemalloc.start()
    try:
        copies = sel.find_copies(lattice, template, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copies.matches.tolist() == [planted]
    assert peak < 32 * 2**20


def test_quantize_and_first_window_memory_on_a_fine_lattice():
    """Quantize plus the first window of an m = 19,072 lattice holding
    20,000 vertices allocates the node codes and one band: an m x m int32
    node grid alone would be 1.45 GB."""
    m = 19_072
    rng = np.random.default_rng(0)
    cells = rng.choice(m * m, size=20_000, replace=False)
    nodes = [(i, j) for i, j in np.column_stack(np.divmod(cells, m)).tolist()
             if not (i < 40 and j < 40)][:19_996]
    planted = list(range(len(nodes), len(nodes) + 4))
    nodes += [(5, 5), (5, 6), (6, 5), (6, 6)]
    cloud = _Cloud(nodes, float(m))
    tracemalloc.start()
    try:
        lattice = quantize(cloud, 1.0)
        first = next(sel._candidate_squares(lattice, 4, 18,
                                            np.zeros(len(nodes), bool)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == 20_000 and lattice.m == m
    assert first == (0, 0, 7, planted)
    assert peak < 32 * 2**20


def test_candidate_squares_full_drain_memory():
    """Draining the scan of an m = 19,072 lattice of 20,000 vertices with
    2 live ones builds only the bands and columns their windows reach:
    building every band's full-width tables peaks at about 20 MB of
    traced memory here and takes about 17 s.  Each live vertex is a
    corner of a planted square of side 17, one across the seam, with no
    other vertex within 40 rows, so exactly four anchors per square hold
    r = 4, and every window offered matches the brute scan."""
    m = 19_072
    rng = np.random.default_rng(1)
    cells = rng.choice(m * m, size=20_200, replace=False)
    nodes = [(i, j) for i, j in np.column_stack(np.divmod(cells, m)).tolist()
             if (i + 40) % m > 80 and abs(i - 9008) > 40][:19_992]
    for a, b in ((m - 8, m - 8), (9000, 500)):
        nodes += [((a + x) % m, (b + y) % m) for x in (0, 16) for y in (0, 16)]
    lattice, _ = _lattice_from_nodes(nodes, m)
    settled = np.ones(len(nodes), bool)
    settled[[19_992, 19_996]] = False
    tracemalloc.start()
    try:
        got = list(sel._candidate_squares(lattice, 4, 18, settled))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == 20_000
    assert got == [(a + x, b + y, 17 + (x * y == 0), list(range(v, v + 4)))
                   for a, b, v in ((8999, 499, 19_996), (m - 9, m - 9, 19_992))
                   for x in (0, 1) for y in (0, 1)]
    for i, j, k, ids in got:
        assert ids == oracles.window_vertices_scan(nodes, m, i, j, k)
    assert peak < 4 * 2**20


def _exact_run(graph, eps, r_t, theta, **overrides):
    params = plantcfg.grid_plant_selector_params(theta, eps, r_t=r_t,
                                                 **overrides)
    model = gmrf.assemble_precision(graph.adjacency, theta, graph.params.d)
    return sel.run_selection(graph, params, model=model, exact_cov=True)


def test_run_selection_exact_covariance_zero_loss():
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=200, theta=theta, seed=6)
    report = _exact_run(graph, eps, 20, theta)
    assert report.zero_one_loss == 0
    assert report.missed_edges == 0 and report.false_edges == 0
    assert not report.undecided_vertices


def test_run_selection_whole_graph_window():
    """Tiny graph fully inside one window: block inversion is exact."""
    theta = 0.2
    graph, eps, _ = plantcfg.grid_plant_graph(
        p=20, theta=theta, seed=3, r_t=20, grid=7
    )
    report = _exact_run(graph, eps, 20, theta)
    assert report.zero_one_loss == 0


def test_run_selection_zero_coupling_declares_nothing():
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.0, seed=5)
    params = sel.SelectorParams(r=20, eps=eps, w=2 * eps, theta=0.0,
                                detect_threshold=0.1, k_cap=18)
    model = gmrf.assemble_precision(graph.adjacency, 0.0, graph.params.d)
    report = sel.run_selection(graph, params, model=model, exact_cov=True)
    assert report.edges == []
    assert report.false_edges == 0


def test_run_selection_sampled_recovers_with_many_samples():
    theta = 0.2
    graph, eps, _ = plantcfg.grid_plant_graph(p=200, theta=theta, seed=8)
    model = gmrf.assemble_precision(graph.adjacency, theta, graph.params.d)
    samples = model.sample(4000, seed=77)
    params = plantcfg.grid_plant_selector_params(theta, eps)
    report = sel.run_selection(graph, params, samples=samples)
    assert report.zero_one_loss == 0
    assert report.copies_used >= len(graph.plants)


def test_run_selection_deterministic():
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=120, theta=theta, seed=10)
    a = _exact_run(graph, eps, 20, theta)
    b = _exact_run(graph, eps, 20, theta)
    assert a.edges == b.edges
    assert a.undecided_vertices == b.undecided_vertices
    assert a.copies_found == b.copies_found


def test_run_selection_marks_copy_images():
    """One iteration decides every copy of the window pattern."""
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=200, theta=theta, seed=12)
    report = _exact_run(graph, eps, 20, theta)
    assert report.iterations == 1
    assert report.copies_used == len(graph.plants)


def test_run_selection_min_zeta_isolated_components():
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=120, theta=theta, seed=13)
    report = _exact_run(graph, eps, 20, theta, min_zeta=6)
    assert report.zero_one_loss == 0
    assert all(math.isinf(z) for z in report.achieved_zetas)


def test_run_selection_report_json_schema():
    """The report holds every field in declaration order, the first 14 as
    they always were, and is strict JSON: this planted run's one window is
    closed, and its zeta, math.inf, is written as null."""
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=theta, seed=14)
    report = _exact_run(graph, eps, 20, theta)
    import json

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    blob = json.loads(report.to_json(), parse_constant=refuse)
    names = [f.name for f in dataclasses.fields(sel.SelectionReport)]
    assert list(blob) == names
    assert names[:14] == [
        "p", "n", "r", "eps", "w", "theta", "copies_found", "copies_used",
        "zero_one_loss", "missed_edges", "false_edges", "undecided_vertices",
        "runtime_ms", "edges",
    ]
    assert blob["p"] == 100
    assert all(len(e) == 2 for e in blob["edges"])
    assert report.achieved_zetas == [math.inf]
    assert blob["achieved_zetas"] == [None]
    assert blob["low_confidence"] is report.low_confidence
    assert blob["conflicting_pairs"] == report.conflicting_pairs
    assert blob["iterations"] == report.iterations == 1
    assert blob["true_edge_count"] == report.true_edge_count


def test_run_selection_requires_samples_or_exact():
    """Without a covariance source, with both, or with a model or samples
    of another dimension than the graph, the run is refused.  Samples
    beside `exact_cov` were once ignored, yet their n was reported."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=15)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    with pytest.raises(ValueError, match="need samples"):
        sel.run_selection(graph, params)
    samples = gmrf.assemble_precision(graph.adjacency, 0.11, graph.params.d).sample(
        10, seed=0)
    with pytest.raises(ValueError, match="samples are not read when exact_cov"):
        sel.run_selection(graph, params, samples=samples, exact_cov=True)
    other = gmrf.assemble_precision(sp.csr_matrix((99, 99), dtype=np.int8),
                                    0.11, graph.params.d)
    with pytest.raises(ValueError, match="model dimension"):
        sel.run_selection(graph, params, model=other, exact_cov=True)
    with pytest.raises(ValueError, match="sample dimension"):
        sel.run_selection(graph, params, samples=other.sample(2, seed=0))


def test_run_selection_refuses_a_model_without_exact_cov():
    """A model beside pooled samples was once ignored without a word."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=15)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    model = gmrf.assemble_precision(graph.adjacency, 0.11, graph.params.d)
    with pytest.raises(ValueError, match="model is not read unless exact_cov"):
        sel.run_selection(graph, params, samples=model.sample(10, seed=0),
                          model=model)


@pytest.mark.parametrize("theta, threshold, edges", [
    (0.2, 0.15, 0), (0.0, 0.05, 100)], ids=["above", "zero"])
def test_exact_cov_without_model_uses_the_graph_theta(theta, threshold, edges):
    """With `exact_cov` and no model, the population model is the graph's
    own, with `graph.params.theta` (0.11 here), as `geoggm sample` draws
    from: the selector's theta sets only the threshold.  The restart loop
    assembles the same model."""
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    params = sel.SelectorParams(r=20, eps=eps, w=2 * eps, theta=theta,
                                detect_threshold=threshold)
    own = gmrf.assemble_precision(graph.adjacency, 0.11, graph.params.d)
    given = sel.run_selection(graph, params, model=own, exact_cov=True)
    assert len(given.edges) == edges
    assert given.zero_one_loss == (edges != graph.edge_count())
    _assert_same_reports(sel.run_selection(graph, params, exact_cov=True), given)
    _assert_same_reports(
        oracles.restart_selection(graph, params, exact_cov=True), given)


def test_run_selection_eps_collision_backoff():
    """A too-coarse pitch collides; the loop shrinks it and completes,
    reporting anything it could not decide instead of guessing."""
    theta = 0.11
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=theta, seed=16)
    params = sel.SelectorParams(r=20, eps=8 * eps, w=16 * eps, theta=theta,
                                k_cap=18)
    model = gmrf.assemble_precision(graph.adjacency, theta, graph.params.d)
    report = sel.run_selection(graph, params, model=model, exact_cov=True)
    assert report.eps <= 2 * eps  # backed off below the colliding pitch
    # no silent guesses: every vertex is either decided or reported
    decided = set(range(100)) - set(report.undecided_vertices)
    declared = {v for e in report.edges for v in e}
    assert declared <= decided | set(report.undecided_vertices)
    if report.undecided_vertices:
        assert report.zero_one_loss == 1
    else:
        assert report.zero_one_loss == 0


def test_run_selection_gives_up_on_coincident_vertices(monkeypatch):
    """Two vertices at one point collide at every pitch: after
    MAX_HALVINGS halvings the run raises the collision, naming them."""
    graph = _unplanted_sparse()
    points = graph.points.copy()
    points[1] = points[0]
    graph = dataclasses.replace(graph, points=points, adjacency=gg.build_edges(
        points, graph.params.d, graph.params.beta, graph.torus))
    pitches, quantize_at = [], sel.quantize

    def spy_quantize(graph, eps):
        pitches.append(eps)
        return quantize_at(graph, eps)

    monkeypatch.setattr(sel, "quantize", spy_quantize)
    params = sel.SelectorParams(r=8, eps=0.3, w=1.0, theta=0.1)
    with pytest.raises(CollisionError, match="vertices 0 and 1 "):
        sel.run_selection(graph, params, exact_cov=True)
    assert len(pitches) == sel.MAX_HALVINGS + 1 == 9


def _assert_same_reports(new, old):
    a, b = dataclasses.asdict(new), dataclasses.asdict(old)
    del a["runtime_ms"], b["runtime_ms"]
    assert a == b


def _grid_exact():
    graph, eps, _ = plantcfg.grid_plant_graph(p=200, theta=0.11, seed=6)
    return graph, plantcfg.grid_plant_selector_params(0.11, eps), {
        "exact_cov": True}


def _grid_samples():
    graph, eps, _ = plantcfg.grid_plant_graph(p=500, theta=0.11, seed=1)
    model = gmrf.assemble_precision(graph.adjacency, 0.11, graph.params.d)
    return graph, plantcfg.grid_plant_selector_params(0.11, eps), {
        "samples": model.sample(10, 10**6 + 1)}


def _rotated_exact():
    graph, eps = plantcfg.generic_plant_graph(p=500, theta=0.1, seed=3)
    params = sel.SelectorParams(r=25, eps=eps, w=2 * eps, theta=0.1,
                                min_zeta=6, k_cap=40)
    return graph, params, {"exact_cov": True}


def _collision_backoff():
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=16)
    params = sel.SelectorParams(r=20, eps=8 * eps, w=16 * eps, theta=0.11,
                                k_cap=18)
    return graph, params, {"exact_cov": True}


def _unplanted(r, samples):
    def build():
        graph = _unplanted_sparse()
        params = sel.SelectorParams(r=r, eps=0.3, w=1.0, theta=0.1)
        if not samples:
            return graph, params, {"exact_cov": True}
        model = gmrf.assemble_precision(graph.adjacency, 0.1, 1)
        return graph, params, {"samples": model.sample(50, seed=0)}
    return build


def _min_zeta():
    """The zeta screen drops detections: without it this run uses zetas
    1, -1, -1 and leaves 89 vertices undecided, not 91."""
    graph = gg.generate(gg.FamilyParams(p=100, eta=1, d=2, beta=1.6,
                                        theta=0.1, seed=0))
    params = sel.SelectorParams(r=12, eps=0.1, w=0.2, theta=0.1, min_zeta=1)
    return graph, params, {"exact_cov": True}


def _hopeless_background():
    """Five plants in a dense background: every background vertex's
    beta-ball holds more than r vertices, the plants' balls exactly r."""
    theta = 0.4 / 12
    graph, eps, _ = plantcfg.grid_plant_graph(p=200, theta=theta, seed=12,
                                              d=12, count=5)
    return graph, plantcfg.grid_plant_selector_params(theta, eps), {
        "exact_cov": True}


def _all_hopeless():
    """The asymptotic defaults on a small planted graph: r = 2, and every
    beta-ball holds 20 vertices."""
    graph, _, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    return graph, sel.default_params(100, 0.11), {"exact_cov": True}


def _check_copy_stages(monkeypatch):
    """Check every copy search, separation and pooling of a run against
    the earlier implementations in `oracles`."""
    template_of, find = sel._window_template, sel.find_copies
    separate, pool = sel.greedy_separated, sel.pooled_scm
    state = {}

    def spy_template(lattice, ids, i, j):
        state["anchor"] = oracles.window_anchor(lattice, ids, i, j)
        return template_of(lattice, ids, i, j)

    def spy_find(lattice, template, graph, first=None):
        copies = find(lattice, template, graph, first=first)
        want = oracles.roll_find_copies(lattice, template, graph, state["anchor"])
        assert copies.matches.tolist() == [list(o.vertex_ids) for o in want]
        assert np.array_equal(copies.centers, [o.center for o in want])
        state["want"] = want
        return copies

    def spy_separate(copies, w):
        separate(copies, w)
        assert copies.separated == oracles.scan_separated(
            state["want"], copies.torus, w)
        return copies

    def spy_pool(samples, copies):
        out = pool(samples, copies)
        assert np.array_equal(out, oracles.loop_pooled_scm(
            samples, state["want"], copies.separated, copies.matches.shape[1]))
        return out

    monkeypatch.setattr(sel, "_window_template", spy_template)
    monkeypatch.setattr(sel, "find_copies", spy_find)
    monkeypatch.setattr(sel, "greedy_separated", spy_separate)
    monkeypatch.setattr(sel, "pooled_scm", spy_pool)


@pytest.mark.parametrize("case", [
    _grid_exact, _grid_samples, _rotated_exact, _collision_backoff,
    _unplanted(5, True), _unplanted(8, False), _unplanted(12, False),
    _min_zeta, _hopeless_background, _all_hopeless,
], ids=["grid_exact", "grid_samples", "rotated_exact", "collision_backoff",
        "unplanted_r5_samples", "unplanted_r8", "unplanted_r12", "min_zeta",
        "hopeless_background", "all_hopeless"])
def test_one_pass_matches_restart_loop(monkeypatch, case):
    graph, params, kwargs = case()
    old = oracles.restart_selection(graph, params, **kwargs)
    _check_copy_stages(monkeypatch)
    _assert_same_reports(sel.run_selection(graph, params, **kwargs), old)


def test_one_pass_matches_restart_loop_with_skipped_detections(monkeypatch):
    """Two samples leave most pooled covariances singular: the run skips
    437 detections in 61 iterations and reports what the restart loop
    reports, copy counts included, since the restart loop remembers a
    skipped window instead of searching its copies again on every rescan.
    The copy counts are also checked against the copy searches the run
    makes."""
    graph = _unplanted_sparse()
    model = gmrf.assemble_precision(graph.adjacency, 0.1, 1)
    params = sel.SelectorParams(r=8, eps=0.3, w=1.0, theta=0.1)
    samples = model.sample(2, seed=0)
    old = oracles.restart_selection(graph, params, samples=samples)
    find, detect = sel.find_copies, sel.detect_edges
    searched, skipped = [], []

    def spy_find(*args, **kwargs):
        searched.append(find(*args, **kwargs))
        return searched[-1]

    def spy_detect(*args):
        try:
            return detect(*args)
        except sel.DetectionSkipped:
            skipped.append(args)
            raise

    monkeypatch.setattr(sel, "find_copies", spy_find)
    monkeypatch.setattr(sel, "detect_edges", spy_detect)
    new = sel.run_selection(graph, params, samples=samples)
    assert len(skipped) == 437 and new.iterations == 61
    assert new.copies_found == sum(len(c.matches) for c in searched)
    assert new.copies_used == sum(len(c.separated) for c in searched)
    _assert_same_reports(new, old)


@pytest.mark.parametrize("case, offered", [
    (_hopeless_background, 1), (_all_hopeless, 0),
], ids=["hopeless_background", "all_hopeless"])
def test_run_selection_stops_when_only_hopeless_vertices_remain(
        monkeypatch, case, offered):
    """A vertex whose beta-ball holds more than r vertices is never
    decided.  The scan stops once every other vertex is (here after the
    first window), and is never drawn when there is no other vertex."""
    graph, params, kwargs = case()
    balls = oracles.kdtree_balls(graph.points, graph.torus.s, graph.params.beta)
    hopeless = [v for v, ball in enumerate(balls) if len(ball) > params.r]
    scan, yielded = sel._candidate_squares, []

    def spy_scan(*args):
        for square in scan(*args):
            yielded.append(square)
            yield square

    monkeypatch.setattr(sel, "_candidate_squares", spy_scan)
    report = sel.run_selection(graph, params, **kwargs)
    assert len(hopeless) == 100  # half of p = 200, all of p = 100
    assert len(yielded) == offered
    assert report.undecided_vertices == hopeless


@st.composite
def pair_rows(draw):
    """Decision rows with repeated pair codes, exactly tied margins and
    disagreeing flags, or up to a few hundred rows of distinct codes."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(0, 300))
        return (rng.choice(4 * n + 1, n, replace=False).astype(np.int64),
                rng.choice([0.0, 0.125, 0.5, 2.0], n), rng.random(n) < 0.5)
    n = draw(st.integers(0, 60))
    row = st.tuples(
        st.integers(0, draw(st.integers(0, 15))),
        st.one_of(st.sampled_from([0.0, 0.125, 0.5, 2.0]),
                  st.floats(0.0, 4.0)),
        st.booleans())
    rows = draw(st.lists(row, min_size=n, max_size=n))
    codes, margins, declared = zip(*rows) if rows else ((), (), ())
    return (np.array(codes, dtype=np.int64), np.array(margins, dtype=float),
            np.array(declared, dtype=bool))


@settings(max_examples=200, deadline=None, database=None)
@given(pair_rows())
@example((np.array([], dtype=np.int64), np.array([]), np.array([], dtype=bool)))
@example((np.array([7, 2, 9]), np.array([0.5, 0.0, 2.0]),
          np.array([True, False, True])))
def test_resolve_pairs_matches_dict_loop(rows):
    """One grouping path resolves every input: the two explicit examples
    are no row at all and one row per code."""
    codes, conflicting = sel._resolve_pairs(*rows)
    want_codes, want_conflicting = oracles.dict_resolve_pairs(*rows)
    assert codes.tolist() == want_codes
    assert conflicting == want_conflicting


@st.composite
def balls_and_images(draw):
    """Random symmetric balls over p vertices, each holding its own vertex
    (u in the ball of v iff v in the ball of u, as for beta-balls), and
    overlapping images: rows of distinct vertices drawn from the same p."""
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = np.triu(rng.random((p, p)) < draw(st.floats(0.0, 1.0)), 1)
    near |= near.T | np.eye(p, dtype=bool)
    balls = [rng.permutation(np.flatnonzero(row)).tolist() for row in near]
    h = draw(st.integers(1, p))
    images = np.array([rng.permutation(p)[:h]
                       for _ in range(draw(st.integers(1, 6)))])
    return balls, images


@settings(max_examples=200, deadline=None, database=None)
@given(balls_and_images())
def test_balls_inside_matches_set_loop(inputs):
    balls, images = inputs
    p = len(balls)
    codes = sorted(u * p + v for u, ball in enumerate(balls) for v in ball if u < v)
    got = sel._balls_inside(np.array(codes + [p * p]),
                            np.array([len(b) for b in balls]), images)
    assert got.tolist() == oracles.set_balls_inside(balls, images)


@pytest.mark.parametrize("plant_frac, seed", [(0.3, 2), (0.6, 1)])
def test_one_pass_matches_restart_loop_in_harness(monkeypatch, plant_frac,
                                                  seed):
    reports = []

    def both(graph, params, **kwargs):
        new = sel.run_selection(graph, params, **kwargs)
        reports.append((new, oracles.restart_selection(graph, params,
                                                       **kwargs)))
        return new

    monkeypatch.setattr(harness, "run_selection", both)
    p, s = 200, 14.1
    eta = p / s**2
    cfg = harness.parse_config(
        f"p = {p}\nn = 50\ntheta = 0.2\nd = 2\neta = {eta!r}\n"
        f"beta = {1.02 * math.sqrt(2 / eta)!r}\nseeds = {seed}\neps = 0.1\n"
        f"w = 0.3\nplant_r = 10\nplant_frac = {plant_frac}\nmaster_seed = 3\n"
    )
    assert len(harness.run_experiment(cfg)) == 1
    (new, old), = reports
    assert new.iterations > 1 and new.undecided_vertices
    assert new.conflicting_pairs > 0
    _assert_same_reports(new, old)


@pytest.mark.parametrize("seed", [1246337773, 1811346479])
def test_generic_plants_recovered_where_no_window_was_offered(seed):
    """Criterion-4 graphs on which the scan once offered no window (its
    box counts subtracted the P[i, j] prefix corner) and every vertex
    stayed undecided."""
    graph, eps = plantcfg.generic_plant_graph(p=500, theta=0.1, seed=seed,
                                              r_t=25, q_count=20, d=3)
    params = sel.SelectorParams(r=25, eps=eps, w=2 * eps, theta=0.1,
                                min_zeta=6, k_cap=40)
    report = sel.run_selection(graph, params, exact_cov=True)
    assert report.zero_one_loss == 0 and not report.undecided_vertices
    assert report.achieved_zetas and min(report.achieved_zetas) >= 6
