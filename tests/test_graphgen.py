import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from geoggm import graphgen as gg
from geoggm import harness
from geoggm.geometry import Torus, grid_rotate

import oracles
import plantcfg


def small_params(**overrides):
    base = dict(p=100, eta=1.0, d=3, beta=2.2, theta=0.1, seed=42)
    base.update(overrides)
    return gg.FamilyParams(**base)


def test_family_params_side_length():
    assert small_params().s == pytest.approx(10.0)
    assert gg.FamilyParams(p=9, eta=4.0, d=1, beta=0.6, theta=0.1).s == pytest.approx(1.5)


def test_family_params_rejects_beta_of_half_the_side():
    # generate could wire no edge of length beta >= s/2
    for p, beta in ((4, 0.6), (16, 1.0)):  # s = 1 and s = 2
        with pytest.raises(ValueError, match="half the torus side"):
            gg.FamilyParams(p=p, eta=4.0, d=1, beta=beta, theta=0.1)


def test_family_params_invariants():
    with pytest.raises(ValueError):
        small_params(theta=0.2)  # d*theta = 0.6
    with pytest.raises(ValueError):
        small_params(beta=1.0)  # eta*beta^2 = 1 < d
    with pytest.raises(ValueError):
        small_params(p=0)
    # both rules are strict: each boundary is refused
    with pytest.raises(ValueError, match=r"d\*theta = 0\.5 must be < 1/2"):
        small_params(d=3, theta=1.0 / 6.0)  # d*theta = 1/2
    with pytest.raises(ValueError, match="must exceed d = 1"):
        gg.FamilyParams(p=100, eta=4.0, d=1, beta=0.5, theta=0.1)  # eta*beta^2 = d


@pytest.mark.parametrize("name", ["eta", "beta", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_family_params_refuse_non_finite(name, bad):
    # theta = nan once reached the factorization as an exactly singular J
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        small_params(**{name: bad})


def test_sample_vertices_range_and_determinism():
    prm = small_params()
    pts = gg.generate(prm).points
    assert pts.shape == (100, 2)
    assert pts.min() >= 0 and pts.max() < 10.0
    assert np.array_equal(pts, gg.generate(prm).points)


def test_sample_vertices_small_square():
    # smallest p at this eta whose torus can hold beta (beta < s/2)
    prm = gg.FamilyParams(p=9, eta=4.0, d=1, beta=0.6, theta=0.1, seed=3)
    pts = gg.generate(prm).points
    assert pts.min() >= 0 and pts.max() < 1.5


def test_sample_vertices_chi_square_uniformity():
    prm = gg.FamilyParams(p=10000, eta=1.0, d=3, beta=2.0, theta=0.1, seed=0)
    pts = gg.generate(prm).points
    bins = np.floor(pts / (prm.s / 10)).astype(int)
    cells = bins[:, 0] * 10 + bins[:, 1]
    counts = np.bincount(cells, minlength=100)
    expected = 100.0
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(1 - 1e-3, df=99)


def test_build_edges_respects_beta():
    t = Torus(10.0)
    pts = np.array([[1.0, 1.0], [1.0, 4.5]])
    assert gg.build_edges(pts, d=2, beta=3.0, torus=t).nnz == 0
    pts2 = np.array([[1.0, 1.0], [1.0, 3.0]])
    adj = gg.build_edges(pts2, d=2, beta=3.0, torus=t)
    assert adj.nnz == 2 and adj[0, 1] == 1


def test_build_edges_vs_reference_greedy():
    rng = np.random.default_rng(3)
    t = Torus(10.0)
    pts = rng.uniform(0, 10, (30, 2))
    adj = gg.build_edges(pts, d=3, beta=3.0, torus=t)
    got = {(int(u), int(v)) for u, v in zip(*adj.nonzero()) if u < v}
    assert got == oracles.greedy_edges_reference(pts, 3, 3.0, 10.0)


def test_build_edges_order_free():
    rng = np.random.default_rng(7)
    t = Torus(12.0)
    pts = rng.uniform(0, 12, (40, 2))
    adj = gg.build_edges(pts, d=3, beta=2.5, torus=t)
    perm = rng.permutation(40)
    adj2 = gg.build_edges(pts[perm], d=3, beta=2.5, torus=t)
    base = {(int(u), int(v)) for u, v in zip(*adj.nonzero()) if u < v}
    back = set()
    for u, v in zip(*adj2.nonzero()):
        a, b = int(perm[u]), int(perm[v])
        if a < b:
            back.add((a, b))
    assert base == back


def test_generated_graph_satisfies_caps():
    for seed in range(5):
        g = gg.generate(small_params(seed=seed))
        deg = np.diff(g.adjacency.indptr)
        assert deg.max() <= 3
        assert 2 * g.edge_count() == deg.sum()
        assert g.edge_count() <= g.p * 3 / 2
        for u, v in g.edges():
            assert g.torus.distance(g.points[u], g.points[v]) <= 2.2 * (1 + 1e-12)


def test_edges_sorted_upper_triangle():
    """`edges()` lists each i < j entry once, sorted, as Python ints, also
    from a CSR whose rows hold their columns out of order."""
    from scipy.sparse import csr_matrix

    indptr = np.r_[0, 2, 4, np.full(98, 6)]
    adj = csr_matrix((np.ones(6, dtype=np.int8), np.array([2, 1, 2, 0, 1, 0]),
                      indptr), shape=(100, 100))
    assert not adj.has_sorted_indices
    g = gg.GeoGraph(params=small_params(), points=np.zeros((100, 2)),
                    adjacency=adj)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert g.edge_codes.tolist() == [1, 2, 102]
    assert all(type(x) is int for e in g.edges() for x in e)
    g = gg.generate(small_params(seed=4))
    coo = g.adjacency.tocoo()
    assert g.edges() == sorted(
        (int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v)


def test_edge_codes_agree_with_edges(tmp_path):
    """`edge_codes` is derived from the adjacency, not stored: it lists
    `edges()` as the sorted int64 codes u * p + v, one per edge, on a
    generated graph, on one read back from its file and on one whose
    adjacency was replaced."""
    import dataclasses

    g = gg.generate(small_params(seed=4))
    path = tmp_path / "graph.txt"
    gg.write_graph(g, path)
    u, v = g.edges()[0]
    B = g.adjacency.tolil()
    B[u, v] = B[v, u] = 0
    B = B.tocsr()
    B.eliminate_zeros()
    fewer = dataclasses.replace(g, adjacency=B)
    assert fewer.edge_count() == g.edge_count() - 1
    for graph in (g, gg.read_graph(path), fewer):
        codes = graph.edge_codes
        assert codes.dtype == np.int64 and len(codes) == graph.edge_count()
        assert (np.diff(codes) > 0).all()
        assert [divmod(int(c), graph.p) for c in codes] == graph.edges()
        assert all(type(x) is int for e in graph.edges() for x in e)
    assert u * g.p + v not in fewer.edge_codes


def test_geograph_refuses_stored_zero():
    """Every edge is stored as 1, and any other stored value is refused,
    naming its first entry, also through `dataclasses.replace`.  An
    explicit zero is an edge to `nnz` and `write_graph` but not to the
    precision, the loss or `graph_distance`; a 2, which a repeated (u, v)
    sums to, is one edge to them but a coupling of 2 theta to the
    precision.  Points not shaped (p, 2) and an adjacency not shaped
    (p, p) are refused too: 150 points for p = 200 would be written as a
    file `read_graph` refuses, and a 150 x 150 adjacency on 200 points
    would run until the loss."""
    import dataclasses

    g = gg.generate(gg.FamilyParams(p=200, eta=1, d=1, beta=1.05, theta=0.1,
                                    seed=0))
    u, v = g.edges()[0]
    for value in (2, 0):
        B = g.adjacency.copy()
        B[u, v] = B[v, u] = value
        assert B.nnz == g.adjacency.nnz
        with pytest.raises(ValueError, match=rf"stores {value} at \({u}, {v}\)"):
            dataclasses.replace(g, adjacency=B)
    B.eliminate_zeros()
    assert dataclasses.replace(g, adjacency=B).edge_count() == g.edge_count() - 1
    for points in (g.points[:150], g.points[:, :1], g.points.ravel()):
        with pytest.raises(ValueError, match=r"points have shape .* not \(200, 2\)"):
            dataclasses.replace(g, points=points)
    with pytest.raises(ValueError,
                       match=r"adjacency has shape \(150, 150\), not \(200, 200\)"):
        dataclasses.replace(g, adjacency=g.adjacency[:150, :150])
    # a NaN point once died in the kd-tree naming no vertex
    points = g.points.copy()
    points[7, 1] = np.nan
    with pytest.raises(ValueError, match="vertex 7 has a non-finite coordinate"):
        dataclasses.replace(g, points=points)
    # a diagonal entry is named as a self-loop before its stored value
    for value in (1, 2):
        B = g.adjacency.tolil()
        B[5, 5] = value
        with pytest.raises(ValueError, match="self-loop on vertex 5"):
            dataclasses.replace(g, adjacency=B.tocsr())
    # one triangle alone once passed: the upper one as a graph of half
    # the edges, selected with loss 0; the lower one with every edge false
    for one_way in (sp.triu(g.adjacency), sp.tril(g.adjacency)):
        with pytest.raises(ValueError,
                           match=rf"edge \({u}, {v}\) is stored one way only"):
            dataclasses.replace(g, adjacency=one_way.tocsr())


def test_planted_copies_identical_induced_subgraphs():
    rng = np.random.default_rng(5)
    tmpl = rng.uniform(0, 1.2, (6, 2))
    spec = gg.PlantSpec.from_array(tmpl, count=3, min_separation=7.0,
                                   clearance=3.1, rotate=True)
    prm = gg.FamilyParams(p=60, eta=0.25, d=2, beta=3.0, theta=0.1, seed=11)
    g = gg.generate(prm, spec)
    assert len(g.plants) == 3 and g.p == 60
    A = g.adjacency.toarray()
    first = A[np.ix_(g.plants[0], g.plants[0])]
    assert first.sum() > 0
    for plant in g.plants[1:]:
        assert np.array_equal(A[np.ix_(plant, plant)], first)


def test_planted_copies_isolated_from_background():
    rng = np.random.default_rng(6)
    tmpl = rng.uniform(0, 1.2, (6, 2))
    spec = gg.PlantSpec.from_array(tmpl, count=3, min_separation=7.0,
                                   clearance=3.1, rotate=False)
    prm = gg.FamilyParams(p=60, eta=0.25, d=2, beta=3.0, theta=0.1, seed=2)
    g = gg.generate(prm, spec)
    for plant in g.plants:
        members = set(plant)
        for v in plant:
            assert set(g.adjacency[v].indices.tolist()) <= members


def test_planted_rotated_copy_pulls_back():
    """A 90-degree-rotated copy carries the pullback of the base wiring."""
    rng = np.random.default_rng(9)
    tmpl = rng.uniform(0, 1.2, (6, 2))
    tmpl -= tmpl.min(axis=0)
    prm = gg.FamilyParams(p=12, eta=0.02, d=2, beta=10.05, theta=0.1, seed=0)
    s = prm.s
    base = tmpl + np.array([2.0, 2.0])
    rotated = grid_rotate(tmpl, 1)
    rotated = rotated - rotated.min(axis=0) + np.array([2.0, 14.0])
    pts = np.vstack([base, rotated])
    adj = gg.build_edges(pts, d=2, beta=10.05, torus=Torus(s))
    A = adj.toarray()
    assert np.array_equal(A[:6, :6], A[6:, 6:])
    assert A[:6, :6].sum() > 0
    assert A[:6, 6:].sum() == 0


def test_graph_io_round_trip(tmp_path):
    """The torus is derived from `params`, not stored, so no graph holds
    one of another side than the file `write_graph` makes of it."""
    import dataclasses

    g = gg.generate(small_params(seed=13))
    path = tmp_path / "graph.txt"
    gg.write_graph(g, path)
    g2 = gg.read_graph(path)
    assert np.array_equal(g.points, g2.points)
    assert g.edges() == g2.edges()
    assert g2.params == g.params
    assert g2.torus == g.torus == Torus(g.params.s)
    assert "torus" not in {f.name for f in dataclasses.fields(g)}
    with pytest.raises(TypeError):
        dataclasses.replace(g, torus=Torus(g.params.s + 1))


_VERTICES = ["v 0 0.1 0.2", "v 1 0.5 0.6", "v 2 1.0 1.1", "v 3 1.4 1.5",
             "v 4 1.8 1.9"]


@pytest.mark.parametrize("body, message", [
    (["v 0 0.1 0.2", "v 1 0.5 0.6", "v -1 1.0 1.1"], "outside"),
    (_VERTICES + ["v 5 1.2 1.3"], "outside"),
    (["v 0 0.1 0.2", "v 2 1.0 1.1"], "0 vertex lines"),
    (_VERTICES + ["v 1 0.7 0.8"], "2 vertex lines"),
    (_VERTICES + ["e 0 5"], "outside"),
    (_VERTICES + ["e 0 0"], "self-loop"),
    (_VERTICES + ["e 0 1", "e 1 0"], "listed twice"),
    (_VERTICES[:2] + ["v 2 nan 1.1"] + _VERTICES[3:], "vertex 2 has a non-finite"),
    (_VERTICES[:4] + ["v 4 1.8 -inf"], "vertex 4 has a non-finite"),
    (_VERTICES[:1] + ["v 1 0.5"] + _VERTICES[2:], "line 3: expected `v id x y`"),
    (_VERTICES + ["e 1"], "line 7: expected `e u v`"),
], ids=["negative_vertex", "vertex_id_p", "missing_vertex", "duplicate_vertex",
        "edge_out_of_range", "self_loop", "duplicate_edge", "nan_coordinate",
        "infinite_coordinate", "short_vertex_line", "short_edge_line"])
def test_read_graph_rejects_malformed(tmp_path, body, message):
    path = tmp_path / "graph.txt"
    # header: a valid family (p=5, eta=1, beta=1.05 < s/2, d=1, theta=0.1)
    path.write_text("\n".join(["5 2.23606797749979 1 1.05 1 0.1 0"] + body) + "\n")
    with pytest.raises(ValueError, match=message):
        gg.read_graph(path)


@pytest.mark.parametrize("side, ok", [
    ("10", True), ("10.000000009", True), ("99.0", False), ("10.00000002", False),
    ("nan", False),
])
def test_read_graph_checks_the_header_side(tmp_path, side, ok):
    """The header side must be sqrt(p / eta) to 1e-9 relative: a side the
    reader cannot honour is refused, not dropped."""
    g = gg.generate(gg.FamilyParams(p=100, eta=1.0, d=2, beta=2.0, theta=0.1))
    path = tmp_path / "graph.txt"
    gg.write_graph(g, path)
    header, *body = path.read_text().splitlines()
    assert header.split()[1] == "10"
    path.write_text("\n".join([" ".join([header.split()[0], side] + header.split()[2:])]
                              + body) + "\n")
    if ok:
        assert gg.read_graph(path).params.s == 10.0
    else:
        with pytest.raises(ValueError, match="header side"):
            gg.read_graph(path)


def test_generate_deterministic():
    g1 = gg.generate(small_params(seed=21))
    g2 = gg.generate(small_params(seed=21))
    assert np.array_equal(g1.points, g2.points)
    assert (g1.adjacency != g2.adjacency).nnz == 0


def _csr_state(adj):
    """Everything that makes two CSR matrices byte-identical."""
    return adj.shape, [(a.dtype.str, a.tobytes())
                       for a in (adj.indptr, adj.indices, adj.data)]


@st.composite
def edge_inputs(draw):
    """Points on a torus of side s, a degree cap d in 1..4 and beta below
    s/2: uniform points, translated copies of one small pattern, whose
    equal lengths leave the greedy order to the tie-breaks, or lattice
    points with holes on a torus of whole cells, whose pairs tie on every
    key across the seam and whose runs of equal length are long."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "copies", "lattice"]))
    if kind == "lattice":
        pitch = draw(st.floats(0.5, 1.0))
        m = draw(st.integers(4, 12))
        s = m * pitch
        cells = np.argwhere(rng.random((m, m)) < draw(st.floats(0.3, 1.0)))
        pts = cells * pitch
    elif kind == "uniform":
        s = draw(st.floats(4.0, 16.0))
        pts = rng.uniform(0.0, s, (draw(st.integers(0, 80)), 2))
    else:
        s = draw(st.floats(4.0, 16.0))
        pattern = rng.uniform(0.0, 1.5, (draw(st.integers(1, 6)), 2))
        shifts = rng.uniform(0.0, s, (draw(st.integers(1, 12)), 2))
        pts = np.mod(shifts[:, None] + pattern, s).reshape(-1, 2)
    return pts, draw(st.integers(1, 4)), draw(st.floats(0.3, 0.49 * s)), Torus(s)


@settings(max_examples=150, deadline=None, database=None)
@given(edge_inputs())
def test_build_edges_matches_loop(inputs):
    """The list-driven greedy loop gives the earlier loop's CSR, byte for
    byte."""
    pts, d, beta, torus = inputs
    assert (_csr_state(gg.build_edges(pts, d, beta, torus))
            == _csr_state(oracles.loop_build_edges(pts, d, beta, torus)))


def test_build_edges_breaks_full_ties_by_vertex_ids():
    """The 5 x 5 integer lattice on a torus of side 5 at d = 1, beta = 1:
    every pair is 1 apart, and a pair across the seam ties on every
    geometric key with the pair beside it that shares its lower point, so
    the vertex ids decide.  The wiring equals the loop oracle's and the
    greedy reference's, whatever order the pairs come in."""
    pts = np.argwhere(np.ones((5, 5))).astype(float)
    torus = Torus(5.0)
    adj = gg.build_edges(pts, 1, 1.0, torus)
    assert _csr_state(adj) == _csr_state(oracles.loop_build_edges(pts, 1, 1.0, torus))
    pairs = torus.close_pairs(pts, 1.0)
    assert _csr_state(gg.build_edges(pts, 1, 1.0, torus, pairs[::-1])) == _csr_state(adj)
    got = {(int(u), int(v)) for u, v in zip(*adj.nonzero()) if u < v}
    assert got == oracles.greedy_edges_reference(pts, 1, 1.0, 5.0)


@st.composite
def anchor_inputs(draw):
    """A torus side, a one-point plant spec whose anchors fit (their
    exclusion disks cover at most 1.2 times the torus, and a snap pitch
    leaves at least 64 nodes), with no snap, a snap pitch that divides the
    side or one that does not, and a seed."""
    s = draw(st.floats(5.0, 40.0))
    count = draw(st.integers(1, 30))
    sep = s * math.sqrt(draw(st.floats(0.05, 1.2)) / (math.pi * count))
    snap = draw(st.one_of(st.none(), st.integers(8, 60).map(lambda k: s / k),
                          st.floats(8.0, 60.0).map(lambda k: s / k)))
    spec = gg.PlantSpec(template=((0.0, 0.0),), count=count,
                        min_separation=sep, clearance=0.0, snap=snap)
    return spec, s, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, database=None)
@given(anchor_inputs())
def test_place_anchors_matches_loop(inputs):
    """Batched draws keep the anchors that one draw at a time keeps, and
    leave the generator where it leaves it: the rotation draws follow."""
    spec, s, seed = inputs
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(gg._place_anchors(rng, spec, s),
                          oracles.loop_place_anchors(ref, spec, s))
    assert rng.uniform() == ref.uniform()


_POINT = ((0.0, 0.0),)


@pytest.mark.parametrize("fields, message", [
    (dict(template=((0.0, math.nan),)), "template must have finite"),
    (dict(template=((math.inf, 0.0), (1.0, 1.0))), "template must have finite"),
    (dict(min_separation=math.nan), "min_separation must be finite"),
    (dict(min_separation=math.inf), "min_separation must be finite"),
    (dict(clearance=math.nan), "clearance must be finite"),
    (dict(clearance=math.inf), "clearance must be finite"),
    (dict(snap=math.nan), "snap must be finite"),
    (dict(snap=math.inf), "snap must be finite"),
    (dict(snap=0.0), "snap must be positive"),
    (dict(snap=-0.5), "snap must be positive"),
], ids=["nan_template", "inf_template", "nan_separation", "inf_separation",
        "nan_clearance", "inf_clearance", "nan_snap", "inf_snap", "zero_snap",
        "negative_snap"])
def test_plant_spec_refuses_bad_fields(fields, message):
    """Each of these was once accepted: a zero snap stamped every copy at
    the origin, a NaN coordinate became 0, a NaN separation kept anchors
    closer than asked and an infinite one spent the whole attempt cap."""
    spec = dict(template=_POINT, count=4, min_separation=4.0, clearance=1.0)
    with pytest.raises(ValueError, match=message):
        gg.PlantSpec(**dict(spec, **fields))


def test_place_anchors_cap_on_infeasible_spec():
    # two anchors 8 apart cannot fit: no two points of a torus of side 10
    # are more than 5 * sqrt(2) apart
    spec = gg.PlantSpec(template=((0.0, 0.0),), count=2, min_separation=8.0,
                        clearance=0.0)
    message = "could not place 2 copies with separation 8.0 on a torus of side 10.0"
    for place in (gg._place_anchors, oracles.loop_place_anchors):
        with pytest.raises(RuntimeError, match=message):
            place(np.random.default_rng(0), spec, 10.0)


def test_place_anchors_cap_stops_at_the_last_allowed_draw():
    """On an infeasible spec the batches stop at 2000 * count draws, so the
    generator is left where one draw at a time leaves it."""
    spec = gg.PlantSpec(template=_POINT, count=2, min_separation=8.0,
                        clearance=0.0)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    for place, gen in ((gg._place_anchors, rng),
                       (oracles.loop_place_anchors, ref)):
        with pytest.raises(RuntimeError, match="could not place 2 copies"):
            place(gen, spec, 10.0)
    assert rng.uniform() == ref.uniform()


class _Drawn(RuntimeError):
    """Raised in place of drawing a graph; the harness skips the point."""


def _bench_trend_specs():
    """The (family, plant) pairs of the benchmark's trend graphs: its
    harness config at master seed 0, drawn by `run_experiment` itself."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = json.loads((root / "bench" / "workloads.json").read_text())["trend"]
    cfg = dict(spec["config"], master_seed=0)
    text = "\n".join(
        f"{k} = {', '.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in cfg.items())
    drawn = []

    def record(params, plant):
        drawn.append((params, plant))
        raise _Drawn

    with mock.patch.object(harness, "generate", record):
        assert harness.run_experiment(harness.parse_config(text)) == []
    return drawn


def _plantcfg_graphs(build):
    """The (family, plant, graph) triples that `build()` draws through
    `generate`."""
    drawn = []
    real = gg.generate

    def record(params, plant=None):
        drawn.append((params, plant, real(params, plant)))
        return drawn[-1][2]

    with mock.patch.object(gg, "generate", record):
        build()
    return drawn


@pytest.mark.parametrize("family", [
    "criterion4", "criterion5", "bench_trend", "background", "unplanted"])
def test_generate_matches_loop(family):
    """Identical points and adjacency to the earlier generate on the
    criterion-4 and -5 graph seeds, the benchmark's trend graphs, a plant
    with uniform background around it and unplanted graphs of the README
    regime."""
    if family == "unplanted":
        drawn = [(params, None, gg.generate(params)) for params in (
            gg.FamilyParams(p=p, eta=1.0, d=3, beta=2.2, theta=0.1, seed=seed)
            for p in (300, 2000) for seed in range(10))]
    elif family == "criterion4":
        drawn = _plantcfg_graphs(lambda: [
            plantcfg.generic_plant_graph(p=500, theta=0.1, seed=seed)
            for seed in range(20)])
    elif family == "criterion5":
        drawn = _plantcfg_graphs(lambda: [
            plantcfg.grid_plant_graph(p=p, theta=0.11, seed=seed)
            for seed in range(20) for p in (500, 2000, 8000)])
    elif family == "bench_trend":
        drawn = [(params, plant, gg.generate(params, plant))
                 for params, plant in _bench_trend_specs()]
    else:
        drawn = _plantcfg_graphs(lambda: plantcfg.grid_plant_graph(
            p=2000, theta=0.11, seed=4, count=60))
        assert drawn[0][0].p > 60 * drawn[0][1].size
    assert drawn
    for params, plant, g in drawn:
        points, adjacency = oracles.loop_generate(params, plant)
        assert np.array_equal(g.points, points)
        assert _csr_state(g.adjacency) == _csr_state(adjacency)


def test_background_cap_on_a_covered_torus():
    """One plant whose clearance covers the whole torus leaves the
    background no room: both placements stop at the 2000-draws-per-vertex
    cap with the same message."""
    params = gg.FamilyParams(p=9, eta=4.0, d=1, beta=0.6, theta=0.1, seed=1)
    spec = gg.PlantSpec(template=_POINT, count=1, min_separation=1.0,
                        clearance=1.1)  # s = 1.5: no point is 1.07 away
    for build in (gg.generate, oracles.loop_generate):
        with pytest.raises(RuntimeError,
                           match="could not place background vertices"):
            build(params, spec)
