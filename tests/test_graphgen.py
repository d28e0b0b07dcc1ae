import numpy as np
import pytest
from scipy.stats import chi2

from geoggm import graphgen as gg
from geoggm.geometry import Torus, grid_rotate

import oracles


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
        deg = g.degrees()
        assert deg.max() <= 3
        assert 2 * g.edge_count() == deg.sum()
        assert g.edge_count() <= g.p * 3 / 2
        for u, v in g.edges():
            assert g.torus.distance(g.points[u], g.points[v]) <= 2.2 * (1 + 1e-12)


def test_validate_family_clean_graph():
    rep = gg.validate_family(gg.generate(small_params()))
    assert rep.ok
    assert rep.eta_beta_sq_over_d == pytest.approx(2.2**2 / 3)


def test_validate_family_flags_long_edge():
    from scipy.sparse import csr_matrix

    prm = small_params()  # s = 10, beta = 2.2
    pts = np.zeros((100, 2))
    pts[0] = (0.0, 0.0)
    pts[1] = (0.0, 4.4)  # 2 * beta, no wraparound shortcut at s = 10
    pts[2:] = np.random.default_rng(0).uniform(5, 9, (98, 2))
    rows, cols = [0, 1], [1, 0]
    adj = csr_matrix((np.ones(2, dtype=np.int8), (rows, cols)), shape=(100, 100))
    g = gg.GeoGraph(params=prm, points=pts, adjacency=adj, torus=Torus(prm.s))
    rep = gg.validate_family(g)
    assert len(rep.length_violations) == 1
    assert rep.length_violations[0][:2] == (0, 1)
    assert not rep.degree_violations


def test_validate_family_flags_boundary_coupling():
    # d*theta = 1/2 exactly must be flagged: strict inequality required
    g = gg.generate(small_params())
    object.__setattr__(g.params, "theta", 1.0 / 6.0)
    rep = gg.validate_family(g)
    assert rep.coupling_violation
    assert rep.coupling_value == pytest.approx(0.5)


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
            assert set(g.neighbors(v).tolist()) <= members


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
    g = gg.generate(small_params(seed=13))
    path = tmp_path / "graph.txt"
    gg.write_graph(g, path)
    g2 = gg.read_graph(path)
    assert np.array_equal(g.points, g2.points)
    assert g.edges() == g2.edges()
    assert g2.params == g.params


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
], ids=["negative_vertex", "vertex_id_p", "missing_vertex", "duplicate_vertex",
        "edge_out_of_range", "self_loop", "duplicate_edge"])
def test_read_graph_rejects_malformed(tmp_path, body, message):
    path = tmp_path / "graph.txt"
    # header: a valid family (p=5, eta=1, beta=1.05 < s/2, d=1, theta=0.1)
    path.write_text("\n".join(["5 2.23606797749979 1 1.05 1 0.1 0"] + body) + "\n")
    with pytest.raises(ValueError, match=message):
        gg.read_graph(path)


def test_generate_deterministic():
    g1 = gg.generate(small_params(seed=21))
    g2 = gg.generate(small_params(seed=21))
    assert np.array_equal(g1.points, g2.points)
    assert (g1.adjacency != g2.adjacency).nnz == 0
