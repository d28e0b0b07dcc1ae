import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from geoggm import gmrf
from geoggm import graphgen as gg

import oracles


def path_adjacency(p):
    return sp.diags(
        [np.ones(p - 1), np.ones(p - 1)], [1, -1], format="csr"
    ).astype(np.int8)


def random_pd(rng, n, shift=None):
    A = rng.standard_normal((n, n))
    return A @ A.T + (shift if shift is not None else n) * np.eye(n)


def test_assemble_path_precision():
    m = gmrf.assemble_precision(path_adjacency(3), 0.2, 2)
    expect = np.array([[1, 0.2, 0], [0.2, 1, 0.2], [0, 0.2, 1]])
    assert np.allclose(m.J.toarray(), expect)


def test_assemble_empty_graph_gives_identity():
    m = gmrf.assemble_precision(sp.csr_matrix((4, 4), dtype=np.int8), 0.3, 1)
    assert np.allclose(m.J.toarray(), np.eye(4))
    assert np.allclose(m.covariance_submatrix(np.arange(m.p)), np.eye(4))


def test_covariance_submatrix_matches_full_covariance():
    """The submatrix solves give the full inverse's entries bit for bit."""
    prm = gg.FamilyParams(p=500, eta=1.0, d=4, beta=2.5, theta=0.12, seed=4)
    m = gmrf.assemble_precision(gg.generate(prm).adjacency, 0.12, 4)
    full = m.covariance_submatrix(np.arange(m.p))
    rng = np.random.default_rng(0)
    for _ in range(20):
        ids = rng.choice(500, size=25, replace=False)
        assert np.array_equal(m.covariance_submatrix(ids), full[np.ix_(ids, ids)])


def test_assemble_eigenvalue_floor():
    # d*theta = 0.48, just inside the strict coupling cap
    prm = gg.FamilyParams(p=80, eta=1.0, d=4, beta=2.5, theta=0.12, seed=4)
    g = gg.generate(prm)
    m = gmrf.assemble_precision(g.adjacency, 0.12, 4)
    lam_min = np.linalg.eigvalsh(m.J.toarray()).min()
    assert lam_min >= 1 - 0.48 - 1e-12
    assert lam_min >= 0.5


def test_assemble_rejects_large_coupling():
    with pytest.raises(gmrf.CouplingTooLarge):
        gmrf.assemble_precision(path_adjacency(4), 0.25, 2)


def test_assemble_rejects_degree_violation():
    star = sp.csr_matrix(np.array(
        [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.int8
    ))
    with pytest.raises(ValueError):
        gmrf.assemble_precision(star, 0.1, 2)


def test_precision_norm_bound():
    """Spectral norm of the covariance stays below 1/(1 - d*theta)."""
    for seed in range(5):
        prm = gg.FamilyParams(p=60, eta=1.0, d=3, beta=2.2, theta=0.15, seed=seed)
        g = gg.generate(prm)
        m = gmrf.assemble_precision(g.adjacency, 0.15, 3)
        cov_norm = np.linalg.norm(m.covariance_submatrix(np.arange(m.p)), 2)
        assert cov_norm <= 1.0 / (1 - 3 * 0.15) + 1e-10
        # the walk expansion premise: coupling block norm below 1/2
        e_norm = np.linalg.norm(0.15 * g.adjacency.toarray(), 2)
        assert e_norm < 0.5


def test_sample_identity_concentration():
    """Frobenius deviation inside the stated band for the identity model."""
    m = gmrf.assemble_precision(sp.csr_matrix((2, 2), dtype=np.int8), 0.0, 1)
    n = 100000
    s = m.sample(n, seed=7)
    scm = s.data.T @ s.data / n
    band = 1.0 * (2 / math.sqrt(n) + 0.05)
    assert np.linalg.norm(scm - np.eye(2), "fro") <= band


def test_sample_rank_one():
    m = gmrf.assemble_precision(path_adjacency(5), 0.2, 2)
    s = m.sample(1, seed=3)
    assert np.linalg.matrix_rank(s.data.T @ s.data) == 1


def test_sample_deterministic():
    m = gmrf.assemble_precision(path_adjacency(10), 0.2, 2)
    a = m.sample(20, seed=11)
    b = m.sample(20, seed=11)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("d, beta, theta", [(1, 1.05, 0.1), (2, 1.45, 0.11),
                                             (3, 2.2, 0.1)])
def test_sample_matches_scaled_solve(d, beta, theta):
    """Telling the solve that SuperLU's L has a unit diagonal only skips
    divisions by 1.0: the samples equal the diagonal-reading solve's."""
    for seed in range(3):
        g = gg.generate(gg.FamilyParams(p=500, eta=1.0, d=d, beta=beta,
                                        theta=theta, seed=seed))
        m = gmrf.assemble_precision(g.adjacency, theta, d)
        assert np.array_equal(m.sample(10, seed + 20).data,
                              oracles.scaled_triangular_sample(m, 10, seed + 20))


def test_sample_covariance_matches_model():
    """Moment check against the exact covariance."""
    prm = gg.FamilyParams(p=30, eta=1.0, d=3, beta=2.2, theta=0.15, seed=8)
    g = gg.generate(prm)
    m = gmrf.assemble_precision(g.adjacency, 0.15, 3)
    n = 200000
    s = m.sample(n, seed=5)
    scm = s.data.T @ s.data / n
    assert np.abs(scm - m.covariance_submatrix(np.arange(m.p))).max() < 0.03


def test_schur_two_by_two():
    J = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = gmrf.schur_conditional_precision(J, [0])
    assert out == pytest.approx(np.array([[1.5]]))
    assert np.linalg.inv(J)[0, 0] == pytest.approx(1 / 1.5)


def test_schur_block_diagonal_passthrough():
    rng = np.random.default_rng(1)
    A = random_pd(rng, 3)
    B = random_pd(rng, 2)
    J = np.block([[A, np.zeros((3, 2))], [np.zeros((2, 3)), B]])
    out = gmrf.schur_conditional_precision(J, [0, 1, 2])
    assert np.allclose(out, A)


def test_schur_vs_dense_inverse():
    rng = np.random.default_rng(2)
    J = random_pd(rng, 8)
    keep = [1, 4, 6]
    got = gmrf.schur_conditional_precision(J, keep)
    want = np.linalg.inv(np.linalg.inv(J)[np.ix_(keep, keep)])
    rel = np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro")
    assert rel < 1e-12


def test_schur_full_keep_returns_matrix():
    J = random_pd(np.random.default_rng(3), 4)
    assert np.allclose(gmrf.schur_conditional_precision(J, [0, 1, 2, 3]), J)


def test_block_index_validation():
    with pytest.raises(ValueError):
        gmrf.BlockIndex.of([0, 0], [0, 1])
    with pytest.raises(ValueError):
        gmrf.BlockIndex.of([5], [0, 1])


def test_local_precision_full_graph_exact():
    """With the window covering everything, the estimate is the exact
    inverse of the core's precision submatrix."""
    m = gmrf.assemble_precision(path_adjacency(12), 0.2, 2)
    theta_full = m.covariance_submatrix(np.arange(m.p))
    est = gmrf.schur_conditional_precision(theta_full, [4, 5, 6])
    exact = np.linalg.inv(m.J[np.ix_([4, 5, 6], [4, 5, 6])].toarray())
    assert np.abs(est - exact).max() < 1e-12


def test_local_precision_degenerate_core():
    m = gmrf.assemble_precision(path_adjacency(6), 0.2, 2)
    F = [1, 2, 3]
    theta_F = m.covariance_submatrix(F)
    assert np.allclose(gmrf.schur_conditional_precision(theta_F, [0, 1, 2]),
                       theta_F)


def test_local_precision_path_sweep_under_envelope():
    """Estimator error never exceeds (theta*d)^(zeta+2) along a window
    sweep, and the interior-core estimate is exact to rounding."""
    p, theta = 40, 0.2
    m = gmrf.assemble_precision(path_adjacency(p), theta, 2)
    theta_full = m.covariance_submatrix(np.arange(m.p))
    H = [18, 19, 20, 21]
    exact = np.linalg.inv(m.J[np.ix_(H, H)].toarray())
    prev = math.inf
    for rad in (3, 5, 8, 10):
        F = list(range(18 - rad, 22 + rad))
        est = gmrf.schur_conditional_precision(
            theta_full[np.ix_(F, F)], [F.index(h) for h in H])
        err = np.linalg.norm(est - exact, 2)
        bfs = gmrf.graph_distance(m.E, H, F)
        zeta = bfs - 2
        assert err <= (theta * 2) ** (zeta + 2)
        assert err <= prev + 1e-15  # monotone non-increasing
        prev = err
        assert err < 1e-12  # no core vertex borders the outside: exact


def test_window_sufficiency_error_decays_geometrically():
    """The marginal core precision converges to the window-local Schur
    complement geometrically in the certified decay order."""
    p, theta = 60, 0.2
    m = gmrf.assemble_precision(path_adjacency(p), theta, 2)
    H = [28, 29, 30, 31]
    points = []
    for rad in range(2, 10):
        F = list(range(28 - rad, 32 + rad))
        bfs = gmrf.graph_distance(m.E, H, F)
        exact = gmrf.schur_conditional_precision(m.J, H)
        JF = m.J[np.ix_(F, F)].toarray()
        local = gmrf.schur_conditional_precision(JF, [F.index(h) for h in H])
        err = np.linalg.norm(exact - local, 2)
        if err > 1e-14:
            points.append((bfs, math.log(err)))
    assert len(points) >= 5
    slope = np.polyfit([b for b, _ in points], [l for _, l in points], 1)[0]
    assert math.exp(slope) <= theta * 2 + 0.05


def test_hellinger_identical_zero():
    T = random_pd(np.random.default_rng(4), 6)
    assert gmrf.hellinger(T, T) == 0.0


def test_hellinger_one_dimensional_vs_quadrature():
    for v1, v2 in [(1.0, 2.0), (0.5, 3.0), (1.0, 1.0), (2.0, 0.1)]:
        closed = gmrf.hellinger(np.array([[v1]]), np.array([[v2]]))
        assert closed == pytest.approx(
            oracles.hellinger_quadrature_1d(v1, v2), abs=1e-6
        )


def test_hellinger_first_order_perturbation():
    rng = np.random.default_rng(5)
    r = 5
    T1 = random_pd(rng, r)
    B = rng.standard_normal((r, r))
    dT = B + B.T
    target = 1e-3
    dT *= target / np.linalg.norm(np.linalg.solve(T1, dT), "fro")
    x = np.linalg.norm(np.linalg.solve(T1, dT), "fro")
    d = gmrf.hellinger(T1, T1 + dT)
    assert abs(d - x / 4) <= 2 * r**1.5 * x**2


def test_hellinger_metric_on_triples():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A, B, C = (random_pd(rng, 4) for _ in range(3))
        dab = gmrf.hellinger(A, B)
        assert dab == pytest.approx(gmrf.hellinger(B, A), abs=1e-10)
        assert dab <= gmrf.hellinger(A, C) + gmrf.hellinger(C, B) + 1e-10
        assert 0.0 <= dab <= 1.0


def test_hellinger_rejects_bad_input():
    with pytest.raises(ValueError):
        gmrf.hellinger(np.eye(2), np.eye(3))
    with pytest.raises(gmrf.NotPositiveDefinite):
        gmrf.hellinger(np.eye(2), -np.eye(2))


def test_sym_kl_identical_zero():
    J = random_pd(np.random.default_rng(7), 3)
    assert gmrf.sym_kl(J, J) == 0.0


def test_sym_kl_scalar_case():
    assert gmrf.sym_kl([[1.0]], [[0.5]]) == pytest.approx(0.25)


def test_sym_kl_exact_symmetry():
    rng = np.random.default_rng(8)
    J1, J2 = random_pd(rng, 4), random_pd(rng, 4)
    assert gmrf.sym_kl(J1, J2) == gmrf.sym_kl(J2, J1)


def test_sym_kl_vs_monte_carlo():
    rng = np.random.default_rng(9)
    for trial in range(3):
        J1 = random_pd(rng, 4, shift=5)
        J2 = random_pd(rng, 4, shift=5)
        closed = gmrf.sym_kl(J1, J2)
        est, se = oracles.mc_sym_kl(J1, J2, n=200000, seed=100 + trial)
        assert abs(closed - est) <= 4 * se


def test_sym_kl_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(20):
        J1, J2 = random_pd(rng, 5), random_pd(rng, 5)
        assert gmrf.sym_kl(J1, J2) >= 0.0


def test_block_inversion_identity_random():
    """Schur output times the covariance submatrix is the identity."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        J = random_pd(rng, n)
        size = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=size, replace=False).tolist())
        S = gmrf.schur_conditional_precision(J, keep)
        theta_keep = np.linalg.inv(J)[np.ix_(keep, keep)]
        assert np.abs(S @ theta_keep - np.eye(size)).max() < 1e-10


def test_graph_distance():
    E = path_adjacency(10)
    two = sp.block_diag([path_adjacency(3), path_adjacency(3)]).tocsr()
    cases = [
        (E, [0], range(9), 9),
        (E, [0, 5], range(9), 4),
        (E, [3], [0, 1, 2, 4, 5], 0),  # a source lies outside
        (E, [3, 7], [3, 4, 5], 0),
        (E, [], range(5), math.inf),  # no source
        (E, [2], range(10), math.inf),  # nothing lies outside
        (two, [0], [0, 1, 2, 3, 5], math.inf),  # its component lies inside
        (two, [0, 4], [0, 1, 2, 4], 1),
    ]
    for adjacency, from_ids, within, want in cases:
        assert gmrf.graph_distance(adjacency, from_ids, within) == want
        assert oracles.exit_distance_paths(adjacency, from_ids, within) == want


@st.composite
def distance_inputs(draw):
    """A random symmetric graph on 1 to 40 vertices, from edgeless to
    dense, a set `within` that is sometimes every vertex, and sources that
    are none, some of `within`, or any vertices."""
    p = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.03, 0.06, 0.1, 0.3, 0.8]))
    upper = np.triu(rng.random((p, p)) < density, 1)
    E = sp.csr_matrix((upper | upper.T).astype(np.int8))
    keep = draw(st.sampled_from([0.3, 0.7, 0.9, 0.9, 1.0]))
    within = np.flatnonzero(rng.random(p) < keep)
    pool = draw(st.sampled_from([np.zeros(0, int), within, within, np.arange(p)]))
    size = min(len(pool), draw(st.integers(1, 4)))
    return E, rng.choice(pool, size, replace=False).tolist(), within.tolist()


@settings(max_examples=1000, deadline=None, database=None)
@given(distance_inputs())
def test_graph_distance_matches_shortest_paths(inputs):
    E, from_ids, within = inputs
    assert gmrf.graph_distance(E, from_ids, within) == \
        oracles.exit_distance_paths(E, from_ids, within)


def test_graph_distance_memory_is_window_local():
    """One call on a path of 10^6 vertices with a 20-vertex window holds
    nothing of the size of the graph."""
    E = path_adjacency(10**6)
    tracemalloc.start()
    try:
        assert gmrf.graph_distance(E, [500_010], range(500_000, 500_020)) == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # below one byte per vertex


def test_cdp_check_components_zero():
    two = sp.block_diag([path_adjacency(4), path_adjacency(4)]).tocsr().astype(np.int8)
    m = gmrf.assemble_precision(two, 0.2, 2)
    block = gmrf.BlockIndex.of(H=[0, 1], F=[0, 1, 2, 3])
    lhs, rhs = gmrf.cdp_check(m, block, zeta=5)
    assert lhs == 0.0


def test_cdp_check_zero_coupling():
    m = gmrf.assemble_precision(path_adjacency(8), 0.0, 2)
    block = gmrf.BlockIndex.of(H=[3], F=[1, 2, 3, 4, 5])
    lhs, rhs = gmrf.cdp_check(m, block, zeta=0)
    assert lhs == 0.0 and rhs == 0.0


def test_cdp_check_path_sweep():
    p, theta = 60, 0.2
    m = gmrf.assemble_precision(path_adjacency(p), theta, 2)
    mid = 30
    for zeta in (2, 4, 6, 8):
        rad = zeta + 1  # middle vertex to outside: bfs = zeta + 2
        F = list(range(mid - rad, mid + rad + 1))
        block = gmrf.BlockIndex.of(H=[mid], F=F)
        lhs, rhs = gmrf.cdp_check(m, block, zeta=zeta)
        assert lhs <= rhs
        assert lhs > 0.0


def test_cdp_check_rejects_uncertified_zeta():
    m = gmrf.assemble_precision(path_adjacency(20), 0.2, 2)
    F = list(range(5, 16))
    block = gmrf.BlockIndex.of(H=[10], F=F)
    # bfs distance from vertex 10 to outside is 6: certifies zeta = 4
    lhs, rhs = gmrf.cdp_check(m, block, zeta=4)
    assert lhs <= rhs
    with pytest.raises(ValueError):
        gmrf.cdp_check(m, block, zeta=5)


def test_cdp_check_matches_dense_blocks():
    """The coupling norm from the rows of R equals the dense formula over
    every column of V, on seeded geometric graphs with one-vertex and
    ball-shaped cores."""
    checked = 0
    for seed in range(4):
        graph = gg.generate(gg.FamilyParams(p=120, eta=1.0, d=3, beta=2.2,
                                            theta=0.12, seed=seed))
        m = gmrf.assemble_precision(graph.adjacency, 0.12, 3)
        rng = np.random.default_rng(seed)
        for center in rng.choice(graph.p, 4, replace=False).tolist():
            hops = sp.csgraph.shortest_path(m.E, unweighted=True,
                                            indices=[center])[0]
            for h_rad, rad in [(0, 1), (0, 3), (1, 2)]:
                block = gmrf.BlockIndex.of(
                    H=np.flatnonzero(hops <= h_rad),
                    F=rng.permutation(np.flatnonzero(hops <= h_rad + rad)))
                lhs, _ = gmrf.cdp_check(m, block, zeta=rad - 1)
                want = oracles.dense_cdp_lhs(m, block)
                assert lhs == pytest.approx(want, rel=1e-12, abs=0)
                checked += want > 0
    assert checked > 20


def test_cdp_check_memory_is_block_local():
    """One certificate on a path of 200,000 vertices with a 21-vertex F
    holds nothing of the size of the graph: the dense J_{R,V} block over
    every vertex outside F peaked at 73.6 MB of traced memory here."""
    m = gmrf.assemble_precision(path_adjacency(200_000), 0.2, 2)
    block = gmrf.BlockIndex.of(H=[100_000], F=range(99_990, 100_011))
    tracemalloc.start()
    try:
        lhs, rhs = gmrf.cdp_check(m, block, zeta=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < lhs <= rhs
    assert peak < 2**20


def _planted_graph(seed, jitter=0.0, rotate=True):
    rng = np.random.default_rng(5)
    tmpl = rng.uniform(0, 1.2, (6, 2))
    spec = gg.PlantSpec.from_array(tmpl, count=3, min_separation=7.0,
                                   clearance=3.1, rotate=rotate)
    prm = gg.FamilyParams(p=60, eta=0.25, d=2, beta=3.0, theta=0.15, seed=seed)
    g = gg.generate(prm, spec)
    if jitter:
        noise_rng = np.random.default_rng(seed + 999)
        pts = g.points.copy()
        planted = [v for plant in g.plants for v in plant]
        pts[planted] += noise_rng.uniform(-jitter, jitter, (len(planted), 2))
        adjacency = gg.build_edges(pts, prm.d, prm.beta, g.torus)
        g = gg.GeoGraph(params=prm, points=pts, adjacency=adjacency,
                        plants=g.plants)
    return g


def test_stationarity_gamma_exact_copies_flagged():
    g = _planted_graph(seed=11)
    m = gmrf.assemble_precision(g.adjacency, 0.15, 2)
    est = gmrf.stationarity_gamma(m, g, trials=10)
    assert est.exact_copies and est.pairs_evaluated == 0
    assert "exact_copies" not in {f.name for f in dataclasses.fields(est)}
    assert est.gamma == 0.0
    assert est.pairs_skipped > 0


def test_stationarity_gamma_single_vertex_marginals_match():
    g = _planted_graph(seed=11)
    m = gmrf.assemble_precision(g.adjacency, 0.15, 2)
    v0 = g.plants[0][0]
    v1 = g.plants[1][0]
    d = gmrf.hellinger(m.covariance_submatrix([v0]), m.covariance_submatrix([v1]))
    assert d <= 1e-9


def test_stationarity_gamma_jitter_sweep_finite():
    """Jittered copies give a finite nonnegative ratio at every scale.

    The ratio itself scales like 1/jitter here: vertex positions enter
    the model only through the discrete edge rule, so the Hellinger
    numerator cannot shrink with the jitter size.
    """
    for jitter in (1e-3, 1e-2):
        g = _planted_graph(seed=11, jitter=jitter, rotate=False)
        m = gmrf.assemble_precision(g.adjacency, 0.15, 2)
        est = gmrf.stationarity_gamma(m, g, trials=10, angle_grid=360)
        assert not est.exact_copies
        assert est.pairs_evaluated > 0
        assert np.isfinite(est.gamma) and est.gamma >= 0.0


def test_stationarity_gamma_requires_plants():
    prm = gg.FamilyParams(p=30, eta=1.0, d=2, beta=2.0, theta=0.1, seed=0)
    g = gg.generate(prm)
    m = gmrf.assemble_precision(g.adjacency, 0.1, 2)
    with pytest.raises(ValueError):
        gmrf.stationarity_gamma(m, g)


def test_samples_csv_round_trip(tmp_path):
    m = gmrf.assemble_precision(path_adjacency(7), 0.2, 2)
    s = m.sample(9, seed=13)
    path = tmp_path / "snap.csv"
    gmrf.write_samples(s, path)
    s2 = gmrf.read_samples(path)
    assert s2.n == 9 and s2.p == 7 and s2.seed == 13
    assert np.array_equal(s.data, s2.data)


def test_samples_reject_non_finite_entries(tmp_path):
    """A NaN or infinite entry is refused, from a CSV and from an array:
    pooled over copies it would otherwise settle every vertex with no
    edge."""
    path = tmp_path / "snap.csv"
    path.write_text("2 3 0\n0.1,0.2,0.3\n0.4,nan,0.6\n")
    with pytest.raises(ValueError,
                       match=r"non-finite sample at \(row, column\) \(1, 1\)"):
        gmrf.read_samples(path)
    data = np.zeros((2, 3))
    data[0, 2] = np.inf
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        gmrf.SampleMatrix(data=data, seed=0)


def test_samples_read_n_and_p_off_the_data():
    """n and p are the row and column counts of `data`, not fields; data
    that is not 2-D with at least one row is refused (a 1-D array was
    once accepted with n = 3, then failed on `.p`)."""
    s = gmrf.SampleMatrix(data=np.zeros((3, 5)), seed=0)
    assert (s.n, s.p) == (3, 5)
    assert [f.name for f in dataclasses.fields(s)] == ["data", "seed"]
    for shape in ((3,), (0, 5), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"2-D array with at least one row"):
            gmrf.SampleMatrix(data=np.zeros(shape), seed=0)
