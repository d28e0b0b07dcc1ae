"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from geoggm import bounds, gmrf
from geoggm import selector as sel
from geoggm.geometry import PatternTemplate, Torus, quantize

import oracles
import plantcfg


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_schur_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        A = rng.standard_normal((n, n))
        J = A @ A.T + n * np.eye(n)
        size = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=size, replace=False).tolist())
        got = gmrf.schur_conditional_precision(J, keep)
        want = np.linalg.inv(np.linalg.inv(J)[np.ix_(keep, keep)])
        rel = np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro")
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        1, "block-elimination precision matches the inverse covariance "
        "submatrix on 200 random models",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def _caterpillar(p, d, seed):
    """Path backbone with random pendant leaves; degree capped at d."""
    rng = np.random.default_rng(seed)
    backbone = (2 * p) // 3
    rows, cols = [], []
    deg = np.zeros(p, dtype=int)
    for u in range(backbone - 1):
        rows += [u, u + 1]
        cols += [u + 1, u]
        deg[u] += 1
        deg[u + 1] += 1
    next_leaf = backbone
    while next_leaf < p:
        host = int(rng.integers(1, backbone - 1))
        if deg[host] < d:
            rows += [host, next_leaf]
            cols += [next_leaf, host]
            deg[host] += 1
            deg[next_leaf] += 1
            next_leaf += 1
    return sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(p, p)
    )


def test_criterion_02_cdp_bound():
    t0 = time.perf_counter()
    cases = []
    # paths at both coupling levels
    path = sp.diags([np.ones(59), np.ones(59)], [1, -1], format="csr").astype(np.int8)
    cases.append((path, 2, 0.1, 30))    # theta d = 0.2
    cases.append((path, 2, 0.2, 30))    # theta d = 0.4
    # random bounded-degree graphs at both coupling levels
    for seed in (5, 6):
        cat = _caterpillar(100, 3, seed)
        cases.append((cat, 3, 0.2 / 3, 33))
        cases.append((cat, 3, 0.4 / 3, 33))
    checked = violations = 0
    for E, d, theta, center in cases:
        model = gmrf.assemble_precision(E, theta, d)
        for zeta in range(1, 11):
            rad = zeta + 1
            dist = np.full(E.shape[0], -1)
            frontier = [center]
            dist[center] = 0
            level = 0
            while frontier and level < rad:
                level += 1
                nxt = []
                for v in frontier:
                    for u in E.indices[E.indptr[v]:E.indptr[v + 1]]:
                        if dist[u] < 0:
                            dist[u] = level
                            nxt.append(int(u))
                frontier = nxt
            F = sorted(np.nonzero((dist >= 0))[0].tolist())
            # inf when F holds the whole component of the center
            if gmrf.graph_distance(E, [center], F) != zeta + 2:
                continue
            lhs, rhs = gmrf.cdp_check(
                model, gmrf.BlockIndex.of(H=[center], F=F), zeta=zeta
            )
            checked += 1
            if lhs > rhs:
                violations += 1
    elapsed = time.perf_counter() - t0
    _report(
        2, "walk-expansion coupling norm stays under (theta d)^(zeta+2) on "
        "paths and random bounded-degree graphs",
        checked >= 30 and violations == 0 and elapsed < 10.0,
        f"{checked} blocks checked, {violations} violations, {elapsed:.2f} s",
    )


def test_criterion_03_local_precision_decay():
    t0 = time.perf_counter()
    p, theta, d = 60, 0.2, 2
    E = sp.diags([np.ones(p - 1), np.ones(p - 1)], [1, -1], format="csr").astype(np.int8)
    model = gmrf.assemble_precision(E, theta, d)
    theta_full = model.covariance_submatrix(np.arange(model.p))
    H = [28, 29, 30, 31]
    exact_core_inv = np.linalg.inv(model.J[np.ix_(H, H)].toarray())
    envelope_ok = True
    points = []
    for rad in range(2, 10):
        F = list(range(28 - rad, 32 + rad))
        bfs = gmrf.graph_distance(E, H, F)
        zeta = bfs - 2
        # the Schur complement detect_edges takes, here of the exact
        # covariance over F, at the core's positions in F
        est = gmrf.schur_conditional_precision(
            theta_full[np.ix_(F, F)], [F.index(h) for h in H])
        direct_err = np.linalg.norm(est - exact_core_inv, 2)
        if direct_err > (theta * d) ** (zeta + 2):
            envelope_ok = False
        # window-sufficiency error: the genuinely decaying quantity behind
        # the truncation guarantee
        marginal = gmrf.schur_conditional_precision(model.J, H)
        JF = model.J[np.ix_(F, F)].toarray()
        local = gmrf.schur_conditional_precision(JF, [F.index(h) for h in H])
        err = np.linalg.norm(marginal - local, 2)
        if err > 1e-14:
            points.append((zeta, math.log(err)))
    slope = np.polyfit([z for z, _ in points], [l for _, l in points], 1)[0]
    ratio = math.exp(slope)
    elapsed = time.perf_counter() - t0
    _report(
        3, "windowed precision error decays geometrically on the path model",
        envelope_ok and len(points) >= 5 and ratio <= theta * d + 0.05
        and elapsed < 5.0,
        f"fitted ratio {ratio:.4f} <= {theta * d + 0.05}, {elapsed:.2f} s",
    )


def test_criterion_04_oracle_covariance_exact_recovery():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        graph, eps = plantcfg.generic_plant_graph(p=500, theta=0.1, seed=seed,
                                                  r_t=25, q_count=20, d=3)
        params = sel.SelectorParams(r=25, eps=eps, w=2 * eps, theta=0.1,
                                    min_zeta=6, k_cap=40)
        model = gmrf.assemble_precision(graph.adjacency, 0.1, 3)
        report = sel.run_selection(graph, params, model=model, exact_cov=True)
        if (
            report.zero_one_loss == 0
            and not report.undecided_vertices
            and all(z >= 6 for z in report.achieved_zetas)
        ):
            wins += 1
    elapsed = time.perf_counter() - t0
    _report(
        4, "population-covariance recovery is exact on 20/20 seeded graphs "
        "(p=500, d=3, theta=0.1, zeta >= 6 enforced)",
        wins == 20 and elapsed < 60.0,
        f"{wins}/20 exact, {elapsed:.1f} s",
    )


def test_criterion_05_consistency_trend():
    t0 = time.perf_counter()
    theta, n = 0.11, 10
    strict = 0
    rows = []
    for seed in range(20):
        errs = []
        for p in (500, 2000, 8000):
            graph, eps, _ = plantcfg.grid_plant_graph(p=p, theta=theta,
                                                      seed=seed)
            model = gmrf.assemble_precision(graph.adjacency, theta,
                                            graph.params.d)
            samples = model.sample(n, seed + 10**6)
            params = plantcfg.grid_plant_selector_params(theta, eps)
            report = sel.run_selection(graph, params, samples=samples)
            errs.append((report.missed_edges + report.false_edges)
                        / max(1, report.true_edge_count))
        rows.append(errs)
        if errs[0] > errs[1] > errs[2]:
            strict += 1
    elapsed = time.perf_counter() - t0
    means = np.mean(rows, axis=0)
    _report(
        5, "edge error rate strictly decreases along p in (500, 2000, 8000) "
        "at fixed n=10",
        strict >= 18 and elapsed < 1800.0,
        f"{strict}/20 strict decreases, mean rates "
        f"{means[0]:.3f} > {means[1]:.3f} > {means[2]:.4f}, {elapsed:.0f} s",
    )


def test_criterion_06_pooled_scm_concentration():
    t0 = time.perf_counter()
    theta, n, r_t = 0.2, 50, 10
    graph, eps, cells = plantcfg.grid_plant_graph(p=400, theta=theta, seed=3,
                                                  r_t=r_t, grid=5)
    model = gmrf.assemble_precision(graph.adjacency, theta, graph.params.d)
    lattice = sel._quantize_with_backoff(graph, eps)
    template = PatternTemplate.from_offsets(cells)
    copies = sel.find_copies(lattice, template, graph)
    sel.greedy_separated(copies, w=2 * eps)
    n_prime = len(copies.separated)
    assert n_prime * n >= 2000
    theta_f = model.covariance_submatrix(copies.matches[0])
    spectral = max(
        np.linalg.norm(model.covariance_submatrix(copies.matches[k]), 2)
        for k in copies.separated
    )
    band = spectral * (r_t / math.sqrt(n_prime * n) + 0.1)
    inside = 0
    for trial in range(100):
        samples = model.sample(n, seed=50000 + trial)
        pooled = sel.pooled_scm(samples, copies)
        if np.linalg.norm(pooled - theta_f, "fro") <= band:
            inside += 1
    elapsed = time.perf_counter() - t0
    _report(
        6, "pooled covariance concentrates inside the stated band "
        "(N'n >= 2000, delta = 0.1)",
        inside >= 95 and elapsed < 300.0,
        f"{inside}/100 inside, band {band:.3f}, N'={n_prime}, {elapsed:.1f} s",
    )


def test_criterion_07_hellinger_and_kl_formulas():
    t0 = time.perf_counter()
    grid = [0.2, 0.5, 1.0, 2.0, 5.0]
    cases = [(a, b) for a in grid for b in grid][:20]
    hell_ok = all(
        abs(
            gmrf.hellinger(np.array([[a]]), np.array([[b]]))
            - oracles.hellinger_quadrature_1d(a, b)
        ) <= 1e-6
        for a, b in cases
    )
    rng = np.random.default_rng(77)
    kl_ok = True
    worst_z = 0.0
    for trial in range(20):
        A = rng.standard_normal((4, 4))
        J1 = A @ A.T + 5 * np.eye(4)
        B = rng.standard_normal((4, 4))
        J2 = B @ B.T + 5 * np.eye(4)
        closed = gmrf.sym_kl(J1, J2)
        est, se = oracles.mc_sym_kl(J1, J2, n=500000, seed=900 + trial)
        z = abs(closed - est) / se
        worst_z = max(worst_z, z)
        if z > 3.0:
            kl_ok = False
    elapsed = time.perf_counter() - t0
    _report(
        7, "closed-form Hellinger matches quadrature and the divergence "
        "trace formula matches Monte Carlo",
        hell_ok and kl_ok and elapsed < 120.0,
        f"20 quadrature cases within 1e-6, worst MC z {worst_z:.2f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_08_regular_graph_enumeration():
    t0 = time.perf_counter()
    exact_43 = oracles.count_regular_graphs(4, 3)
    exact_52 = oracles.count_regular_graphs(5, 2)
    exact_16 = oracles.count_two_regular(16)
    approx_16 = math.exp(bounds.mckay_count(16, 2))
    rel = abs(approx_16 - exact_16) / exact_16
    elapsed = time.perf_counter() - t0
    _report(
        8, "regular-graph counts: exact enumeration gives 1 and 12; the "
        "asymptotic formula is within 10% of the cycle-cover recursion",
        exact_43 == 1 and exact_52 == 12 and rel < 0.10 and elapsed < 60.0,
        f"rel err at k=16: {rel:.3f}, {elapsed:.1f} s",
    )


def test_criterion_09_bound_chain_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        eta = float(rng.uniform(0.2, 4.0))
        beta = float(math.sqrt(d / eta) * rng.uniform(1.1, 4.0))
        theta = float(rng.uniform(0.01, 0.49 / d))
        p = int(rng.integers(10, 5000))
        lhs = bounds.fano_lower_bound(eta, beta, d, theta) * \
            bounds.sym_kl_family_bound(p, d, theta)
        rhs = bounds.family_log_size_nats(eta, beta, d, p)
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - t0
    _report(
        9, "sample bound times divergence bound recomposes the family "
        "entropy in nats",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.3f} s",
    )


def test_criterion_10_copy_count_formulas():
    t0 = time.perf_counter()
    # lattice: Bernoulli occupancy, asymmetric two-node pattern, raw
    # position-by-rotation scan
    rng = np.random.default_rng(10)
    m, q, trials = 200, 0.01, 500
    delta = (1, 2)
    counts = np.empty(trials)
    for t in range(trials):
        occ = rng.random((m, m)) < q
        total = 0
        for da, db in [(1, 2), (-2, 1), (-1, -2), (2, -1)]:  # knight turns
            total += int((occ & np.roll(occ, (-da, -db), axis=(0, 1))).sum())
        counts[t] = total
    p_eff = q * m * m
    lattice_expected = bounds.expected_copies_lattice(
        2, 1.0, p_eff / m**2, int(round(p_eff))
    )
    lattice_rel = abs(counts.mean() - lattice_expected) / lattice_expected

    # continuous: draws of uniform points, ordered pairs whose separation
    # falls in the width-eps ring around the template length
    p, eta, eps, l_bar, draws = 3000, 1.0, 0.05, 1.0, 200
    s = math.sqrt(p / eta)
    expected = bounds.expected_copies_continuous(2, eps, eta, p, l_bar)
    totals = np.empty(draws)
    rng2 = np.random.default_rng(11)
    for t in range(draws):
        pts = rng2.uniform(0, s, (p, 2))
        pairs = oracles.kdtree_close_pairs(pts, s, l_bar + eps / 2)
        d = np.mod(pts[pairs[:, 0]] - pts[pairs[:, 1]] + s / 2, s) - s / 2
        dist = np.hypot(d[:, 0], d[:, 1])
        totals[t] = 2 * int((dist >= l_bar - eps / 2).sum())  # ordered pairs
    continuous_rel = abs(totals.mean() - expected) / expected
    elapsed = time.perf_counter() - t0
    _report(
        10, "expected copy counts match Monte Carlo (lattice within 10%, "
        "continuous within 15%)",
        lattice_rel < 0.10 and continuous_rel < 0.15 and elapsed < 600.0,
        f"lattice rel {lattice_rel:.3f}, continuous rel {continuous_rel:.3f}, "
        f"{elapsed:.1f} s",
    )


class _Cloud:
    def __init__(self, pts, s):
        self.points = np.asarray(pts, float)
        self.torus = Torus(s)


def test_criterion_11_pattern_search_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    shapes = [
        [(0, 0), (1, 2)],
        [(0, 0), (0, 1), (1, 1)],
        [(0, 0), (2, 0), (1, 1)],
        [(0, 0), (0, 2), (2, 0), (2, 2)],
    ]
    mismatches = 0
    for trial in range(100):
        m = int(rng.integers(15, 101))
        q = float(rng.uniform(0.03, 0.25))
        occ = rng.random((m, m)) < q
        nodes = [tuple(x) for x in np.argwhere(occ)]
        if len(nodes) < 4:
            continue
        cloud = _Cloud([(i, j) for i, j in nodes], float(m))
        lattice = quantize(cloud, 1.0)
        cells = shapes[trial % len(shapes)]
        template = PatternTemplate.from_offsets(cells)
        copies = sel.find_copies(lattice, template, cloud)
        got = {frozenset(row) for row in copies.matches.tolist()}
        grid = oracles.dense_grid(lattice)
        want = {
            frozenset(grid[nd] for nd in nodes_)
            for *_, nodes_ in oracles.brute_copy_scan(occ.tolist(), cells)
        }
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        11, "lattice pattern search equals the brute-force "
        "position-by-rotation scan on 100 random lattices",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f} s",
    )
