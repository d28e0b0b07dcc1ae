import math

import numpy as np
import pytest

from geoggm import bounds
from geoggm import gmrf
from geoggm import graphgen as gg

import oracles


def test_fano_lower_bound_example():
    got = bounds.fano_lower_bound(eta=1.0, beta=4.0, d=4, theta=0.1)
    want = math.log(4.0) / (2 * (0.1 / 0.6) ** 2)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(24.953, abs=5e-3)


def test_fano_lower_bound_boundary_errors():
    with pytest.raises(ValueError):
        bounds.fano_lower_bound(eta=1.0, beta=2.0, d=4, theta=0.1)  # ratio 1
    with pytest.raises(ValueError):
        bounds.fano_lower_bound(eta=1.0, beta=4.0, d=4, theta=0.0)
    with pytest.raises(ValueError):
        bounds.fano_lower_bound(eta=1.0, beta=4.0, d=4, theta=0.125)


def test_family_boundary_refused_by_params_and_bounds():
    """eta*beta^2 = d exactly (0.5 * 2^2 = 2) lies outside the model class
    for the graph family and the Fano bound alike."""
    with pytest.raises(ValueError, match="must exceed d"):
        gg.FamilyParams(p=100, eta=0.5, d=2, beta=2.0, theta=0.1)
    with pytest.raises(ValueError, match="must exceed d"):
        bounds.fano_lower_bound(eta=0.5, beta=2.0, d=2, theta=0.1)


@pytest.mark.parametrize("eta, beta", [(math.nan, 4.0), (math.inf, 4.0),
                                       (1.0, math.nan), (1.0, math.inf)])
def test_check_family_refuses_non_finite(eta, beta):
    for calc in (lambda: bounds.fano_lower_bound(eta, beta, 4, 0.1),
                 lambda: bounds.family_log_size_nats(eta, beta, 4, 100)):
        with pytest.raises(ValueError, match="must be finite"):
            calc()


def test_fano_lower_bound_diverges_as_theta_vanishes():
    thetas = [0.1, 0.05, 0.02, 0.01, 0.005]
    vals = [bounds.fano_lower_bound(1.0, 4.0, 4, t) for t in thetas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # theta^-2 growth up to the (1 - d*theta)^2 correction
    ratio = vals[-1] / vals[-3]
    assert ratio == pytest.approx((thetas[-3] / thetas[-1]) ** 2, rel=0.25)


def test_fano_lower_bound_delta():
    full = bounds.fano_lower_bound(1.0, 4.0, 4, 0.1)
    half = bounds.fano_lower_bound(1.0, 4.0, 4, 0.1, delta=0.5)
    assert half == pytest.approx(0.5 * full, rel=1e-12)


def _family_bits(eta, beta, d, p):
    return bounds.family_log_size_nats(eta, beta, d, p) / math.log(2.0)


def test_family_log_size_examples():
    # eta * beta^2 = 4d: ratio 4, log2 = 2, so (d p / 2) * 2 = d p
    assert _family_bits(1.0, math.sqrt(4 * 2), 2, 100) == pytest.approx(200.0)
    assert _family_bits(1.0, math.sqrt(4 * 3), 3, 50) == pytest.approx(150.0)


def test_family_log_size_boundary():
    with pytest.raises(ValueError):
        _family_bits(1.0, 2.0, 4, 100)  # eta beta^2 = d


def test_family_log_size_linear_in_p():
    a = _family_bits(1.0, 4.0, 3, 100)
    b = _family_bits(1.0, 4.0, 3, 200)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_sym_kl_family_bound_examples():
    assert bounds.sym_kl_family_bound(10, 2, 0.0) == 0.0
    assert bounds.sym_kl_family_bound(10, 2, 0.2) == pytest.approx(20.0 / 9.0)


def test_sym_kl_family_bound_dominates_actual_divergences():
    """Every pair of admissible adjacencies stays under the bound."""
    import itertools

    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    p, d, theta = 8, 2, 0.2
    models = []
    for _ in range(6):
        adj = np.zeros((p, p), dtype=np.int8)
        deg = np.zeros(p, dtype=int)
        order = [(u, v) for u in range(p) for v in range(u + 1, p)]
        rng.shuffle(order)
        for u, v in order:
            if deg[u] < d and deg[v] < d and rng.random() < 0.6:
                adj[u, v] = adj[v, u] = 1
                deg[u] += 1
                deg[v] += 1
        models.append(np.eye(p) + theta * adj)
    cap = bounds.sym_kl_family_bound(p, d, theta)
    for J1, J2 in itertools.combinations(models, 2):
        assert gmrf.sym_kl(J1, J2) <= cap + 1e-12


def test_mckay_count_exact_small_cases():
    # the unique 3-regular graph on 4 vertices is the complete one
    assert oracles.count_regular_graphs(4, 3) == 1
    # 2-regular on 5 vertices: the twelve labeled 5-cycles
    assert oracles.count_regular_graphs(5, 2) == 12
    ratio_43 = math.exp(bounds.mckay_count(4, 3)) / 1.0
    assert 0.1 < ratio_43 < 10.0  # asymptotic formula, recorded not asserted
    ratio_52 = math.exp(bounds.mckay_count(5, 2)) / 12.0
    assert 1 / 1.5 < ratio_52 < 1.5


def test_mckay_count_vs_cycle_cover_recursion():
    exact = oracles.count_two_regular(16)
    approx = math.exp(bounds.mckay_count(16, 2))
    assert abs(approx - exact) / exact < 0.10


def test_mckay_count_parity_and_domain():
    with pytest.raises(ValueError):
        bounds.mckay_count(5, 3)  # kd odd
    with pytest.raises(ValueError):
        bounds.mckay_count(3, 3)  # k <= d
    with pytest.raises(ValueError):
        bounds.mckay_count(10, 0)


def test_mckay_count_log_space_stability():
    val = bounds.mckay_count(500000, 2)
    assert math.isfinite(val)
    val = bounds.mckay_count(250000, 4)
    assert math.isfinite(val)


def test_expected_copies_continuous_collapse():
    # r = 2: the exponent collapses to a single eta eps^2 factor
    val = bounds.expected_copies_continuous(2, 0.1, 1.0, 1000, l_bar=2.0)
    assert val == pytest.approx(2 * math.pi * 2.0 * 0.1 * 1.0 * 1000)


def test_expected_copies_continuous_domain():
    with pytest.raises(ValueError):
        bounds.expected_copies_continuous(1, 0.1, 1.0, 100, 1.0)
    with pytest.raises(ValueError):
        bounds.expected_copies_continuous(30, 0.1, 1.0, 100, 1.0)  # r > p/10


def test_expected_copies_lattice_scaling():
    # 4 p (eta eps^2)^(r-1): at r = 3, doubling eps scales by 2^4
    base = bounds.expected_copies_lattice(3, 0.1, 1.0, 1000)
    doubled = bounds.expected_copies_lattice(3, 0.2, 1.0, 1000)
    assert doubled == pytest.approx(16 * base)
    assert bounds.expected_copies_lattice(2, 0.1, 2.0, 500) == pytest.approx(
        4 * 500 * 2.0 * 0.01
    )


def test_expected_copies_continuous_eps_scaling():
    # (2 pi l / eps) (eta eps^2)^(r-1) p: at r = 3, doubling eps scales 2^3
    base = bounds.expected_copies_continuous(3, 0.1, 1.0, 1000, 1.0)
    doubled = bounds.expected_copies_continuous(3, 0.2, 1.0, 1000, 1.0)
    assert doubled == pytest.approx(8 * base)


def test_separated_copies_floor():
    lat = bounds.expected_copies_lattice(2, 0.1, 1.0, 1000)
    floor = bounds.separated_copies_floor(2, 0.1, 1.0, 1000)
    assert floor == pytest.approx(lat / math.log(1000) ** 4)


def test_bound_chain_identity():
    """The sample bound times the divergence bound recomposes the family
    entropy in nats exactly."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        eta = float(rng.uniform(0.2, 4.0))
        beta = float(math.sqrt(d / eta) * rng.uniform(1.1, 4.0))
        theta = float(rng.uniform(0.01, 0.49 / d))
        p = int(rng.integers(10, 5000))
        n_min = bounds.fano_lower_bound(eta, beta, d, theta)
        kl_cap = bounds.sym_kl_family_bound(p, d, theta)
        entropy = bounds.family_log_size_nats(eta, beta, d, p)
        assert n_min * kl_cap == pytest.approx(entropy, rel=1e-12)


def test_copy_counts_monotone_in_p_and_eta():
    for r in (2, 3):
        a = bounds.expected_copies_lattice(r, 0.1, 1.0, 1000)
        assert bounds.expected_copies_lattice(r, 0.1, 1.0, 2000) > a
        assert bounds.expected_copies_lattice(r, 0.1, 2.0, 1000) > a
        c = bounds.expected_copies_continuous(r, 0.1, 1.0, 1000, 1.0)
        assert bounds.expected_copies_continuous(r, 0.1, 1.0, 2000, 1.0) > c
        assert bounds.expected_copies_continuous(r, 0.1, 2.0, 1000, 1.0) > c


def test_lattice_copy_count_monte_carlo():
    """Bernoulli-occupancy scan against the closed form (reduced-size
    version of the acceptance run)."""
    rng = np.random.default_rng(2)
    m, q, trials = 60, 0.03, 200
    cells = [(0, 0), (1, 2)]
    counts = []
    for _ in range(trials):
        occ = rng.random((m, m)) < q
        counts.append(oracles.raw_rotation_position_matches(occ, cells))
    p_eff = q * m * m
    eta_eps_sq = p_eff / m**2
    want = bounds.expected_copies_lattice(2, 1.0, eta_eps_sq, int(round(p_eff)))
    got = float(np.mean(counts))
    assert abs(got - want) / want < 0.10
