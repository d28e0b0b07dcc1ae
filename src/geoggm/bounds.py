"""Closed-form counting and information-theoretic calculators.

Sample-complexity lower bound, family-size bound, regular-graph
enumeration, the uniform symmetrized-KL bound over the family, and
expected copy counts for both the continuous and the lattice search.
Combinatorial magnitudes are handled in natural-log space.
"""
from __future__ import annotations

import math


def check_family(eta: float, beta: float, d: int):
    """Refuse (eta, beta, d) outside the model class: eta, beta finite and
    positive, d >= 1 and eta*beta^2 > d (a positive Fano bound)."""
    for name, val in (("eta", eta), ("beta", beta)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val}")
    if eta <= 0 or beta <= 0 or d < 1:
        raise ValueError("eta, beta must be positive and d >= 1")
    if eta * beta * beta <= d:
        raise ValueError(
            f"eta*beta^2 = {eta * beta * beta} must exceed d = {d}: "
            "the family carries no entropy"
        )


def fano_lower_bound(eta: float, beta: float, d: int, theta: float,
                     delta: float = 0.0) -> float:
    """Minimum sample count below which any decoder stays unreliable.

    (1 - delta) * ln(eta*beta^2/d) / (2 (theta/(1-d*theta))^2), natural
    log.  Callers wanting an integer sample count should take the ceiling.
    `delta` is the tolerated residual error probability (0 = vanishing
    error).
    """
    check_family(eta, beta, d)
    if not (0 < theta and d * theta < 0.5):
        raise ValueError("need 0 < theta and d*theta < 1/2")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    rate = (theta / (1.0 - d * theta)) ** 2
    return (1.0 - delta) * math.log(eta * beta * beta / d) / (2.0 * rate)


def family_log_size_nats(eta: float, beta: float, d: int, p: int) -> float:
    """Lower bound on ln of the number of admissible graphs:
    (d*p/2) * ln(eta*beta^2/d)."""
    check_family(eta, beta, d)
    if p < 1:
        raise ValueError("p must be positive")
    return 0.5 * d * p * math.log(eta * beta * beta / d)


def sym_kl_family_bound(p: int, d: int, theta: float) -> float:
    """Uniform bound on the pairwise symmetrized KL divergence over the
    family: p*d*(theta/(1-d*theta))^2."""
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")
    if not 0 <= d * theta < 1:
        raise ValueError("need 0 <= d*theta < 1")
    return p * d * (theta / (1.0 - d * theta)) ** 2


def mckay_count(k: int, d: int) -> float:
    """Natural log of the asymptotic number of labeled d-regular graphs
    on k vertices:

        (kd)! / ((kd/2)! 2^{kd/2} (d!)^k) * exp(-(d^2-1)/4 - d^3/(12k)).

    Evaluated through log-gamma so k*d in the millions stays finite.  The
    formula is asymptotic in k; for exact small counts enumerate instead.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if k <= d:
        raise ValueError("need k > d")
    kd = k * d
    if kd % 2:
        raise ValueError("k*d must be even: no regular graph exists otherwise")
    return (
        math.lgamma(kd + 1)
        - math.lgamma(kd / 2 + 1)
        - (kd / 2) * math.log(2.0)
        - k * math.lgamma(d + 1)
        - (d * d - 1) / 4.0
        - d**3 / (12.0 * k)
    )


def expected_copies_continuous(r: int, eps: float, eta: float, p: int,
                               l_bar: float) -> float:
    """Expected number of eps-copies of a contiguous r-point pattern whose
    mean pairwise distance is l_bar: (2 pi l_bar / eps) (eta eps^2)^{r-1} p."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if r > p / 10:
        raise ValueError("formula holds for r small relative to p (r <= p/10)")
    if eps <= 0 or eta <= 0 or l_bar <= 0:
        raise ValueError("eps, eta, l_bar must be positive")
    return (2.0 * math.pi * l_bar / eps) * (eta * eps * eps) ** (r - 1) * p


def expected_copies_lattice(r: int, eps: float, eta: float, p: int) -> float:
    """Expected number of lattice placements (positions x 4 rotations)
    matching an r-node pattern: 4 p (eta eps^2)^{r-1}."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if eps <= 0 or eta <= 0 or p < 1:
        raise ValueError("eps, eta must be positive and p >= 1")
    return 4.0 * p * (eta * eps * eps) ** (r - 1)


def separated_copies_floor(r: int, eps: float, eta: float, p: int) -> float:
    """Guaranteed share of the lattice copies surviving the separation
    filter: expected_copies_lattice / ln^4 p."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return expected_copies_lattice(r, eps, eta, p) / math.log(p) ** 4
