"""Planted-graph configurations shared by the selector and acceptance tests.

Two families:

* grid plants: the pattern lives on the selection lattice itself (exact
  node alignment, translations only), used for sampled-recovery sweeps;
* generic plants: off-grid patterns with distinct pairwise distances,
  safe under the four grid rotations, used for oracle-covariance runs.

Both keep copies mutually out of edge range so every copy is an isolated
component wired identically to the others.
"""
import math

import numpy as np

from geoggm import graphgen as gg
from geoggm.harness import _plant_template_cells
from geoggm.selector import SelectorParams


def grid_plant_graph(p, theta, seed, r_t=20, grid=7, d=2, eps=0.06,
                     master=123, count=None):
    """All-plants graph from an on-lattice pattern; p must be r_t * Q.

    Template points sit near (not on) their cells: a sub-cell jitter keeps
    all pairwise distances distinct so the greedy wiring has no ties,
    while nearest-node rounding still recovers the cell pattern exactly.
    With `count` < p / r_t plants, the other vertices are a uniform
    background kept out of edge range (beta + eps) of every plant.
    """
    if count is None:
        if p % r_t:
            raise ValueError("p must be a multiple of the plant size")
        count = p // r_t
    s_nominal = math.sqrt(p)  # density 1 before rounding
    m = round(s_nominal / eps)
    s = m * eps
    eta = p / s**2
    beta = 1.02 * math.sqrt(d / eta)
    cells = _plant_template_cells(r_t, grid, master=master)
    # sub-cell jitter: after per-axis normalization the fractional parts
    # stay in [0, 0.4], so nearest-node rounding still hits the cells
    jitter_rng = np.random.default_rng(master + 1)
    jitter = jitter_rng.uniform(-0.2, 0.2, size=(r_t, 2))
    template = (np.array(cells, dtype=float) + jitter) * eps
    diameter = (grid - 1 + 0.4) * eps * math.sqrt(2.0)
    separation = beta + 2.0 * diameter + eps
    spec = gg.PlantSpec.from_array(
        template, count=count, min_separation=separation,
        clearance=0.0 if count * r_t == p else beta + eps, rotate=False,
        snap=eps,
    )
    params = gg.FamilyParams(p=p, eta=eta, d=d, beta=beta, theta=theta,
                             seed=seed)
    graph = gg.generate(params, spec)
    return graph, eps, cells


def grid_plant_selector_params(theta, eps, r_t=20, grid=7, **overrides):
    defaults = dict(r=r_t, eps=eps, w=2 * eps, theta=theta, k_cap=grid + 11)
    defaults.update(overrides)
    return SelectorParams(**defaults)


def _generic_template(r_t, box_side, min_dist, eps, seed):
    """Random pattern with distinct pairwise distances, kept off the cell
    midlines so nearest-node rounding is stable under grid rotations.

    Points are continuous (no grid snapping: snapped coordinates create
    exact distance ties, which rotated copies would break differently).
    After anchoring the bounding box at the origin, any coordinate near a
    rounding midline is nudged off it.
    """
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    attempts = 0
    while len(pts) < r_t:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("could not build a generic template")
        q = rng.uniform(0, box_side, size=2)
        if all(np.hypot(*(q - w)) >= min_dist for w in pts):
            pts.append(q)
    T = np.array(pts)
    T -= T.min(axis=0)
    frac = np.mod(T / eps, 1.0)
    T[np.abs(frac - 0.5) < 0.08] += 0.16 * eps
    return T


def generic_plant_graph(p, theta, seed, r_t=25, q_count=20, d=3,
                        template_seed=1234):
    """All-plants graph of rotated generic copies; isolated components."""
    if q_count * r_t != p:
        raise ValueError("need p = q_count * r_t")
    s_nominal = math.sqrt(p)
    eps = 0.03
    m = round(s_nominal / eps)
    s = m * eps
    eta = p / s**2
    beta = 1.02 * math.sqrt(d / eta)
    box = 0.72
    template = _generic_template(r_t, box, min_dist=3.2 * eps, eps=eps,
                                 seed=template_seed)
    diameter = float(np.hypot(*(template.max(0) - template.min(0))))
    separation = beta + 2.0 * diameter + eps
    spec = gg.PlantSpec.from_array(
        template, count=q_count, min_separation=separation,
        clearance=0.0, rotate=True, snap=eps,
    )
    params = gg.FamilyParams(p=p, eta=eta, d=d, beta=beta, theta=theta,
                             seed=seed)
    graph = gg.generate(params, spec)
    return graph, eps
