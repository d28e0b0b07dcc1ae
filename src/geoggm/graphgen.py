"""Synthesis of random geometric graphs with bounded degree and edge length.

Vertices are dropped uniformly on a square torus; edges follow a
deterministic greedy rule over candidate pairs sorted by length, so the
wiring is a function of local geometry alone and exact geometric copies of
a vertex pattern carry identical induced subgraphs.  An optional planting
mode stamps a fixed point pattern at well-separated locations to give
experiments a controllable number of exact copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .geometry import Torus, grid_rotate


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the admissible graph family.

    p vertices at density eta on a torus of side sqrt(p/eta); vertex
    degrees capped at d, edge lengths capped at beta, common coupling
    theta.  Requires d*theta < 1/2, eta*beta^2 > d and beta < s/2.
    """

    p: int
    eta: float
    d: int
    beta: float
    theta: float
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.eta <= 0 or self.beta <= 0:
            raise ValueError("eta and beta must be positive")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if self.d * self.theta >= 0.5:
            raise ValueError(f"d*theta = {self.d * self.theta} must be < 1/2")
        if self.eta * self.beta**2 <= self.d:
            raise ValueError(
                f"eta*beta^2 = {self.eta * self.beta ** 2} must exceed d = {self.d}"
            )
        if self.beta >= 0.5 * self.s:
            raise ValueError("beta must be below half the torus side")

    @property
    def s(self) -> float:
        """Side of the square domain, sqrt(p/eta)."""
        return math.sqrt(self.p / self.eta)


@dataclass(frozen=True)
class PlantSpec:
    """Recipe for stamping copies of a fixed point pattern into the graph.

    `template` holds local offsets (r x 2, nonnegative, anchored at the
    pattern's lower-left corner).  `count` copies are placed with pairwise
    anchor separation at least `min_separation`; background vertices keep
    at least `clearance` away from every planted vertex.  Anchors can be
    snapped to a grid of pitch `snap` so that copies land on exact lattice
    translates of each other.
    """

    template: tuple[tuple[float, float], ...]
    count: int
    min_separation: float
    clearance: float
    rotate: bool = True
    snap: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.min_separation <= 0 or self.clearance < 0:
            raise ValueError("separations must be positive")
        if not self.template:
            raise ValueError("template must be nonempty")

    @classmethod
    def from_array(cls, template, count, min_separation, clearance,
                   rotate=True, snap=None) -> "PlantSpec":
        T = np.asarray(template, dtype=float)
        T = T - T.min(axis=0)
        return cls(tuple(map(tuple, T.tolist())), count, min_separation,
                   clearance, rotate, snap)

    @property
    def size(self) -> int:
        return len(self.template)

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.template, dtype=float)


@dataclass
class GeoGraph:
    """A geometric graph: points on a torus plus sparse symmetric adjacency.

    `plants`, when present, lists the vertex ids of each planted copy in
    template slot order (slot t of every copy is the image of template
    point t).
    """

    params: FamilyParams
    points: np.ndarray
    adjacency: csr_matrix
    torus: Torus
    plants: tuple[tuple[int, ...], ...] | None = None
    plant_template: np.ndarray | None = None

    @property
    def p(self) -> int:
        return len(self.points)

    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel().astype(int)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjacency.indices[
            self.adjacency.indptr[v]:self.adjacency.indptr[v + 1]
        ]

    def edges(self) -> list[tuple[int, int]]:
        coo = self.adjacency.tocoo()
        return sorted((int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v)

    def edge_count(self) -> int:
        return self.adjacency.nnz // 2


def _candidate_pairs(points: np.ndarray, beta: float, torus: Torus):
    """All vertex pairs within toroidal distance beta, with their wrapped
    displacements and distances."""
    if beta >= 0.5 * torus.s:
        raise ValueError("beta must be below half the torus side")
    tree = cKDTree(torus.wrap(points), boxsize=torus.s)
    pairs = tree.query_pairs(r=beta, output_type="ndarray").reshape(-1, 2)
    delta = torus.delta(points[pairs[:, 0]], points[pairs[:, 1]])
    return pairs, delta, np.hypot(delta[:, 0], delta[:, 1])


def build_edges(points, d: int, beta: float, torus: Torus) -> csr_matrix:
    """Deterministic bounded-degree wiring of a point set.

    Candidate edges are all pairs within toroidal distance beta, sorted
    globally by length; each is accepted greedily iff both endpoints still
    have degree below d.  Lengths equal within 1e-9 of the torus side are
    treated as tied and ordered by the pair's canonical displacement
    vector, then by endpoint coordinates, so the rule is a function of
    relative geometry only and exact translated copies of a pattern (with
    matching surroundings) are wired identically.
    """
    P = np.asarray(points, dtype=float)
    n = len(P)
    pairs, delta, dist = _candidate_pairs(P, beta, torus)
    a, b = P[pairs[:, 0]], P[pairs[:, 1]]
    swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
    lo = np.where(swap[:, None], b, a)
    tol = 1e-9 * torus.s
    dist_key = np.round(dist / tol).astype(np.int64)
    flip = (delta[:, 0] < 0) | ((delta[:, 0] == 0) & (delta[:, 1] < 0))
    delta[flip] *= -1.0
    dx_key = np.round(delta[:, 0] / tol).astype(np.int64)
    dy_key = np.round(delta[:, 1] / tol).astype(np.int64)
    order = np.lexsort((lo[:, 1], lo[:, 0], dy_key, dx_key, dist_key))
    deg = [0] * n
    kept = []
    for k, (u, v) in enumerate(zip(pairs[order, 0].tolist(),
                                   pairs[order, 1].tolist())):
        if deg[u] < d and deg[v] < d:
            deg[u] += 1
            deg[v] += 1
            kept.append(k)
    uv = pairs[order[kept]]
    # each edge enters as (u, v) then (v, u), in acceptance order
    adj = csr_matrix(
        (np.ones(2 * len(uv), dtype=np.int8), (uv.ravel(), uv[:, ::-1].ravel())),
        shape=(n, n),
    )
    adj.sum_duplicates()
    return adj


@dataclass
class ValidationReport:
    """Constraint audit of a generated graph; violations are data."""

    degree_violations: list[tuple[int, int]]
    length_violations: list[tuple[int, int, float]]
    coupling_violation: bool
    coupling_value: float
    eta_beta_sq_over_d: float

    @property
    def ok(self) -> bool:
        return (
            not self.degree_violations
            and not self.length_violations
            and not self.coupling_violation
        )


def validate_family(g: GeoGraph) -> ValidationReport:
    """Check degree cap, edge-length cap, and the coupling condition."""
    prm = g.params
    deg = g.degrees()
    degree_violations = [(int(v), int(deg[v])) for v in np.nonzero(deg > prm.d)[0]]
    length_violations = []
    for u, v in g.edges():
        duv = g.torus.distance(g.points[u], g.points[v])
        if duv > prm.beta * (1 + 1e-12):
            length_violations.append((u, v, float(duv)))
    coupling = prm.d * prm.theta
    return ValidationReport(
        degree_violations=degree_violations,
        length_violations=length_violations,
        coupling_violation=not (coupling < 0.5),
        coupling_value=float(coupling),
        eta_beta_sq_over_d=float(prm.eta * prm.beta**2 / prm.d),
    )


def _place_anchors(rng, spec: PlantSpec, s: float) -> np.ndarray:
    """Draw anchors one at a time and keep each that lies at least
    `min_separation` from every anchor kept before it.

    The draws come in batches of `count + 64`.  A kd-tree over the kept
    anchors and the batch, queried a hair beyond the separation, proposes
    the conflicts; each is decided by the exact wrapped distance from the
    earlier point to the later draw.  The generator is then rewound to
    just after the last draw used, where one draw at a time leaves it.
    """
    sep = spec.min_separation
    anchors = np.empty((0, 2))
    attempts = 0
    while len(anchors) < spec.count:
        state = rng.bit_generator.state
        batch = rng.uniform(0.0, s, size=(spec.count + 64, 2))
        if spec.snap is not None:
            batch = np.round(batch / spec.snap) * spec.snap % s
        X = np.vstack([anchors, batch])
        pairs = cKDTree(Torus(s).wrap(X), boxsize=s).query_pairs(
            sep + 1e-9 * s, output_type="ndarray").reshape(-1, 2)
        i, j = pairs[pairs[:, 1] >= len(anchors)].T
        delta = np.mod(X[i] - X[j] + 0.5 * s, s) - 0.5 * s
        hit = np.hypot(delta[:, 0], delta[:, 1]) < sep
        clashes = [[] for _ in range(len(X))]
        for a, b in zip(i[hit].tolist(), j[hit].tolist()):
            clashes[b].append(a)
        kept = list(range(len(anchors)))
        ok = [True] * len(anchors) + [False] * len(batch)
        for b in range(len(anchors), len(X)):
            attempts += 1
            if attempts > 2000 * spec.count:
                raise RuntimeError(
                    f"could not place {spec.count} copies with separation "
                    f"{spec.min_separation} on a torus of side {s}"
                )
            if not any(ok[a] for a in clashes[b]):
                ok[b] = True
                kept.append(b)
                if len(kept) == spec.count:
                    break
        rng.bit_generator.state = state
        rng.uniform(0.0, s, size=(b + 1 - len(anchors), 2))
        anchors = X[kept]
    return anchors


def generate(params: FamilyParams, plant: PlantSpec | None = None) -> GeoGraph:
    """Draw a graph from the family, optionally stamping planted copies.

    Planted copies are placed first (vertex ids 0 .. count*size-1, copy
    major, template slot order within each copy); remaining vertices are
    uniform background kept `clearance` away from all planted vertices.
    """
    torus = Torus(params.s)
    rng = np.random.default_rng(params.seed)
    if plant is None:
        points = rng.uniform(0.0, params.s, size=(params.p, 2))
        plants = None
        template = None
    else:
        n_planted = plant.count * plant.size
        if n_planted > params.p:
            raise ValueError("planted vertices exceed p")
        anchors = _place_anchors(rng, spec=plant, s=params.s)
        blocks = []
        for c in anchors:
            q = int(rng.integers(4)) if plant.rotate else 0
            blocks.append(torus.wrap(c + grid_rotate(plant.points, q)))
        planted_pts = np.vstack(blocks)
        n_bg = params.p - n_planted
        bg = np.empty((0, 2))
        if n_bg:
            # nothing draws after this loop, so it may draw past the last
            # vertex it keeps, but never past the attempt cap
            tree = cKDTree(planted_pts, boxsize=params.s)
            cap = 2000 * n_bg
            drawn = 0
            while len(bg) < n_bg:
                if drawn == cap:
                    raise RuntimeError("could not place background vertices")
                batch = rng.uniform(0.0, params.s,
                                    size=(min(2 * n_bg, cap - drawn), 2))
                drawn += len(batch)
                near = tree.query_ball_point(batch, plant.clearance,
                                             return_length=True)
                bg = np.vstack([bg, batch[near == 0]])
        points = np.vstack([planted_pts, bg[:n_bg]])
        plants = tuple(
            tuple(range(i * plant.size, (i + 1) * plant.size))
            for i in range(plant.count)
        )
        template = plant.points.copy()
    adjacency = build_edges(points, params.d, params.beta, torus)
    return GeoGraph(
        params=params,
        points=points,
        adjacency=adjacency,
        torus=torus,
        plants=plants,
        plant_template=template,
    )


def write_graph(g: GeoGraph, path) -> None:
    """Serialize to the plain-text format: header, vertex lines, edge lines."""
    prm = g.params
    with open(path, "w") as fh:
        fh.write(
            f"{prm.p} {prm.s:.17g} {prm.eta:.17g} {prm.beta:.17g} "
            f"{prm.d} {prm.theta:.17g} {prm.seed}\n"
        )
        for v, (x, y) in enumerate(g.points):
            fh.write(f"v {v} {x:.17g} {y:.17g}\n")
        for u, v in g.edges():
            fh.write(f"e {u} {v}\n")


def read_graph(path) -> GeoGraph:
    """Inverse of write_graph.  Planting bookkeeping is not serialized.

    Raises ValueError unless every vertex 0..p-1 has exactly one vertex
    line and every edge joins two distinct in-range vertices once.
    """
    with open(path) as fh:
        header = fh.readline().split()
        p, _s, eta, beta, d, theta, seed = header
        params = FamilyParams(
            p=int(p), eta=float(eta), d=int(d), beta=float(beta),
            theta=float(theta), seed=int(seed),
        )
        points = np.zeros((params.p, 2))
        listed = np.zeros(params.p, dtype=int)
        rows, cols = [], []
        seen_edges: set[tuple[int, int]] = set()
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                v = int(parts[1])
                if not 0 <= v < params.p:
                    raise ValueError(f"vertex id {v} outside [0, {params.p})")
                listed[v] += 1
                points[v] = (float(parts[2]), float(parts[3]))
            elif parts[0] == "e":
                u, v = int(parts[1]), int(parts[2])
                if not (0 <= u < params.p and 0 <= v < params.p):
                    raise ValueError(f"edge ({u}, {v}) outside [0, {params.p})")
                if u == v:
                    raise ValueError(f"self-loop on vertex {u}")
                key = (min(u, v), max(u, v))
                if key in seen_edges:
                    raise ValueError(f"edge {key} listed twice")
                seen_edges.add(key)
                rows += [u, v]
                cols += [v, u]
            else:
                raise ValueError(f"unrecognized line: {line!r}")
        if (listed != 1).any():
            v = int(np.argmax(listed != 1))
            raise ValueError(f"vertex {v} has {listed[v]} vertex lines, not 1")
    adjacency = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(params.p, params.p),
    )
    return GeoGraph(
        params=params, points=points, adjacency=adjacency, torus=Torus(params.s)
    )
