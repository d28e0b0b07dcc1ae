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
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .bounds import check_family
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
        check_family(self.eta, self.beta, self.d)
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta}")
        if self.d * self.theta >= 0.5:
            raise ValueError(f"d*theta = {self.d * self.theta} must be < 1/2")
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
        if not self.template:
            raise ValueError("template must be nonempty")
        if not np.isfinite(self.points).all():
            raise ValueError("template must have finite coordinates")
        for name in ("min_separation", "clearance", "snap"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.min_separation <= 0 or self.clearance < 0:
            raise ValueError("separations must be positive")
        if self.snap is not None and self.snap <= 0:
            raise ValueError(f"snap must be positive, got {self.snap}")

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
    """A geometric graph: params.p points on `torus`, the torus of side
    params.s (derived, not stored), plus a sparse symmetric adjacency,
    every edge stored as 1.  Points not shaped (p, 2), an adjacency not
    shaped (p, p) and any stored value other than 1 are refused.

    `plants`, when present, lists the vertex ids of each planted copy in
    template slot order (slot t of every copy is the image of template
    point t).  The beta-close pairs are kept once found: `generate` hands
    over the ones it wired from, and a graph built any other way, by
    `dataclasses.replace` too, finds its own on first use.
    """

    params: FamilyParams
    points: np.ndarray
    adjacency: csr_matrix
    plants: tuple[tuple[int, ...], ...] | None = None
    _beta_pairs: np.ndarray | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        p = self.params.p
        if self.points.shape != (p, 2):
            raise ValueError(f"points have shape {self.points.shape}, "
                             f"not ({p}, 2)")
        if self.adjacency.shape != (p, p):
            raise ValueError(f"adjacency has shape {self.adjacency.shape}, "
                             f"not ({p}, {p})")
        coo = self.adjacency.tocoo()
        bad = coo.data != 1
        if bad.any():
            u, v, val = min(zip(coo.row[bad], coo.col[bad], coo.data[bad]))
            raise ValueError(f"adjacency stores {val} at ({u}, {v}), not 1")

    @property
    def p(self) -> int:
        return len(self.points)

    @property
    def torus(self) -> Torus:
        return Torus(self.params.s)

    def beta_pairs(self) -> np.ndarray:
        """`torus.close_pairs(points, beta)`: the (N, 2) index pairs i < j
        within toroidal distance beta, in the kd-tree's order."""
        if self._beta_pairs is None:
            self._beta_pairs = self.torus.close_pairs(self.points, self.params.beta)
        return self._beta_pairs

    def edges(self) -> list[tuple[int, int]]:
        coo = self.adjacency.tocoo()
        uv = np.column_stack([coo.row, coo.col])[coo.row < coo.col]
        uv = uv[np.lexsort(uv.T[::-1])]
        return list(map(tuple, uv.tolist()))

    def edge_count(self) -> int:
        return self.adjacency.nnz // 2


def build_edges(points, d: int, beta: float, torus: Torus,
                pairs: np.ndarray | None = None) -> csr_matrix:
    """Deterministic bounded-degree wiring of a point set.

    Candidate edges are all pairs within toroidal distance beta (`pairs`,
    the `torus.close_pairs(points, beta)` result, when the caller holds
    it), sorted globally by length; each is accepted greedily iff both
    endpoints still have degree below d.  Lengths equal within 1e-9 of the
    torus side are treated as tied and ordered by the pair's canonical
    displacement vector, then by endpoint coordinates, so the rule is a
    function of relative geometry only and exact translated copies of a
    pattern (with matching surroundings) are wired identically.

    The greedy walk goes over chunks of the length order that start at n
    pairs and double, each ending with a run of equal lengths.  Degrees
    only grow, so a pair with an endpoint already at d when its chunk
    starts is dropped unseen; only the others get tie-break keys and
    enter the loop.  The length sort is stable and the tie-break sort
    keeps the survivors' order, so fully tied pairs keep the order of
    `pairs`.
    """
    if beta >= 0.5 * torus.s:
        raise ValueError("beta must be below half the torus side")
    P = np.asarray(points, dtype=float)
    n = len(P)
    if pairs is None:
        pairs = torus.close_pairs(P, beta)
    (x, y), (i, j) = P.T, pairs.T
    dx, dy = torus.delta(x[i], x[j]), torus.delta(y[i], y[j])
    tol = 1e-9 * torus.s
    dist_key = np.round(np.hypot(dx, dy) / tol).astype(np.int64)
    # a sort of the distinct keys (length, index) is a stable length sort
    N = len(pairs)
    dist_key, by_length = np.divmod(np.sort(dist_key * N + np.arange(N)), N)
    us, vs = i[by_length], j[by_length]
    deg = [0] * n
    kept = []
    start, size = 0, n
    while start < N:
        stop = np.searchsorted(dist_key, dist_key[min(start + size, N) - 1],
                               side="right")
        full = np.array(deg) >= d
        live = start + np.flatnonzero(~(full[us[start:stop]] | full[vs[start:stop]]))
        a, b = P[us[live]], P[vs[live]]
        swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
        lo = np.where(swap[:, None], b, a)
        ddx, ddy = dx[by_length[live]], dy[by_length[live]]
        sign = np.where((ddx < 0) | ((ddx == 0) & (ddy < 0)), -1.0, 1.0)
        dx_key = np.round(sign * ddx / tol).astype(np.int64)
        dy_key = np.round(sign * ddy / tol).astype(np.int64)
        live = live[np.lexsort((lo[:, 1], lo[:, 0], dy_key, dx_key,
                                dist_key[live]))]
        for k, u, v in zip(live.tolist(), us[live].tolist(), vs[live].tolist()):
            if deg[u] < d and deg[v] < d:
                deg[u] += 1
                deg[v] += 1
                kept.append(k)
        start, size = stop, 2 * size
    uv = pairs[by_length[kept]]
    # each edge enters as (u, v) then (v, u), in acceptance order
    adj = csr_matrix(
        (np.ones(2 * len(uv), dtype=np.int8), (uv.ravel(), uv[:, ::-1].ravel())),
        shape=(n, n),
    )
    adj.sum_duplicates()
    return adj


def _draw_kept(rng, count: int, s: float, keep, failure: str) -> np.ndarray:
    """The first `count` uniform draws on [0, s)^2 that `keep` accepts.

    `keep(points, start)` gets the points kept so far, then a batch of up
    to `count + 64` draws from row `start` on; it may move the batch rows in
    place and returns the ascending indices of those to keep.  The
    generator is rewound to just after the last draw used.  Raises
    RuntimeError(failure) unless the first 2000 * count draws hold `count`.
    """
    kept = np.empty((0, 2))
    cap, drawn = 2000 * count, 0
    while len(kept) < count:
        if drawn == cap:
            raise RuntimeError(failure)
        n = len(kept)
        state = rng.bit_generator.state
        batch = rng.uniform(0.0, s, size=(min(count + 64, cap - drawn), 2))
        points = np.vstack([kept, batch])
        rows = keep(points, n)[:count - n]
        used = rows[-1] + 1 - n if n + len(rows) == count else len(batch)
        drawn += used
        rng.bit_generator.state = state
        rng.uniform(0.0, s, size=(used, 2))
        kept = np.vstack([kept, points[rows]])
    return kept


def _every_row(points, start):
    return np.arange(start, len(points))


def _place_anchors(rng, spec: PlantSpec, s: float) -> np.ndarray:
    """Draw anchors (snapped when `snap` is set) and keep each that lies
    at least `min_separation` from every anchor kept before it."""
    torus = Torus(s)

    def separated(points, start):
        if spec.snap is not None:
            points[start:] = np.round(points[start:] / spec.snap) * spec.snap % s
        # the kept anchors are separated already, so all of them stay
        return torus.separated(points, spec.min_separation)[start:]

    return _draw_kept(rng, spec.count, s, separated,
                      f"could not place {spec.count} copies with separation "
                      f"{spec.min_separation} on a torus of side {s}")


def generate(params: FamilyParams, plant: PlantSpec | None = None) -> GeoGraph:
    """Draw a graph from the family, optionally stamping planted copies.

    Planted copies are placed first (vertex ids 0 .. count*size-1, copy
    major, template slot order within each copy); remaining vertices are
    uniform background kept `clearance` away from all planted vertices.
    """
    torus = Torus(params.s)
    rng = np.random.default_rng(params.seed)
    planted, plants, keep = np.empty((0, 2)), None, _every_row
    if plant is not None:
        if plant.count * plant.size > params.p:
            raise ValueError("planted vertices exceed p")
        anchors = _place_anchors(rng, plant, params.s)
        turns = rng.integers(4, size=plant.count) if plant.rotate else 0
        shapes = np.stack([grid_rotate(plant.points, q) for q in range(4)])
        planted = torus.wrap(anchors[:, None] + shapes[turns]).reshape(-1, 2)
        plants = tuple(map(tuple, np.arange(len(planted)).reshape(
            plant.count, plant.size).tolist()))
        if len(planted) < params.p:
            tree = cKDTree(planted, boxsize=params.s)

            def keep(points, start):
                near = tree.query_ball_point(points[start:], plant.clearance,
                                             return_length=True)
                return start + np.flatnonzero(near == 0)
    background = _draw_kept(rng, params.p - len(planted), params.s, keep,
                            "could not place background vertices")
    points = np.vstack([planted, background])
    pairs = torus.close_pairs(points, params.beta)
    graph = GeoGraph(
        params=params,
        points=points,
        adjacency=build_edges(points, params.d, params.beta, torus, pairs),
        plants=plants,
    )
    graph._beta_pairs = pairs
    return graph


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

    Raises ValueError unless the header side is sqrt(p / eta) to 1e-9
    relative, every vertex 0..p-1 has exactly one vertex line with finite
    coordinates, and every edge joins two distinct in-range vertices once.
    """
    with open(path) as fh:
        header = fh.readline().split()
        p, s, eta, beta, d, theta, seed = header
        params = FamilyParams(
            p=int(p), eta=float(eta), d=int(d), beta=float(beta),
            theta=float(theta), seed=int(seed),
        )
        if not abs(float(s) - params.s) <= 1e-9 * params.s:
            raise ValueError(
                f"header side {s} disagrees with sqrt(p / eta) = {params.s!r}")
        points = np.zeros((params.p, 2))
        listed = np.zeros(params.p, dtype=int)
        rows, cols = [], []
        seen_edges: set[tuple[int, int]] = set()
        for lineno, line in enumerate(fh, 2):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: expected `v id x y`, "
                                     f"got {line.strip()!r}")
                v = int(parts[1])
                if not 0 <= v < params.p:
                    raise ValueError(f"vertex id {v} outside [0, {params.p})")
                listed[v] += 1
                points[v] = (float(parts[2]), float(parts[3]))
                if not np.isfinite(points[v]).all():
                    raise ValueError(f"vertex {v} has a non-finite coordinate")
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise ValueError(f"line {lineno}: expected `e u v`, "
                                     f"got {line.strip()!r}")
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
    return GeoGraph(params=params, points=points, adjacency=adjacency)
