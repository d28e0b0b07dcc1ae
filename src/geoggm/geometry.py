"""Planar and toroidal point-set primitives.

Distances on the flat torus, exact bottleneck matching between equal-size
point sets, a grid-over-angles upper bound on rigid-motion similarity,
convex hulls, contiguity tests, and snapping of vertex sets onto a regular
lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# Absolute tolerance for hull membership is HULL_TOL_FACTOR * (domain scale).
HULL_TOL_FACTOR = 1e-9


class CollisionError(ValueError):
    """Two vertices snapped onto the same lattice node.

    Carries the offending vertex pair so the caller can shrink the cell
    size and retry.
    """

    def __init__(self, vertex_a: int, vertex_b: int, node: tuple[int, int]):
        self.vertex_a = vertex_a
        self.vertex_b = vertex_b
        self.node = node
        super().__init__(
            f"vertices {vertex_a} and {vertex_b} both quantize to node {node}"
        )


@dataclass(frozen=True)
class Torus:
    """Flat square torus of side `s` (opposite sides of [0, s)^2 glued)."""

    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("torus side must be positive")

    def wrap(self, xy):
        """Map coordinates into the fundamental domain [0, s)^2."""
        w = np.mod(np.asarray(xy, dtype=float), self.s)
        # np.mod rounds a tiny negative coordinate up to s itself
        return np.where(w < self.s, w, 0.0)

    def delta(self, a, b):
        """Signed displacement b - a, each component wrapped to [-s/2, s/2)."""
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        return np.mod(d + 0.5 * self.s, self.s) - 0.5 * self.s

    def distance(self, a, b):
        """Geodesic (minimum-image) distance between points a and b."""
        d = self.delta(a, b)
        out = np.hypot(d[..., 0], d[..., 1])
        return float(out) if out.ndim == 0 else out


def _as_points(x, name: str) -> np.ndarray:
    P = np.asarray(x, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise ValueError(f"{name} must be an (r, 2) array of planar points")
    return P


def _bottleneck_feasible(dist: np.ndarray, t: float) -> bool:
    """Perfect matching exists in the bipartite graph of pairs with distance <= t."""
    mate = maximum_bipartite_matching(csr_matrix(dist <= t), perm_type="column")
    return not (mate == -1).any()


def matching_distance(points_a, points_b) -> float:
    """Bottleneck matching distance between two equal-size planar point sets.

    Minimizes, over pairings of the two sets, the largest paired Euclidean
    distance.  Exact: computed by a binary search over candidate distances,
    each checked with a bipartite perfect-matching feasibility test.
    """
    F = _as_points(points_a, "points_a")
    H = _as_points(points_b, "points_b")
    if len(F) != len(H):
        raise ValueError(f"point sets differ in size: {len(F)} vs {len(H)}")
    if len(F) == 0:
        raise ValueError("point sets must be nonempty")
    diff = F[:, None, :] - H[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    values = np.unique(dist)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _bottleneck_feasible(dist, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def rotate(points, angle: float) -> np.ndarray:
    """Rotate planar points about the origin by `angle` radians."""
    P = _as_points(points, "points")
    c, s = math.cos(angle), math.sin(angle)
    return P @ np.array([[c, s], [-s, c]])


def grid_rotate(points, quarter_turns: int) -> np.ndarray:
    """Exact rotation by multiples of 90 degrees (coordinate swap/negate)."""
    P = _as_points(points, "points")
    q = quarter_turns % 4
    if q == 0:
        return P.copy()
    if q == 1:
        return np.column_stack([-P[:, 1], P[:, 0]])
    if q == 2:
        return -P
    return np.column_stack([P[:, 1], -P[:, 0]])


def similarity(points_a, points_b, angle_grid: int = 360) -> float:
    """Upper bound on the rigid-motion bottleneck distance between two sets.

    Sweeps `angle_grid` evenly spaced rotations; at each angle the rotated
    second set is translated so the centroids coincide and the bottleneck
    matching distance is evaluated.  The result never underestimates the
    true infimum over rigid motions and is non-increasing when the angle
    grid is refined by an integer factor.  Reflections are not searched:
    the motions considered are rotation-translation compositions only.
    """
    F = _as_points(points_a, "points_a")
    H = _as_points(points_b, "points_b")
    if len(F) != len(H):
        raise ValueError(f"point sets differ in size: {len(F)} vs {len(H)}")
    if angle_grid < 4:
        raise ValueError("angle_grid must be at least 4")
    cf = F.mean(axis=0)
    Hc = H - H.mean(axis=0)
    best = math.inf
    for k in range(angle_grid):
        RH = rotate(Hc, 2.0 * math.pi * k / angle_grid) + cf
        best = min(best, matching_distance(F, RH))
        if best == 0.0:
            break
    return best


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Convex hull of planar points, vertices in counterclockwise order.

    Monotone-chain construction.  Collinear inputs yield the two extreme
    points (a degenerate segment hull); a single point yields itself.
    Interior and edge-collinear points are dropped.
    """
    P = _as_points(points, "points")
    if len(P) == 0:
        raise ValueError("need at least one point")
    pts = sorted(set(map(tuple, P.tolist())))
    if len(pts) == 1:
        return np.array(pts)
    if len(pts) == 2:
        return np.array(pts)
    lower = []
    for q in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper = []
    for q in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear input collapses the chains
        hull = [pts[0], pts[-1]]
    return np.array(hull)


def point_in_hull(points, hull: np.ndarray, tol: float) -> np.ndarray:
    """Membership of each of the (N, 2) `points` in a convex hull; points
    on the boundary count as inside.

    `hull` is counterclockwise as produced by convex_hull.  `tol` is an
    absolute distance tolerance: a 1-point hull holds the points within
    `tol` of it, a 2-point hull those within `tol` of its segment, and a
    polygon those not more than `tol` outside any edge.
    """
    q = np.asarray(points, dtype=float).reshape(-1, 2).T
    h = np.asarray(hull, dtype=float)
    if len(h) == 1:
        return np.hypot(q[0] - h[0][0], q[1] - h[0][1]) <= tol
    if len(h) == 2:
        a, b = h
        ab = (b[0] - a[0], b[1] - a[1])
        aq = (q[0] - a[0], q[1] - a[1])
        denom = ab[0] * ab[0] + ab[1] * ab[1]
        t = 0.0 if denom == 0.0 else np.clip(
            (aq[0] * ab[0] + aq[1] * ab[1]) / denom, 0.0, 1.0)
        return np.hypot(aq[0] - t * ab[0], aq[1] - t * ab[1]) <= tol
    inside = np.ones(q.shape[1], dtype=bool)
    for i in range(len(h)):
        a, b = h[i], h[(i + 1) % len(h)]
        edge = math.hypot(b[0] - a[0], b[1] - a[1])
        inside &= ~(_cross(a, b, q) < -tol * edge)
    return inside


def is_contiguous(subset_ids, graph, tol: float | None = None) -> bool:
    """Whether a vertex subset equals the graph's vertices inside its own hull.

    True iff no vertex outside the subset lies in (or on the boundary of)
    the convex hull of the subset.  The hull is computed in the local
    unwrapped chart at the subset's first point; subsets spanning more than
    half the torus in either axis are rejected as non-local.

    `graph` must expose `points` (p x 2 array) and `torus`.
    """
    ids = sorted(set(int(v) for v in np.atleast_1d(np.asarray(subset_ids)).ravel()))
    if not ids:
        raise ValueError("subset must be nonempty")
    pts = graph.points
    torus = graph.torus
    if tol is None:
        tol = HULL_TOL_FACTOR * torus.s
    rel = torus.delta(pts[ids[0]], pts)
    sub = rel[ids]
    span = sub.max(axis=0) - sub.min(axis=0)
    if (span > 0.5 * torus.s).any():
        raise ValueError("subset spans more than half the torus; not local")
    others = np.delete(rel, ids, axis=0)
    return not point_in_hull(others, convex_hull(sub), tol).any()


@dataclass(frozen=True)
class PatternTemplate:
    """Occupied-node pattern inside a k x k bounding square of lattice cells.

    `offsets` is an ordered tuple of (row, col) cell offsets; the order
    defines the slot labelling that occurrence vertex lists follow.
    Offsets are normalized so the bounding box touches (0, 0).
    """

    k: int
    offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("pattern must occupy at least one node")
        rows = [o[0] for o in self.offsets]
        cols = [o[1] for o in self.offsets]
        if min(rows) != 0 or min(cols) != 0:
            raise ValueError("offsets must be normalized to touch (0, 0)")
        if max(max(rows), max(cols)) >= self.k:
            raise ValueError("offsets exceed the k x k bounding square")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("duplicate offsets")

    @classmethod
    def from_offsets(cls, offsets) -> "PatternTemplate":
        offs = [(int(a), int(b)) for a, b in offsets]
        r0 = min(a for a, _ in offs)
        c0 = min(b for _, b in offs)
        offs = tuple((a - r0, b - c0) for a, b in offs)
        k = max(max(a for a, _ in offs), max(b for _, b in offs)) + 1
        return cls(k=k, offsets=offs)

    @property
    def size(self) -> int:
        return len(self.offsets)

    def rotated(self, quarter_turns: int) -> "PatternTemplate":
        """Pattern rotated by quarter turns, renormalized, slot order kept."""
        q = quarter_turns % 4
        offs = self.offsets
        for _ in range(q):
            offs = tuple((-b, a) for a, b in offs)
        return PatternTemplate.from_offsets(offs)

    def interior_cells(self) -> tuple[tuple[int, int], ...]:
        """Non-occupied cells of the bounding square inside the pattern's hull.

        A placement is a valid occurrence only if these cells are empty:
        an occupied one would put a foreign vertex inside the hull.
        """
        offs = np.array(self.offsets)
        occupied = np.zeros(offs.max(axis=0) + 1, dtype=bool)
        occupied[tuple(offs.T)] = True
        cells = np.argwhere(~occupied)  # row-major
        inside = point_in_hull(cells, convex_hull(offs.astype(float)), 1e-9)
        return tuple(map(tuple, cells[inside].tolist()))


@dataclass
class Lattice:
    """Regular m x m square lattice of pitch `eps` covering the torus.

    Node (i, j) sits at (i * eps, j * eps); the seam coincides with row and
    column 0.  Two index arrays say which vertex sits where: `nodes[v]` is
    the (row, col) node of vertex v (a (p, 2) int array) and `grid[i, j]`
    is the vertex on node (i, j), or -1 where the node is empty.
    """

    eps: float
    m: int
    nodes: np.ndarray
    grid: np.ndarray
    torus: Torus


def snap_eps(eps: float, s: float) -> float:
    """Pitch s/m for the whole cell count m nearest s/eps (at least 1), so
    the lattice tiles the torus side `s` exactly."""
    return s / max(1, round(s / eps))


def quantize(graph, eps: float) -> Lattice:
    """Snap every vertex of `graph` to the nearest lattice node.

    The torus side must be an integer multiple of `eps`.  Displacements are
    at most eps/sqrt(2).  Ties on cell midlines round toward the lower
    node index.  Returns the lattice with both index arrays filled.  Raises
    CollisionError if two vertices land on one node: `vertex_b` is the
    lowest vertex landing on an occupied node and `vertex_a` the lowest
    vertex on that node.
    """
    torus = graph.torus
    s = torus.s
    if eps <= 0:
        raise ValueError("eps must be positive")
    m_float = s / eps
    m = int(round(m_float))
    if m < 1 or abs(m_float - m) > 1e-9 * max(1.0, m_float):
        raise ValueError(f"torus side {s} is not a multiple of eps {eps}")
    pts = torus.wrap(graph.points)
    idx = np.ceil(pts / eps - 0.5).astype(int) % m
    node_xy = idx * eps
    disp = np.hypot(*(torus.delta(node_xy, pts)).T)
    bound = eps / math.sqrt(2.0) + 1e-12 * s
    if (disp > bound).any():
        raise AssertionError("quantization displacement exceeded eps/sqrt(2)")
    vertices = np.arange(len(idx), dtype=np.int32)
    grid = np.full((m, m), len(idx), dtype=np.int32)
    np.minimum.at(grid, tuple(idx.T), vertices)  # lowest vertex per node
    clash = np.nonzero(grid[tuple(idx.T)] != vertices)[0]
    if len(clash):
        v = int(clash[0])
        raise CollisionError(int(grid[tuple(idx[v])]), v, tuple(idx[v].tolist()))
    grid[grid == len(idx)] = -1
    return Lattice(eps=eps, m=m, nodes=idx, grid=grid, torus=torus)
