"""Planar and toroidal point-set primitives.

Distances, close pairs and in-order separation on the flat torus, exact
bottleneck matching between equal-size point sets, a grid-over-angles
upper bound on rigid-motion similarity, convex hulls, and snapping of
vertex sets onto a regular lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# candidate pairs measured at once by `Torus.close_pairs`
_PAIR_CHUNK = 1 << 18


# the half stencil: (row, col) offset columns of a cell and four neighbours
_HALF_STENCIL = np.array([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]).T[:, :, None]


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
        # np.mod rounds a tiny negative up to s itself; non-finite gives NaN
        return np.where(w == self.s, 0.0, w)

    def delta(self, a, b):
        """Signed displacement b - a, each component wrapped to [-s/2, s/2)."""
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        return np.mod(d + 0.5 * self.s, self.s) - 0.5 * self.s

    def distance(self, a, b):
        """Geodesic (minimum-image) distance between points a and b."""
        d = self.delta(a, b)
        out = np.hypot(d[..., 0], d[..., 1])
        return float(out) if out.ndim == 0 else out

    def close_pairs(self, points, radius: float) -> np.ndarray:
        """The (N, 2) index pairs i < j within toroidal distance `radius`.

        A pair is kept by the periodic kd-tree's rule: each axis difference
        is wrapped by s once its size passes s/2, and the pair is kept when
        dx*dx + dy*dy <= radius*radius.  Radius 0 pairs coincident points
        and inf pairs every two; a negative or NaN radius is refused.

        The wrapped points are hashed into a periodic grid of g x g cells
        (Teschner et al., VMV 2003), each a hair wider than `radius` and no
        more cells than points, so a close pair lies in one cell or in two
        neighbouring ones.  Each point meets the later points of its own
        cell and every point of four neighbour cells, a half stencil: the
        other four meet it from their side.  A grid narrower than 3 cells,
        where every cell neighbours every other, is taken as one cell.  The
        candidates go through the distance rule in chunks of at most about
        `_PAIR_CHUNK`, so memory follows the points and the pairs kept.
        The pairs come in stencil, then cell order, not sorted.
        """
        if not radius >= 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        X = np.asarray(points, dtype=float)
        if (X.ndim != 2 or X.shape[1] != 2) and X.size:
            raise ValueError(f"points must be an (n, 2) array, got shape {X.shape}")
        n, s = len(X), self.s
        if n < 2:
            return np.empty((0, 2), dtype=np.intp)
        if not (X.min() >= 0 and X.max() < s):
            if not np.isfinite(X).all():
                raise ValueError("points must be finite")
            X = self.wrap(X)
        per_side = s / (radius * (1 + 1e-9)) if radius else math.inf
        g = int(min(math.isqrt(n), per_side))
        g = g if g >= 3 else 1
        cell = (X * (g / s)).astype(np.intp)
        np.minimum(cell, g - 1, out=cell)
        # sorting code * n + index groups the points by cell, stably
        code, order = np.divmod(
            np.sort((cell[:, 0] * g + cell[:, 1]) * n + np.arange(n)), n)
        start = np.searchsorted(code, np.arange(g * g + 1))
        xs, ys = X[order].T
        cx, cy = np.divmod(code, g)
        da, db = _HALF_STENCIL if g > 1 else _HALF_STENCIL[:, :1]
        # row (k, q) pairs sorted point q with the sorted positions [lo, lo +
        # count) of its k-th stencil cell, the points after q in its own cell
        nb = ((cx + da) % g * g + (cy + db) % g).ravel()
        lo = start[nb]
        lo[:n] = np.arange(1, n + 1)
        count = start[nb + 1] - lo
        end = np.cumsum(count)
        cuts = np.searchsorted(end, range(_PAIR_CHUNK, end[-1], _PAIR_CHUNK),
                               side="right").tolist()
        r2, out = radius * radius, []
        for a, b in zip([0, *cuts], [*cuts, len(end)]):
            if a == b:  # a row longer than a chunk spans a cut
                continue
            c = count[a:b]
            first = end[a:b] - c  # each row's first candidate
            u = np.repeat(np.arange(a, b) % n, c)
            v = np.repeat(lo[a:b] - first, c) + np.arange(first[0], end[b - 1])
            # each axis: |d|, or s - |d| once |d| passes s/2, squared
            dx = np.abs(xs[u] - xs[v])
            np.minimum(dx, s - dx, out=dx)
            dy = np.abs(ys[u] - ys[v])
            np.minimum(dy, s - dy, out=dy)
            near = dx * dx + dy * dy <= r2
            i, j = order[u[near]], order[v[near]]
            pairs = np.empty((len(i), 2), dtype=np.intp)
            np.minimum(i, j, out=pairs[:, 0])
            np.maximum(i, j, out=pairs[:, 1])
            out.append(pairs)
        return out[0] if len(out) == 1 else np.concatenate(out)

    def separated(self, points, sep: float) -> list[int]:
        """Indices of the points kept by a scan in order that keeps each
        point unless an earlier kept point lies closer than `sep`.

        `close_pairs`, asked for a hair beyond `sep`, proposes the pairs;
        the exact distance from the later point to the earlier one decides
        each (a pair exactly `sep` apart does not clash), and the clashing
        pairs, in order of their later point, drop it where the earlier is
        kept.  No points keep none.
        """
        if not sep >= 0:
            raise ValueError(f"sep must be nonnegative, got {sep}")
        X = np.asarray(points, dtype=float)
        if not X.size:
            return []
        i, j = self.close_pairs(X, sep + 1e-9 * self.s).T
        hit = self.distance(X[j], X[i]) < sep
        order = np.argsort(j[hit], kind="stable")
        kept = [True] * len(X)
        for a, b in zip(i[hit][order].tolist(), j[hit][order].tolist()):
            if kept[a]:
                kept[b] = False
        return np.flatnonzero(kept).tolist()


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


def grid_rotate(points, quarter_turns) -> np.ndarray:
    """Exact rotation by multiples of 90 degrees (coordinate swap/negate):
    one turned copy for an int, one per entry for an int array."""
    P = _as_points(points, "points")
    x, y = P.T
    turns = np.stack([P, np.column_stack([-y, x]), -P, np.column_stack([y, -x])])
    return turns[np.mod(quarter_turns, 4)]


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
    if len(pts) <= 2:
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
    return np.array(lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class PatternTemplate:
    """Occupied-node pattern inside a k x k bounding square of lattice cells.

    `offsets` is an ordered tuple of (row, col) cell offsets; the order
    defines the slot labelling that occurrence vertex lists follow.
    Offsets are normalized so the bounding box touches (0, 0).  `k`, the
    largest offset plus one, is derived from them.
    """

    offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("pattern must occupy at least one node")
        rows = [o[0] for o in self.offsets]
        cols = [o[1] for o in self.offsets]
        if min(rows) != 0 or min(cols) != 0:
            raise ValueError("offsets must be normalized to touch (0, 0)")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("duplicate offsets")

    @classmethod
    def from_offsets(cls, offsets) -> "PatternTemplate":
        offs = [(int(a), int(b)) for a, b in offsets]
        r0 = min(a for a, _ in offs)
        c0 = min(b for _, b in offs)
        return cls(tuple((a - r0, b - c0) for a, b in offs))

    @property
    def k(self) -> int:
        return max(map(max, self.offsets)) + 1

    @property
    def size(self) -> int:
        return len(self.offsets)

    def interior_cells(self) -> tuple[tuple[int, int], ...]:
        """Non-occupied cells of the bounding square inside the pattern's hull.

        A placement is a valid occurrence only if these cells are empty:
        an occupied one would put a foreign vertex inside the hull.
        """
        offs = np.array(self.offsets)
        occupied = np.zeros(offs.max(axis=0) + 1, dtype=bool)
        occupied[tuple(offs.T)] = True
        cells = np.argwhere(~occupied)  # row-major
        a = convex_hull(offs).astype(int)
        e, d = np.roll(a, -1, axis=0) - a, cells[:, None] - a
        # exact: a cell is kept on or left of every counterclockwise edge e
        # from a, so a segment hull (edges both ways) keeps its own line
        inside = (e[:, 0] * d[..., 1] >= e[:, 1] * d[..., 0]).all(axis=1)
        return tuple(map(tuple, cells[inside].tolist()))


@dataclass
class Lattice:
    """Regular m x m square lattice of pitch `eps` covering the torus.

    Node (i, j) sits at (i * eps, j * eps); the seam coincides with row and
    column 0.  Only the occupied nodes are stored: `nodes[v]` is the
    (row, col) node of vertex v (a (p, 2) int array), `codes` the sorted
    node codes i * m + j of the occupied nodes, closed by the sentinel
    m * m so that every lookup lands in range, and `vertices` the vertex
    on each code, in the same order (-1 under the sentinel).
    """

    eps: float
    m: int
    nodes: np.ndarray
    codes: np.ndarray
    vertices: np.ndarray

    def lookup(self, i, j) -> np.ndarray:
        """The vertex on each node (i mod m, j mod m) of the index arrays
        `i` and `j`, or -1 where the node is empty."""
        m = self.m
        want = np.asarray(i, dtype=np.int64) % m * m + np.asarray(j) % m
        at = np.searchsorted(self.codes, want)
        return np.where(self.codes[at] == want, self.vertices[at], -1)

    def band(self, i0: int, rows: int):
        """The occupied nodes in rows [i0, i0 + rows) of the 2 x 2 tiled
        lattice, i0 < m and i0 + rows at most 2m, as three arrays: each
        node's row from i0, its column (below m) and its vertex, row-major.
        Only the vertices in those rows are read: one code range before the
        seam and, past it, one after."""
        m, parts = self.m, []
        for base in range(0, i0 + rows, m):
            lo, hi = np.clip((i0 - base, i0 + rows - base), 0, m)
            at = slice(*np.searchsorted(self.codes, (lo * m, hi * m)))
            a, b = np.divmod(self.codes[at], m)
            parts.append((a + base - i0, b, self.vertices[at]))
        return tuple(map(np.concatenate, zip(*parts)))

    def tiled_block(self, i0: int, rows: int, cols) -> np.ndarray:
        """The block of the 2 x 2 tiled lattice over rows [i0, i0 + rows)
        and the increasing tiled columns `cols` (each below 2m), laid side
        by side, as int32 vertex ids, -1 on empty nodes.  Only the
        vertices in the block's rows are read (`band`); each lands at most
        twice, in its column and in its column + m."""
        a, b, v = self.band(i0, rows)
        cols = np.asarray(cols, dtype=np.int64)
        cells = np.full((rows, len(cols)), -1, dtype=np.int32)
        for c in (b, b + self.m):
            at = np.searchsorted(cols, c)
            hit = np.append(cols, -1)[at] == c
            cells[a[hit], at[hit]] = v[hit]
        return cells


def snap_eps(eps: float, s: float) -> float:
    """Pitch s/m for the whole cell count m nearest s/eps (at least 1), so
    the lattice tiles the torus side `s` exactly."""
    return s / max(1, round(s / eps))


def quantize(graph, eps: float) -> Lattice:
    """Snap every vertex of `graph` to the nearest lattice node.

    The torus side must be an integer multiple of `eps`.  Displacements are
    at most eps/sqrt(2).  Ties on cell midlines round toward the lower
    node index.  Returns the lattice with its node codes sorted.  Raises
    CollisionError if two vertices land on one node: `vertex_b` is the
    lowest vertex landing on an occupied node and `vertex_a` the lowest
    vertex on that node.
    """
    torus = graph.torus
    s = torus.s
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
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
    codes = idx[:, 0] * m + idx[:, 1]
    order = np.argsort(codes, kind="stable")  # a node's vertices ascend
    codes = codes[order]
    later = order[1:][codes[1:] == codes[:-1]]  # all but each node's lowest
    if len(later):
        v = int(later.min())
        lowest = order[np.searchsorted(codes, idx[v, 0] * m + idx[v, 1])]
        raise CollisionError(int(lowest), v, tuple(idx[v].tolist()))
    return Lattice(eps=eps, m=m, nodes=idx, codes=np.append(codes, m * m),
                   vertices=np.append(order, -1))
