"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive permutations, gift
wrapping, direct scans, plain recursions, Monte Carlo.  None of it shares
code paths with the library.
"""
import itertools
import math

import numpy as np
from scipy.integrate import quad


def brute_matching(F, H):
    """Bottleneck distance by exhausting all permutations (r <= 8)."""
    F = np.asarray(F, float)
    H = np.asarray(H, float)
    r = len(F)
    assert r <= 8
    best = math.inf
    for perm in itertools.permutations(range(r)):
        worst = max(
            math.hypot(*(F[i] - H[perm[i]])) for i in range(r)
        )
        best = min(best, worst)
    return best


def dense_angle_similarity(F, H, n_angles):
    """Centroid-aligned rotation sweep evaluated by brute permutations,
    vectorized over all angles at once (small r only)."""
    F = np.asarray(F, float)
    H = np.asarray(H, float)
    r = len(F)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    c, s = np.cos(angles), np.sin(angles)
    Hc = H - H.mean(axis=0)
    # rotated[a, i, :] = R(angles[a]) @ Hc[i]
    rot = np.empty((n_angles, r, 2))
    rot[:, :, 0] = c[:, None] * Hc[None, :, 0] - s[:, None] * Hc[None, :, 1]
    rot[:, :, 1] = s[:, None] * Hc[None, :, 0] + c[:, None] * Hc[None, :, 1]
    rot += F.mean(axis=0)
    best = np.full(n_angles, np.inf)
    for perm in itertools.permutations(range(r)):
        diff = F[None, list(perm), :] - rot
        worst = np.hypot(diff[..., 0], diff[..., 1]).max(axis=1)
        best = np.minimum(best, worst)
    return best.min()


def gift_wrap_hull(points):
    """Jarvis march; returns hull vertices counterclockwise."""
    pts = [tuple(q) for q in np.asarray(points, float)]
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    start = min(pts)
    hull = [start]
    current = start
    while True:
        candidate = pts[0] if pts[0] != current else pts[1]
        for q in pts:
            if q == current:
                continue
            turn = cross(current, candidate, q)
            if turn < 0 or (
                turn == 0
                and math.dist(current, q) > math.dist(current, candidate)
            ):
                candidate = q
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
    # jarvis with clockwise selection above yields clockwise order; flip
    area2 = sum(
        hull[i][0] * hull[(i + 1) % len(hull)][1]
        - hull[(i + 1) % len(hull)][0] * hull[i][1]
        for i in range(len(hull))
    )
    if area2 < 0:
        hull = [hull[0]] + hull[:0:-1]
    return np.array(hull)


def point_in_polygon(q, hull, tol):
    """Half-plane membership against a counterclockwise hull."""
    h = np.asarray(hull, float)
    if len(h) == 1:
        return math.dist(q, h[0]) <= tol
    if len(h) == 2:
        a, b = h
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else min(1.0, max(0.0, float((q - a) @ ab) / denom))
        return math.dist(q, a + t * ab) <= tol
    for i in range(len(h)):
        a, b = h[i], h[(i + 1) % len(h)]
        edge = math.dist(a, b)
        cr = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if cr < -tol * edge:
            return False
    return True


def contiguity_scan(subset_ids, points, s, tol=None):
    """Exhaustive membership scan in the unwrapped chart."""
    ids = sorted(subset_ids)
    pts = np.asarray(points, float)
    if tol is None:
        tol = 1e-9 * s
    anchor = pts[ids[0]]
    rel = np.mod(pts - anchor + 0.5 * s, s) - 0.5 * s
    hull = gift_wrap_hull(rel[ids])
    members = set(ids)
    for v in range(len(pts)):
        if v in members:
            continue
        if point_in_polygon(rel[v], hull, tol):
            return False
    return True


def greedy_edges_reference(points, d, beta, s):
    """Direct reimplementation of the greedy rule from a fully
    materialized sorted candidate list."""
    pts = np.asarray(points, float)
    n = len(pts)
    tol = 1e-9 * s

    def tdist(u, v):
        dd = np.mod(pts[v] - pts[u] + 0.5 * s, s) - 0.5 * s
        return math.hypot(*dd), dd

    cand = []
    for u in range(n):
        for v in range(u + 1, n):
            dist, delta = tdist(u, v)
            if dist <= beta:
                a, b = sorted([tuple(pts[u]), tuple(pts[v])])
                if delta[0] < 0 or (delta[0] == 0 and delta[1] < 0):
                    delta = -delta
                key = (
                    round(dist / tol),
                    round(delta[0] / tol),
                    round(delta[1] / tol),
                    a[0], a[1],
                )
                cand.append((key, u, v))
    cand.sort()
    deg = [0] * n
    edges = set()
    for _, u, v in cand:
        if deg[u] < d and deg[v] < d:
            deg[u] += 1
            deg[v] += 1
            edges.add((u, v))
    return edges


def rotate_cells(cells, quarter_turns):
    """Rotate and renormalize integer cell offsets."""
    out = [(int(a), int(b)) for a, b in cells]
    for _ in range(quarter_turns % 4):
        out = [(-b, a) for a, b in out]
    r0 = min(a for a, _ in out)
    c0 = min(b for _, b in out)
    return [(a - r0, b - c0) for a, b in out]


def brute_copy_scan(occupancy, cells, dedup=True):
    """All (position, rotation) placements where the rotated cell set is
    occupied and no foreign occupied node lies inside its hull.  With
    dedup, placements covering the same node set count once."""
    m = len(occupancy)
    found = []
    seen = set()
    for q in range(4):
        rot = rotate_cells(cells, q)
        hull = gift_wrap_hull(np.asarray(rot, float))
        rmax = max(a for a, _ in rot)
        cmax = max(b for _, b in rot)
        interior = [
            (a, b)
            for a in range(rmax + 1)
            for b in range(cmax + 1)
            if (a, b) not in set(rot)
            and point_in_polygon(np.array([a, b], float), hull, 1e-9)
        ]
        for i in range(m):
            for j in range(m):
                nodes = [((i + a) % m, (j + b) % m) for a, b in rot]
                if not all(occupancy[x][y] for x, y in nodes):
                    continue
                if any(occupancy[(i + a) % m][(j + b) % m] for a, b in interior):
                    continue
                key = frozenset(nodes)
                if dedup:
                    if key in seen:
                        continue
                    seen.add(key)
                found.append((i, j, q, tuple(nodes)))
    return found


def raw_rotation_position_matches(occupancy, cells):
    """Paper-convention scan: every (position, rotation) pair where the
    rotated cell set is fully occupied, counted without deduplication."""
    m = occupancy.shape[0]
    count = 0
    for q in range(4):
        rot = rotate_cells(cells, q)
        for i in range(m):
            for j in range(m):
                if all(occupancy[(i + a) % m][(j + b) % m] for a, b in rot):
                    count += 1
    return count


def first_node_collision(nodes):
    """Vertex-order scan for the first vertex landing on an occupied node:
    (that node's first vertex, the vertex, the node), or None."""
    owner = {}
    for v, (i, j) in enumerate(nodes):
        key = (int(i), int(j))
        if key in owner:
            return owner[key], v, key
        owner[key] = v
    return None


def window_vertices_scan(nodes, m, i, j, k):
    """Sorted ids of the vertices whose node lies in the k x k toroidal
    window anchored at (i, j)."""
    return sorted(
        v for v, (a, b) in enumerate(nodes)
        if (a - i) % m < k and (b - j) % m < k
    )


def hellinger_quadrature_1d(var1, var2):
    """1-D Hellinger distance by numerical quadrature of the defining
    integral."""

    def f(x, v):
        return math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v)

    integrand = lambda x: math.sqrt(f(x, var1) * f(x, var2))
    val, _ = quad(integrand, -40.0, 40.0, limit=200)
    return math.sqrt(max(0.0, 1.0 - val))


def mc_sym_kl(J1, J2, n, seed):
    """Monte Carlo symmetrized KL divergence; returns (estimate, stderr)."""
    rng = np.random.default_rng(seed)
    J1 = np.asarray(J1, float)
    J2 = np.asarray(J2, float)
    p = J1.shape[0]
    _, ld1 = np.linalg.slogdet(J1)
    _, ld2 = np.linalg.slogdet(J2)

    def one_direction(Ja, Jb, lda, ldb):
        cov = np.linalg.inv(Ja)
        L = np.linalg.cholesky(cov)
        x = rng.standard_normal((n, p)) @ L.T
        qa = np.einsum("ij,jk,ik->i", x, Ja, x)
        qb = np.einsum("ij,jk,ik->i", x, Jb, x)
        vals = 0.5 * (lda - ldb) - 0.5 * qa + 0.5 * qb
        return vals

    v12 = one_direction(J1, J2, ld1, ld2)
    v21 = one_direction(J2, J1, ld2, ld1)
    total = v12 + v21
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n))


def count_two_regular(n):
    """Number of labeled 2-regular graphs on n vertices: every graph is a
    disjoint union of cycles of length >= 3.  Recursion over the cycle
    containing the lowest-labeled vertex."""
    memo = {0: 1}

    def rec(m):
        if m in memo:
            return memo[m]
        total = 0
        for k in range(3, m + 1):
            ways = math.comb(m - 1, k - 1) * math.factorial(k - 1) // 2
            total += ways * rec(m - k)
        memo[m] = total
        return total

    return rec(n)


def count_regular_graphs(k, d):
    """Exact count of labeled d-regular graphs on k vertices by exhaustive
    search over edge subsets (tiny k only)."""
    pairs = list(itertools.combinations(range(k), 2))
    target = k * d // 2
    count = 0
    for subset in itertools.combinations(range(len(pairs)), target):
        deg = [0] * k
        for idx in subset:
            u, v = pairs[idx]
            deg[u] += 1
            deg[v] += 1
        if all(x == d for x in deg):
            count += 1
    return count
