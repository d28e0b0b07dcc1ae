"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive permutations, gift
wrapping, direct scans, all-pairs shortest paths, plain recursions, Monte
Carlo.  None of it shares code paths with the library, except earlier
shapes of library code kept as references for their rewrites:

- `restart_selection`, the selection loop before the one-pass loop.  It
  reuses the library's stages (window distances, copy search, pooling,
  detection), and asks `graph_distance` for the distance to the outside
  of its window as the library does.  `graph_distance` itself is checked
  against `exit_distance_paths`, shortest paths over the whole graph.
- `roll_find_copies`, `scan_separated` and `loop_pooled_scm`, the copy
  stages before copy sets became index arrays: one `Occurrence` object
  per placement, one rolled m x m occupancy mask per pattern offset and
  hull-interior cell, and scalar toroidal distances.  The hull interior
  comes from `loop_interior_cells` (gift wrapping and one membership test
  per cell), so the copy search is compared with code it does not share.
- `table_candidate_squares`, the candidate scan before it went band by
  band: one (2m+1) x (2m+1) prefix table over the tiled lattice, every
  anchor evaluated before the first window is yielded.  It offers every
  window, settled or not.
- `dense_cdp_lhs`, the coupling norm of `cdp_check` before it went to the
  rows of R: dense blocks of J over the complement of F.
- `dict_resolve_pairs` and `set_balls_inside`, the decision transport
  before it went to arrays: one dict entry per vertex pair, replaced
  only by a strictly larger margin, and one set membership test per ball
  vertex.
- `kdtree_close_pairs` and `kdtree_balls`, the periodic kd-tree that
  `Torus.close_pairs` replaced, as pair and ball queries on the wrapped
  points.
- `loop_build_edges`, `loop_place_anchors` and `loop_generate`, graph
  synthesis before it went to lists and batches: one numpy degree lookup
  per candidate pair, one anchor draw measured against every kept anchor
  at a time, one background draw and ball query at a time, and `np.mod`
  as the wrap.
- `scaled_triangular_sample`, `PrecisionModel.sample` before it told
  the triangular solve that the factor has a unit diagonal: a CSR copy
  of L^T whose diagonal the solve divides by.
- `matrix_zero_one_loss`, `zero_one_loss` before edge sets went to sorted
  pair codes: both sets as sparse adjacencies, compared entry by entry
  over the upper triangle.  The restart oracle scores with it.
"""
import itertools
import math
from collections import namedtuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import spsolve_triangular
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree

from geoggm import selector as sel
from geoggm.geometry import PatternTemplate, Torus, grid_rotate
from geoggm.gmrf import assemble_precision, graph_distance


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


def kdtree_close_pairs(points, s, radius):
    """The (N, 2) pairs i < j of the periodic kd-tree's pair query."""
    tree = cKDTree(Torus(s).wrap(points), boxsize=s)
    return tree.query_pairs(radius, output_type="ndarray").reshape(-1, 2)


def kdtree_balls(points, s, radius):
    """Each point's list of the points within `radius`, itself included,
    from the periodic kd-tree's ball query."""
    pts = Torus(s).wrap(points)
    return cKDTree(pts, boxsize=s).query_ball_point(pts, radius)


def loop_build_edges(points, d, beta, torus):
    """The earlier `build_edges`: the same candidate order, then one numpy
    degree lookup per candidate pair.  Its pairs come from the periodic
    kd-tree, and fully tied pairs go in order of their vertex ids."""
    P = np.asarray(points, dtype=float)
    n = len(P)
    s = torus.s
    pairs = kdtree_close_pairs(P, s, beta)
    if len(pairs) == 0:
        return sp.csr_matrix((n, n), dtype=np.int8)
    dd = torus.delta(P[pairs[:, 0]], P[pairs[:, 1]])
    dist = np.hypot(dd[:, 0], dd[:, 1])
    a, b = P[pairs[:, 0]], P[pairs[:, 1]]
    swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
    lo = np.where(swap[:, None], b, a)
    tol = 1e-9 * s
    dist_key = np.round(dist / tol).astype(np.int64)
    delta = torus.delta(P[pairs[:, 0]], P[pairs[:, 1]])
    flip = (delta[:, 0] < 0) | ((delta[:, 0] == 0) & (delta[:, 1] < 0))
    delta[flip] *= -1.0
    dx_key = np.round(delta[:, 0] / tol).astype(np.int64)
    dy_key = np.round(delta[:, 1] / tol).astype(np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], lo[:, 1], lo[:, 0], dy_key,
                        dx_key, dist_key))
    deg = np.zeros(n, dtype=int)
    rows, cols = [], []
    for idx in order:
        u, v = int(pairs[idx, 0]), int(pairs[idx, 1])
        if deg[u] < d and deg[v] < d:
            deg[u] += 1
            deg[v] += 1
            rows += [u, v]
            cols += [v, u]
    adj = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    return adj


def loop_place_anchors(rng, spec, s):
    """The earlier `_place_anchors`: one draw at a time, each measured
    against every anchor kept so far."""
    anchors = np.empty((spec.count, 2))
    placed = 0
    attempts = 0
    cap = 2000 * spec.count
    while placed < spec.count:
        attempts += 1
        if attempts > cap:
            raise RuntimeError(
                f"could not place {spec.count} copies with separation "
                f"{spec.min_separation} on a torus of side {s}"
            )
        c = rng.uniform(0.0, s, size=2)
        if spec.snap is not None:
            c = np.round(c / spec.snap) * spec.snap % s
        if placed:
            delta = np.mod(anchors[:placed] - c + 0.5 * s, s) - 0.5 * s
            if (np.hypot(delta[:, 0], delta[:, 1]) < spec.min_separation).any():
                continue
        anchors[placed] = c
        placed += 1
    return anchors


def loop_generate(params, plant=None):
    """The earlier `generate`: `loop_place_anchors`, one background draw and
    one ball query at a time, `np.mod` as the wrap, `loop_build_edges`.
    Returns (points, adjacency)."""
    s = params.s
    torus = Torus(s)
    rng = np.random.default_rng(params.seed)
    if plant is None:
        points = rng.uniform(0.0, s, size=(params.p, 2))
    else:
        anchors = loop_place_anchors(rng, plant, s)
        blocks = []
        for c in anchors:
            q = int(rng.integers(4)) if plant.rotate else 0
            blocks.append(np.mod(c + grid_rotate(plant.points, q), s))
        planted_pts = np.vstack(blocks)
        n_bg = params.p - plant.count * plant.size
        bg = []
        if n_bg > 0:
            tree = cKDTree(np.mod(planted_pts, s), boxsize=s)
            attempts = 0
            while len(bg) < n_bg:
                attempts += 1
                if attempts > 2000 * n_bg:
                    raise RuntimeError("could not place background vertices")
                c = rng.uniform(0.0, s, size=2)
                if len(tree.query_ball_point(c, plant.clearance)) == 0:
                    bg.append(c)
        points = np.vstack([planted_pts] + ([np.array(bg)] if bg else []))
    return points, loop_build_edges(points, params.d, params.beta, torus)


def rotate_cells(cells, quarter_turns):
    """Rotate and renormalize integer cell offsets."""
    out = [(int(a), int(b)) for a, b in cells]
    for _ in range(quarter_turns % 4):
        out = [(-b, a) for a, b in out]
    r0 = min(a for a, _ in out)
    c0 = min(b for _, b in out)
    return [(a - r0, b - c0) for a, b in out]


def loop_interior_cells(cells):
    """Unoccupied cells of the bounding box of normalized `cells` inside
    their gift-wrapped hull, one membership test per cell, row-major."""
    hull = gift_wrap_hull(np.asarray(cells, float))
    rmax = max(a for a, _ in cells)
    cmax = max(b for _, b in cells)
    occupied = set(cells)
    return [
        (a, b)
        for a in range(rmax + 1)
        for b in range(cmax + 1)
        if (a, b) not in occupied
        and point_in_polygon(np.array([a, b], float), hull, 1e-9)
    ]


def brute_copy_scan(occupancy, cells, dedup=True):
    """All (position, rotation) placements where the rotated cell set is
    occupied and no foreign occupied node lies inside its hull.  With
    dedup, placements covering the same node set count once."""
    m = len(occupancy)
    found = []
    seen = set()
    for q in range(4):
        rot = rotate_cells(cells, q)
        interior = loop_interior_cells(rot)
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


Occurrence = namedtuple("Occurrence", "position rotation vertex_ids center")


def roll_find_copies(lattice, template, graph, anchor=None):
    """The earlier `find_copies`: a placement (i, j) of rotation q matches
    when every rolled occupancy mask of the rotated offsets is set there and
    every rolled mask of its hull-interior cells is clear.  Each rotation
    comes from `rotate_cells` and its interior from `loop_interior_cells`,
    not from the library's template.
    Returns the Occurrence list in rotation-then-row-major order,
    deduplicated by vertex set.  With `anchor`, the rotation-0 placement
    there comes first and every later placement covering its vertex set is
    dropped.  `graph` supplies the points and the torus of the centers."""
    grid = dense_grid(lattice)
    occ = grid >= 0
    m = lattice.m
    points, torus = graph.points, graph.torus
    seen_patterns, seen_sets, matches = set(), set(), []

    def occurrence(i, j, q, ids):
        seen_sets.add(frozenset(ids))
        local = torus.delta(points[ids[0]], points[list(ids)])
        center = torus.wrap(points[ids[0]] + local.mean(axis=0))
        return Occurrence((i, j), q, ids, center)

    if anchor is not None:
        i, j = anchor
        ids = tuple(int(grid[(i + a) % m, (j + b) % m])
                    for a, b in template.offsets)
        matches.append(occurrence(i, j, 0, ids))
    for q in range(4):
        rot = PatternTemplate.from_offsets(rotate_cells(template.offsets, q))
        key = frozenset(rot.offsets)
        if key in seen_patterns:
            continue
        seen_patterns.add(key)
        present = np.ones((m, m), dtype=bool)
        for a, b in rot.offsets:
            present &= np.roll(occ, (-a, -b), axis=(0, 1))
        if not present.any():
            continue  # the interior masks could only clear more placements
        for a, b in loop_interior_cells(rot.offsets):
            present &= ~np.roll(occ, (-a, -b), axis=(0, 1))
        I, J = np.nonzero(present)
        rows, cols = np.array(rot.offsets).T
        slot_ids = grid[(I[:, None] + rows) % m, (J[:, None] + cols) % m].tolist()
        for i, j, ids in zip(I.tolist(), J.tolist(), map(tuple, slot_ids)):
            if frozenset(ids) not in seen_sets:
                matches.append(occurrence(i, j, q, ids))
    return matches


def window_anchor(lattice, ids, i0, j0):
    """Lattice position of a window's pattern: the corner of the bounding
    box of its occupied cells, as `roll_find_copies` reports it."""
    rel = (lattice.nodes[list(ids)] - (i0, j0)) % lattice.m
    r0, c0 = rel.min(axis=0).tolist()
    return (i0 + r0) % lattice.m, (j0 + c0) % lattice.m


def scan_separated(matches, torus, w):
    """The earlier `greedy_separated`: accept an occurrence iff its center
    is at least w from every accepted center, one scalar distance each."""
    accepted = []
    for idx, occr in enumerate(matches):
        if all(torus.distance(occr.center, matches[j].center) >= w
               for j in accepted):
            accepted.append(idx)
    return accepted


def loop_pooled_scm(samples, matches, separated, size):
    """The earlier `pooled_scm`: per-occurrence sample covariances summed
    in scan order and averaged."""
    X = samples.data
    out = np.zeros((size, size))
    for idx in separated:
        sub = X[:, list(matches[idx].vertex_ids)]
        out += sub.T @ sub
    out /= samples.n * len(separated)
    return out


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


def dense_grid(lattice):
    """The m x m array of the vertex on each lattice node, -1 where the
    node is empty, built from `lattice.nodes` alone."""
    grid = np.full((lattice.m, lattice.m), -1, dtype=np.int32)
    grid[tuple(lattice.nodes.T)] = np.arange(len(lattice.nodes))
    return grid


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


def candidate_squares_scan(nodes, m, r, cap):
    """Anchors (i, j, k, ids) whose smallest k <= cap with at least r
    vertices in the k x k toroidal window holds exactly r, row-major."""
    out = []
    for i in range(m):
        for j in range(m):
            for k in range(1, min(cap, m) + 1):
                ids = window_vertices_scan(nodes, m, i, j, k)
                if len(ids) >= r:
                    if len(ids) == r:
                        out.append((i, j, k, ids))
                    break
    return out


def table_candidate_squares(lattice, r, k_cap):
    """The earlier `_candidate_squares`: one occupancy prefix table over
    the 2 x 2 tiled lattice and every k up to the cap evaluated for all
    anchors at once, then the qualifying windows in row-major order."""
    m = lattice.m
    tiled = np.tile(dense_grid(lattice), (2, 2))
    P = np.zeros((2 * m + 1, 2 * m + 1), dtype=np.int64)
    P[1:, 1:] = (tiled >= 0).cumsum(0).cumsum(1)
    reached = np.zeros((m, m), dtype=bool)
    size = np.zeros((m, m), dtype=int)
    for k in range(1, min(k_cap, m) + 1):
        cnt = (P[k:k + m, k:k + m] - P[:m, k:k + m]
               - P[k:k + m, :m] + P[:m, :m])
        newly = (cnt >= r) & ~reached
        reached |= newly
        size[newly & (cnt == r)] = k
        if reached.all():
            break
    for i, j in np.argwhere(size).tolist():
        k = int(size[i, j])
        window = tiled[i:i + k, j:j + k]
        yield i, j, k, sorted(window[window >= 0].tolist())


def _target_candidate_squares(lattice, r, target, k_cap):
    """The earlier scan: occupancy and target box counts from two prefix
    tables; a window qualifies when it holds a target vertex."""
    m = lattice.m
    tiled = np.tile(dense_grid(lattice), (2, 2))

    def box_counts(cells):
        P = np.zeros((2 * m + 1, 2 * m + 1), dtype=np.int64)
        P[1:, 1:] = cells.cumsum(0).cumsum(1)
        return lambda k: (P[k:k + m, k:k + m] - P[:m, k:k + m]
                          - P[k:k + m, :m] + P[:m, :m])

    occupied = tiled >= 0
    occ_counts = box_counts(occupied)
    tgt_counts = box_counts(occupied & target[tiled])
    reached = np.zeros((m, m), dtype=bool)
    candidates = []
    for k in range(1, min(k_cap, m) + 1):
        cnt = occ_counts(k)
        newly = (cnt >= r) & ~reached
        reached |= newly
        good = newly & (cnt == r) & (tgt_counts(k) > 0)
        candidates += [(i, j, k) for i, j in np.argwhere(good).tolist()]
        if reached.all():
            break
    candidates.sort()
    for i, j, k in candidates:
        window = tiled[i:i + k, j:j + k]
        yield i, j, k, sorted(window[window >= 0].tolist())


def restart_selection(graph, params, samples=None, model=None,
                      exact_cov=False):
    """The earlier `run_selection` loop: rescan from the first anchor,
    offering only windows that hold an undecided vertex, after every
    iteration that marks vertices; stop when a full scan marks none.
    Returns the report with `runtime_ms` = 0.  The rescans meet the same
    windows again, so each window's core and zeta are derived once, a
    window whose detection was skipped is skipped again without a second
    copy search (a skip depends only on the window, the lattice and the
    samples), and each vertex's beta-ball is queried once."""
    p = graph.p
    beta = graph.params.beta
    if exact_cov and model is None:
        model = assemble_precision(graph.adjacency, graph.params.theta,
                                   graph.params.d)
    lattice = sel._quantize_with_backoff(graph, params.eps)
    k_cap = params.k_cap or sel.default_k_cap(
        params.r, graph.params.eta, lattice.eps)
    pts = np.mod(graph.points, graph.torus.s)
    balls = cKDTree(pts, boxsize=graph.torus.s).query_ball_point(pts, beta)

    def markable(v, img_set):
        return all(u in img_set for u in balls[v])

    cores = {}  # (i, j, k) -> (h_slots, zeta): pure in the window
    skipped = set()  # (i, j, k) of the windows whose detection was skipped

    def core(i, j, k, ids):
        h_slots = sel._window_core(lattice, graph.adjacency, ids, (i, j, k))
        h_ids = [ids[t] for t in h_slots]
        return h_slots, graph_distance(graph.adjacency, h_ids, ids) - 2

    detected = np.zeros(p, dtype=bool)
    undecided = np.zeros(p, dtype=bool)
    decisions = {}
    copies_found = copies_used = iterations = 0
    achieved_zetas = []
    low_confidence = False
    while True:
        target = ~(detected | undecided)
        if not target.any():
            break
        progressed = False
        for i, j, k, ids in _target_candidate_squares(lattice, params.r,
                                                      target, k_cap):
            if (i, j, k) not in cores:
                cores[i, j, k] = core(i, j, k, ids)
            h_slots, zeta = cores[i, j, k]
            if (i, j, k) in skipped:
                continue
            h_ids = [ids[t] for t in h_slots]
            h_set = set(h_ids)
            if not any(target[v] and markable(v, h_set) for v in h_ids):
                continue
            if params.min_zeta is not None and zeta < params.min_zeta:
                continue
            template = sel._window_template(lattice, ids, i, j)
            copies = sel.find_copies(lattice, template, graph, first=ids)
            sel.greedy_separated(copies, params.w)
            copies_found += len(copies.matches)
            copies_used += len(copies.separated)
            if len(copies.separated) == 1 and not exact_cov:
                low_confidence = True
            if exact_cov:
                S = model.covariance_submatrix(list(ids))
            else:
                try:
                    S = sel.pooled_scm(samples, copies)
                except ValueError:
                    skipped.add((i, j, k))
                    continue
            try:
                adj_h, j_hat = sel.detect_edges(
                    S, h_slots, params.detect_threshold)
            except sel.DetectionSkipped:
                skipped.add((i, j, k))
                continue
            iteration_marked = False
            for occ_idx in copies.separated:
                img = copies.matches[occ_idx, h_slots].tolist()
                img_set = set(img)
                for a in range(len(img)):
                    for b in range(a + 1, len(img)):
                        key = tuple(sorted((img[a], img[b])))
                        margin = abs(abs(j_hat[a, b]) - params.detect_threshold)
                        declared = bool(adj_h[a, b])
                        prev = decisions.get(key)
                        if prev is None:
                            decisions[key] = (declared, margin, {
                                "iteration": iterations, "copy": occ_idx,
                                "conflicts": []})
                        elif margin > prev[1]:
                            conflicts = prev[2]["conflicts"]
                            if declared != prev[0]:
                                conflicts = conflicts + [{
                                    "iteration": prev[2]["iteration"],
                                    "declared": prev[0], "margin": prev[1]}]
                            decisions[key] = (declared, margin, {
                                "iteration": iterations, "copy": occ_idx,
                                "conflicts": conflicts})
                        elif declared != prev[0]:
                            prev[2]["conflicts"].append({
                                "iteration": iterations,
                                "declared": declared, "margin": margin})
                for v in img:
                    if not detected[v] and markable(v, img_set):
                        detected[v] = True
                        undecided[v] = False
                        iteration_marked = True
            iterations += 1
            achieved_zetas.append(zeta)
            if iteration_marked:
                progressed = True
                break
        if not progressed:
            undecided |= ~detected
            break

    edges = sorted(key for key, (declared, _, _) in decisions.items()
                   if declared)
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    e_hat = sp.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                          shape=(p, p))
    loss, missed, false = matrix_zero_one_loss(e_hat, graph.adjacency)
    return sel.SelectionReport(
        p=p, n=samples.n if samples is not None else 0, r=params.r,
        eps=lattice.eps, w=params.w, theta=params.theta,
        copies_found=copies_found, copies_used=copies_used,
        zero_one_loss=loss, missed_edges=missed, false_edges=false,
        undecided_vertices=sorted(np.nonzero(undecided)[0].tolist()),
        runtime_ms=0.0, edges=edges,
        true_edge_count=graph.adjacency.nnz // 2, iterations=iterations,
        achieved_zetas=achieved_zetas,
        conflicting_pairs=sum(bool(meta["conflicts"])
                              for _, _, meta in decisions.values()),
        low_confidence=low_confidence,
    )


def matrix_zero_one_loss(e_hat, e_true):
    """(loss, missed, false): loss is 0 iff the adjacencies are identical;
    the counts enumerate the symmetric difference over unordered pairs."""
    A = sp.csr_matrix(e_hat) != 0
    B = sp.csr_matrix(e_true) != 0
    if A.shape != B.shape:
        raise ValueError("adjacency shapes differ")
    missed = sp.triu(B > A, k=1).nnz
    false = sp.triu(A > B, k=1).nnz
    return (0 if (missed == 0 and false == 0) else 1), missed, false


def dict_resolve_pairs(codes, margins, declared):
    """The earlier decision transport: one dict entry per pair code, kept
    until a row with a strictly larger margin replaces it.  Returns the
    sorted codes kept as declared edges and the number of codes whose
    rows disagree."""
    decisions = {}
    conflicted = set()
    for code, margin, flag in zip(codes.tolist(), margins.tolist(),
                                  declared.tolist()):
        prev = decisions.get(code)
        if prev is None or margin > prev[1]:
            decisions[code] = (flag, margin)
        if prev is not None and flag != prev[0]:
            conflicted.add(code)
    return (sorted(c for c, (flag, _) in decisions.items() if flag),
            len(conflicted))


def set_balls_inside(balls, images):
    """The earlier marking test, one vertex at a time: is every vertex of
    the ball inside the image's vertex set?"""
    out = []
    for img in images.tolist():
        img_set = set(img)
        out.append([all(u in img_set for u in balls[v]) for v in img])
    return out


def exit_distance_paths(E, from_ids, within):
    """Edge distance from `from_ids` to the vertices outside `within`, by
    unweighted shortest paths over the whole graph: the minimum over the
    sources and the outside vertices, inf when either is empty."""
    sources = sorted({int(v) for v in from_ids})
    outside = sorted(set(range(E.shape[0])) - {int(v) for v in within})
    if not sources or not outside:
        return math.inf
    dist = shortest_path(sp.csr_matrix(E), unweighted=True, indices=sources)
    return float(dist[:, outside].min())


def dense_cdp_lhs(model, block):
    """Spectral norm of J_{H,R} J_R^{-1} J_{R,V} (R = F \\ H, V the
    complement of F) from dense blocks of J over every column of V."""
    hset, fset = set(block.H), set(block.F)
    vidx = [v for v in range(model.p) if v not in fset]
    ridx = [v for v in block.F if v not in hset]
    if not ridx or not vidx:
        return 0.0
    J = model.J
    JHR = J[np.ix_(list(block.H), ridx)].toarray()
    JR = J[np.ix_(ridx, ridx)].toarray()
    JRV = J[np.ix_(ridx, vidx)].toarray()
    inner = sla.cho_solve(sla.cho_factor(JR), JRV)
    return float(np.linalg.norm(JHR @ inner, ord=2))


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


def scaled_triangular_sample(model, n, seed):
    """The earlier `PrecisionModel.sample`: standard normals scaled by the
    LDL^T pivots, then solved against a CSR copy of L^T, diagonal read."""
    lu = model._lu
    z = np.random.default_rng(seed).standard_normal((model.p, n))
    y = z / np.sqrt(lu.U.diagonal())[:, None]
    xp = spsolve_triangular(lu.L.T.tocsr(), y, lower=False)
    return np.ascontiguousarray(xp[lu.perm_c].T)
