"""Edge-structure recovery by pooled local covariance estimation.

The pipeline quantizes the vertex set onto a lattice, repeatedly picks a
small window holding a fixed number of vertices, locates all rotated
lattice copies of the window's occupied-node pattern, pools sample covariances
over a well-separated subset of the copies, and reads edges of the window
core off the inverted local Schur complement, transporting the decisions
to every copy.  Undecidable vertices are reported, never guessed.
"""
from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    CollisionError,
    Lattice,
    PatternTemplate,
    Torus,
    grid_rotate,
    quantize,
    snap_eps,
)
from .gmrf import (
    NotPositiveDefinite,
    PrecisionModel,
    SampleMatrix,
    assemble_precision,
    graph_distance,
    schur_conditional_precision,
)


class DetectionSkipped(RuntimeError):
    """The pooled covariance was numerically unusable for this window."""


@dataclass
class SelectorParams:
    """Tuning knobs of the recovery loop.

    `r` vertices per window, lattice pitch `eps`, pooling separation `w`,
    known coupling `theta`, and the decision threshold on recovered
    precision entries (default theta/2).  `min_zeta` optionally rejects
    detections whose certified decay order falls below it; `k_cap`
    overrides the default window-size cap.  `r` and `k_cap` are stored
    as int, and a value that is not an integer is refused.
    """

    r: int
    eps: float
    w: float
    theta: float
    detect_threshold: float | None = None
    min_zeta: int | None = None
    k_cap: int | None = None

    def __post_init__(self):
        for name in ("r", "k_cap"):
            val = getattr(self, name)
            if val is not None:
                try:
                    setattr(self, name, operator.index(val))
                except TypeError:
                    raise TypeError(
                        f"{name} must be an integer, got {val!r}") from None
        for name in ("eps", "w", "theta", "detect_threshold"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.r < 2:
            raise ValueError("r must be at least 2")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.w < self.eps:
            raise ValueError("w must be at least eps")
        if self.k_cap is not None and self.k_cap < 1:
            raise ValueError("k_cap must be at least 1")
        if self.detect_threshold is None:
            if self.theta <= 0:
                raise ValueError("a zero-coupling run needs an explicit threshold")
            self.detect_threshold = 0.5 * self.theta
        if self.theta > 0:
            if not (0.0 < self.detect_threshold < self.theta):
                raise ValueError("detect_threshold must lie strictly in (0, theta)")
        elif self.detect_threshold <= 0:
            raise ValueError("detect_threshold must be positive")


def default_params(p: int, theta: float, **overrides) -> SelectorParams:
    """Asymptotic defaults: r = max(2, ceil(lnln p)), eps = 1/ln p,
    w = eps * ln^2 p, threshold theta/2.  Keyword `overrides` replace
    any of them (or set `min_zeta`, `k_cap`) before validation; w follows
    the eps in use, overridden or not, unless w itself is overridden."""
    if p < 16:
        raise ValueError("defaults need p >= 16")
    lp = math.log(p)
    fields = dict(r=max(2, math.ceil(math.log(lp))), eps=1.0 / lp)
    fields.update(overrides)
    fields.setdefault("w", fields["eps"] * lp * lp)
    return SelectorParams(theta=theta, **fields)


@dataclass
class CopySet:
    """All matched occurrences of a pattern, one row each (the original
    first when known): `matches` holds the (N, size) vertex ids in
    template slot order, so the pattern size is its column count,
    `centers` the (N, 2) occurrence centers on `torus`, and `separated`
    the indices of the pooling subset chosen for separation."""

    matches: np.ndarray
    centers: np.ndarray
    torus: Torus
    separated: list[int] = field(default_factory=list)


def _rotated_cells(template: PatternTemplate) -> np.ndarray:
    """The (4, cells, 2) pattern offsets, in slot order, then the
    hull-interior cells, under each quarter turn q = 0..3 and shifted so
    the rotated offsets touch (0, 0): one hull for all four rotations."""
    cells = np.array(template.offsets + template.interior_cells())
    rot = grid_rotate(cells, np.arange(4)).astype(int)
    return rot - rot[:, :template.size].min(axis=1, keepdims=True)


def find_copies(lattice: Lattice, template: PatternTemplate, graph,
                first=None) -> CopySet:
    """All placements where a rotation of the pattern occurs contiguously.

    A placement matches when every rotated pattern offset is occupied and
    no foreign vertex sits inside the pattern's convex hull (checked on
    the hull-interior cells).  Only placements that put the first pattern
    offset on an occupied node are tried; they wrap around the torus and
    are scanned in one pass, rotation-major and row-major within.  Each
    later offset, under the placement's own rotation, is looked up only at
    the placements whose earlier offsets were all occupied, and the hull
    interior is read once, at the placements that survive every slot.
    Duplicates across rotations of symmetric patterns are removed by
    occurrence vertex set.  `first`, the slot ids of an occurrence (the
    window's own), is row 0 in its own slot order: every placement
    covering its vertex set is dropped, also where the pattern is periodic
    on the lattice and another placement lists the same vertices in
    another order.
    """
    m, size = lattice.m, template.size
    if template.k > m:
        raise ValueError("pattern exceeds the lattice size")
    rot = _rotated_cells(template)
    # one placement per rotation q and occupied node under the first offset,
    # so the codes (q * m + i) * m + j are distinct; sorted, they scan in order
    a, b = np.moveaxis((lattice.nodes - rot[:, :1]) % m, 2, 0)
    q, i, j = np.unravel_index(np.sort(np.ravel_multi_index(
        (np.arange(4)[:, None], a, b), (4, m, m)), axis=None), (4, m, m))
    for t in range(1, size):
        hit = lattice.lookup(i + rot[q, t, 0], j + rot[q, t, 1]) >= 0
        q, i, j = q[hit], i[hit], j[hit]
    found = lattice.lookup(i[:, None] + rot[q, :, 0], j[:, None] + rot[q, :, 1])
    head = np.reshape(np.asarray([] if first is None else first, dtype=int), (-1, size))
    rows = np.concatenate((head, found[(found[:, size:] < 0).all(axis=1), :size]))
    # each vertex set's first row in scan order
    _, idx = np.unique(np.sort(rows, axis=1), axis=0, return_index=True)
    matches = rows[np.sort(idx)]
    pts = graph.points[matches]
    torus = graph.torus
    local = torus.delta(pts[:, :1], pts)
    centers = torus.wrap(pts[:, 0] + local.mean(axis=1))
    return CopySet(matches=matches, centers=centers, torus=torus)


def greedy_separated(copies: CopySet, w: float) -> CopySet:
    """Fill the pooling subset greedily in scan order.

    An occurrence is accepted iff its center is at least `w` (toroidal)
    from every accepted one; the center distance lower-bounds the
    bottleneck distance between the vertex sets, so accepted occurrences
    are genuinely w-separated.  The first occurrence is always accepted,
    and centers exactly w apart do not clash.
    """
    if not len(copies.matches):
        raise ValueError("no occurrences to separate")
    copies.separated = copies.torus.separated(copies.centers, w)
    return copies


def pooled_scm(samples: SampleMatrix, copies: CopySet) -> np.ndarray:
    """Average the per-occurrence sample covariances over the pooling set.

    The rows of `matches` are slot-aligned, so entry (a, b) always refers
    to the same pair of template slots regardless of position or rotation.
    The reduction order is the fixed scan order.
    """
    if not copies.separated:
        raise ValueError("pooling subset is empty")
    X = samples.data
    size = copies.matches.shape[1]
    out = np.zeros((size, size))
    for ids in copies.matches[copies.separated]:
        sub = X[:, ids]
        out += sub.T @ sub
    out /= samples.n * len(copies.separated)
    return out


def detect_edges(S: np.ndarray, h_slots, threshold: float):
    """Read edges among the inner slots from the pooled covariance.

    Inverts the Schur complement of the inner block and declares an edge
    where the recovered precision entry clears the threshold in absolute
    value.  Returns the boolean adjacency over the inner slots and the
    recovered precision matrix for margin diagnostics.  Raises
    DetectionSkipped when the linear algebra is unusable.
    """
    try:
        j_hat = np.linalg.inv(schur_conditional_precision(S, h_slots))
    except (NotPositiveDefinite, np.linalg.LinAlgError) as exc:
        raise DetectionSkipped(str(exc)) from exc
    adj = np.abs(j_hat) >= threshold
    np.fill_diagonal(adj, False)
    return adj, j_hat


def default_k_cap(r: int, eta: float, eps: float) -> int:
    """Window-size sanity cap: about (1/eps) sqrt(r/eta) log r nodes, at
    least 3.  The scan clamps it to the lattice side."""
    cap = math.ceil(math.sqrt(r / eta) * math.log(max(r, 3)) / eps)
    return max(3, cap)


def _candidate_squares(lattice: Lattice, r: int, k_cap: int, settled):
    """Yield (i, j, k, ids) squares in row-major scan order.

    An anchor's k is the smallest size at which its window holds at least
    r vertices; it qualifies when that count is exactly r.  Windows are
    contiguous: every vertex inside the square belongs to the window set,
    `ids`, in increasing order.  A window is yielded only if one of its
    vertices is not `settled`, a live mask the caller may extend in place.

    The scan goes one band of K = min(k_cap, m) anchor rows at a time and
    yields a band's windows before it reads the next.  A band reads the
    vertices in its nb + K - 1 rows of the 2 x 2 tiled lattice and keeps
    an anchor column j only if the tiled columns [j, j + K), which hold
    every window anchored there, hold r vertices, one unsettled.  It
    builds only the columns that the kept anchors' K-windows reach, side
    by side, and nothing when it keeps none.  A band without r vertices,
    or without a live one, stops after reading them, so the scan's memory
    and time follow the occupied nodes (plus O(m) column sums per band
    with a live vertex), not the m x m cells.  There it counts windows
    exactly, by inclusion-exclusion on two prefix tables (occupied cells;
    cells of unsettled vertices), keeps the anchors whose K-window holds
    r vertices, one unsettled, and finds their k by binary lifting: from
    K, step down by each power of two, largest first, wherever the
    smaller window still holds r.  Counts grow with k from 0 at k = 0, so
    this is exact in about log2 K numpy calls.
    """
    m = lattice.m
    K = min(k_cap, m)

    def box(T, i, j, k):
        return T[i + k, j + k] - T[i, j + k] - T[i + k, j] + T[i, j]

    def strips(b):  # the vertices in each tiled strip [j, j + K), j < m
        col = np.bincount(b, minlength=m)
        C = np.cumsum(np.r_[0, col, col[:K - 1]])
        return C[K:] - C[:m]

    for i0 in range(0, m, K):
        nb = min(K, m - i0)
        _, b, v = lattice.band(i0, nb + K - 1)
        live = ~settled[v]
        if len(v) < r or not live.any():
            continue
        anchors = np.flatnonzero((strips(b) >= r) & (strips(b[live]) > 0))
        if not len(anchors):
            continue
        # the tiled columns c with an anchor in (c - K, c]
        reach = np.zeros(m + K, dtype=int)
        reach[anchors] += 1
        reach[anchors + K] -= 1
        cols = np.flatnonzero(np.cumsum(reach[:-1]))
        cells = lattice.tiled_block(i0, nb + K - 1, cols)
        occupied = cells >= 0
        P, Q = (np.pad(c.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32),
                       ((1, 0), (1, 0)))
                for c in (occupied, occupied & ~settled[cells]))
        # every kept anchor's K-window count, from four slices
        t = np.searchsorted(cols, anchors)
        i, n = np.nonzero(
            (P[K:, t + K] - P[:nb, t + K] - P[K:, t] + P[:nb, t] >= r)
            & (Q[K:, t + K] - Q[:nb, t + K] - Q[K:, t] + Q[:nb, t] > 0))
        j = t[n]
        k = np.full(len(i), K)
        for step in 2 ** np.arange(K.bit_length())[::-1]:
            down = np.maximum(k - step, 0)
            k = np.where(box(P, i, j, down) >= r, down, k)
        keep = (box(P, i, j, k) == r) & (box(Q, i, j, k) > 0)
        for i, j, k in np.column_stack((i, j, k))[keep].tolist():
            window = cells[i:i + k, j:j + k]
            ids = window[window >= 0]
            if not settled[ids].all():
                yield i0 + i, int(cols[j]), k, sorted(ids.tolist())


def _window_template(lattice: Lattice, ids, i0: int, j0: int):
    """Pattern of the window's occupied cells, cropped and normalized.
    Slot order follows `ids`."""
    rel = (lattice.nodes[list(ids)] - (i0, j0)) % lattice.m
    return PatternTemplate.from_offsets(rel.tolist())


def _window_core(lattice: Lattice, adjacency, ids, square) -> list[int]:
    """Slots of the window's core H.  A closed window, one no edge leaves,
    holds whole components: the local inversion is exact, so every slot is
    the core.  Otherwise the core is the window vertices inside the middle
    half-square, grown one ring at a time while it is empty; the whole
    square holds the window, so the core is never empty."""
    if math.isinf(graph_distance(adjacency, ids, ids)):
        return list(range(len(ids)))
    i0, j0, k = square
    m = lattice.m
    rel = lattice.nodes[list(ids)] - (i0, j0)
    k_h = max(1, k // 2)
    while True:
        margin = (k - k_h) // 2
        inside = ((rel - margin) % m < k_h).all(axis=1)
        slots = np.nonzero(inside)[0].tolist()
        if slots or k_h >= k:
            return slots
        k_h = min(k, k_h + 2)


@dataclass
class SelectionReport:
    """Outcome of a recovery run with loss metrics against ground truth."""

    p: int
    n: int
    r: int
    eps: float
    w: float
    theta: float
    copies_found: int
    copies_used: int
    zero_one_loss: int
    missed_edges: int
    false_edges: int
    undecided_vertices: list[int]
    runtime_ms: float
    edges: list[tuple[int, int]]
    true_edge_count: int = 0
    iterations: int = 0
    achieved_zetas: list[float] = field(default_factory=list)
    conflicting_pairs: int = 0
    low_confidence: bool = False

    def to_json(self) -> str:
        """Every field, in declaration order, as strict JSON; a closed
        window's zeta, math.inf, is written as null."""
        zetas = [None if math.isinf(z) else z for z in self.achieved_zetas]
        return json.dumps(dict(vars(self), achieved_zetas=zetas),
                          allow_nan=False)


def zero_one_loss(hat_codes, true_codes):
    """(loss, missed, false) between two edge sets of sorted, distinct pair
    codes u * p + v (u < v): loss is 0 iff the sets are equal; the counts
    enumerate the symmetric difference."""
    both = len(np.intersect1d(hat_codes, true_codes, assume_unique=True))
    missed, false = len(true_codes) - both, len(hat_codes) - both
    return (0 if (missed == 0 and false == 0) else 1), missed, false


MAX_HALVINGS = 8


def _quantize_with_backoff(graph, eps: float):
    """Quantize, halving the pitch on node collisions (at most
    MAX_HALVINGS times)."""
    eps = snap_eps(eps, graph.torus.s)
    last: CollisionError | None = None
    for _ in range(MAX_HALVINGS + 1):
        try:
            return quantize(graph, eps)
        except CollisionError as exc:
            last = exc
            eps = snap_eps(eps / 2.0, graph.torus.s)
    raise last


def _close_pairs(pairs: np.ndarray, p: int):
    """Every vertex's beta-ball from the (N, 2) beta-close pairs i < j of
    p vertices: the sorted codes u * p + v (u < v), closed by the sentinel
    p * p so that every lookup lands in range, and the ball sizes, each
    ball holding its own vertex."""
    codes = np.append(np.sort(pairs[:, 0] * p + pairs[:, 1]), p * p)
    return codes, np.bincount(pairs.ravel(), minlength=p) + 1


def _balls_inside(pair_codes, ball_sizes, images) -> np.ndarray:
    """Entry (n, t) is True iff the ball of v = images[n, t] lies inside
    row n of the (N, h) array `images` of distinct vertices per row: the
    row holds v and every vertex paired with v in `pair_codes`."""
    p = len(ball_sizes)
    u, v = images[:, :, None], images[:, None, :]
    want = np.minimum(u, v) * p + np.maximum(u, v)
    held = pair_codes[np.searchsorted(pair_codes, want)] == want
    return held.sum(axis=2) + 1 == ball_sizes[images]


def _resolve_pairs(codes, margins, declared):
    """Resolve the decision rows of a run, one row per (copy, slot pair)
    in the order they were made.  Each pair code keeps the row of largest
    margin, the earliest on equal margins: a stable sort groups each
    code's rows in the order they were made, and the first row of a run
    at the run's top margin wins.  Returns the sorted codes kept as
    declared edges and the number of codes whose rows disagree."""
    order = np.argsort(codes, kind="stable")
    codes, declared = codes[order], declared[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))
    if len(first) == len(codes):  # one row per code
        return codes[declared], 0
    margins = margins[order]
    top = np.maximum.reduceat(margins, first)
    at_top = np.flatnonzero(margins == np.repeat(top, np.diff(first, append=len(codes))))
    won = at_top[np.searchsorted(at_top, first)]
    agree = (np.logical_and.reduceat(declared, first)
             == np.logical_or.reduceat(declared, first))
    return codes[won[declared[won]]], int((~agree).sum())


def run_selection(
    graph,
    params: SelectorParams,
    samples: SampleMatrix | None = None,
    model: PrecisionModel | None = None,
    exact_cov: bool = False,
) -> SelectionReport:
    """Full recovery loop: window choice, copy search, separation, pooling,
    core detection with transport to all copies, and loss metrics.

    With `exact_cov` the population covariance of `model` (assembled from
    the graph and its own theta if omitted) replaces the pooled sample
    covariance, and `samples` are refused; otherwise `samples` drawn from
    the graph's model are pooled, and `model` is refused.  A vertex is
    marked decided only when all its potential neighbors (the beta-ball
    around it) were examined jointly with it, so every edge of a decided
    vertex has been explicitly ruled in or out.  Conflicting edge
    decisions keep the larger detection margin; on equal margins the
    earliest decision stays.  `conflicting_pairs` counts the pairs with
    disagreeing decisions.

    A vertex whose ball holds more than r vertices can never be decided,
    so it counts as settled from the start, and any other vertex once it
    is decided.  The scan offers no window of settled vertices, the run
    skips the scan when every vertex is settled and stops once every
    vertex is: such windows could not pass the viability screen.
    """
    t0 = time.perf_counter()
    p = graph.p
    beta = graph.params.beta
    if exact_cov:
        if model is None:
            model = assemble_precision(graph.adjacency, graph.params.theta,
                                       graph.params.d)
        elif model.p != p:
            raise ValueError("model dimension disagrees with the graph")
        if samples is not None:
            raise ValueError("samples are not read when exact_cov is set")
    elif model is not None:
        raise ValueError("model is not read unless exact_cov is set")
    elif samples is None:
        raise ValueError("need samples unless exact_cov is set")
    elif samples.p != p:
        raise ValueError("sample dimension disagrees with the graph")
    # a decided vertex has every edge inside its beta-ball
    pair_codes, ball_sizes = _close_pairs(graph.beta_pairs(), p)
    true_codes = graph.edge_codes
    far = true_codes[pair_codes[np.searchsorted(pair_codes, true_codes)] != true_codes]
    if len(far):
        u, v = divmod(int(far[0]), p)
        raise ValueError(f"edge ({u}, {v}) is longer than beta = {beta}")

    lattice = _quantize_with_backoff(graph, params.eps)
    eps_used = lattice.eps
    k_cap = params.k_cap or default_k_cap(params.r, graph.params.eta, eps_used)
    # an image holds at most r vertices, so a larger ball is never marked
    hopeless = ball_sizes > params.r
    settled = hopeless.copy()
    codes, margins, declared = [np.zeros(0, int)], [np.zeros(0)], [np.zeros(0, bool)]
    copies_found = copies_used = 0
    achieved_zetas: list[float] = []
    low_confidence = False

    windows = () if settled.all() else _candidate_squares(
        lattice, params.r, k_cap, settled)
    for i, j, k, ids in windows:
        h_slots = _window_core(lattice, graph.adjacency, ids, (i, j, k))
        h_ids = np.asarray(ids)[None, h_slots]
        # cheap viability screen: the window's own core must decide
        # at least one new vertex, else copies cannot either; it runs
        # before zeta's distance search, which it does not need
        if not (_balls_inside(pair_codes, ball_sizes, h_ids) & ~settled[h_ids]).any():
            continue
        zeta = graph_distance(graph.adjacency, h_ids[0], ids) - 2
        if params.min_zeta is not None and zeta < params.min_zeta:
            continue

        template = _window_template(lattice, ids, i, j)
        copies = find_copies(lattice, template, graph, first=ids)
        greedy_separated(copies, params.w)
        copies_found += len(copies.matches)
        copies_used += len(copies.separated)
        if len(copies.separated) == 1 and not exact_cov:
            low_confidence = True
        # row 0 is the window itself, which the separation always accepts,
        # so the pooling subset is never empty
        if exact_cov:
            S = model.covariance_submatrix(list(ids))
        else:
            S = pooled_scm(samples, copies)
        try:
            adj_h, j_hat = detect_edges(S, h_slots, params.detect_threshold)
        except DetectionSkipped:
            continue

        # one row per (copy, slot pair), copies in pooling order and the
        # slot pairs in row-major order within each copy
        images = copies.matches[np.ix_(copies.separated, h_slots)]
        a, b = np.triu_indices(len(h_slots), 1)
        u, v = images[:, a], images[:, b]
        codes.append((np.minimum(u, v) * p + np.maximum(u, v)).ravel())
        margin = np.abs(np.abs(j_hat[a, b]) - params.detect_threshold)
        margins.append(np.broadcast_to(margin, u.shape).ravel())
        declared.append(np.broadcast_to(adj_h[a, b], u.shape).ravel())
        settled[images[_balls_inside(pair_codes, ball_sizes, images)]] = True
        achieved_zetas.append(zeta)
        if settled.all():
            break

    hat_codes, conflicting = _resolve_pairs(
        *map(np.concatenate, (codes, margins, declared)))
    loss, missed, false = zero_one_loss(hat_codes, true_codes)
    us, vs = np.divmod(hat_codes, p)
    return SelectionReport(
        p=p, n=samples.n if samples is not None else 0, r=params.r,
        eps=eps_used, w=params.w, theta=params.theta,
        copies_found=copies_found, copies_used=copies_used,
        zero_one_loss=loss, missed_edges=missed, false_edges=false,
        undecided_vertices=np.nonzero(hopeless | ~settled)[0].tolist(),
        runtime_ms=1000.0 * (time.perf_counter() - t0),
        edges=list(zip(us.tolist(), vs.tolist())),
        true_edge_count=len(true_codes),
        iterations=len(achieved_zetas), achieved_zetas=achieved_zetas,
        conflicting_pairs=conflicting, low_confidence=low_confidence,
    )
