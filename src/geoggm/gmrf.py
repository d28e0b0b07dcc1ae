"""The Gaussian layer over a geometric graph.

Precision assembly J = I + theta*E, exact covariance algebra through
block elimination, deterministic sampling via a sparse symmetric
factorization, Gaussian divergences (Hellinger, symmetrized KL), the
correlation-decay certificate, and an empirical stationarity diagnostic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .geometry import similarity


class CouplingTooLarge(ValueError):
    """d*theta >= 1/2: the walk expansion no longer converges."""


class NotPositiveDefinite(ValueError):
    """Factorization failed; the matrix is not positive definite."""


@dataclass
class SampleMatrix:
    """n i.i.d. centered snapshots as rows of an n x p matrix; n and p
    are read off `data`."""

    data: np.ndarray
    seed: int

    def __post_init__(self):
        if self.data.ndim != 2 or len(self.data) < 1:
            raise ValueError("samples must be a 2-D array with at least one row, "
                             f"got shape {self.data.shape}")
        bad = np.argwhere(~np.isfinite(self.data))
        if len(bad):
            raise ValueError("non-finite sample at (row, column) "
                             f"{tuple(bad[0].tolist())}")

    @property
    def n(self) -> int:
        return len(self.data)

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BlockIndex:
    """Nested vertex-index pair H within F (duplicate-free id lists)."""

    H: tuple[int, ...]
    F: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.H)) != len(self.H) or len(set(self.F)) != len(self.F):
            raise ValueError("index lists must be duplicate-free")
        if not set(self.H) <= set(self.F):
            raise ValueError("H must be contained in F")

    @classmethod
    def of(cls, H, F) -> "BlockIndex":
        return cls(tuple(int(v) for v in H), tuple(int(v) for v in F))


class PrecisionModel:
    """Gaussian model with precision I + theta*E, factorized once.

    The factorization is an LDL^T obtained from SuperLU in symmetric mode
    with diagonal pivoting; it certifies positive definiteness, drives the
    sampler, and answers covariance-submatrix queries by linear solves.
    """

    def __init__(self, E: sp.spmatrix, theta: float, d: int):
        E = sp.csr_matrix(E)
        if E.shape[0] != E.shape[1]:
            raise ValueError("adjacency must be square")
        if E.diagonal().any():
            raise ValueError("adjacency has nonzero diagonal")
        if (abs(E - E.T)).nnz:
            raise ValueError("adjacency must be symmetric")
        deg = np.asarray(E.sum(axis=1)).ravel()
        if deg.max(initial=0) > d:
            raise ValueError(f"max degree {int(deg.max())} exceeds d = {d}")
        if d * theta >= 0.5:
            raise CouplingTooLarge(f"d*theta = {d * theta} must be < 1/2")
        self.p = E.shape[0]
        self.theta = float(theta)
        self.d = int(d)
        self.E = E
        self.J = (sp.eye(self.p, format="csr") + theta * E).tocsc()
        try:
            self._lu = splu(
                self.J,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise NotPositiveDefinite(str(exc)) from exc
        dvec = self._lu.U.diagonal()
        if (dvec <= 0).any():
            raise NotPositiveDefinite("nonpositive pivot in LDL^T")
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NotPositiveDefinite("factorization lost symmetry")
        self._dvec = dvec

    def covariance_submatrix(self, ids) -> np.ndarray:
        """Rows/columns `ids` of the covariance, via |ids| linear solves."""
        idx = np.asarray(ids, dtype=int)
        rhs = np.zeros((self.p, len(idx)))
        rhs[idx, np.arange(len(idx))] = 1.0
        cols = self._lu.solve(rhs)
        return cols[idx]

    def sample(self, n: int, seed: int) -> SampleMatrix:
        """Draw n i.i.d. rows of N(0, J^{-1}) by solving the transposed factor
        against standard normals.  Bit-reproducible for a fixed seed."""
        if n < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((self.p, n))
        y = z / np.sqrt(self._dvec)[:, None]
        xp = spsolve_triangular(self._lu.L.T, y, lower=False, unit_diagonal=True)
        x = xp[self._lu.perm_c]
        return SampleMatrix(data=np.ascontiguousarray(x.T), seed=seed)


def assemble_precision(E: sp.spmatrix, theta: float, d: int) -> PrecisionModel:
    """Build and factorize the model with unit conditional variances."""
    return PrecisionModel(E, theta, d)


def schur_conditional_precision(J, keep) -> np.ndarray:
    """Precision of the marginal on `keep`: J_K - J_KV J_V^{-1} J_KV^T.

    Equals the inverse of the covariance submatrix on `keep` exactly.
    Accepts dense or sparse J.
    """
    Jd = J.toarray() if sp.issparse(J) else np.asarray(J, dtype=float)
    n = Jd.shape[0]
    kidx = np.asarray(keep, dtype=int)
    mask = np.ones(n, dtype=bool)
    mask[kidx] = False
    vidx = np.nonzero(mask)[0]
    JK = Jd[np.ix_(kidx, kidx)]
    if len(vidx) == 0:
        return JK.copy()
    JKV = Jd[np.ix_(kidx, vidx)]
    JV = Jd[np.ix_(vidx, vidx)]
    try:
        c = sla.cho_factor(JV)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("eliminated block is singular") from exc
    return JK - JKV @ sla.cho_solve(c, JKV.T)


def _chol_logdet(A: np.ndarray, what: str) -> float:
    try:
        c = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite") from exc
    return 2.0 * float(np.log(np.diag(c)).sum())


def hellinger(theta1, theta2) -> float:
    """Hellinger distance between centered Gaussians with these covariances.

    sqrt(1 - det(T1 T2)^{1/4} / det((T1+T2)/2)^{1/2}), evaluated through
    log-determinants so large dimensions do not overflow.
    """
    T1 = np.asarray(theta1, dtype=float)
    T2 = np.asarray(theta2, dtype=float)
    if T1.shape != T2.shape or T1.ndim != 2:
        raise ValueError("covariances must share a square shape")
    ld1 = _chol_logdet(T1, "theta1")
    ld2 = _chol_logdet(T2, "theta2")
    ldm = _chol_logdet(0.5 * (T1 + T2), "midpoint covariance")
    inside = math.exp(0.25 * (ld1 + ld2) - 0.5 * ldm)
    return math.sqrt(max(0.0, 1.0 - inside))


def sym_kl(J1, J2) -> float:
    """Symmetrized Kullback-Leibler divergence of two centered Gaussians,
    given their precisions: Tr((J1-J2)(J2^{-1}-J1^{-1})) / 2."""
    A1 = np.asarray(J1, dtype=float)
    A2 = np.asarray(J2, dtype=float)
    if A1.shape != A2.shape or A1.ndim != 2:
        raise ValueError("precisions must share a square shape")
    diff = A1 - A2
    c2 = sla.cho_factor(A2)
    c1 = sla.cho_factor(A1)
    return 0.5 * float(
        np.trace(sla.cho_solve(c2, diff)) - np.trace(sla.cho_solve(c1, diff))
    )


def graph_distance(E: sp.spmatrix, from_ids, within) -> float:
    """BFS edge distance from `from_ids` to the nearest vertex outside
    `within`: 0 when a vertex of `from_ids` already lies outside, inf when
    `from_ids` is empty or no path leaves `within`.  The search holds sets
    of `within` and of the vertices it visits, all inside `within`, so its
    memory does not grow with the number of vertices of E."""
    A = E.tocsr()
    inside = {int(v) for v in within}
    frontier = {int(v) for v in from_ids}
    if not frontier <= inside:
        return 0
    seen = set(frontier)
    level = 0
    while frontier:
        level += 1
        nxt = set()
        for v in frontier:
            for u in A.indices[A.indptr[v]:A.indptr[v + 1]].tolist():
                if u not in inside:
                    return level
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
        frontier = nxt
    return math.inf


def cdp_check(model: PrecisionModel, block: BlockIndex, zeta: int):
    """Correlation-decay certificate for a nested block pair.

    `zeta` counts the leading terms of the walk expansion through F \\ H
    that vanish; it is certified when the BFS edge distance from H to the
    nearest vertex outside F, `graph_distance(E, H, F)`, is at least
    zeta + 2.  Returns the measured spectral norm of J_{H,R} J_R^{-1} J_{R,V}
    (R = F \\ H, V = complement of F), built on the columns of V next to
    R alone, together with the bound (theta*d)^(zeta+2).
    """
    if zeta < 0:
        raise ValueError("zeta must be nonnegative")
    dist = graph_distance(model.E, block.H, block.F)
    if dist < zeta + 2:
        raise ValueError(
            f"graph distance {dist} from H to the outside of F certifies "
            f"only zeta = {max(0, int(dist) - 2)}, below requested {zeta}"
        )
    rhs = (model.theta * model.d) ** (zeta + 2)
    ridx = np.asarray(block.F, dtype=int)[~np.isin(block.F, block.H)]
    # by symmetry J's columns of R are its rows: nonzero on F and R's neighbours
    rows_R = model.J[:, ridx].tocoo()
    vidx = np.setdiff1d(rows_R.row, block.F)
    if not len(vidx):
        return 0.0, rhs
    h, r = len(block.H), len(ridx)
    cols = np.concatenate((block.H, ridx, vidx))
    order = np.argsort(cols)
    B = np.zeros((r, len(cols)))  # J_{R,H}, J_R and J_{R,V} side by side
    at = order[np.searchsorted(cols, rows_R.row, sorter=order)]
    B[rows_R.col, at] = rows_R.data
    inner = sla.cho_solve(sla.cho_factor(B[:, h:h + r]), B[:, h + r:])
    lhs = float(np.linalg.norm(B[:, :h].T @ inner, ord=2))
    return lhs, rhs


@dataclass
class GammaEstimate:
    """Empirical stationarity ratio: worst Hellinger-to-similarity quotient;
    `exact_copies` (derived) says every pair sampled was an exact copy."""

    gamma: float
    pairs_evaluated: int
    pairs_skipped: int

    @property
    def exact_copies(self) -> bool:
        return self.pairs_evaluated == 0


def stationarity_gamma(
    model: PrecisionModel,
    g,
    trials: int = 50,
    angle_grid: int = 720,
    seed: int = 0,
) -> GammaEstimate:
    """Estimate the smallest stationarity constant from planted copy pairs.

    Samples up to `trials` unordered pairs of planted copies, computing the
    Hellinger distance between their slot-aligned marginals divided by the
    similarity upper bound between their point patterns.  Pairs whose
    similarity is below 1e-12 (exact copies) are skipped: both sides
    vanish there.  The graph must carry planted copies.
    """
    if g.plants is None or len(g.plants) < 2:
        raise ValueError("graph carries no planted copy pairs")
    rng = np.random.default_rng(seed)
    n_plants = len(g.plants)
    all_pairs = [(i, j) for i in range(n_plants) for j in range(i + 1, n_plants)]
    if len(all_pairs) > trials:
        sel = rng.choice(len(all_pairs), size=trials, replace=False)
        pairs = [all_pairs[k] for k in sel]
    else:
        pairs = all_pairs
    best = 0.0
    used = skipped = 0
    for i, j in pairs:
        ids_i, ids_j = list(g.plants[i]), list(g.plants[j])
        pts_i = g.torus.delta(g.points[ids_i[0]], g.points[ids_i])
        pts_j = g.torus.delta(g.points[ids_j[0]], g.points[ids_j])
        rho = similarity(pts_i, pts_j, angle_grid=angle_grid)
        if rho < 1e-12:
            skipped += 1
            continue
        h = hellinger(
            model.covariance_submatrix(ids_i), model.covariance_submatrix(ids_j)
        )
        best = max(best, h / rho)
        used += 1
    if used == 0 and skipped == 0:
        raise ValueError("no valid copy pairs")
    return GammaEstimate(gamma=best, pairs_evaluated=used, pairs_skipped=skipped)


def write_samples(samples: SampleMatrix, path) -> None:
    """CSV serialization: header line `n p seed`, then one row per snapshot."""
    with open(path, "w") as fh:
        fh.write(f"{samples.n} {samples.p} {samples.seed}\n")
        for row in samples.data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_samples(path) -> SampleMatrix:
    with open(path) as fh:
        n, p, seed = (int(tok) for tok in fh.readline().split())
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n, p):
        raise ValueError(f"sample block shape {data.shape} disagrees with header")
    return SampleMatrix(data=data, seed=seed)
