"""Experiment orchestration: config parsing, seeded sweeps, output emission.

Configs are flat key-value text (`p = 500, 2000, 8000`); runs sweep the
cartesian product of the listed family parameters and seeds, generating a
graph, sampling, recovering the structure, and scoring per point.  Seed
derivation folds the parameter values themselves, so adding sweep points
never perturbs existing runs.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import struct
import typing
from dataclasses import MISSING, dataclass, asdict, fields

import numpy as np

from . import bounds
from .geometry import snap_eps
from .graphgen import FamilyParams, PlantSpec, generate
from .gmrf import NotPositiveDefinite, assemble_precision
from .selector import SelectorParams, run_selection


@dataclass
class ExperimentConfig:
    """Sweep lists, selector overrides and planting recipe; one field per key."""

    p: list[int]
    n: list[int]
    theta: list[float]
    d: list[int]
    eta: list[float]
    beta: list[float]
    seeds: list[int]
    r: int | None = None
    eps: float | None = None
    w: float | None = None
    threshold: float | None = None
    min_zeta: int | None = None
    k_cap: int | None = None
    plant_r: int | None = None
    plant_count: int | None = None
    plant_frac: float | None = None
    plant_grid: int | None = None
    plant_rotate: bool = False
    master_seed: int = 0
    out: str = "runs"

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if values == []:
                raise ValueError(f"{f.name} needs at least one value")
            if isinstance(values, list):
                twice = [v for t, v in enumerate(values) if v in values[:t]]
                if twice:
                    raise ValueError(f"{f.name} lists {twice[0]} more than once")
        # summary rows are keyed by (p, n, theta, d): one family per sweep
        for name, values in (("eta", self.eta), ("beta", self.beta)):
            if len(values) > 1:
                raise ValueError(f"{name} takes one value, got {values}")
        eta, beta = self.eta[0], self.beta[0]
        for d_val in self.d:
            try:
                bounds.check_family(eta, beta, d_val)
            except ValueError as exc:
                raise ValueError(
                    f"eta = {eta}, beta = {beta}, d = {d_val}: {exc}") from None
        for theta in self.theta:
            FamilyParams.check_theta(theta)
        for name, least in (("n", 1), ("r", 2), ("k_cap", 1), ("plant_r", 1),
                            ("plant_count", 1), ("plant_grid", 1)):
            val = getattr(self, name)
            val = min(val) if isinstance(val, list) else val
            if val is not None and val < least:
                raise ValueError(f"{name} must be at least {least}, got {val}")
        for name in ("eps", "w"):
            val = getattr(self, name)
            if val is not None and not 0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {val}")
        # SelectorParams takes 0 < threshold < theta, or threshold > 0 at theta <= 0
        thr = self.threshold
        if thr is not None and not any(0 < thr < t or t <= 0 < thr for t in self.theta):
            raise ValueError(f"threshold must be positive, and below a positive "
                             f"theta: no theta in {self.theta} admits {thr}")
        # the pitch each point snaps to: a smaller w fails every point
        pitches = [_pitch(self.eps, p, math.sqrt(p / eta))
                   for p in self.p if p > 1]
        if self.w is not None and pitches and self.w < min(pitches):
            raise ValueError(f"w = {self.w} is below the lattice pitch at every "
                             f"p: the smallest is {min(pitches)}")
        if self.plant_frac is not None and not 0 < self.plant_frac <= 1:
            raise ValueError(f"plant_frac must lie in (0, 1], got {self.plant_frac}")
        if not self.out:
            raise ValueError("out must name a directory, got ''")
        for d_val, theta in itertools.product(self.d, self.theta):
            if d_val * theta >= 0.5:
                raise ValueError(
                    f"sweep point d={d_val}, theta={theta} violates d*theta < 1/2"
                )


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; `#` starts a comment."""
    kinds = typing.get_type_hints(ExperimentConfig)
    raw: dict = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(
                f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            raw[key] = _parse_value(kinds[key], value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key} = {value!r}: {exc}") from None
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"missing required keys: {sorted(missing)}")
    return ExperimentConfig(**raw)


def _parse_value(kind, value: str):
    """`value` as `kind`: list[T], T | None, bool or a plain type T."""
    conv = next((a for a in typing.get_args(kind) if a is not type(None)), kind)
    if typing.get_origin(kind) is list:
        return [conv(tok.strip()) for tok in value.split(",") if tok.strip()]
    if conv is bool:
        if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError("a flag is one of 1/true/yes or 0/false/no")
        return value.lower() in ("1", "true", "yes")
    return conv(value)


def _entropy_words(master: int, seed: int, **params) -> list[int]:
    words = [int(master) & 0xFFFFFFFF, int(seed) & 0xFFFFFFFF]
    for key in sorted(params):
        val = params[key]
        if isinstance(val, float):
            bits = struct.unpack("<Q", struct.pack("<d", val))[0]
            words += [bits & 0xFFFFFFFF, bits >> 32]
        else:
            words.append(int(val) & 0xFFFFFFFF)
    return words


def derive_seeds(master: int, seed: int, **params) -> tuple[int, int]:
    """Split (master, seed, parameter values) into independent graph and
    sampling seeds.  The derivation hashes the values, not grid positions,
    so extending a sweep leaves existing runs untouched."""
    ss = np.random.SeedSequence(_entropy_words(master, seed, **params))
    graph_ss, sample_ss = ss.spawn(2)
    return (
        int(graph_ss.generate_state(1, np.uint32)[0]),
        int(sample_ss.generate_state(1, np.uint32)[0]),
    )


def _pitch(eps: float | None, p: int, s: float) -> float:
    """A sweep point's lattice pitch: `eps`, or 1/ln p when unset, snapped
    to a divisor of the torus side `s` so that planted copies land exactly
    on the selection lattice at every p."""
    return snap_eps(eps if eps is not None else 1.0 / math.log(p), s)


def _plant_template_cells(r_t: int, grid: int, master: int) -> list[tuple[int, int]]:
    """Deterministic pseudo-random pattern of r_t cells on a grid x grid
    square, guaranteed contiguous-friendly (always includes the corners of
    its bounding box so the box is touched)."""
    if grid * grid < r_t:
        raise ValueError("plant grid too small for plant_r")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(master) & 0xFFFFFFFF, 0x9E3779B9])
    )
    cells = [(0, 0), (grid - 1, grid - 1), (0, grid - 1), (grid - 1, 0)][: min(4, r_t)]
    pool = [
        (i, j) for i in range(grid) for j in range(grid) if (i, j) not in cells
    ]
    extra = rng.choice(len(pool), size=r_t - len(cells), replace=False)
    cells += [pool[i] for i in sorted(extra)]
    return cells


def build_plant_spec(cfg: ExperimentConfig, p: int, beta: float,
                     eps: float) -> PlantSpec | None:
    """Planting recipe for one sweep point, or None when not configured.

    The pattern quantizes onto the selection lattice (pitch eps) but its
    points carry a sub-cell jitter, keeping pairwise distances distinct so
    the greedy wiring has no ties.  Copies are separated so no two planted
    vertices from different copies come within beta of each other, which
    keeps the copies' wiring identical.
    """
    if cfg.plant_r is None:
        return None
    r_t = cfg.plant_r
    if cfg.plant_count is not None:
        count = cfg.plant_count
    elif cfg.plant_frac is not None:
        count = max(1, int(cfg.plant_frac * p / r_t))
    else:
        count = max(1, p // r_t)
    grid = cfg.plant_grid or math.ceil(math.sqrt(2.0 * r_t))
    cells = _plant_template_cells(r_t, grid, cfg.master_seed)
    jitter_rng = np.random.default_rng(
        np.random.SeedSequence([int(cfg.master_seed) & 0xFFFFFFFF, 0x51F7E11])
    )
    jitter = jitter_rng.uniform(-0.2, 0.2, size=(r_t, 2))
    template = (np.array(cells, dtype=float) + jitter) * eps
    diameter = (grid - 0.6) * eps * math.sqrt(2.0)
    separation = beta + 2.0 * diameter + eps
    return PlantSpec.from_array(
        template, count=count, min_separation=separation,
        clearance=(beta + eps if count * r_t < p else 0.0),
        rotate=cfg.plant_rotate, snap=eps,
    )


@dataclass
class RunRecord:
    """One sweep-point run: the exact configuration plus scored outcome."""

    p: int
    n: int
    theta: float
    d: int
    eta: float
    beta: float
    seed: int
    graph_seed: int
    sample_seed: int
    r: int
    eps: float
    w: float
    threshold: float
    zero_one_loss: int
    missed_edges: int
    false_edges: int
    true_edges: int
    copies_found: int
    copies_used: int
    undecided: int
    nmin_fano: float
    runtime_ms: float

    @property
    def edge_error_rate(self) -> float:
        return (self.missed_edges + self.false_edges) / max(1, self.true_edges)


def run_experiment(cfg: ExperimentConfig, log=None) -> list[RunRecord]:
    """Execute the sweep; invalid grid points (rejected parameters, failed
    placement, lattice collisions) are skipped with a logged reason.  A
    failed factorization is raised: with d * theta < 1/2 the precision is
    positive definite, so it marks a fault.  Deterministic given the
    config."""
    records: list[RunRecord] = []
    grid = itertools.product(cfg.p, cfg.n, cfg.theta, cfg.d, cfg.eta, cfg.beta)
    for p, n, theta, d, eta, beta in grid:
        for seed in cfg.seeds:
            try:
                record = _run_one(cfg, p, n, theta, d, eta, beta, seed)
            except (np.linalg.LinAlgError, NotPositiveDefinite):
                raise
            except (ValueError, RuntimeError) as exc:
                if log is not None:
                    log(f"skipping p={p} n={n} theta={theta} d={d} eta={eta} "
                        f"beta={beta} seed={seed}: {exc}")
                continue
            records.append(record)
    return records


def _run_one(cfg, p, n, theta, d, eta, beta, seed) -> RunRecord:
    graph_seed, sample_seed = derive_seeds(
        cfg.master_seed, seed, p=p, n=n, theta=theta, d=d, eta=eta, beta=beta
    )
    params = FamilyParams(p=p, eta=eta, d=d, beta=beta, theta=theta,
                          seed=graph_seed)
    eps = _pitch(cfg.eps, p, params.s)
    plant = build_plant_spec(cfg, p, beta, eps)
    graph = generate(params, plant)
    model = assemble_precision(graph.adjacency, theta, d)
    samples = model.sample(n, sample_seed)
    sel_params = SelectorParams(
        r=cfg.r if cfg.r is not None else (plant.size if plant else
                                           max(2, math.ceil(math.log(math.log(p))))),
        eps=eps,
        w=cfg.w if cfg.w is not None else eps * math.log(p) ** 2,
        theta=theta,
        detect_threshold=cfg.threshold,
        min_zeta=cfg.min_zeta,
        k_cap=cfg.k_cap,
    )
    report = run_selection(graph, sel_params, samples=samples)
    nmin = bounds.fano_lower_bound(eta, beta, d, theta)
    return RunRecord(
        p=p, n=n, theta=theta, d=d, eta=eta, beta=beta, seed=seed,
        graph_seed=graph_seed, sample_seed=sample_seed,
        r=sel_params.r, eps=report.eps, w=sel_params.w,
        threshold=sel_params.detect_threshold,
        zero_one_loss=report.zero_one_loss,
        missed_edges=report.missed_edges,
        false_edges=report.false_edges,
        true_edges=report.true_edge_count,
        copies_found=report.copies_found,
        copies_used=report.copies_used,
        undecided=len(report.undecided_vertices),
        nmin_fano=nmin,
        runtime_ms=report.runtime_ms,
    )


def _aggregate(records: list[RunRecord]):
    """Per-(p, n, theta, d) summary rows sorted by (p, n, theta)."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.p, rec.n, rec.theta, rec.d), []).append(rec)
    rows = []
    for (p, n, theta, d), recs in sorted(groups.items()):
        errs = np.array([r.edge_error_rate for r in recs])
        rows.append({
            "p": p,
            "n": n,
            "theta": theta,
            "d": d,
            "mean_edge_error": float(errs.mean()),
            "std_edge_error": float(errs.std(ddof=0)),
            "mean_zero_one": float(np.mean([r.zero_one_loss for r in recs])),
            "copies_used_mean": float(np.mean([r.copies_used for r in recs])),
            "nmin_fano": recs[0].nmin_fano,
        })
    return rows


def emit_outputs(records: list[RunRecord], out_dir) -> tuple[str, str]:
    """Write runs.json (full records) and summary.csv (aggregates)."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, "runs.json")
    with open(runs_path, "w") as fh:
        json.dump([asdict(rec) for rec in records], fh, indent=1)
    summary_path = os.path.join(out_dir, "summary.csv")
    rows = _aggregate(records)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return runs_path, summary_path
