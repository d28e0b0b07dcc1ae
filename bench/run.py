#!/usr/bin/env python3
"""Benchmark of the geoggm recovery pipeline.

    python3 bench/run.py --workload trend --seed 0 --seconds 45 --trace 0

Runs one workload (see bench/workloads.json) in this single-threaded
process.  An op is one recovery run for one (p, graph seed): generate ->
assemble -> sample or exact covariance -> run_selection -> scoring.  A
pass runs the workload's fixed set of ops once; `--seconds` sets how many
passes are made, from the workload's nominal pass time, so every run with
the same arguments measures the same ops.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics.  With `--trace 1` untraced and traced passes alternate (at least
two of each); traced passes record spans at every layer boundary, from
wrappers this file puts on the module attributes the pipeline looks up at
call time, and the JSON holds the per-layer metrics.  Human-readable lines
come first.

Every op's output is checked: against bench/reference/<workload>.json at
the default seed 0, against the workload's invariants otherwise, and
across passes, which must agree exactly.  A failed check prints
`"correct": false` and exits 1.  Without the geoggm sources next to this
directory the script exits non-zero before measuring anything.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
SETUP_PROBES = 5

END_TO_END = [
    ("run_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
QUALITY = [("edge_error_rate", "ratio"), ("undecided_frac", "ratio"),
           ("fail_frac", "ratio")]
# counts that must repeat exactly between passes over the same inputs
REPEATABLE = [
    "selector.candidates", "gmrf.graph_distance_calls",
    "geometry.quantize_calls", "geometry.collisions", "selector.copies_found",
    "selector.copies_used", "selector.detections",
    "selector.detections_skipped", "selector.iterations",
]
SPANS = [
    "geometry.quantize", "selector.candidate_scan", "gmrf.graph_distance",
    "selector.copy_search", "selector.separation", "selector.covariance",
    "selector.detection", "selector.select_self", "selector.loss",
    "graphgen.generate", "gmrf.model", "output.emit",
]
PER_LAYER = (
    [(f"{name}_s", "s") for name in SPANS]
    + [(name, "count") for name in REPEATABLE]
    + [("selector.marking_iterations", "count"),
       ("selector.pooling_calls", "count"), ("gmrf.exact_cov_calls", "count"),
       ("selector.copies_used_ratio", "ratio"),
       ("selector.detection_useful_ratio", "ratio"),
       ("trace.run_s", "s"), ("trace.uncovered_s", "s"),
       ("trace.overhead_s", "s")]
)


def _load_geoggm():
    if not os.path.isfile(os.path.join(SRC, "geoggm", "__init__.py")):
        sys.exit(f"bench: no geoggm sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import geoggm
    import geoggm.harness  # noqa: F401  (not imported by the package)
    if os.path.dirname(os.path.dirname(os.path.abspath(geoggm.__file__))) != SRC:
        sys.exit(f"bench: imported geoggm from {geoggm.__file__}, not {SRC}")
    return geoggm


class DidNotFinish(RuntimeError):
    """An op ran past the workload's per-op time budget."""


def _on_alarm(signum, frame):
    raise DidNotFinish("did not finish within the op budget")


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans (name, start ns, end ns, parent index, op id) kept in memory,
    plus exact counts, for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        if idx in self.stack:  # an interrupted child may still be open
            del self.stack[self.stack.index(idx):]

    def self_times_ns(self) -> tuple[Counter, int]:
        """Per-name self time (span minus direct children) and the time
        covered by layer spans, both summed over the pass."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs: Counter = Counter()
        covered = 0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if name == "op":
                continue
            selfs[name] += (t1 - t0) - child[i]
            if parent < 0 or self.spans[parent][0] == "op":
                covered += t1 - t0
        return selfs, covered


def _spanned(tracer: Tracer, name: str, fn, calls=None, raised=(), tally=None):
    """Wraps fn in a span.  `calls` names a count of every call, `raised`
    an (exception type, count) pair, `tally` a (count, fn(result)) pair."""
    errors, error_key = raised or ((), None)

    def wrapper(*args, **kwargs):
        if calls is not None:
            tracer.counts[calls] += 1
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except errors:
            tracer.counts[error_key] += 1
            raise
        finally:
            tracer.end(idx)
        if tally is not None:
            tracer.counts[tally[0]] += tally[1](out)
        return out
    return wrapper


def _scan_wrapper(tracer: Tracer, fn):
    """Times each next() on the candidate generator.  run_selection leaves
    a scan early only after an iteration that marked vertices."""
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def scan():
            exhausted = False
            try:
                while True:
                    idx = tracer.begin("selector.candidate_scan")
                    try:
                        item = next(inner)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        tracer.end(idx)
                    tracer.counts["selector.candidates"] += 1
                    yield item
            finally:
                if not exhausted:
                    tracer.counts["selector.marking_iterations"] += 1
        return scan()
    return wrapper


class Patches:
    """Set module/class attributes, restoring the originals on exit."""

    def __init__(self, items):
        self.items = items  # (owner, attribute, replacement)
        self.saved = []

    def __enter__(self):
        for owner, attr, new in self.items:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def layer_patches(g, tracer: Tracer) -> Patches:
    sel, gm, gg, hs = g.selector, g.gmrf, g.graphgen, g.harness
    select = _spanned(tracer, "selector.select_self", sel.run_selection,
                      tally=("selector.iterations", lambda rep: rep.iterations))
    generate = _spanned(tracer, "graphgen.generate", gg.generate)
    assemble = _spanned(tracer, "gmrf.model", gm.assemble_precision)
    return Patches([
        (sel, "quantize", _spanned(
            tracer, "geometry.quantize", sel.quantize,
            calls="geometry.quantize_calls",
            raised=(g.CollisionError, "geometry.collisions"))),
        (sel, "_candidate_squares", _scan_wrapper(tracer, sel._candidate_squares)),
        (sel, "graph_distance", _spanned(
            tracer, "gmrf.graph_distance", sel.graph_distance,
            calls="gmrf.graph_distance_calls")),
        (sel, "find_copies", _spanned(
            tracer, "selector.copy_search", sel.find_copies,
            tally=("selector.copies_found", lambda cs: len(cs.matches)))),
        (sel, "greedy_separated", _spanned(
            tracer, "selector.separation", sel.greedy_separated,
            tally=("selector.copies_used", lambda cs: len(cs.separated)))),
        (sel, "pooled_scm", _spanned(
            tracer, "selector.covariance", sel.pooled_scm,
            calls="selector.pooling_calls")),
        (gm.PrecisionModel, "covariance_submatrix", _spanned(
            tracer, "selector.covariance", gm.PrecisionModel.covariance_submatrix,
            calls="gmrf.exact_cov_calls")),
        (gm.PrecisionModel, "sample", _spanned(
            tracer, "gmrf.model", gm.PrecisionModel.sample)),
        (sel, "detect_edges", _spanned(
            tracer, "selector.detection", sel.detect_edges,
            calls="selector.detections",
            raised=(sel.DetectionSkipped, "selector.detections_skipped"))),
        (sel, "zero_one_loss", _spanned(tracer, "selector.loss", sel.zero_one_loss)),
        (sel, "run_selection", select), (hs, "run_selection", select),
        (gg, "generate", generate), (hs, "generate", generate),
        (gm, "assemble_precision", assemble), (hs, "assemble_precision", assemble),
        (hs, "emit_outputs", _spanned(tracer, "output.emit", hs.emit_outputs)),
    ])


# ---------------------------------------------------------------- workloads

def _edges_digest(edges) -> str:
    flat = json.dumps([[int(u), int(v)] for u, v in edges]).encode()
    return hashlib.sha256(flat).hexdigest()


def _outcome(report) -> dict:
    return {
        "zero_one_loss": int(report.zero_one_loss),
        "missed_edges": int(report.missed_edges),
        "false_edges": int(report.false_edges),
        "true_edges": int(report.true_edge_count),
        "undecided": len(report.undecided_vertices),
        "edges_sha256": _edges_digest(report.edges),
        "min_zeta": min(report.achieved_zetas, default=math.inf),
    }


class OpRunner:
    """Runs ops under the per-op budget, recording time and outcome."""

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.tracer: Tracer | None = None
        self.ops: list[dict] = []
        self.report = None

    def run(self, key: str, p: int, fn, *args):
        """Calls fn(*args) and returns its value, re-raising its failure.
        The op's report is fn's result unless a wrapped run_selection
        captured it into `self.report` first."""
        op = {"op": key, "p": p, "failed": None}
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
            idx = self.tracer.begin("op")
        self.report = None
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except (ValueError, RuntimeError) as exc:
            op["failed"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            op["time_s"] = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.end(idx)
                self.tracer.op_id = None
            self.ops.append(op)
        op.update(_outcome(self.report or result))
        return result


def _seeds(seed: int, workload: str, count: int) -> list[int]:
    ss = np.random.SeedSequence(
        [seed & 0xFFFFFFFF, zlib.crc32(workload.encode())])
    return [int(x) for x in ss.generate_state(count)]


class HarnessWorkload:
    """`geoggm experiment` on a flat config: run_experiment + emit_outputs,
    once per grid seed.  A pass runs the seeds one after another, so the
    ops of each p are spread evenly over the run instead of bunched."""

    def __init__(self, g, name, spec, seed, size):
        self.g = g
        cfg = dict(spec["config"], **spec.get(size, {}))
        cfg["master_seed"] = seed
        self.cfgs = []
        for s in cfg["seeds"]:
            cfg["seeds"] = [s]
            text = "\n".join(
                f"{k} = {', '.join(map(str, v)) if isinstance(v, list) else v}"
                for k, v in cfg.items()
            )
            self.cfgs.append(g.harness.parse_config(text))

    def run_pass(self, runner: OpRunner, out_dir: str) -> dict:
        hs = self.g.harness
        run_one, run_selection = hs._run_one, hs.run_selection

        def captured_selection(*a, **k):
            runner.report = run_selection(*a, **k)
            return runner.report

        def timed_run_one(cfg, p, *rest):
            seed = rest[-1]
            return runner.run(f"p={p} seed={seed}", p, run_one, cfg, p, *rest)

        summary_shas = []
        for c in self.cfgs:
            logged: list[str] = []
            first = len(runner.ops)
            with Patches([(hs, "_run_one", timed_run_one),
                          (hs, "run_selection", captured_selection)]):
                records = hs.run_experiment(c, log=logged.append)
            if records:
                _, summary = hs.emit_outputs(
                    records, os.path.join(out_dir, f"seed{c.seeds[0]}"))
                with open(summary, "rb") as fh:
                    summary_shas.append(hashlib.sha256(fh.read()).hexdigest())
            else:
                summary_shas.append(None)
            # fail_frac: each (p, seed) grid point without a record failed,
            # with the reason run_experiment logged for it
            grid = [(p, n, theta, d, eta, beta, c.seeds[0])
                    for p, n, theta, d, eta, beta in itertools.product(
                        c.p, c.n, c.theta, c.d, c.eta, c.beta)]
            present = {(r.p, r.n, r.theta, r.d, r.eta, r.beta, r.seed)
                       for r in records}
            ops = runner.ops[first:]
            if len(ops) != len(grid):
                raise RuntimeError("harness ran a different grid than configured")
            for point, op in zip(grid, ops):
                if point not in present:
                    p, n, theta, d, eta, beta, s = point
                    tag = (f"skipping p={p} n={n} theta={theta} d={d} eta={eta} "
                           f"beta={beta} seed={s}:")
                    reason = next((m for m in logged if m.startswith(tag)),
                                  op["failed"] or "no record returned")
                    op["failed"] = reason
        return {"summary_sha256": summary_shas}


class DirectWorkload:
    """Ops driven through the public API, one graph seed per op; each op
    writes its JSON report as `geoggm select` does."""

    def __init__(self, g, name, spec, seed, size):
        self.g = g
        self.kind = spec["kind"]
        self.prm = dict(spec["params"], **{k: v for k, v in spec.get(size, {}).items()
                                           if k != "graphs"})
        count = spec.get(size, {}).get("graphs", spec["graphs"])
        seeds = _seeds(seed, name, 2 * count)
        self.graph_seeds, self.sample_seeds = seeds[:count], seeds[count:]
        if "graph_pool" in spec:  # draw from a fixed set of graph seeds
            order = np.random.default_rng(seeds[0]).permutation(spec["graph_pool"])
            self.graph_seeds = [int(x) for x in order[:count]]
        if self.kind == "exact_rot":
            self.template = _generic_template(self.prm)

    def run_pass(self, runner: OpRunner, out_dir: str) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        for i, (gs, ss) in enumerate(zip(self.graph_seeds, self.sample_seeds)):
            try:
                report = runner.run(f"graph_seed={gs}", self.prm["p"],
                                    self._op, gs, ss)
            except (ValueError, RuntimeError):
                continue
            tracer = runner.tracer
            idx = tracer.begin("output.emit") if tracer is not None else None
            with open(os.path.join(out_dir, f"report{i}.json"), "w") as fh:
                fh.write(report.to_json())
            if tracer is not None:
                tracer.end(idx)
        return {}

    def _op(self, graph_seed: int, sample_seed: int):
        g, prm = self.g, self.prm
        gg, gm, sel = g.graphgen, g.gmrf, g.selector
        if self.kind == "exact_rot":
            graph, params = _generic_plant_graph(g, prm, self.template, graph_seed)
            model = gm.assemble_precision(graph.adjacency, prm["theta"], prm["d"])
            report = sel.run_selection(graph, params, model=model, exact_cov=True)
        else:
            fam = gg.FamilyParams(p=prm["p"], eta=prm["eta"], d=prm["d"],
                                  beta=prm["beta"], theta=prm["theta"],
                                  seed=graph_seed)
            graph = gg.generate(fam)
            model = gm.assemble_precision(graph.adjacency, prm["theta"], prm["d"])
            samples = model.sample(prm["n"], sample_seed)
            params = sel.SelectorParams(r=prm["r"], eps=prm["eps"], w=prm["w"],
                                        theta=prm["theta"])
            report = sel.run_selection(graph, params, samples=samples)
        return report


def _generic_template(prm):
    """Random r_t-point pattern with distinct pairwise distances, kept off
    the cell midlines so rounding is stable under grid rotations (the
    criterion-4 construction)."""
    eps, r_t = prm["eps"], prm["r_t"]
    rng = np.random.default_rng(prm["template_seed"])
    pts: list = []
    while len(pts) < r_t:
        q = rng.uniform(0, prm["box"], size=2)
        if all(np.hypot(*(q - w)) >= 3.2 * eps for w in pts):
            pts.append(q)
    T = np.array(pts)
    T -= T.min(axis=0)
    frac = np.mod(T / eps, 1.0)
    T[np.abs(frac - 0.5) < 0.08] += 0.16 * eps
    return T


def _generic_plant_graph(g, prm, template, graph_seed):
    """All-plants graph of q_count rotated copies, mutually out of range."""
    p, d, eps = prm["p"], prm["d"], prm["eps"]
    if prm["q_count"] * prm["r_t"] != p:
        raise ValueError("exact_rot needs p = q_count * r_t")
    s = round(math.sqrt(p) / eps) * eps
    eta = p / s**2
    beta = 1.02 * math.sqrt(d / eta)
    diameter = float(np.hypot(*(template.max(0) - template.min(0))))
    spec = g.graphgen.PlantSpec.from_array(
        template, count=prm["q_count"], min_separation=beta + 2 * diameter + eps,
        clearance=0.0, rotate=True, snap=eps)
    fam = g.graphgen.FamilyParams(p=p, eta=eta, d=d, beta=beta,
                                  theta=prm["theta"], seed=graph_seed)
    graph = g.graphgen.generate(fam, spec)
    params = g.selector.SelectorParams(
        r=prm["r_t"], eps=eps, w=2 * eps, theta=prm["theta"],
        min_zeta=prm["min_zeta"], k_cap=prm["k_cap"])
    return graph, params


def make_workload(g, name, spec, seed, size):
    cls = HarnessWorkload if spec["kind"] == "harness" else DirectWorkload
    return cls(g, name, spec, seed, size)


# ---------------------------------------------------------------- checks

CHECKED = ("zero_one_loss", "missed_edges", "false_edges", "undecided",
           "edges_sha256")


def reference_record(ops_by_pass, extras) -> dict:
    return {
        "ops": [{k: op.get(k) for k in ("op", "failed") + CHECKED}
                for op in ops_by_pass[0]],
        "summary_sha256": extras[0].get("summary_sha256"),
    }


def check_outputs(spec, ops_by_pass, extras, reference) -> list[str]:
    """Problems found; each names the op.  Marks mismatching ops failed."""
    problems: list[str] = []

    def flag(op, why):
        problems.append(f"{op['op']}: {why}")
        op["failed"] = op["failed"] or why

    first = ops_by_pass[0]
    for ops in ops_by_pass[1:]:
        for a, b in zip(first, ops):
            diff = [k for k in CHECKED + ("op",) if a.get(k) != b.get(k)]
            if diff:
                flag(b, f"differs from the first pass in {diff}")
    for ex in extras[1:]:
        if ex != extras[0]:
            problems.append(f"pass outputs differ: {extras[0]} vs {ex}")
    if reference is not None:
        ref_ops = reference["ops"]
        if len(ref_ops) != len(first):
            problems.append(f"{len(first)} ops, reference has {len(ref_ops)}")
        for ops in ops_by_pass:
            for op, ref in zip(ops, ref_ops):
                diff = [k for k in ("op",) + CHECKED if op.get(k) != ref.get(k)]
                if diff and not (op["failed"] and ref["failed"]):
                    flag(op, f"reference mismatch in {diff}")
        if extras[0].get("summary_sha256") != reference["summary_sha256"]:
            problems.append("summary.csv sha256 differs from the reference")
    elif spec["kind"] == "exact_rot":
        min_zeta = spec["params"]["min_zeta"]
        for ops in ops_by_pass:
            for op in ops:
                if op["failed"]:
                    continue
                if op["zero_one_loss"] or op["undecided"] or op["min_zeta"] < min_zeta:
                    flag(op, "criterion 4 violated: loss "
                         f"{op['zero_one_loss']}, undecided {op['undecided']}, "
                         f"min zeta {op['min_zeta']}")
    return problems


# ---------------------------------------------------------------- metrics

def tail(times: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least ten samples beyond it: the value at
    1-based rank N-10 of N sorted times (the maximum when N <= 10)."""
    xs = sorted(times)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], rank, len(xs)


def setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh interpreter through imports and one
    warm-up op, measured SETUP_PROBES times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES if not args.tiny else 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}")
        out.append(ready - t0)
    return out


def warm_up(g, args, spec):
    wl = make_workload(g, args.workload, spec, args.seed, "warmup")
    runner = OpRunner(spec["op_budget_s"])
    out_dir = os.path.join(OUT, f"warmup-{os.getpid()}")
    try:
        wl.run_pass(runner, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if any(op["failed"] for op in runner.ops):
        raise RuntimeError(f"warm-up op failed: {runner.ops}")


def layer_metrics(tracers, pass_ns, untraced_ns) -> dict:
    selfs_all, covered_all = [], []
    for tr in tracers:
        selfs, covered = tr.self_times_ns()
        selfs_all.append(selfs)
        covered_all.append(covered)
    k = len(tracers)
    counts = tracers[0].counts
    m = {f"{name}_s": sum(s[name] for s in selfs_all) / k / 1e9 for name in SPANS}
    for name, unit in PER_LAYER:
        if unit == "count":
            m[name] = counts[name]
    m["selector.copies_used_ratio"] = (
        counts["selector.copies_used"] / counts["selector.copies_found"]
        if counts["selector.copies_found"] else 0.0)
    m["selector.detection_useful_ratio"] = (
        counts["selector.marking_iterations"] / counts["selector.detections"]
        if counts["selector.detections"] else 0.0)
    run_ns = sum(pass_ns) / k
    m["trace.run_s"] = run_ns / 1e9
    m["trace.uncovered_s"] = (run_ns - sum(covered_all) / k) / 1e9
    m["trace.overhead_s"] = (run_ns - statistics.median(untraced_ns)) / 1e9
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, one pass (self-test)")
    ap.add_argument("--reference", help="reference file to check against")
    ap.add_argument("--write-reference", help="record outputs to this file")
    ap.add_argument("--op-budget", type=float,
                    help="per-op time budget in seconds (default: the workload's)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    g = _load_geoggm()
    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh).get(args.workload)
    if spec is None:
        ap.error(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_probe:
        warm_up(g, args, spec)
        print("ready", flush=True)
        return 0

    setup = setup_seconds(args)
    warm_up(g, args, spec)
    size = "tiny" if args.tiny else "full"
    wl = make_workload(g, args.workload, spec, args.seed, size)
    passes = 1 if args.tiny else max(1, round(args.seconds / spec["nominal_pass_s"]))
    if args.trace:
        passes = max(4, passes)  # alternating, at least two of each
    runner = OpRunner(args.op_budget or spec["op_budget_s"])
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    ops_by_pass, extras, pass_ns, tracers, untraced_ns = [], [], [], [], []
    untraced_ops: list[dict] = []  # end-to-end timings come from these only
    try:
        for k in range(passes):
            traced = bool(args.trace) and k % 2 == 1
            runner.tracer = Tracer() if traced else None
            first = len(runner.ops)
            t0 = time.perf_counter_ns()
            if traced:
                with layer_patches(g, runner.tracer):
                    extra = wl.run_pass(runner, out_dir)
            else:
                extra = wl.run_pass(runner, out_dir)
            elapsed = time.perf_counter_ns() - t0
            ops_by_pass.append(runner.ops[first:])
            extras.append(extra)
            if traced:
                tracers.append(runner.tracer)
                pass_ns.append(elapsed)
            else:
                untraced_ns.append(elapsed)
                untraced_ops.extend(runner.ops[first:])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if args.write_reference:
        with open(args.write_reference, "w") as fh:
            json.dump(reference_record(ops_by_pass, extras), fh, indent=1)
            fh.write("\n")
    elif args.reference or (args.seed == DEFAULT_SEED and not args.tiny):
        path = args.reference or os.path.join(HERE, "reference",
                                              f"{args.workload}.json")
        with open(path) as fh:
            reference = json.load(fh)
    problems = check_outputs(spec, ops_by_pass, extras, reference)

    if tracers:
        for tr in tracers[1:]:
            for name in REPEATABLE:
                if tr.counts[name] != tracers[0].counts[name]:
                    problems.append(
                        f"nondeterminism: {name} = {tracers[0].counts[name]} "
                        f"then {tr.counts[name]} on the same inputs")
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "passes": [tr.spans for tr in tracers]}, fh)

    all_ops = [op for ops in ops_by_pass for op in ops]
    times = [op["time_s"] for op in untraced_ops]
    done = [op for op in all_ops if not op["failed"]]
    failed = len(all_ops) - len(done)
    t_tail, rank, n_ops = tail(times)
    e2e = {
        "run_s": statistics.median(untraced_ns) / 1e9,
        "op_s.p50": statistics.median(times),
        "op_s.tail": t_tail,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    quality = {
        "edge_error_rate": statistics.fmean(
            (op["missed_edges"] + op["false_edges"]) / max(1, op["true_edges"])
            for op in done) if done else float("nan"),
        "undecided_frac": statistics.fmean(
            op["undecided"] / op["p"] for op in done) if done else float("nan"),
        "fail_frac": failed / len(all_ops),
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {passes} "
          f"({len(pass_ns)} traced)  ops {n_ops}  nproc {os.cpu_count()}  "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    units = dict(END_TO_END + QUALITY + PER_LAYER)
    for name, value in list(e2e.items()) + list(quality.items()):
        note = ""
        if name == "op_s.tail":
            note = f"  (rank {rank} of {n_ops} ops, p{100.0 * rank / n_ops:.0f})"
        elif name == "run_s" and args.trace:
            note = "  (untraced passes)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh processes)"
        print(f"  {name:<18} {value:12.6g} {units[name]}{note}")
    print("  pass_s untraced " + " ".join(f"{ns / 1e9:.3f}" for ns in untraced_ns)
          + ("  traced " + " ".join(f"{ns / 1e9:.3f}" for ns in pass_ns)
             if pass_ns else ""))
    for p in sorted({op["p"] for op in all_ops}):
        ts = [op["time_s"] for op in untraced_ops if op["p"] == p]
        print(f"  op_s[p={p}] median {statistics.median(ts):.3f} s over {len(ts)} ops")
    for op in all_ops:
        if op["failed"]:
            print(f"  FAILED {op['op']}: {op['failed']}")
    for why in dict.fromkeys(problems):
        print(f"  CHECK {why}")

    if args.trace:
        layers = layer_metrics(tracers, pass_ns, untraced_ns)
        print("per-layer (mean per traced pass; counts per pass):")
        for name, unit in PER_LAYER:
            print(f"  {name:<34} {layers[name]:14.6g} {unit}")
        self_total = sum(layers[f"{n}_s"] for n in SPANS)
        print(f"  self times + uncovered = {self_total + layers['trace.uncovered_s']:.6f} s"
              f" = trace.run_s {layers['trace.run_s']:.6f} s; tracing overhead "
              f"{layers['trace.overhead_s']:+.4f} s (trace.run_s minus run_s)")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
