"""Command-line interface.

Subcommands: generate (graph file), sample (snapshot CSV), select
(recovery report JSON), bounds (calculator table), experiment (seeded
sweep emitting runs.json and summary.csv).
"""
from __future__ import annotations

import argparse
import math
import sys

from . import bounds as bounds_mod
from .graphgen import FamilyParams, generate, read_graph, write_graph
from .gmrf import assemble_precision, read_samples, write_samples
from .harness import emit_outputs, parse_config, run_experiment
from .selector import default_params, run_selection


def _add_family_args(sub):
    sub.add_argument("--p", type=int, required=True, help="vertex count")
    sub.add_argument("--eta", type=float, required=True, help="vertex density")
    sub.add_argument("--d", type=int, required=True, help="max vertex degree")
    sub.add_argument("--beta", type=float, required=True, help="max edge length")
    sub.add_argument("--theta", type=float, required=True, help="coupling")


def _cmd_generate(args) -> int:
    params = FamilyParams(p=args.p, eta=args.eta, d=args.d, beta=args.beta,
                          theta=args.theta, seed=args.seed)
    graph = generate(params)
    write_graph(graph, args.out)
    print(f"wrote {args.out}: p={graph.p}, edges={graph.edge_count()}")
    return 0


def _cmd_sample(args) -> int:
    graph = read_graph(args.graph)
    model = assemble_precision(graph.adjacency, graph.params.theta,
                               graph.params.d)
    samples = model.sample(args.n, args.seed)
    write_samples(samples, args.out)
    print(f"wrote {args.out}: n={samples.n}, p={samples.p}")
    return 0


def _cmd_select(args) -> int:
    graph = read_graph(args.graph)
    theta = args.theta if args.theta is not None else graph.params.theta
    given = {"r": args.r, "eps": args.eps, "w": args.w,
             "detect_threshold": args.threshold, "min_zeta": args.min_zeta}
    params = default_params(
        max(graph.p, 16), theta,
        **{key: val for key, val in given.items() if val is not None},
    )
    if args.exact_cov:
        report = run_selection(graph, params, exact_cov=True)
    else:
        samples = read_samples(args.samples)
        report = run_selection(graph, params, samples=samples)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
    if len(report.undecided_vertices) == report.p:
        print(f"warning: no vertex decided with r={params.r}, eps={report.eps:g}; "
              "a vertex is decided only when its beta-ball fits in a window core "
              "of r vertices", file=sys.stderr)
    if report.low_confidence:
        expected = bounds_mod.expected_copies_lattice(
            report.r, report.eps, graph.params.eta, report.p)
        print(f"warning: low confidence: {report.iterations} detections pooled "
              f"{report.copies_used} copies, and some pooled only their own "
              f"window; the expected lattice copies of an r={report.r} pattern "
              f"at eps={report.eps:g} are {expected:.2g}", file=sys.stderr)
    print(f"wrote {args.out}: loss={report.zero_one_loss} "
          f"missed={report.missed_edges} false={report.false_edges} "
          f"undecided={len(report.undecided_vertices)}")
    return 0


def _cmd_bounds(args) -> int:
    rows = [
        ("p", args.p), ("eta", args.eta), ("d", args.d), ("beta", args.beta),
        ("theta", args.theta), ("eps", args.eps), ("r", args.r),
        ("l_bar", args.l_bar),
    ]
    print("inputs:")
    for key, val in rows:
        print(f"  {key:8s} = {val}")
    nmin = bounds_mod.fano_lower_bound(args.eta, args.beta, args.d, args.theta)
    bits = bounds_mod.family_log_size_nats(
        args.eta, args.beta, args.d, args.p
    ) / math.log(2.0)
    klb = bounds_mod.sym_kl_family_bound(args.p, args.d, args.theta)
    print("bounds:")
    print(f"  n_min (samples)        = {nmin:.6g}  (ceil: {math.ceil(nmin)})")
    print(f"  family size (bits)     = {bits:.6g}")
    print(f"  sym-KL family bound    = {klb:.6g}")
    if args.r is not None and args.eps is not None:
        lat = bounds_mod.expected_copies_lattice(args.r, args.eps, args.eta, args.p)
        sep = bounds_mod.separated_copies_floor(args.r, args.eps, args.eta, args.p)
        print(f"  lattice copies         = {lat:.6g}")
        print(f"  separated copies floor = {sep:.6g}")
        if args.l_bar is not None:
            cont = bounds_mod.expected_copies_continuous(
                args.r, args.eps, args.eta, args.p, args.l_bar)
            print(f"  continuous copies      = {cont:.6g}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.out is not None:
        cfg.out = args.out
    records = run_experiment(cfg, log=lambda msg: print(msg, file=sys.stderr))
    if not records:
        print("no runs completed", file=sys.stderr)
        return 1
    runs_path, summary_path = emit_outputs(records, cfg.out)
    print(f"wrote {runs_path} and {summary_path} ({len(records)} runs)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geoggm",
        description="Gaussian Markov field structure recovery on geometric "
                    "graphs, with sample-complexity calculators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser(
        "generate",
        help="draw a graph and write the text format: header "
             "`p s eta beta d theta seed`, `v id x y` lines, `e u v` lines",
    )
    _add_family_args(p_gen)
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--out", required=True, help="output graph file")
    p_gen.set_defaults(func=_cmd_generate)

    p_samp = subs.add_parser(
        "sample",
        help="draw snapshots from a graph's model; CSV with header `n p seed`",
    )
    p_samp.add_argument("--graph", required=True, help="graph file")
    p_samp.add_argument("--n", type=int, required=True, help="snapshot count")
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--out", required=True, help="output CSV")
    p_samp.set_defaults(func=_cmd_sample)

    p_sel = subs.add_parser(
        "select", help="recover the edge structure; emits a JSON report",
    )
    p_sel.add_argument("--graph", required=True)
    source = p_sel.add_mutually_exclusive_group(required=True)
    source.add_argument("--samples", help="snapshot CSV")
    source.add_argument("--exact-cov", action="store_true",
                        help="use the population covariance of the graph's own model "
                        "instead of samples")
    p_sel.add_argument("--r", type=int)
    p_sel.add_argument("--eps", type=float)
    p_sel.add_argument("--w", type=float)
    p_sel.add_argument("--theta", type=float)
    p_sel.add_argument("--threshold", type=float)
    p_sel.add_argument("--min-zeta", type=int, dest="min_zeta")
    p_sel.add_argument("--out", required=True, help="output report JSON")
    p_sel.set_defaults(func=_cmd_select)

    p_bnd = subs.add_parser(
        "bounds", help="print the sample-complexity and counting table",
    )
    _add_family_args(p_bnd)
    p_bnd.add_argument("--eps", type=float)
    p_bnd.add_argument("--r", type=int)
    p_bnd.add_argument("--l-bar", type=float, dest="l_bar")
    p_bnd.set_defaults(func=_cmd_bounds)

    p_exp = subs.add_parser(
        "experiment",
        help="run a seeded sweep from a flat key-value config; writes "
             "runs.json and summary.csv",
    )
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", help="output directory (overrides config)")
    p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
