"""The benchmark wraps library functions by module attribute name; these
tests load `bench/run.py` and check that every name it wraps exists."""
import importlib.util
import os
import pathlib
from unittest import mock

import geoggm
import geoggm.harness  # noqa: F401  (not imported by the package)
from geoggm import selector as sel

import plantcfg

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it pins the BLAS threads on import
        spec.loader.exec_module(bench)
    return bench


def test_bench_layer_patches_wrap_existing_names():
    """Entering the patches fails if a wrapped name was renamed; inside,
    a small recovery run goes through the wrappers; on exit every
    original is back."""
    bench = _load_bench()
    tracer = bench.Tracer()
    patches = bench.layer_patches(geoggm, tracer)
    originals = [getattr(owner, attr) for owner, attr, _ in patches.items]
    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    params = plantcfg.grid_plant_selector_params(0.11, eps)
    with patches:
        for owner, attr, new in patches.items:
            assert getattr(owner, attr) is new
        report = sel.run_selection(graph, params, exact_cov=True)
    assert [getattr(owner, attr) for owner, attr, _ in patches.items] == originals
    assert report.iterations and not report.undecided_vertices
    assert tracer.counts["selector.candidates"] >= report.iterations
    assert tracer.counts["gmrf.exact_cov_calls"] == report.iterations
