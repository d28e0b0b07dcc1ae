import json
import math
import os

import numpy as np
import pytest
from geoggm import cli
from geoggm.graphgen import read_graph
from geoggm.gmrf import read_samples


def test_generate_sample_select_pipeline(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    rc = cli.main([
        "generate", "--p", "100", "--eta", "1", "--d", "3", "--beta", "2.2",
        "--theta", "0.1", "--seed", "1", "--out", str(graph_file),
    ])
    assert rc == 0
    g = read_graph(graph_file)
    assert g.p == 100

    samples_file = tmp_path / "x.csv"
    rc = cli.main([
        "sample", "--graph", str(graph_file), "--n", "25", "--seed", "2",
        "--out", str(samples_file),
    ])
    assert rc == 0
    s = read_samples(samples_file)
    assert (s.n, s.p, s.seed) == (25, 100, 2)

    report_file = tmp_path / "rep.json"
    rc = cli.main([
        "select", "--graph", str(graph_file), "--samples", str(samples_file),
        "--r", "4", "--eps", "0.5", "--w", "1.0", "--out", str(report_file),
    ])
    assert rc == 0
    blob = json.loads(report_file.read_text())
    assert blob["p"] == 100 and blob["n"] == 25


def test_select_exact_cov(tmp_path):
    import plantcfg
    from geoggm.graphgen import write_graph

    graph, eps, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    graph_file = tmp_path / "g.txt"
    write_graph(graph, graph_file)
    report_file = tmp_path / "rep.json"
    rc = cli.main([
        "select", "--graph", str(graph_file), "--exact-cov",
        "--r", "20", "--eps", str(eps), "--w", str(2 * eps),
        "--out", str(report_file),
    ])
    assert rc == 0
    blob = json.loads(report_file.read_text())
    assert blob["zero_one_loss"] == 0


def _select_defaults(tmp_path, *flags):
    """Run `select --exact-cov` on a small planted graph with only the given
    flags set; return the JSON report."""
    import plantcfg
    from geoggm.graphgen import write_graph

    graph, _, _ = plantcfg.grid_plant_graph(p=20, theta=0.11, seed=2)
    graph_file = tmp_path / "g.txt"
    write_graph(graph, graph_file)
    report_file = tmp_path / "rep.json"
    rc = cli.main(["select", "--graph", str(graph_file), "--exact-cov",
                   "--out", str(report_file), *flags])
    assert rc == 0
    return json.loads(report_file.read_text())


def test_select_w_alone_overrides_default(tmp_path):
    blob = _select_defaults(tmp_path, "--w", "0.75")
    assert blob["w"] == 0.75


def test_select_zero_theta_with_threshold(tmp_path):
    blob = _select_defaults(tmp_path, "--theta", "0", "--threshold", "0.05")
    assert blob["theta"] == 0.0
    assert blob["edges"] == []


def test_select_warns_when_nothing_decided(tmp_path, capsys):
    """With the defaults (r = 2) every beta-ball of this graph holds 20
    vertices, so no vertex can be decided: the run says so on stderr and
    still writes its report."""
    import plantcfg
    from geoggm.graphgen import write_graph

    graph, _, _ = plantcfg.grid_plant_graph(p=100, theta=0.11, seed=2)
    graph_file = tmp_path / "g.txt"
    write_graph(graph, graph_file)
    report_file = tmp_path / "rep.json"
    rc = cli.main(["select", "--graph", str(graph_file), "--exact-cov",
                   "--out", str(report_file)])
    assert rc == 0
    blob = json.loads(report_file.read_text())
    assert len(blob["undecided_vertices"]) == 100
    err = capsys.readouterr().err
    assert "no vertex decided" in err
    assert "r=2" in err and f"eps={blob['eps']:g}" in err


def test_select_warns_when_a_detection_pooled_only_its_window(tmp_path, capsys):
    """On this sparse unplanted graph each of the 78 detections finds only
    its own window, so the n = 10 run is low-confidence: stderr names the
    detections, the copies used and the expected lattice copies, and the
    report and exit code are as without the warning."""
    from geoggm import bounds

    graph_file, samples_file = tmp_path / "g.txt", tmp_path / "x.csv"
    assert cli.main(["generate", "--p", "200", "--eta", "1", "--d", "1",
                     "--beta", "1.05", "--theta", "0.1", "--seed", "0",
                     "--out", str(graph_file)]) == 0
    assert cli.main(["sample", "--graph", str(graph_file), "--n", "10",
                     "--seed", "2", "--out", str(samples_file)]) == 0
    capsys.readouterr()
    report_file = tmp_path / "rep.json"
    rc = cli.main(["select", "--graph", str(graph_file), "--samples",
                   str(samples_file), "--r", "8", "--eps", "0.3", "--w", "1",
                   "--out", str(report_file)])
    assert rc == 0
    blob = json.loads(report_file.read_text())
    assert blob["low_confidence"]
    assert blob["iterations"] == blob["copies_used"] == 78
    expected = bounds.expected_copies_lattice(8, blob["eps"], 1.0, 200)
    assert f"{expected:.2g}" == "2.4e-09"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "low confidence" in err
    assert "78 detections pooled 78 copies" in err
    assert f"r=8 pattern at eps={blob['eps']:g} are {expected:.2g}" in err


@pytest.mark.parametrize("flags", [[], ["--samples", "x.csv", "--exact-cov"]],
                         ids=["neither", "both"])
def test_select_needs_exactly_one_covariance_source(tmp_path, capsys, flags):
    """`select` takes either `--samples` or `--exact-cov`: with neither it
    once crashed reading a file named None, and with both it ignored
    `--samples`."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["select", "--graph", str(tmp_path / "g.txt"),
                  "--out", str(tmp_path / "rep.json"), *flags])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_bounds_table(capsys):
    rc = cli.main([
        "bounds", "--p", "100", "--eta", "1", "--d", "3", "--beta", "2.2",
        "--theta", "0.1", "--eps", "0.2", "--r", "2", "--l-bar", "1.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_min" in out
    assert "family size (bits)" in out
    assert "separated copies floor" in out
    assert "continuous copies" in out


def _experiment_config(tmp_path):
    p = 60
    s = round(math.sqrt(p) / 0.06) * 0.06
    eta = p / s**2
    beta = 1.02 * math.sqrt(2 / eta)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"p = {p}\nn = 100\ntheta = 0.2\nd = 2\neta = {eta!r}\n"
        f"beta = {beta!r}\nseeds = 0\neps = 0.06\nw = 0.12\n"
        "plant_r = 20\nplant_grid = 7\nmaster_seed = 3\n"
    )
    return cfg


def test_experiment_command(tmp_path):
    cfg = _experiment_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = cli.main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "runs.json").exists()
    assert (out_dir / "summary.csv").exists()


def test_experiment_refuses_an_empty_out(tmp_path, monkeypatch):
    """`--out ''` goes through the config's own check, so it is refused
    before the sweep; it once ran every point and then raised
    `FileNotFoundError` on writing, losing the runs."""
    cfg = _experiment_config(tmp_path)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kw: ran.append(1))
    with pytest.raises(ValueError, match="out must name a directory, got ''"):
        cli.main(["experiment", "--config", str(cfg), "--out", ""])
    assert not ran
