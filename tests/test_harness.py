import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from geoggm import bounds, gmrf, harness


CONFIG = """
# small planted sweep
p = 60
n = 200
theta = 0.2
d = 2
eta = {eta}
beta = {beta}
seeds = 0, 1
eps = 0.06
w = 0.12
plant_r = 20
plant_count = 3
plant_grid = 7
master_seed = 7
"""


def tuned_config(p=60):
    # density-1 geometry with the invariant eta * beta^2 > d respected
    s = round(math.sqrt(p) / 0.06) * 0.06
    eta = p / s**2
    beta = 1.02 * math.sqrt(2 / eta)
    return CONFIG.format(eta=repr(eta), beta=repr(beta))


def test_parse_config_round_trip():
    cfg = harness.parse_config(tuned_config())
    assert cfg.p == [60]
    assert cfg.seeds == [0, 1]
    assert cfg.plant_r == 20
    assert cfg.eps == 0.06
    assert cfg.out == "runs"


def test_parse_config_reads_every_field():
    """Every field of ExperimentConfig is a key, parsed to its own kind:
    `[500] == [500.0]`, so the types are compared too."""
    values = dict(
        p=[500, 2000], n=[10, 20], theta=[0.11, 0.05], d=[2, 3], eta=[1.5],
        beta=[2.5], seeds=[3, 4], r=20, eps=0.06, w=0.12, threshold=0.05,
        min_zeta=2, k_cap=18, plant_r=20, plant_count=3, plant_frac=0.5,
        plant_grid=7, plant_rotate=True, master_seed=9, out="sweep_out",
    )
    assert values.keys() == {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    text = "\n".join(
        f"{key} = {', '.join(map(str, val)) if isinstance(val, list) else val}"
        for key, val in values.items())
    cfg = harness.parse_config(text)
    assert cfg == harness.ExperimentConfig(**values)
    for key, val in values.items():
        got = getattr(cfg, key)
        assert type(got) is type(val), key
        if isinstance(val, list):
            assert [type(x) for x in got] == [type(x) for x in val], key


@pytest.mark.parametrize("key", ["eta", "beta"])
def test_config_refuses_a_family_sweep(key):
    """Summary rows are keyed by (p, n, theta, d), so two families would
    merge into one row carrying the first family's Fano bound."""
    cfg = harness.parse_config(tuned_config())
    value = getattr(cfg, key)[0]
    text = tuned_config().replace(f"{key} = {value!r}", f"{key} = {value!r}, {1.3 * value!r}")
    assert text != tuned_config()
    with pytest.raises(ValueError, match=f"{key} takes one value"):
        harness.parse_config(text)


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.parse_config("p = 10")  # missing keys
    with pytest.raises(ValueError):
        harness.parse_config(tuned_config() + "\nbogus_key = 3")
    with pytest.raises(ValueError):
        harness.parse_config(tuned_config() + "\ntheta = 0.3\nd = 2")


@pytest.mark.parametrize("value, flag", [
    ("1", True), ("true", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("No", False), ("FALSE", False),
])
def test_parse_config_reads_flag_spellings(value, flag):
    cfg = harness.parse_config(tuned_config() + f"\nplant_rotate = {value}")
    assert cfg.plant_rotate is flag


@pytest.mark.parametrize("value", ["ture", "flase", "on", "off", "2", "y"])
def test_parse_config_refuses_a_misspelt_flag(value):
    """A typo is named with its key, line and value, not read as False."""
    text = tuned_config() + f"\nplant_rotate = {value}"
    lineno = len(text.splitlines())
    with pytest.raises(ValueError,
                       match=f"line {lineno}: plant_rotate = '{value}'"):
        harness.parse_config(text)


@pytest.mark.parametrize("key, value", [("p", "2000"), ("eps", "0.1")])
def test_parse_config_refuses_a_repeated_key(key, value):
    """A key set twice names both lines; the last value was once kept."""
    lines = tuned_config().splitlines()
    first = 1 + next(i for i, line in enumerate(lines)
                     if line.startswith(f"{key} ="))
    text = "\n".join(lines + [f"{key} = {value}"])
    with pytest.raises(ValueError, match=(
            f"line {len(lines) + 1}: {key} is already set on line {first}$")):
        harness.parse_config(text)


@pytest.mark.parametrize("key", ["eta", "seeds", "p"])
def test_parse_config_rejects_a_list_key_with_no_value(key):
    """`eta =` would be an empty sweep, reported only as no runs."""
    lines = [f"{key} =" if line.split("=")[0].strip() == key else line
             for line in tuned_config().splitlines()]
    text = "\n".join(lines)
    assert text != tuned_config()
    with pytest.raises(ValueError, match=f"{key} needs at least one value"):
        harness.parse_config(text)


@pytest.mark.parametrize("line, message", [
    ("plant_count = 0", "plant_count must be at least 1, got 0"),
    ("plant_count = -2", "plant_count must be at least 1, got -2"),
    ("plant_frac = 0", r"plant_frac must lie in \(0, 1\], got 0.0"),
    ("plant_frac = -1", r"plant_frac must lie in \(0, 1\], got -1.0"),
    ("plant_frac = 2", r"plant_frac must lie in \(0, 1\], got 2.0"),
    ("plant_frac = nan", r"plant_frac must lie in \(0, 1\], got nan"),
    ("seeds = 0, 1, 1", "seeds lists 1 more than once"),
    ("theta = 0.2, 0.1, 0.2", "theta lists 0.2 more than once"),
    ("eps = 0", "eps must be positive and finite, got 0.0"),
    ("eps = -1", "eps must be positive and finite, got -1.0"),
    ("eps = inf", "eps must be positive and finite, got inf"),
    ("eps = nan", "eps must be positive and finite, got nan"),
    ("plant_r = 0", "plant_r must be at least 1, got 0"),
    ("plant_r = -3", "plant_r must be at least 1, got -3"),
    ("plant_grid = 0", "plant_grid must be at least 1, got 0"),
    ("plant_grid = -7", "plant_grid must be at least 1, got -7"),
    ("w = 0", "w must be positive and finite, got 0.0"),
    ("w = inf", "w must be positive and finite, got inf"),
    ("w = nan", "w must be positive and finite, got nan"),
    ("n = 0", "n must be at least 1, got 0"),
    ("r = 1", "r must be at least 2, got 1"),
    ("k_cap = 0", "k_cap must be at least 1, got 0"),
    ("threshold = 0", r"no theta in \[0.2\] admits 0.0"),
    ("threshold = 0.5", r"no theta in \[0.2\] admits 0.5"),
    ("threshold = nan", r"no theta in \[0.2\] admits nan"),
    ("out =", "out must name a directory, got ''"),
], ids=["count_0", "count_negative", "frac_0", "frac_negative", "frac_2",
        "frac_nan", "seeds_repeated", "theta_repeated", "eps_0",
        "eps_negative", "eps_inf", "eps_nan", "plant_r_0", "plant_r_negative",
        "plant_grid_0", "plant_grid_negative", "w_0", "w_inf", "w_nan", "n_0",
        "r_1", "k_cap_0", "threshold_0", "threshold_above_theta",
        "threshold_nan", "out_empty"])
def test_parse_config_refuses_a_plant_count_below_one(line, message):
    """A fraction of 0 or below once planted one copy through
    `max(1, ...)`, and a count of 0 or a fraction above 1 was found only
    per grid point, skipping every point; each is refused with its key
    when the config is read.  A fraction of 1 plants as many as fit.  A
    list that repeats a value, which once ran that point twice and counted
    it twice in `summary.csv`, is refused too.  So are a pitch that is not
    positive and finite (0 once died in `snap_eps`, the others skipped
    every point), a `plant_r` below 1 (0 once died at `p // r_t`), a
    `plant_grid` below 1 (0 once fell back to the default grid), and the
    `w`, `n`, `r`, `k_cap` and `threshold` values that once skipped every
    point.  A threshold is refused only where no swept theta admits it.
    An empty `out` once ran the whole sweep and then raised
    `FileNotFoundError` on writing.  `line` replaces the line of its own
    key, or else `plant_count = 3`."""
    key = line.split("=")[0].strip()
    old = next((ln for ln in tuned_config().splitlines()
                if ln.split("=")[0].strip() == key), "plant_count = 3")
    text = tuned_config().replace(old, line)
    assert text != tuned_config()
    with pytest.raises(ValueError, match=message):
        harness.parse_config(text)
    assert harness.parse_config(
        tuned_config().replace("plant_count = 3", "plant_frac = 1")).plant_frac == 1
    assert harness.parse_config(tuned_config().replace(
        "theta = 0.2", "theta = 0.2, 0.05\nthreshold = 0.1")).threshold == 0.1


@pytest.mark.parametrize("edits, message", [
    ({"theta": "nan"}, "theta must be finite and nonnegative, got nan"),
    ({"theta": "0.2, -0.1"}, "theta must be finite and nonnegative, got -0.1"),
    ({"eta": "1", "beta": "0.5"},
     r"eta = 1.0, beta = 0.5, d = 2: eta\*beta\^2 = 0.25 must exceed d = 2"),
    ({"d": "0"}, r"d = 0: eta, beta must be positive and d >= 1"),
    ({"eta": "nan"}, r"eta = nan, beta = .*, d = 2: eta must be finite, got nan"),
], ids=["theta_nan", "theta_negative", "no_entropy", "d_0", "eta_nan"])
def test_config_refuses_a_family_no_point_can_run(edits, message):
    """Each of these configs was once accepted; every point was then
    skipped and the run ended with no record.  The family is checked by
    `bounds.check_family` and theta by `FamilyParams.check_theta`, the
    rules each point applies, naming the key and the value."""
    lines = [f"{key} = {edits[key]}" if (key := ln.split("=")[0].strip()) in edits
             else ln for ln in tuned_config().splitlines()]
    with pytest.raises(ValueError, match=message):
        harness.parse_config("\n".join(lines))


def test_config_refuses_a_w_below_the_pitch_at_every_point():
    """`w = 0.03` under eps 0.06 once skipped every point ("w must be at
    least eps") and returned no record; it is refused with the smallest
    snapped pitch.  A w that one swept p admits still parses: unset, eps
    is 1/ln p, 0.244 at p = 60 and 0.132 at p = 2000, before snapping."""
    with pytest.raises(ValueError, match="w = 0.03 is below the lattice pitch "
                                         "at every p: the smallest is 0.06"):
        harness.parse_config(tuned_config().replace("w = 0.12", "w = 0.03"))
    text = tuned_config().replace("eps = 0.06\n", "").replace(
        "p = 60", "p = 60, 2000").replace("w = 0.12", "w = 0.2")
    assert harness.parse_config(text).w == 0.2
    with pytest.raises(ValueError, match="the smallest is 0.13"):
        harness.parse_config(text.replace("w = 0.2", "w = 0.1"))


def test_config_rejects_coupling_violation():
    text = tuned_config().replace("theta = 0.2", "theta = 0.25, 0.3")
    with pytest.raises(ValueError):
        harness.parse_config(text)


def test_derive_seeds_stable_under_extension():
    a = harness.derive_seeds(7, 0, p=500, n=10, theta=0.2, d=2, eta=1.0, beta=2.0)
    b = harness.derive_seeds(7, 0, p=500, n=10, theta=0.2, d=2, eta=1.0, beta=2.0)
    assert a == b
    c = harness.derive_seeds(7, 0, p=2000, n=10, theta=0.2, d=2, eta=1.0, beta=2.0)
    assert c != a
    d_ = harness.derive_seeds(8, 0, p=500, n=10, theta=0.2, d=2, eta=1.0, beta=2.0)
    assert d_ != a


def test_single_point_grid_single_record():
    cfg = harness.parse_config(tuned_config())
    cfg.seeds = [0]
    records = harness.run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.p == 60 and rec.n == 200
    assert rec.nmin_fano == pytest.approx(
        bounds.fano_lower_bound(rec.eta, rec.beta, rec.d, rec.theta)
    )


def test_run_experiment_skips_invalid_points(capsys):
    cfg = harness.parse_config(tuned_config())
    cfg.beta = [0.01, cfg.beta[0]]  # first point violates eta*beta^2 > d
    cfg.seeds = [0]
    msgs = []
    records = harness.run_experiment(cfg, log=msgs.append)
    assert len(records) == 1
    assert len(msgs) == 1 and "skipping" in msgs[0]
    cfg.k_cap = 0  # rejected, where it once meant the default cap
    assert harness.run_experiment(cfg, log=msgs.append) == []
    assert len(msgs) == 3 and "k_cap" in msgs[2]


@pytest.mark.parametrize("error", [np.linalg.LinAlgError,
                                   gmrf.NotPositiveDefinite])
def test_run_experiment_raises_factorization_failure(monkeypatch, error):
    def singular(*args, **kwargs):
        raise error("singular")

    monkeypatch.setattr(harness, "assemble_precision", singular)
    cfg = harness.parse_config(tuned_config())
    with pytest.raises(error):
        harness.run_experiment(cfg)


def test_emit_outputs_and_round_trip(tmp_path):
    cfg = harness.parse_config(tuned_config())
    records = harness.run_experiment(cfg)
    assert len(records) == 2
    runs_path, summary_path = harness.emit_outputs(records, tmp_path / "out")
    with open(runs_path) as fh:
        blobs = json.load(fh)
    assert len(blobs) == 2
    assert blobs[0]["p"] == 60
    with open(summary_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    errs = [rec.edge_error_rate for rec in records]
    assert float(row["mean_edge_error"]) == pytest.approx(np.mean(errs))
    assert float(row["std_edge_error"]) == pytest.approx(np.std(errs))
    assert float(row["nmin_fano"]) == pytest.approx(records[0].nmin_fano)


def test_emit_outputs_requires_records(tmp_path):
    with pytest.raises(ValueError):
        harness.emit_outputs([], tmp_path)


def test_experiment_deterministic_csv(tmp_path):
    cfg = harness.parse_config(tuned_config())
    r1 = harness.run_experiment(cfg)
    r2 = harness.run_experiment(cfg)
    _, s1 = harness.emit_outputs(r1, tmp_path / "a")
    _, s2 = harness.emit_outputs(r2, tmp_path / "b")
    with open(s1, "rb") as a, open(s2, "rb") as b:
        assert a.read() == b.read()


def test_summary_rows_sorted(tmp_path):
    cfg = harness.parse_config(tuned_config())
    cfg.p = [60, 40]
    cfg.plant_count = None  # auto: p // plant_r copies, no background
    cfg.seeds = [0]
    records = harness.run_experiment(cfg)
    assert len(records) == 2
    _, summary = harness.emit_outputs(records, tmp_path / "o")
    with open(summary) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["p"]) for r in rows] == [40, 60]
