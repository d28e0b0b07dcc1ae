#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Checks that bench/run.py prints every end-to-end and per-layer metric with
its unit, that the traced self times and the uncovered remainder add up to
the traced pass time, that an op over its time budget is counted as failed,
that a deliberately altered reference makes the output check fail with a
non-zero exit, and that the benchmark refuses to run without the geoggm
sources.  Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the copy below free of __pycache__
import run as bench  # noqa: E402

SCRATCH = os.path.join(bench.OUT, "selftest")


def call(*args, cwd=bench.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(lines):
    return json.loads(lines[-1])


def expect(cond, what, detail=""):
    if not cond:
        sys.exit(f"selftest FAILED: {what}\n{detail}")
    print(f"ok  {what}")


def printed_with_unit(lines, name, unit):
    """A metric line reads `  <name> <value> <unit> [note]`."""
    return any(line.split()[0::2][:2] == [name, unit] for line in lines
               if line.startswith("  ") and len(line.split()) >= 3)


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    ref = os.path.join(SCRATCH, "reference.json")
    tiny = ["--workload", "trend", "--seed", "0", "--tiny"]

    rc, lines, err = call(*tiny, "--trace", "0", "--write-reference", ref)
    expect(rc == 0 and result(lines)["correct"], "tiny trend run records a reference", err)

    rc, lines, err = call(*tiny, "--trace", "0", "--reference", ref)
    out = result(lines)
    expect(rc == 0 and out["correct"] and out["failed"] == 0,
           "tiny trend run matches its reference", err)
    expect(out["attempted"] >= 1, "attempted counts the ops")
    expect({k: v["unit"] for k, v in out["metrics"].items()} == dict(bench.END_TO_END),
           "JSON holds exactly the end-to-end metrics with units", lines[-1])
    for name, unit in bench.END_TO_END + bench.QUALITY:
        expect(printed_with_unit(lines[:-1], name, unit), f"prints {name} in {unit}")

    with open(ref) as fh:
        good = json.load(fh)
    for label, alter in [
        ("edge digest", lambda r: r["ops"][0].update(edges_sha256="0" * 64)),
        ("false-edge count", lambda r: r["ops"][0].update(
            false_edges=r["ops"][0]["false_edges"] + 1)),
        ("summary.csv digest", lambda r: r.update(
            summary_sha256=["0" * 64] * len(r["summary_sha256"]))),
    ]:
        bad = json.loads(json.dumps(good))
        alter(bad)
        bad_path = os.path.join(SCRATCH, "altered.json")
        with open(bad_path, "w") as fh:
            json.dump(bad, fh)
        rc, lines, _ = call(*tiny, "--trace", "0", "--reference", bad_path)
        expect(rc == 1 and not result(lines)["correct"],
               f"an altered {label} in the reference fails the check")

    rc, lines, err = call(*tiny, "--trace", "1", "--reference", ref)
    out = result(lines)
    expect(rc == 0 and out["correct"], "tiny traced run is correct", err)
    expect({k: v["unit"] for k, v in out["metrics"].items()} == dict(bench.PER_LAYER),
           "traced JSON holds exactly the per-layer metrics with units", lines[-1])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    total = sum(m[f"{n}_s"] for n in bench.SPANS) + m["trace.uncovered_s"]
    expect(abs(total - m["trace.run_s"]) < 1e-6,
           "self times plus uncovered add up to trace.run_s")
    expect(m["selector.candidates"] >= 1 and m["geometry.quantize_calls"] >= 1,
           "traced counts are recorded")

    rc, lines, err = call(*tiny, "--trace", "0", "--op-budget", "0.01")
    out = result(lines)
    expect(rc == 0 and out["failed"] == out["attempted"]
           and any("did not finish" in line for line in lines),
           "an op over its budget is recorded as failed, did not finish", err)
    expect(printed_with_unit(lines, "fail_frac", "ratio")
           and any(line.split()[:2] == ["fail_frac", "1"] for line in lines),
           "fail_frac counts the op that did not finish")

    rc, lines, err = call("--workload", "exact_rot", "--seed", "7", "--tiny",
                          "--trace", "0")
    expect(rc == 0 and result(lines)["correct"],
           "tiny exact_rot run meets the criterion-4 invariants", err)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(bench.HERE, os.path.join(bare, "bench"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    rc, lines, _ = call("--workload", "trend", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=bare)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           "without the sources the benchmark exits non-zero and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
