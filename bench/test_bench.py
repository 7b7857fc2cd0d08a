"""Tests of the benchmark itself: tracing, exact counts, CSV identity, checks.

Run from the root of a checkout with ``python3 -m pytest bench -q``.  The
traced commands are small versions of the workloads so the file runs in
well under a minute.  No test here asserts on a measured duration: the
benchmark informs and never gates on wall-clock time
(``test_no_assert_on_wall_clock`` enforces that for this file).
"""

from __future__ import annotations

import ast
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import barflow.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    ["sweep", "--ell", "2", "--trunc", "20", "--nus", "0.01,0.001,0.0001", "--out", "sweep.csv"],
    ["collapse", "--ell", "2", "--trunc", "20", "--nus", "0.001,0.0001", "--count", "5", "--out", "collapse.csv"],
    ["evolve", "--init", "random-fast:3", "--kind", "linear", "--nu", "0.05", "--trunc", "16", "--dt", "0.025",
     "--t-final", "100", "--sample-every", "1000", "--out-prefix", "linear"],
    ["evolve", "--init", "dipole:1", "--kind", "nonlinear", "--nu", "0.01", "--trunc", "4", "--grid", "32",
     "--t-final", "0.05", "--dt", "1e-3", "--sample-every", "25", "--out-prefix", "nonlinear"],
    ["hypo", "--ell", "2", "--nu", "1e-3", "--trunc", "16", "--t-final", "100", "--dt", "0.2", "--seed", "5",
     "--out-prefix", "hypo"],
]
EXACT_COUNTS = (
    "evolution.steps",
    "evolution.fft_calls",
    "eigensolve.work_n3",
    "operators.matrix_bytes",
    "evolution.subnormal_parts_final",
    "hypocoercivity.x_norm_calls",
)

ORIGINALS = {(owner, attr): getattr(owner, attr) for owner, attr in (
    (np.linalg, "eigvals"), (np.fft, "ifft2"), (barflow.cli, "main"), (barflow, "bar_slice"),
    (barflow.eigensolve.operators, "bar_slice"), (barflow.hypocoercivity, "evolve_linear"))}

# Final l2 of the linear workload as the unmodified package computed it.
SEED_COMMIT_LINEAR_L2 = {1: 3.1902353678912413e-07, 2027: 2.6346306457599633e-07}


def _run(out, traced):
    out.mkdir()
    cwd = os.getcwd()
    tracer = spans.Tracer("test") if traced else None
    os.chdir(out)
    try:
        if tracer is not None:
            tracer.install()
        for argv in SMALL:
            assert barflow.cli.main(argv) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    plain = _run(base / "plain", traced=False)
    first = _run(base / "first", traced=True)
    second = _run(base / "second", traced=True)
    return base, plain, first, second


def test_spans_nest(runs):
    _, _, tracer, _ = runs
    records = tracer.records()
    assert {s["run"] for s in records} == {"test"}
    by_id = {s["id"]: s for s in records}
    roots = [s for s in records if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * len(SMALL)
    for s in records:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s["name"], parent["name"])
        assert s["end"] - s["start"] <= parent["end"] - parent["start"]
    layers = {s["layer"] for s in records}
    assert {"cli", "fields", "operators", "eigensolve", "evolution", "hypocoercivity",
            "numpy.linalg", "numpy.fft"} <= layers


def test_uninstall_restores_modules(runs):
    for (owner, attr), original in ORIGINALS.items():
        assert getattr(owner, attr) is original, attr


def test_exact_counts_repeat(runs):
    _, _, first, second = runs
    a = spans.layer_metrics(first.records())
    b = spans.layer_metrics(second.records())
    for name in EXACT_COUNTS:
        assert a[name] == b[name], name
        assert a[name] > 0, name
    assert a["evolution.steps"] == 4000 + 50 + 500
    assert a["evolution.fft_calls"] == 20 * 50 + 2
    assert a["eigensolve.work_n3"] == 5 * 41**3 + sum(257**3 for s in first.records()
                                                       if s["name"] == "numpy.linalg.eigvalsh")
    assert a["hypocoercivity.x_norm_calls"] == 500 + 1


def test_traced_and_untraced_csvs_identical(runs):
    base = runs[0]
    plain = sorted(p.name for p in (base / "plain").glob("*.csv"))
    assert plain == sorted(p.name for p in (base / "first").glob("*.csv"))
    assert len(plain) > 10
    for name in plain:
        assert (base / "plain" / name).read_bytes() == (base / "first" / name).read_bytes(), name


def test_reference_integrator_matches_seed_commit():
    for seed, l2 in SEED_COMMIT_LINEAR_L2.items():
        assert math.isclose(workloads.reference_linear_l2(seed), l2, rel_tol=1e-12)


def test_checks_reject_wrong_outputs(tmp_path):
    kind = "dipole"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        [(label, argv, check)] = [op for op in workloads.operations("nonlinear", 1) if kind in op[0]]
        assert barflow.cli.main(argv) == 0
    finally:
        os.chdir(cwd)
    assert check(tmp_path, {}) == []
    snapshot = tmp_path / f"{label}_field_0002.csv"
    lines = snapshot.read_text().splitlines()
    k, l, re, im = lines[2].split(",")
    lines[2] = ",".join((k, l, repr(float(re) * (1 + 1e-5)), im))
    snapshot.write_text("\n".join(lines) + "\n")
    assert check(tmp_path, {}) != []
    results = [{"exit": 0, "error": None}, {"exit": 1, "error": None}]
    failed = workloads.check_pass("nonlinear", 1, tmp_path, results, {})
    assert set(failed) == {"nonlinear_barmode", "nonlinear_dipole"}


def test_no_assert_on_wall_clock():
    timing = {"time", "perf_counter", "monotonic", "wall_s", "setup_s"}
    suffixes = ("_s", "_ms", "_p50", "_p99")
    tree = ast.parse(Path(__file__).read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            for sub in ast.walk(node.test):
                word = getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "value", None)
                if isinstance(word, str) and (word in timing or word.endswith(suffixes)):
                    offenders.append((node.lineno, word))
    assert not offenders
