"""barflow benchmark: four workloads through ``barflow.cli.main``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload spectra --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all          # one line per workload

Each pass of a workload runs in a fresh interpreter (``worker.py``) as a
closed loop with one client: its commands run back to back.  With
``--trace 0`` the benchmark runs passes until their measured time reaches
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics
plus ``trace.overhead_s``.  Every command's outputs are checked (see
``workloads.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it gives every metric with its unit, the failure ratio and the
verdict.  An ``env`` line records the machine, the library versions and the
thread settings; ``.bench_work/results.jsonl`` keeps every result with it.

The benchmark uses the package's default threading.  Exit code 2 means the
benchmark could not run at all (no ``src/barflow`` in the checkout); exit
code 1 means a worker process crashed or timed out, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "fields.save_s": "s",
    "fields.init_s": "s",
    "operators.build_s": "s",
    "operators.matrix_bytes": "B",
    "eigensolve.solves": "count",
    "eigensolve.work_n3": "count",
    "eigensolve.lapack_s": "s",
    "eigensolve.post_s": "s",
    "eigensolve.solve_ms_n201_p50": "ms",
    "eigensolve.solve_ms_n801_p50": "ms",
    "evolution.steps": "count",
    "evolution.step_ms_p50": "ms",
    "evolution.step_ms_p99": "ms",
    "evolution.step_ms_early": "ms",
    "evolution.step_ms_late": "ms",
    "evolution.subnormal_parts_final": "count",
    "evolution.self_s": "s",
    "evolution.fft_calls": "count",
    "evolution.fft_points": "count",
    "evolution.fft_s": "s",
    "evolution.snapshot_bytes": "B",
    "hypocoercivity.x_norm_calls": "count",
    "hypocoercivity.x_norm_s": "s",
    "hypocoercivity.oscillator_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def environment():
    """Machine, library and thread facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BARFLOW_THREADS")},
        "caches": caches,
    }


def spawn(workload, seed, mode, out):
    """Run one worker in ``out`` and return its report."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(time.monotonic())]
    with open(out / "worker.log", "w") as log:
        proc = subprocess.run(cmd, cwd=out, stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
    report_path = out / "worker.json"
    if proc.returncode != 0 or not report_path.exists():
        tail = (out / "worker.log").read_text()[-2000:]
        raise BenchError(f"worker {mode} for {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(report_path.read_text())


def bytes_written(out):
    """Bytes of the CSVs listed in the pass's manifests (manifests hold a
    wall-clock duration, so they are left out of this exact count)."""
    total = 0
    for manifest in out.glob("*.manifest.json"):
        for path in json.loads(manifest.read_text())["outputs"]:
            total += (out / path).stat().st_size
    return total


class Checker:
    """Checks the passes of one workload, computing references once."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.refs = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, report, out):
        if self.refs is None:
            self.refs = workloads.references(self.workload, self.seed)
        failed = workloads.check_pass(self.workload, self.seed, out, report["ops"], self.refs)
        self.attempted += len(report["ops"])
        self.failed += len(failed)
        self.messages.extend(msg for msgs in failed.values() for msg in msgs)


def run_workload(workload, seed, seconds, trace):
    """Measure one workload.

    Returns its metrics, the :class:`Checker`, and the median wall time of
    each command over the untraced passes.
    """
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    check = Checker(workload, seed)
    try:
        if trace:
            plain = spawn(workload, seed, "run", base / "plain")
            check(plain, base / "plain")
            traced = spawn(workload, seed, "trace", base / "traced")
            check(traced, base / "traced")
            metrics = dict(traced["metrics"])
            metrics["cli.bytes_written"] = bytes_written(base / "traced")
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
            passes = [plain]
        else:
            passes = []
            while not passes or sum(p["wall_s"] for p in passes) < seconds:
                out = base / f"pass{len(passes)}"
                passes.append(spawn(workload, seed, "run", out))
                check(passes[-1], out)
                shutil.rmtree(out)
            setups = [p["setup_s"] for p in passes]
            setups += [spawn(workload, seed, "setup", base / f"setup{i}")["setup_s"] for i in range(SETUP_PROBES)]
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
            }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    op_wall_s = {op["label"]: statistics.median(p["ops"][i]["wall_s"] for p in passes)
                 for i, op in enumerate(passes[0]["ops"])}
    return metrics, check, op_wall_s


def summary_line(workload, seed, trace, metrics, check):
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    parts = [f"{name}={value:.6g} {units[name]}" for name, value in metrics.items()]
    verdict = "FAIL" if check.failed else "PASS"
    return (f"{workload} seed={seed} trace={trace}: " + " ".join(parts)
            + f" fail_ratio={check.failed / check.attempted:.6g} ({check.failed}/{check.attempted})"
            + f" correct={verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                             f"hold-out seed for checking claims: {workloads.HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=18.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "barflow" / "__init__.py").is_file():
        print(f"error: no src/barflow under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted, failed, combined = 0, 0, {}
    try:
        for workload in names:
            metrics, check, op_wall_s = run_workload(workload, args.seed, args.seconds, args.trace)
            for msg in check.messages:
                print(f"check failed: {msg}", file=sys.stderr)
            print(summary_line(workload, args.seed, args.trace, metrics, check), flush=True)
            record = {"time": time.time(), "workload": workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics, "op_wall_s": op_wall_s, "env": env}
            WORK.mkdir(exist_ok=True)
            with open(WORK / "results.jsonl", "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            prefix = "" if len(names) == 1 else f"{workload}."
            combined.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
            attempted += check.attempted
            failed += check.failed
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
