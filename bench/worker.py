"""One pass of one workload in a fresh interpreter.

Run by ``run.py`` with the pass directory as working directory.  The worker
imports numpy and barflow from the checkout's ``src``, builds the
workload's argv lists, and reports ``setup_s`` as the time since the parent
spawned it (``--spawned-at`` is a ``time.monotonic`` reading, a clock shared
by all processes of the machine).  In ``run`` and ``trace`` modes it then
calls ``barflow.cli.main`` for each command back to back, timing from the
first call to the last return; ``trace`` mode installs the span tracer
first and writes ``spans.jsonl``.  Results go to ``worker.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _import_barflow(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import barflow.cli

    if src not in Path(barflow.__file__).resolve().parents:
        raise ImportError(f"barflow imported from {barflow.__file__}, not from {src}")
    return barflow.cli


def _peak_rss_mib():
    """Peak resident set of this process image.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss`` across
    exec from the forking parent, so it would include the benchmark's own
    memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_ops(cli, ops):
    results = []
    for label, argv, _ in ops:
        record = {"label": label, "exit": 0, "error": None}
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            code = 1
            record["error"] = traceback.format_exc(limit=3)
        record["wall_s"] = time.perf_counter() - started
        record["exit"] = 0 if code is None else code
        results.append(record)
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = parser.parse_args()

    cli = _import_barflow(Path(args.root))
    ops = workloads.operations(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    report = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer(uuid.uuid4().hex)
            tracer.install()
        started = time.perf_counter()
        report["ops"] = _run_ops(cli, ops)
        report["wall_s"] = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
            tracer.write("spans.jsonl")
            report["metrics"] = spans.layer_metrics(tracer.records())
        report["peak_rss_mib"] = _peak_rss_mib()
    with open("worker.json", "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
