"""Outside-in tracing of barflow for the benchmark's traced run.

:class:`Tracer` replaces, at their module attributes, every public function
defined in a barflow module and numpy's ``linalg.eig*`` and ``fft.*``
transforms with a wrapper that records a span.  Every barflow module that
imported one of those functions by name is rebound too, so calls between
modules pass through the wrappers.  No file of the package is edited; the
originals are restored by :meth:`Tracer.uninstall`.

A span is ``[id, parent, name, layer, start, end, attrs]`` with times from
``time.perf_counter``; spans are kept in memory and written out at the end
of a pass with the pass's run id.  ``attrs`` holds the counts taken at the
same boundary: matrix dimensions of dense solves, transform sizes, bytes of
built operators, steps, subnormal parts and snapshot bytes of trajectories.

Per-step timestamps come from a clock entry that the evolution wrappers add
through the public ``extra_diagnostics`` hook; trajectories keep it in their
diagnostics, which the CLI never writes to its CSVs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

import numpy as np

BARFLOW_MODULES = ("fields", "operators", "eigensolve", "evolution", "hypocoercivity", "checks", "cli")
CLOCK = "_bench_clock"
INIT_FUNCTIONS = ("random_field", "remove_anomalous", "bar_state", "dipole_state")
EVOLVE_FUNCTIONS = ("evolve_linear", "evolve_nonlinear")
TINY = np.finfo(float).tiny


def _is_transform(name):
    return name.endswith(("fft", "fft2", "fftn"))


def _result_bytes(result):
    """Bytes of the arrays an operator builder returned."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(_result_bytes(r) for r in result)
    matrix = getattr(result, "matrix", None)
    return matrix.nbytes if isinstance(matrix, np.ndarray) else 0


def _subnormal_parts(coeffs):
    parts = np.abs(np.concatenate([coeffs.real.ravel(), coeffs.imag.ravel()]))
    return int(np.count_nonzero((parts > 0) & (parts < TINY)))


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, layer, args, kwargs):
        """Run ``fn`` inside a new span; return its result and the span's attrs."""
        stack = self._stack()
        span = [len(self.spans), stack[-1][0] if stack else None, name, layer, 0.0, 0.0, {}]
        self.spans.append(span)
        stack.append(span)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            stack.pop()
        return result, span[6]

    def _wrap(self, fn, name, layer, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, attrs = self._call(fn, name, layer, args, kwargs)
            if counter is not None:
                counter(attrs, args, kwargs, result)
            return result

        return wrapper

    def _wrap_evolve(self, fn, name):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stamps = []

            def clock(field, t):
                stamps.append(time.perf_counter())
                return t

            extra = dict(bound.arguments.get("extra_diagnostics") or {})
            extra[CLOCK] = clock
            bound.arguments["extra_diagnostics"] = extra
            result, attrs = self._call(fn, name, "evolution", bound.args, bound.kwargs)
            attrs["stamps"] = stamps
            attrs["subnormal_parts_final"] = _subnormal_parts(result.fields[-1].coeffs)
            attrs["snapshot_bytes"] = sum(f.coeffs.nbytes for f in result.fields)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch barflow and numpy in place; call once per process."""
        modules = {m: importlib.import_module(f"barflow.{m}") for m in BARFLOW_MODULES}
        replacements = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "evolution" and attr in EVOLVE_FUNCTIONS:
                    wrapped = self._wrap_evolve(obj, name)
                else:
                    counter = _count_build if short == "operators" else None
                    wrapped = self._wrap(obj, name, short, counter)
                replacements[id(obj)] = wrapped
        for module in (importlib.import_module("barflow"), *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    self._set(module, attr, replacements[id(obj)])
        for attr in dir(np.linalg):
            if attr.startswith("eig"):
                fn = getattr(np.linalg, attr)
                self._set(np.linalg, attr, self._wrap(fn, f"numpy.linalg.{attr}", "numpy.linalg", _count_solve))
        for attr in dir(np.fft):
            if _is_transform(attr):
                fn = getattr(np.fft, attr)
                self._set(np.fft, attr, self._wrap(fn, f"numpy.fft.{attr}", "numpy.fft", _count_transform))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self):
        """The spans as dicts carrying the run id, in start order."""
        keys = ("id", "parent", "name", "layer", "start", "end", "attrs")
        return [{"run": self.run_id, **dict(zip(keys, span))} for span in self.spans]

    def write(self, path):
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def _count_build(attrs, args, kwargs, result):
    attrs["bytes"] = _result_bytes(result)


def _count_solve(attrs, args, kwargs, result):
    attrs["n"] = int(np.shape(args[0] if args else kwargs["a"])[-1])


def _count_transform(attrs, args, kwargs, result):
    attrs["points"] = int(np.size(args[0] if args else kwargs["a"]))


# -- per-layer metrics -----------------------------------------------------


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its span records."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - child_time.get(s["id"], 0.0)

    def parent_layer(s):
        return by_id[s["parent"]]["layer"] if s["parent"] is not None else None

    def outermost(layer):
        return [s for s in spans if s["layer"] == layer and parent_layer(s) != layer]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    solves = [s for s in spans if s["layer"] == "numpy.linalg"]
    ffts = [s for s in spans if s["layer"] == "numpy.fft" and parent_layer(s) == "evolution"]
    evolves = named(*(f"evolution.{n}" for n in EVOLVE_FUNCTIONS))
    steps, early, late = [], [], []
    for s in evolves:
        ms = np.diff(s["attrs"]["stamps"]) * 1e3
        tenth = max(1, len(ms) // 10)
        steps.extend(ms)
        early.extend(ms[:tenth])
        late.extend(ms[-tenth:])
    builds = outermost("operators")
    return {
        "cli.self_s": sum(self_time(s) for s in spans if s["layer"] == "cli"),
        "fields.save_s": sum(dur(s) for s in named("fields.save_field")),
        "fields.init_s": sum(dur(s) for s in named(*(f"fields.{n}" for n in INIT_FUNCTIONS))),
        "operators.build_s": sum(dur(s) for s in builds),
        "operators.matrix_bytes": sum(s["attrs"]["bytes"] for s in builds if "bytes" in s["attrs"]),
        "eigensolve.solves": len(solves),
        "eigensolve.work_n3": sum(s["attrs"]["n"] ** 3 for s in solves),
        "eigensolve.lapack_s": sum(dur(s) for s in solves),
        "eigensolve.post_s": sum(self_time(s) for s in named("eigensolve.compute_spectrum")),
        "eigensolve.solve_ms_n201_p50": _median([dur(s) * 1e3 for s in solves if s["attrs"]["n"] == 201]),
        "eigensolve.solve_ms_n801_p50": _median([dur(s) * 1e3 for s in solves if s["attrs"]["n"] == 801]),
        "evolution.steps": len(steps),
        "evolution.step_ms_p50": _median(steps),
        "evolution.step_ms_p99": float(np.percentile(steps, 99)) if steps else 0.0,
        "evolution.step_ms_early": _median(early),
        "evolution.step_ms_late": _median(late),
        "evolution.subnormal_parts_final": sum(s["attrs"]["subnormal_parts_final"] for s in evolves),
        "evolution.self_s": sum(self_time(s) for s in spans if s["layer"] == "evolution"),
        "evolution.fft_calls": len(ffts),
        "evolution.fft_points": sum(s["attrs"]["points"] for s in ffts),
        "evolution.fft_s": sum(dur(s) for s in ffts),
        "evolution.snapshot_bytes": sum(s["attrs"]["snapshot_bytes"] for s in evolves),
        "hypocoercivity.x_norm_calls": len(named("hypocoercivity.x_norm_sq")),
        "hypocoercivity.x_norm_s": sum(dur(s) for s in named("hypocoercivity.x_norm_sq")),
        "hypocoercivity.oscillator_s": sum(dur(s) for s in named("hypocoercivity.oscillator_min_eig")),
    }
