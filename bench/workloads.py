"""The benchmark's workloads: the barflow commands of each, and the checks
that decide whether each command's outputs are correct.

Every workload uses ell = 2, amp = 1 and the default operator variant unless
its argv says otherwise.  The seed feeds ``random-fast:SEED`` and
``hypo --seed``; the other workloads have no random input.

A check reads the CSVs a command wrote into the pass directory and returns
a list of failure messages (empty when the outputs are correct).  The
tolerances are those of the acceptance suite.  Spectra are compared by
tolerance, never by digest: their noisy tail changes with the BLAS thread
count.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("spectra", "linear", "hypo", "nonlinear")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2027

SWEEP_NUS = (5e-3, 2e-3, 1e-3, 5e-4, 2.5e-4, 1e-4)
COLLAPSE_NUS = (2.5e-4, 1e-4, 5e-5)
LINEAR = {"nu": 1e-2, "trunc": 64, "dt": 0.025, "t_final": 100.0, "sample_every": 1000}
HYPO = {"nu": 1e-4, "trunc": 48, "dt": 0.2, "t_final": 5000.0}
NONLINEAR = {"nu": 0.01, "trunc": 4, "grid": 64, "dt": 1e-3, "t_final": 1.0, "sample_every": 500}


def _nus(values):
    return ",".join(repr(v) for v in values)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


# -- spectra ---------------------------------------------------------------


def _slope(nus, values):
    return float(np.polyfit(np.log(nus), np.log(np.abs(values)), 1)[0])


def check_sweep(out, trunc):
    rows = _read_csv(out / f"sweep{trunc}.csv")
    errors = []
    lead = {}
    for nu in SWEEP_NUS:
        mine = [r for r in rows if math.isclose(float(r["nu"]), nu, rel_tol=1e-12)]
        vals = np.array([complex(float(r["re"]), float(r["im"])) for r in mine])
        if len(vals) != 2 * trunc + 1 or not np.all(np.isfinite(vals)):
            errors.append(f"sweep{trunc}: nu={nu} has {len(vals)} rows, want 2N+1={2 * trunc + 1} finite")
            continue
        lead[nu] = next(float(r["re"]) for r in mine if r["rank"] == "1")
    if errors:
        return errors
    nus = np.array(SWEEP_NUS)
    slope_all = _slope(nus, [lead[nu] for nu in SWEEP_NUS])
    slope_small = _slope(nus[-4:], [lead[nu] for nu in SWEEP_NUS[-4:]])
    fit_slope = float(_read_csv(out / f"sweep{trunc}_fit.csv")[0]["slope"])
    if not 0.4 <= slope_all <= 0.6:
        errors.append(f"sweep{trunc}: slope {slope_all:.4f} outside [0.4, 0.6]")
    if not 0.45 <= slope_small <= 0.55:
        errors.append(f"sweep{trunc}: small-nu slope {slope_small:.4f} outside [0.45, 0.55]")
    if not math.isclose(fit_slope, slope_all, rel_tol=1e-9):
        errors.append(f"sweep{trunc}: fit file slope {fit_slope!r} != {slope_all!r}")
    return errors


def check_collapse(out, trunc):
    rows = _read_csv(out / f"collapse{trunc}.csv")
    if len(rows) != 30 * len(COLLAPSE_NUS):
        return [f"collapse{trunc}: {len(rows)} rows, want {30 * len(COLLAPSE_NUS)}"]

    def ranks(nu):
        return np.array([float(r["re_over_sqrt_nu"]) for r in rows
                         if math.isclose(float(r["nu"]), nu, rel_tol=1e-12) and int(r["rank"]) <= 5])

    a, b = ranks(COLLAPSE_NUS[1]), ranks(COLLAPSE_NUS[2])
    worst = float((np.abs(a - b) / np.abs(b)).max())
    if not worst <= 0.15:
        return [f"collapse{trunc}: ranks 1-5 disagree by {worst:.3f} > 0.15"]
    return []


# -- linear ----------------------------------------------------------------


def reference_linear_l2(seed, nu=LINEAR["nu"], trunc=LINEAR["trunc"], dt=LINEAR["dt"],
                        t_final=LINEAR["t_final"], a=1.0):
    """Final l2 of ``evolve --init random-fast:SEED --kind linear --variant full``.

    A plain restatement of the documented definitions, written apart from
    the package so that it keeps the seed commit's numbers while the
    package changes: the seeded field of ``random_field`` with its
    anomalous coordinates removed, the ``full`` shear generator of
    ``bar_slice``'s docstring, and the integrating-factor RK4 scheme.
    Subnormal parts are flushed to zero every 64 steps; that moves the
    state by less than 1e-290 and the l2 norm not at all.
    """
    n = trunc
    ks = np.arange(-n, n + 1)[:, None].astype(float)
    ls = np.arange(-n, n + 1)[None, :].astype(float)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((2 * n + 1, 2 * n + 1)) + 1j * rng.standard_normal((2 * n + 1, 2 * n + 1))
    w *= np.exp(-0.1 * (ks * ks + ls * ls))
    w = (w + np.conj(w[::-1, ::-1])) / 2
    w[n, n] = 0.0
    w[:, n] = 0.0
    even = (np.arange(-n, n + 1) % 2) == 0
    for col in (n + 1, n - 1):
        row = w[:, col].copy()
        w[:, col] = np.where(even, (row - row[::-1]) / 2, (row + row[::-1]) / 2)

    with np.errstate(divide="ignore"):
        fm = np.where((ks - 1) ** 2 + ls * ls > 0, 1.0 - 1.0 / ((ks - 1) ** 2 + ls * ls), 1.0)
        fp = np.where((ks + 1) ** 2 + ls * ls > 0, 1.0 - 1.0 / ((ks + 1) ** 2 + ls * ls), 1.0)
    half = -ls / 2

    def advect(u, t):
        out = np.zeros_like(u)
        out[1:] += fm[1:] * u[:-1]
        out[:-1] -= fp[:-1] * u[1:]
        return half * (a * math.exp(-nu * t)) * out

    e_half = np.exp(-nu * (ks * ks + ls * ls) * dt / 2)
    e_full = e_half * e_half
    for step in range(int(round(t_final / dt))):
        t = step * dt
        k1 = advect(w, t)
        k2 = advect(e_half * (w + dt / 2 * k1), t + dt / 2)
        k3 = advect(e_half * w + dt / 2 * k2, t + dt / 2)
        k4 = advect(e_full * w + dt * e_half * k3, t + dt)
        w = e_full * w + dt / 6 * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
        if step % 64 == 63:
            w.real[np.abs(w.real) < 1e-290] = 0.0
            w.imag[np.abs(w.imag) < 1e-290] = 0.0
    return float(np.sqrt(np.sum(np.abs(w) ** 2)))


def check_linear(out, reference_l2):
    rows = _read_csv(out / "linear_diagnostics.csv")
    l2 = _column(rows, "l2")
    leak = float((_column(rows, "max_pq") / l2).max())
    errors = []
    if len(rows) != int(round(LINEAR["t_final"] / LINEAR["dt"])) + 1:
        errors.append(f"linear: {len(rows)} diagnostic rows")
    if not leak <= 1e-8:
        errors.append(f"linear: anomalous leak max_pq/l2 = {leak:.3e} > 1e-8")
    rel = abs(l2[-1] - reference_l2) / reference_l2
    if not rel <= 1e-9:
        errors.append(f"linear: final l2 {l2[-1]!r} differs from reference {reference_l2!r} by {rel:.3e}")
    return errors


# -- hypo ------------------------------------------------------------------


def check_hypo(out):
    errors = []
    if _read_csv(out / "hypo_constants.csv")[0]["checks_passed"] != "1":
        errors.append("hypo: constants checks_passed != 1")
    decay = _read_csv(out / "hypo_decay.csv")[0]
    nu = float(decay["nu"])
    rate = float(decay["fitted_M"]) * math.sqrt(nu)
    diffusive = 8 * nu  # 2 nu (k^2 + ell^2) at k = 0, ell = 2
    if not rate >= 5 * diffusive:
        errors.append(f"hypo: rate {rate:.3e} < 5 x diffusive {diffusive:.3e}")
    return errors


# -- nonlinear -------------------------------------------------------------


def _read_field(path):
    with open(path) as fh:
        fh.readline()
        fh.readline()
        return {(int(k), int(l)): complex(float(re), float(im))
                for k, l, re, im in (line.strip().split(",") for line in fh if line.strip())}


def exact_state(kind, t, nu):
    """The exact m = 1 bar (cos x) or dipole (cos x + cos y) at time t."""
    amp = 0.5 * math.exp(-nu * t)
    modes = [(1, 0), (-1, 0)] if kind == "barmode" else [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return {m: amp for m in modes}


def check_nonlinear(out, kind):
    p = NONLINEAR
    prefix = f"nonlinear_{kind}"
    errors = []
    n_snap = int(round(p["t_final"] / p["dt"])) // p["sample_every"] + 1
    for i in range(n_snap):
        path = out / f"{prefix}_field_{i:04d}.csv"
        if not path.exists():
            errors.append(f"{prefix}: snapshot {i} missing")
            continue
        t = i * p["sample_every"] * p["dt"]
        got = _read_field(path)
        exact = exact_state(kind, t, p["nu"])
        scale = max(abs(v) for v in exact.values())
        err = max(abs(got.get(m, 0) - exact.get(m, 0)) for m in set(got) | set(exact)) / scale
        if not err <= 1e-6:
            errors.append(f"{prefix}: snapshot error {err:.3e} > 1e-6 at t={t}")
    rows = _read_csv(out / f"{prefix}_diagnostics.csv")
    t, z, g = _column(rows, "t"), _column(rows, "enstrophy"), _column(rows, "grad_norm_sq")
    h = t[1] - t[0]
    dissipation = p["nu"] * g[1:-1]
    resid = float((np.abs((z[2:] - z[:-2]) / (4 * h) + dissipation) / dissipation).max())
    if not resid <= 1e-3:
        errors.append(f"{prefix}: enstrophy balance residual {resid:.3e} > 1e-3")
    return errors


# -- the workloads ---------------------------------------------------------


def operations(workload, seed):
    """``[(label, argv, check)]`` for one pass; ``check(out_dir, refs)``
    returns failure messages, with ``refs`` from :func:`references`."""
    common = ["--ell", "2", "--amp", "1"]
    if workload == "spectra":
        ops = []
        for trunc in (100, 400):
            ops.append((f"sweep{trunc}", ["sweep", *common, "--trunc", str(trunc), "--nus", _nus(SWEEP_NUS),
                                          "--out", f"sweep{trunc}.csv"],
                        lambda out, refs, trunc=trunc: check_sweep(out, trunc)))
            ops.append((f"collapse{trunc}", ["collapse", *common, "--trunc", str(trunc), "--nus",
                                             _nus(COLLAPSE_NUS), "--count", "30", "--out", f"collapse{trunc}.csv"],
                        lambda out, refs, trunc=trunc: check_collapse(out, trunc)))
        return ops
    if workload == "linear":
        p = LINEAR
        argv = ["evolve", "--init", f"random-fast:{seed}", "--kind", "linear", "--variant", "full",
                "--amp", "1", "--nu", repr(p["nu"]), "--trunc", str(p["trunc"]), "--dt", repr(p["dt"]),
                "--t-final", repr(p["t_final"]), "--sample-every", str(p["sample_every"]),
                "--out-prefix", "linear"]
        return [("linear", argv, lambda out, refs: check_linear(out, refs["linear_l2"]))]
    if workload == "hypo":
        p = HYPO
        argv = ["hypo", *common, "--nu", repr(p["nu"]), "--trunc", str(p["trunc"]), "--t-final",
                repr(p["t_final"]), "--dt", repr(p["dt"]), "--seed", str(seed), "--out-prefix", "hypo"]
        return [("hypo", argv, lambda out, refs: check_hypo(out))]
    if workload == "nonlinear":
        p = NONLINEAR
        ops = []
        for kind in ("barmode", "dipole"):
            argv = ["evolve", "--init", f"{kind}:1", "--kind", "nonlinear", "--amp", "1", "--nu", repr(p["nu"]),
                    "--trunc", str(p["trunc"]), "--grid", str(p["grid"]), "--t-final", repr(p["t_final"]),
                    "--dt", repr(p["dt"]), "--sample-every", str(p["sample_every"]),
                    "--out-prefix", f"nonlinear_{kind}"]
            ops.append((f"nonlinear_{kind}", argv, lambda out, refs, kind=kind: check_nonlinear(out, kind)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def references(workload, seed):
    """Reference values the checks of one workload need."""
    return {"linear_l2": reference_linear_l2(seed)} if workload == "linear" else {}


def check_pass(workload, seed, out, results, refs):
    """Failure messages per operation of one pass.

    ``results`` holds the worker's per-operation records; an operation
    fails on a nonzero exit, an exception, or outputs that fail the check.
    """
    failures = {}
    for (label, _, check), res in zip(operations(workload, seed), results):
        if res["exit"] != 0 or res["error"]:
            failures[label] = [f"{label}: exit {res['exit']} {res['error'] or ''}".strip()]
            continue
        try:
            errors = check(Path(out), refs)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            errors = [f"{label}: unreadable output: {exc!r}"]
        if errors:
            failures[label] = errors
    return failures
