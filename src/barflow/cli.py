"""Experiment runner: every study in the package as a subcommand.

Outputs are plain CSV (gnuplot/spreadsheet-ready); each subcommand also
writes a JSON run manifest recording the resolved parameters, package
version, SHA-256 digests of the outputs, the wall-clock duration, and the
numpy/BLAS build and thread settings it ran with.
Identical flags and seeds reproduce byte-identical CSVs at a fixed BLAS
thread count; between 1 and 2 threads the noisy tail of a trunc-400
spectrum moves by up to 2.52.

Each flag declares its own default: ell=2, amp=1 and trunc=100, except
trunc=16 for ``evolve`` and trunc=48 for ``hypo``.  A ``key=value`` config
file (``--config``) may set the keys ell, trunc, amp, nu and nus of the
flags its command has; it replaces their defaults, and flags still win.
Any other key is a usage error; a known key the command has no flag for
is ignored.
Exit codes: 0 success, 1 check failure or a run whose state turned
non-finite (no manifest is written), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, eigensolve, evolution, fields, hypocoercivity, operators

CONFIG_KEYS = ("ell", "trunc", "amp", "nu", "nus")


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, header, rows):
    """Write ``header``, then each row of the iterable ``rows`` as it comes."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _environment():
    """numpy and BLAS builds, and the settings that fix thread counts."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def _write_manifest(prefix, command, params, outputs, started):
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "outputs": {p: _sha256(p) for p in outputs},
        "duration_seconds": time.time() - started,
        "environment": _environment(),
    }
    path = f"{prefix}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _finite_float(text):
    """The argparse type of every real-valued physical input: ``--amp``,
    ``--dt``, ``--t-final``, each ``--nus`` entry and (through
    :func:`_viscosity`) ``--nu``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _viscosity(text):
    """The argparse type of ``--nu``: a finite number that is not negative
    (nu = 0 is the inviscid case)."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _finite_floats(text):
    """The argparse type of ``--nus``: comma-separated finite numbers."""
    return [_finite_float(v) for v in text.split(",") if v.strip()]


def cmd_spectrum(args):
    ell, trunc, nu, amp = args.ell, args.trunc, args.nu, args.amp
    op = operators.bar_slice_for(ell, trunc, nu, amp, variant=args.variant)
    spec = eigensolve.compute_spectrum(op)
    rows = [(i + 1, lam.real, lam.imag) for i, lam in enumerate(spec)]
    _write_csv(args.out, ("rank", "re", "im"), rows)
    params = {"ell": ell, "trunc": trunc, "nu": nu, "amp": amp, "variant": args.variant}
    return args.out, params, [args.out]


def cmd_sweep(args):
    ell, trunc, amp = args.ell, args.trunc, args.amp
    nus = args.nus
    sweep = eigensolve.nu_sweep(ell, trunc, nus, amp, args.variant)
    rows = []
    for nu, spec in sweep:
        for i, lam in enumerate(spec):
            rows.append((nu, ell, trunc, args.variant, i + 1, lam.real, lam.imag))
    _write_csv(args.out, ("nu", "ell", "N", "variant", "rank", "re", "im"), rows)
    outputs = [args.out]
    if len(nus) >= 3:
        fit = eigensolve.fit_scaling(sweep)
        fit_path = args.out.removesuffix(".csv") + "_fit.csv"
        _write_csv(
            fit_path,
            ("slope", "intercept", "max_residual", "n_samples"),
            [(fit.slope, fit.intercept, fit.max_residual, len(fit.samples))],
        )
        outputs.append(fit_path)
    params = {"ell": ell, "trunc": trunc, "nus": nus, "amp": amp, "variant": args.variant}
    return args.out, params, outputs


def cmd_collapse(args):
    ell, trunc, amp = args.ell, args.trunc, args.amp
    nus = args.nus
    rows = eigensolve.collapse_table(ell, trunc, nus, args.count, amp, args.variant)
    _write_csv(args.out, ("rank", "nu", "re_over_sqrt_nu"), rows)
    params = {
        "ell": ell,
        "trunc": trunc,
        "nus": nus,
        "count": args.count,
        "amp": amp,
        "variant": args.variant,
    }
    return args.out, params, [args.out]


def _initial_field(spec, trunc, seed):
    """The initial field of ``--init spec`` and the seed it was drawn with
    (``seed`` itself unless a random spec names its own)."""
    kind, _, arg = spec.partition(":")
    if kind == "zero":
        return fields.zero_field(trunc, trunc), seed
    if kind == "barmode":
        return fields.bar_state(int(arg or 1), trunc, trunc), seed
    if kind == "dipole":
        return fields.dipole_state(int(arg or 1), trunc, trunc), seed
    if kind in ("random", "random-fast"):
        seed = int(arg) if arg else seed
        w = fields.random_field(trunc, trunc, seed)
        return (fields.remove_anomalous(w) if kind == "random-fast" else w), seed
    raise ValueError(f"unknown init spec {spec!r}")


def cmd_evolve(args):
    trunc, nu, amp = args.trunc, args.nu, args.amp
    if args.with_x_norm and args.kind == "nonlinear":
        raise ValueError("--with-x-norm applies to --kind linear only")
    if args.grid is not None and args.kind == "linear":
        raise ValueError("--grid applies to --kind nonlinear only")
    w0, seed = _initial_field(args.init, trunc, args.seed)
    cfg = evolution.IntegratorConfig(
        dt=args.dt,
        t_final=args.t_final,
        sample_every=args.sample_every,
        grid=args.grid,
    )
    if args.kind == "linear":
        traj = evolution.evolve_linear(w0, nu, amp, args.variant, cfg, x_norm=args.with_x_norm)
    else:
        traj = evolution.evolve_nonlinear(w0, nu, cfg)
    diag_path = f"{args.out_prefix}_diagnostics.csv"
    names = ("t", "l2", "x_norm", "max_pq", "enstrophy", "grad_norm_sq")
    d = traj.diagnostics
    absent = np.full(len(traj.times), math.nan)
    table = np.column_stack([traj.times, *(d.get(name, absent) for name in names[1:])])
    _write_csv(diag_path, names, (row.tolist() for row in table))
    outputs = [diag_path]
    for i, f in enumerate(traj.fields):
        path = f"{args.out_prefix}_field_{i:04d}.csv"
        fields.save_field(f, path)
        outputs.append(path)
    params = {"init": args.init, "trunc": trunc, "sample_every": args.sample_every, "seed": seed, **traj.params}
    return args.out_prefix, params, outputs


def cmd_hypo(args):
    ell, trunc, nu, amp = args.ell, args.trunc, args.nu, args.amp
    auto = args.m0 == "auto"
    m0 = hypocoercivity.auto_m0(amp, ell, nu) if auto else float(args.m0)
    try:
        constants = hypocoercivity.hypo_constants(m0, amp, ell, nu)
    except ValueError as exc:
        raise ValueError(f"invalid constants: {exc}") from exc
    lam_min = math.nan
    if auto:
        lam_min = hypocoercivity._cosine_well_min_eig(constants.beta0, nu, amp, ell)
    # the decay run validates dt and t_final, so it runs before the first write
    w0 = fields.seeded_row_field(trunc, abs(ell), ell, args.seed)
    fit = hypocoercivity.decay_check(w0, nu, amp, args.t_final, args.dt)

    const_path = f"{args.out_prefix}_constants.csv"
    _write_csv(
        const_path,
        ("m0", "a", "ell", "alpha0", "beta0", "gamma0", "checks_passed"),
        [(m0, amp, ell, constants.alpha0, constants.beta0, constants.gamma0, 1)],
    )
    m0_path = f"{args.out_prefix}_m0.csv"
    _write_csv(
        m0_path,
        ("nu", "a", "ell", "t", "lambda_min", "m0_est"),
        [(nu, amp, ell, 0.0, lam_min, m0)],
    )
    decay_path = f"{args.out_prefix}_decay.csv"
    _write_csv(
        decay_path,
        ("nu", "ell", "fitted_M", "fitted_K", "residual"),
        [(nu, ell, fit.m, fit.k, fit.max_residual)],
    )
    params = {
        "ell": ell,
        "nu": nu,
        "amp": amp,
        "m0": m0,
        "trunc": trunc,
        "t_final": args.t_final,
        "dt": args.dt,
        "seed": args.seed,
    }
    return args.out_prefix, params, [const_path, m0_path, decay_path]


def cmd_check(args):
    from . import checks  # the registry is compiled only for this command

    failures = checks.run_all(golden_dir=args.golden_dir)
    return 1 if failures else 0


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="barflow",
        description="Spectra, scaling laws, decay checks, and simulations of "
        "the linearized 2D vorticity equation about shear states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_flag="--out"):
        p.add_argument("--config", help="key=value config file (flags win)")
        if out_flag == "--out":
            p.add_argument("--out", required=True, help="output CSV path")
        else:
            p.add_argument("--out-prefix", required=True, help="output path prefix")

    p = sub.add_parser("spectrum", help="eigenvalues of one operator")
    common(p)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--trunc", type=int, default=100)
    p.add_argument("--nu", type=_viscosity)
    p.add_argument("--amp", type=_finite_float, default=1.0)
    p.add_argument(
        "--variant",
        default="full",
        choices=("full", "approximate", "symmetrized", "adjoint"),
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectra over a viscosity list + scaling fit")
    common(p)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--trunc", type=int, default=100)
    p.add_argument("--nus", type=_finite_floats, default="", help="comma-separated viscosities")
    p.add_argument("--amp", type=_finite_float, default=1.0)
    p.add_argument(
        "--variant", default="full", choices=("full", "approximate", "symmetrized")
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("collapse", help="rank-collapse table Re lambda_j / sqrt(nu)")
    common(p)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--trunc", type=int, default=100)
    p.add_argument("--nus", type=_finite_floats, default="", help="comma-separated viscosities")
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--amp", type=_finite_float, default=1.0)
    p.add_argument(
        "--variant", default="full", choices=("full", "approximate", "symmetrized")
    )
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("evolve", help="time integration (linear or nonlinear)")
    common(p, "--out-prefix")
    p.add_argument(
        "--init",
        required=True,
        help="zero | barmode:M | dipole:M | random:SEED | random-fast:SEED",
    )
    p.add_argument("--kind", default="linear", choices=("linear", "nonlinear"))
    p.add_argument("--variant", default="full", choices=("full", "approximate"))
    p.add_argument("--nu", type=_viscosity)
    p.add_argument("--amp", type=_finite_float, default=1.0)
    p.add_argument("--trunc", type=int, default=16)
    p.add_argument("--t-final", type=_finite_float, required=True)
    p.add_argument("--dt", type=_finite_float, required=True)
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--grid", type=int, help="nonlinear transform grid (power of two)")
    p.add_argument("--with-x-norm", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("hypo", help="constants, oscillator gap, and decay fit")
    common(p, "--out-prefix")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--nu", type=_viscosity)
    p.add_argument("--amp", type=_finite_float, default=1.0)
    p.add_argument("--m0", default="auto", help="'auto' or a positive number")
    p.add_argument("--trunc", type=int, default=48)
    p.add_argument("--t-final", type=_finite_float, required=True)
    p.add_argument("--dt", type=_finite_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hypo)

    p = sub.add_parser("check", help="run the full invariant suite")
    p.add_argument("--golden-dir", help="override the golden matrix directory")
    p.set_defaults(func=cmd_check)

    return parser, sub.choices


def main(argv=None):
    """Parse, run the command, and write its manifest.

    A ``--config`` file's keys become defaults of the chosen subcommand's
    flags and the arguments are parsed again, so argparse converts them
    with each flag's type and flags still win.  A command returns its exit
    code (``check``) or the manifest's prefix, params and output paths.
    """
    started = time.time()
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            config = _read_config(args.config)
            unknown = sorted(set(config) - set(CONFIG_KEYS))
            if unknown:
                raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {args.config}")
            flags = vars(args)
            commands[args.command].set_defaults(
                **{k: v for k, v in config.items() if k in CONFIG_KEYS and k in flags}
            )
            args = parser.parse_args(argv)
        if "nu" in vars(args) and args.nu is None:
            raise ValueError("--nu is required")
        run = args.func(args)
        if isinstance(run, int):
            return run
        prefix, params, outputs = run
        _write_manifest(prefix, args.command, params, outputs, started)
        return 0
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # the run's own finiteness guard
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
