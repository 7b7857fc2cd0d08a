"""The invariant registry: the single statement of each invariant.

Each check is a small deterministic function that raises AssertionError
with a diagnostic message on failure.  It raises explicitly, not through
``assert``, so the checks also fail under ``python -O``.  ``barflow
check`` runs the registry :data:`ALL_CHECKS` through :func:`run_all`, and
``tests/test_checks.py`` runs each entry as one test, so every case and
bound is stated here and nowhere else.  The golden-matrix comparison
rebuilds shipped operator CSVs from their sidecar parameters and reports
any differing entries.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import eigensolve, evolution, fields, hypocoercivity, operators

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


# ---------------------------------------------------------------- fields

def check_biot_savart_divergence_free():
    # exactly zero on dyadic coefficients, one rounding on generic ones
    for w in (fields.bar_state(1, 8, 8), fields.dipole_state(2, 8, 8)):
        u = fields.biot_savart(w)
        _require(u.max_divergence() == 0.0, f"divergence {u.max_divergence():.3e}")
    for n, seeds in ((12, range(3)), (10, range(5))):
        for seed in seeds:
            w = fields.random_field(n, n, seed)
            u = fields.biot_savart(w)
            scale = np.abs(w.coeffs).max()
            _require(
                u.max_divergence() <= 1e-15 * scale,
                f"divergence {u.max_divergence():.3e} (n={n}, seed={seed})",
            )


def check_curl_recovery():
    for nx, ny in ((10, 10), (9, 7)):
        w = fields.random_field(nx, ny, 1)
        u = fields.biot_savart(w)
        ks, ls = w.wavenumbers()
        curl = 1j * ks * u.u2.coeffs - 1j * ls * u.u1.coeffs
        err = np.abs(curl - w.coeffs).max()
        _require(err < 1e-14, f"curl mismatch {err:.3e} ({nx}x{ny})")


def check_projection():
    for nx, ny, seed in ((11, 9, 2), (9, 9, 0), (9, 9, 1), (9, 9, 2), (9, 9, 3), (9, 9, 13)):
        w = fields.random_field(nx, ny, seed)
        p = fields.remove_anomalous(w)
        pp = fields.remove_anomalous(p)
        case = f"({nx}x{ny}, seed={seed})"
        _require(np.abs(pp.coeffs - p.coeffs).max() == 0.0, f"not idempotent {case}")
        _require(p.norm() <= w.norm(), f"norm increased {case}")
        ok, viol = fields.is_anomalous_free(p, tol=1e-14)
        _require(ok, f"projected field keeps anomalous content {viol:.3e} {case}")
        ip = np.vdot(w.coeffs - p.coeffs, p.coeffs)
        _require(abs(ip) < 1e-12 * w.norm() ** 2, f"projection not orthogonal: {ip:.3e} {case}")


def check_poincare():
    for n, seeds in ((9, range(3)), (8, range(5))):
        for seed in seeds:
            w = fields.random_field(n, n, seed)
            grad, ens = fields.grad_norm_sq(w), fields.enstrophy(w)
            _require(grad >= ens, f"|grad w|^2 {grad:.17g} < |w|^2 {ens:.17g} (n={n}, seed={seed})")


def check_reality_synthesis():
    w = fields.random_field(6, 6, 3, real_valued=True)
    _, _, vals = fields.synthesize(w)
    worst = np.abs(vals.imag).max()
    _require(worst < 1e-12, f"imaginary residue {worst:.3e}")


# ------------------------------------------------------------- operators

def check_commutator_identity():
    for n in (7, 8):
        d = np.diag(1j * np.arange(-n, n + 1).astype(complex))
        for ell in (1, 2, 3):
            # dyadic amplitude: identity is exact bit-for-bit
            b = operators.advection_matrix(ell, n, 1.0)
            c = operators.commutator_matrix(ell, n, 1.0)
            err = np.abs(((d @ b - b @ d) - c)[1:-1, :]).max()
            _require(err == 0.0, f"[d/dx, advection] != commutator on interior ({err:.3e})")
            # generic amplitude: exact up to rounding
            b = operators.advection_matrix(ell, n, 1.3, t=0.2, nu=0.01)
            c = operators.commutator_matrix(ell, n, 1.3, t=0.2, nu=0.01)
            err = np.abs(((d @ b - b @ d) - c)[1:-1, :]).max()
            _require(err <= 1e-14 * abs(c).max(), f"commutator identity drift {err:.3e}")


def check_advection_commutes_with_commutator():
    for n in (8, 9):
        b = operators.advection_matrix(2, n, 1.0)
        c = operators.commutator_matrix(2, n, 1.0)
        err = np.abs((b @ c - c @ b)[2:-2, :]).max()
        _require(err == 0.0, f"[advection, commutator] != 0 on interior ({err:.3e}, n={n})")
        b = operators.advection_matrix(2, n, 0.7)
        c = operators.commutator_matrix(2, n, 0.7)
        err = np.abs((b @ c - c @ b)[2:-2, :]).max()
        _require(err <= 1e-15, f"[advection, commutator] drift {err:.3e} (n={n})")


def check_slice_decomposition():
    # the ell = 3 cases differed by rounding while the advection matrix had
    # its own formula
    cases = (
        (2, 0.01, 1.5, 0.3),
        (1, 0.013, 1.3, 0.7),
        (2, 0.013, 1.3, 0.7),
        (3, 0.01, 1.3, 0.3),
        (3, 0.013, 1.1, 0.7),
        (3, 0.001, 2.9, 0.3),
        (3, 0.001, 0.7, 0.7),
    )
    for n in (6, 8):
        for ell, nu, a, t in cases:
            op = operators.bar_slice(ell, n, nu, a, t=t, variant="approximate")
            ks = op.wavenumbers
            delta = np.diag(-nu * (ks * ks + ell * ell))
            b = operators.advection_matrix(ell, n, a, t=t, nu=nu)
            err = np.abs(op.matrix - (delta + b)).max()
            _require(err == 0.0, f"approximate slice != diffusion + advection ({err:.3e})")
        # the full - approximate correction carries exactly the
        # 1/((k -+ 1)^2 + ell^2) factors, in every row
        full = operators.bar_slice(2, n, 0.01, 1.5, t=0.3, variant="full")
        approx = operators.bar_slice(2, n, 0.01, 1.5, t=0.3, variant="approximate")
        corr = full.matrix - approx.matrix
        amp = 1.5 * math.exp(-0.01 * 0.3)
        for k in range(-n + 1, n):
            i = k + n
            for j, want in ((i - 1, amp / ((k - 1) ** 2 + 4)), (i + 1, -amp / ((k + 1) ** 2 + 4))):
                err = abs(corr[i, j] - want)
                _require(err < 1e-15, f"correction factor wrong at k={k} ({err:.3e})")


def check_anomalous_generator_consistency():
    jmax, nu, a, t = 3, 0.01, 1.3, 0.7
    n = 2 * jmax + 1
    rng = np.random.default_rng(0)
    row = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)

    def coords(r):
        out = []
        for j in range(jmax + 1):
            out.append(r[2 * j + n] + r[-2 * j + n])
            out.append(r[(2 * j + 1) + n] - r[-(2 * j + 1) + n])
        return np.array(out)

    for sign in (+1, -1):
        op = operators.bar_slice(sign, n, nu, a, t, "full")
        lhs = coords(op.matrix @ row)
        rhs = operators.anomalous_generator(nu, a, t, jmax, sign) @ coords(row)
        err = np.abs(lhs - rhs).max()
        _require(err < 1e-13, f"generator mismatch (sign={sign}): {err:.3e}")


def check_symmetrized_stability():
    for ell, n, nu, bound in (
        (1, 40, 1e-3, 1e-10),
        (2, 40, 1e-4, 1e-10),
        (3, 40, 1e-2, 1e-10),
        (1, 30, 1e-2, 1e-10),
        (2, 30, 1e-3, 1e-10),
        (2, 30, 1e-4, 1e-10),
        (2, 25, 1e-3, 0.0),
    ):
        op = operators.symmetrized_bar_slice(ell, n, nu, 1.0)
        top = eigensolve.least_decaying(eigensolve.compute_spectrum(op)).real
        _require(top <= bound, f"symmetrized slice unstable: Re={top:.3e} (ell={ell}, N={n})")


def check_anomalous_mode_exactness():
    for m in (1, 2, 3):
        w = fields.mode_field(6, 6, {(m, 0): 1.0})
        lw = operators.apply_bar_generator(w, 0.01, 1.0, 0.0, "full")
        expected = -0.01 * m * m * w.coeffs
        err = np.abs(lw.coeffs - expected).max()
        _require(err == 0.0, f"mode e^{{i{m}x}} not exactly diffusive ({err:.3e})")
        law = operators.apply_bar_adjoint(w, 0.01, 1.0, 0.0)
        err = np.abs(law.coeffs - expected).max()
        _require(err == 0.0, f"adjoint null direction fails at m={m} ({err:.3e})")


# ------------------------------------------------------------- eigensolve

def check_eigen_residual():
    for n in (20, 25):
        res = eigensolve.eigen_residual(operators.bar_slice(2, n, 1e-3, 1.0))
        _require(res <= 1e-8, f"eigen residual {res:.3e} (N={n})")


def check_adjoint_spectrum():
    # set equality (Hausdorff both ways): rank order is fragile under
    # rounding for conjugate pairs, set distance is not
    for n in (15, 18):
        op = operators.bar_slice(2, n, 1e-3, 1.0)
        s = eigensolve.compute_spectrum(op).eigenvalues
        sa = np.conj(eigensolve.compute_spectrum(operators.adjoint_slice(op)).eigenvalues)
        d1 = np.abs(s[:, None] - sa[None, :]).min(axis=1).max()
        d2 = np.abs(s[:, None] - sa[None, :]).min(axis=0).max()
        err = max(d1, d2)
        _require(err < 1e-9, f"adjoint spectrum mismatch {err:.3e} (N={n})")


def check_trace():
    # the eigenvalues sum to the analytic trace -nu sum(k^2 + ell^2)
    for n in (25, 30):
        s = eigensolve.compute_spectrum(operators.bar_slice(2, n, 1e-3, 1.0)).eigenvalues.sum()
        ks = np.arange(-n, n + 1)
        want = -1e-3 * float((ks * ks + 4).sum())
        err = abs(s.real - want) / abs(want)
        _require(err < 1e-8, f"trace mismatch {err:.3e} (N={n})")
        _require(abs(s.imag) < 1e-8 * abs(want), f"imaginary trace {s.imag:.3e} (N={n})")


def check_truncation_stability():
    a = eigensolve.compute_spectrum(operators.bar_slice(2, 40, 1e-3, 1.0)).eigenvalues[:10]
    b = eigensolve.compute_spectrum(operators.bar_slice(2, 80, 1e-3, 1.0)).eigenvalues[:10]
    rel = np.abs(a - b) / np.abs(b)
    _require(rel.max() < 0.01, f"first 10 eigenvalues drift {rel.max():.3e} from N=40 to 80")


# -------------------------------------------------------------- evolution

def check_subspace_invariance():
    for n, t_final, every in ((24, 100.0, 400), (16, 50.0, 200)):
        w0 = fields.remove_anomalous(fields.random_field(n, n, 7))
        cfg = evolution.IntegratorConfig(dt=0.05, t_final=t_final, sample_every=every)
        traj = evolution.evolve_linear(w0, 1e-2, 1.0, "full", cfg)
        worst = (traj.diagnostics["max_pq"] / traj.diagnostics["l2"]).max()
        _require(worst <= 1e-8, f"anomalous leak {worst:.3e} (n={n})")


def check_shear_row_diagonal_decay():
    w0 = fields.mode_field(6, 6, {(2, 0): 1.0, (3, 0): 0.5})
    cfg = evolution.IntegratorConfig(dt=0.05, t_final=10.0, sample_every=200)
    traj = evolution.evolve_linear(w0, 0.01, 1.0, "full", cfg)
    wt = traj.fields[-1]
    for m, a0 in ((2, 1.0), (3, 0.5)):
        got = wt.get(m, 0)
        want = a0 * math.exp(-0.01 * m * m * 10.0)
        _require(abs(got - want) < 1e-10 * a0, f"mode {m} decay off by {abs(got - want):.3e}")


def check_fourth_order():
    # a mis-wired stage of either integrator lowers its order
    w_linear = fields.remove_anomalous(fields.random_field(8, 8, 5))
    w_nonlinear = fields.random_field(6, 6, 5, decay=0.15)

    def linear(dt):
        cfg = evolution.IntegratorConfig(dt=dt, t_final=1.0, sample_every=int(round(1.0 / dt)))
        return evolution.evolve_linear(w_linear, 0.05, 1.0, "full", cfg).fields[-1].coeffs

    def nonlinear(dt):
        cfg = evolution.IntegratorConfig(dt=dt, t_final=0.5, sample_every=512, grid=32)
        return evolution.evolve_nonlinear(w_nonlinear, 0.01, cfg).fields[-1].coeffs

    for name, run, dt_ref in (("linear", linear, 0.003125), ("nonlinear", nonlinear, 0.5 / 512)):
        ref = run(dt_ref)
        e1 = np.abs(run(0.05) - ref).max()
        e2 = np.abs(run(0.025) - ref).max()
        ratio = e1 / e2
        _require(10.0 < ratio < 25.0, f"{name}: halving dt cut the error {ratio:.2f}x, not ~16x")


def check_reality_preservation():
    w0 = fields.random_field(8, 8, 9, real_valued=True)
    cfg = evolution.IntegratorConfig(dt=0.02, t_final=2.0, sample_every=10)
    traj = evolution.evolve_linear(w0, 0.05, 1.0, "full", cfg)
    worst = max(fields.conjugate_asymmetry(f) for f in traj.fields)
    _require(worst < 1e-12, f"conjugate symmetry drift {worst:.3e}")


def check_inviscid_conservation():
    w0 = fields.random_field(8, 8, 2, decay=0.15)
    cfg = evolution.IntegratorConfig(dt=1e-3, t_final=1.0, sample_every=500, grid=64)
    traj = evolution.evolve_nonlinear(w0, 0.0, cfg)
    z = traj.diagnostics["enstrophy"]
    drift = abs(z[-1] - z[0]) / z[0]
    _require(drift <= 1e-6, f"inviscid enstrophy drift {drift:.3e}")


def _paired_coordinates(field, jmax, sign):
    """The closed system's state on row l = sign: even sums at even
    indices, odd differences at odd ones."""
    c = fields.anomalous_coordinates(field, jmax)
    u = np.empty(2 * (jmax + 1), dtype=complex)
    if sign > 0:
        u[0::2], u[1::2] = c.even_sums_plus, c.odd_diffs_plus
    else:
        u[0::2], u[1::2] = c.even_sums_minus, c.odd_diffs_minus
    return u


def _integrate_closed_ode(u, nu, a, jmax, sign, dt, t_final):
    """Independent RK4 oracle for the closed tridiagonal system."""
    for i in range(int(round(t_final / dt))):
        t = i * dt
        a1 = operators.anomalous_generator(nu, a, t, jmax, sign)
        a2 = operators.anomalous_generator(nu, a, t + dt / 2, jmax, sign)
        a4 = operators.anomalous_generator(nu, a, t + dt, jmax, sign)
        k1 = a1 @ u
        k2 = a2 @ (u + dt / 2 * k1)
        k3 = a2 @ (u + dt / 2 * k2)
        k4 = a4 @ (u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def check_anomalous_dynamics_match():
    def final_field(w0, nu, a, dt, t_final):
        cfg = evolution.IntegratorConfig(dt=dt, t_final=t_final, sample_every=int(t_final / dt))
        return evolution.evolve_linear(w0, nu, a, "full", cfg).fields[-1]

    # a nonzero even-sum coordinate: what(0, 1) = even_sum_0 / 2 follows
    # the closed tridiagonal ODE
    jmax, nu, a, dt, t_final = 2, 0.05, 1.0, 0.01, 2.0
    n = 2 * jmax + 1
    w0 = fields.mode_field(n, n, {(0, 1): 0.5, (1, 1): 0.3, (2, 1): 0.2 + 0.1j})
    got = final_field(w0, nu, a, dt, t_final).get(0, 1)
    u0 = _paired_coordinates(w0, jmax, +1)
    want = _integrate_closed_ode(u0, nu, a, jmax, +1, dt, t_final)[0] / 2
    rel = abs(got - want) / abs(want)
    _require(rel < 1e-6, f"central mode deviates from the closed ODE by {rel:.3e}")

    # random data on the row l = +-1: every paired coordinate follows it
    jmax, nu, a, dt, t_final = 3, 0.01, 1.0, 0.01, 5.0
    n = 2 * jmax + 1
    for sign in (+1, -1):
        rng = np.random.default_rng(3)
        c = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        c[:, sign + n] = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        w0 = fields.SpectralField(n, n, c, copy=False)
        got = _paired_coordinates(final_field(w0, nu, a, dt, t_final), jmax, sign)
        u0 = _paired_coordinates(w0, jmax, sign)
        want = _integrate_closed_ode(u0, nu, a, jmax, sign, dt, t_final)
        rel = np.abs(got - want).max() / np.abs(want).max()
        _require(rel <= 1e-6, f"row l={sign} deviates from the closed ODE by {rel:.3e}")


# ---------------------------------------------------------- hypocoercivity

def check_constants_identities():
    for nu in (1e-4, 1e-3):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m0 = float(rng.uniform(0.01, 10.0))
            a = float(rng.uniform(0.1, 5.0))
            ell = int(rng.integers(1, 9))
            c = hypocoercivity.hypo_constants(m0, a, ell, nu=nu)
            rel = abs(c.beta0 - 4 * c.alpha0**2) / c.beta0
            _require(rel < 1e-12, f"beta0 != 4 alpha0^2 (rel {rel:.3e})")
            _require(c.beta0**2 < c.alpha0 * c.gamma0 / 4, "cross-term inequality fails")


def check_functional_sandwich():
    rng = np.random.default_rng(1)
    cst = hypocoercivity.hypo_constants(0.25, 1.0, 2, 1e-3)
    for _ in range(100):
        row = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        s = hypocoercivity.functional_sample(row, cst, 0.0)
        lo = s.l2_sq + cst.alpha / 2 * s.dx_sq + cst.gamma / 2 * s.c_sq
        hi = s.l2_sq + 3 * cst.alpha / 2 * s.dx_sq + 3 * cst.gamma / 2 * s.c_sq
        _require(lo < s.phi_value < hi, f"sandwich fails: {lo:.6e} < {s.phi_value:.6e} < {hi:.6e}")
        _require(s.phi_value >= 0.5 * s.l2_sq, "lower sandwich bound fails")


def check_enhanced_decay():
    nu = 1e-3
    w0 = fields.seeded_row_field(40, 3, 2, seed=7)
    fit = hypocoercivity.decay_check(w0, nu, 1.0, t_final=1000.0, dt=0.25)
    base = evolution.diffusion_rate(w0, nu)
    _require(fit.rate >= 5 * base, f"rate {fit.rate:.3e} < 5 x diffusive {base:.3e}")
    _require(fit.m > 0, f"fitted prefactor M = {fit.m:.3e} is not positive")


def check_m0_monotone_in_time():
    vals = [
        hypocoercivity.estimate_m0(1 / 1024, 1e-4, 1.0, 2, t=t, n_modes=96)
        for t in (0.0, 1000.0, 5000.0, 10000.0)
    ]
    for earlier, later in zip(vals, vals[1:]):
        _require(later <= earlier + 1e-15, f"m0 grew with time: {vals}")


def check_dissipation_negative():
    nu = 1e-4
    m0 = hypocoercivity.auto_m0(1.0, 2, nu)
    cst = hypocoercivity.hypo_constants(m0, 1.0, 2, nu)
    w0 = fields.seeded_row_field(40, 3, 2, seed=3)
    cfg = evolution.IntegratorConfig(dt=0.05, t_final=30.0, sample_every=1)
    traj = evolution.evolve_linear(w0, nu, 1.0, "approximate", cfg)
    rep = hypocoercivity.functional_dissipation(traj, cst)
    _require(rep.max_ratio < 0, f"functional grew: max ratio {rep.max_ratio:.3e}")
    _require(
        rep.n_interior == len(traj.times) - 2,
        f"{rep.n_interior} interior samples, expected {len(traj.times) - 2}",
    )
# ------------------------------------------------------------------ golden

def check_golden_matrices(golden_dir=None):
    golden_dir = golden_dir or GOLDEN_DIR
    names = sorted(
        f for f in os.listdir(golden_dir) if f.endswith(".csv")
    )
    _require(names, f"no golden matrices in {golden_dir}")
    for name in names:
        path = os.path.join(golden_dir, name)
        entries, meta = operators.load_matrix(path)
        op = operators.build_from_params(meta)
        mat = np.asarray(op.matrix)
        rebuilt = {
            (int(r), int(c)): mat[r, c] for r, c in zip(*np.nonzero(mat))
        }
        diffs = []
        for key in sorted(set(entries) | set(rebuilt)):
            a = entries.get(key, 0.0)
            b = rebuilt.get(key, 0.0)
            if a != b:
                diffs.append(f"  {name} entry {key}: stored {a} rebuilt {b}")
        _require(not diffs, "golden mismatch:\n" + "\n".join(diffs[:10]))


ALL_CHECKS = [
    ("fields/biot-savart-divergence-free", check_biot_savart_divergence_free),
    ("fields/curl-recovery", check_curl_recovery),
    ("fields/projection", check_projection),
    ("fields/poincare", check_poincare),
    ("fields/reality-synthesis", check_reality_synthesis),
    ("operators/commutator-identity", check_commutator_identity),
    ("operators/advection-commutator-commute", check_advection_commutes_with_commutator),
    ("operators/slice-decomposition", check_slice_decomposition),
    ("operators/anomalous-generator-consistency", check_anomalous_generator_consistency),
    ("operators/symmetrized-stability", check_symmetrized_stability),
    ("operators/anomalous-mode-exactness", check_anomalous_mode_exactness),
    ("eigensolve/residual", check_eigen_residual),
    ("eigensolve/adjoint-spectrum", check_adjoint_spectrum),
    ("eigensolve/trace", check_trace),
    ("eigensolve/truncation-stability", check_truncation_stability),
    ("evolution/subspace-invariance", check_subspace_invariance),
    ("evolution/shear-row-diagonal-decay", check_shear_row_diagonal_decay),
    ("evolution/fourth-order", check_fourth_order),
    ("evolution/reality-preservation", check_reality_preservation),
    ("evolution/inviscid-conservation", check_inviscid_conservation),
    ("evolution/anomalous-dynamics-match", check_anomalous_dynamics_match),
    ("hypocoercivity/constants-identities", check_constants_identities),
    ("hypocoercivity/functional-sandwich", check_functional_sandwich),
    ("hypocoercivity/enhanced-decay", check_enhanced_decay),
    ("hypocoercivity/m0-monotone-in-time", check_m0_monotone_in_time),
    ("hypocoercivity/dissipation-negative", check_dissipation_negative),
    ("golden/matrices", check_golden_matrices),
]


def run_all(golden_dir=None, report=print):
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            if fn is check_golden_matrices:
                fn(golden_dir)
            else:
                fn()
        except AssertionError as exc:
            failures += 1
            report(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - surface unexpected breakage
            failures += 1
            report(f"ERROR {name}: {exc!r}")
        else:
            report(f"PASS {name}")
    return failures
