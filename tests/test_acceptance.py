"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
Setting ``BARFLOW_FULL_SCALE=1`` additionally reruns the two eigenvalue
studies at the full 801 x 801 truncation.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

import barflow as bf

FIG1_NUS = [0.005, 0.002, 0.001, 0.0005, 0.00025, 0.0001]
FIG2_NUS = [0.00025, 0.0001, 0.00005]


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} {name}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {number:2d} {name}: PASS", flush=True)
        return wrapper
    return deco


@criterion(1, "single-eigenvalue sqrt(nu) scaling")
def test_scaling_law_slope():
    started = time.time()
    sweep = bf.nu_sweep(2, 100, FIG1_NUS, amplitude=1.0, variant="full")
    fit_all = bf.fit_scaling(sweep)
    fit_small = bf.fit_scaling(sweep[-4:])
    assert 0.4 <= fit_all.slope <= 0.6, f"slope {fit_all.slope:.4f}"
    assert 0.45 <= fit_small.slope <= 0.55, f"small-nu slope {fit_small.slope:.4f}"
    assert time.time() - started <= 300.0


@criterion(2, "rank-collapse of the leading thirty eigenvalues")
def test_collapse():
    started = time.time()
    sweep = bf.nu_sweep(2, 100, FIG2_NUS, amplitude=1.0, variant="full")
    scaled = {nu: spec.eigenvalues.real[:30] / math.sqrt(nu) for nu, spec in sweep}
    a, b = scaled[FIG2_NUS[1]], scaled[FIG2_NUS[2]]
    discrepancy = np.abs(a - b) / np.abs(b)
    assert discrepancy[:5].max() <= 0.15, (
        f"ranks 1-5 disagree by up to {discrepancy[:5].max():.3f}"
    )
    blocks = [discrepancy[:10].mean(), discrepancy[10:20].mean(), discrepancy[20:].mean()]
    assert blocks[0] <= blocks[1] <= blocks[2], (
        f"agreement does not degrade with rank: block means {blocks}"
    )
    assert time.time() - started <= 300.0


@criterion(3, "anomalous shear mode decays exactly viscously")
def test_anomalous_mode_exactness():
    nu = 1e-3
    w0 = bf.mode_field(8, 8, {(1, 0): 1.0})
    cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0 / nu, sample_every=10000)
    traj = bf.evolve_linear(w0, nu, 1.0, "full", cfg)
    wt = traj.fields[-1]
    rel = abs(wt.get(1, 0) - math.exp(-1)) / math.exp(-1)
    assert rel <= 1e-8, f"amplitude error {rel:.3e}"
    rest = wt.coeffs.copy()
    rest[1 + 8, 8] = 0.0
    leak = np.abs(rest).max()
    assert leak <= 1e-12, f"leak {leak:.3e}"


@criterion(4, "anomalous-free subspace is invariant to 1e-8")
def test_subspace_invariance():
    nu = 1e-3
    w0 = bf.remove_anomalous(bf.random_field(64, 64, seed=11))
    cfg = bf.IntegratorConfig(dt=0.025, t_final=1.0 / nu, sample_every=8000)
    traj = bf.evolve_linear(w0, nu, 1.0, "full", cfg)
    ratios = traj.diagnostics["max_pq"] / traj.diagnostics["l2"]
    assert ratios.max() <= 1e-8, f"anomalous leak {ratios.max():.3e}"


@criterion(5, "mixed-norm decay beats diffusion five-fold, uniformly in nu")
def test_enhanced_decay():
    fitted = {}
    for nu in (1e-3, 1e-4):
        w0 = bf.seeded_row_field(48, 3, 2, seed=7)
        fit = bf.decay_check(w0, nu, 1.0, t_final=1.0 / nu, dt=0.2)
        base = bf.diffusion_rate(w0, nu)
        assert fit.rate >= 5 * base, (
            f"nu={nu}: rate {fit.rate:.3e} < 5 x diffusive {base:.3e}"
        )
        fitted[nu] = fit.m
    ratio = fitted[1e-3] / fitted[1e-4]
    assert 0.5 <= ratio <= 2.0, f"normalized rates differ by {ratio:.2f}x"


@criterion(6, "functional decreases at every interior sample, ten seeds")
def test_functional_dissipation():
    nu = 1e-4
    m0 = bf.auto_m0(1.0, 2, nu)
    constants = bf.hypo_constants(m0, 1.0, 2, nu)
    for seed in range(10):
        w0 = bf.seeded_row_field(48, 3, 2, seed=seed)
        cfg = bf.IntegratorConfig(dt=0.05, t_final=60.0, sample_every=1)
        traj = bf.evolve_linear(w0, nu, 1.0, "approximate", cfg)
        report = bf.functional_dissipation(traj, constants)
        assert report.max_ratio < 0.0, (
            f"seed {seed}: worst ratio {report.max_ratio:.3e} not negative"
        )


@criterion(7, "weight identities over one hundred random parameter sets")
def test_constants_identities():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m0 = float(rng.uniform(0.01, 10.0))
        a = float(rng.uniform(0.1, 5.0))
        ell = int(rng.integers(1, 9))
        c = bf.hypo_constants(m0, a, ell, nu=1e-4)
        rel = abs(c.beta0 - 4 * c.alpha0**2) / c.beta0
        assert rel <= 1e-12, f"beta0 = 4 alpha0^2 violated at {rel:.3e}"
        assert c.beta0**2 < c.alpha0 * c.gamma0 / 4, "strict cross-term bound violated"


@criterion(8, "oscillator gap scales as the square root of the well depth")
def test_oscillator_scaling():
    c_lap = 0.125
    for c_pot in (1e3 * c_lap, 1e4 * c_lap):
        lam1 = bf.oscillator_min_eig(c_lap, c_pot, 128)
        lam2 = bf.oscillator_min_eig(c_lap, 2 * c_pot, 128)
        ratio = lam2 / lam1
        assert abs(ratio - math.sqrt(2)) <= 0.05 * math.sqrt(2), (
            f"gap ratio {ratio:.4f} at well depth {c_pot}"
        )


@criterion(9, "pseudo-spectral solver holds the exact states for ten time units")
def test_nonlinear_exact_solutions():
    nu, dt, t_final = 0.01, 1e-3, 10.0
    cfg = bf.IntegratorConfig(dt=dt, t_final=t_final, sample_every=1000, grid=64)
    for make in (bf.bar_state, bf.dipole_state):
        traj = bf.evolve_nonlinear(make(1, 4, 4), nu, cfg)
        for t, f in zip(traj.field_times, traj.fields):
            exact = make(1, f.nx, f.ny, t=t, nu=nu)
            err = np.abs(f.coeffs - exact.coeffs).max() / np.abs(exact.coeffs).max()
            assert err <= 1e-6, f"{make.__name__} error {err:.3e} at t={t}"
        resid = bf.enstrophy_balance_residual(traj)
        assert resid <= 1e-3, f"{make.__name__} balance residual {resid:.3e}"


@criterion(10, "symmetrized operators are spectrally stable")
def test_symmetrized_stability():
    for ell, trunc, nu in ((1, 40, 1e-3), (2, 60, 1e-4), (3, 30, 1e-2), (2, 100, 1e-3)):
        spec = bf.compute_spectrum(bf.symmetrized_bar_slice(ell, trunc, nu, 1.0))
        top = spec.eigenvalues[0].real
        assert top <= 1e-10, f"bar slice ell={ell} N={trunc}: Re={top:.3e}"
    spec = bf.compute_spectrum(bf.symmetrized_dipole_operator(20, 1e-3, 1.0))
    top = spec.eigenvalues[0].real
    assert top <= 1e-10, f"dipole N=20: Re={top:.3e}"


@pytest.mark.skipif(
    not os.environ.get("BARFLOW_FULL_SCALE"),
    reason="set BARFLOW_FULL_SCALE=1 for the 801 x 801 rerun",
)
def test_full_scale_rerun():
    sweep = bf.nu_sweep(2, 400, FIG1_NUS, amplitude=1.0, variant="full")
    assert all(len(spec) == 801 for _, spec in sweep)
    assert 0.4 <= bf.fit_scaling(sweep).slope <= 0.6
    assert 0.45 <= bf.fit_scaling(sweep[-4:]).slope <= 0.55
    sweep2 = bf.nu_sweep(2, 400, FIG2_NUS, amplitude=1.0, variant="full")
    scaled = {nu: spec.eigenvalues.real[:30] / math.sqrt(nu) for nu, spec in sweep2}
    discrepancy = np.abs(scaled[FIG2_NUS[1]] - scaled[FIG2_NUS[2]])
    discrepancy /= np.abs(scaled[FIG2_NUS[2]])
    assert discrepancy[:5].max() <= 0.15
