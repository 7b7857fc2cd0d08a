"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 4-7 and 10 restate invariants of the
registry ``barflow.checks.ALL_CHECKS``: each runs its registered check on
that check's ``*_ACCEPTANCE`` case table, so their cases and bounds are
stated in ``checks.py`` only.  The other tolerances are pinned here.
Setting ``BARFLOW_FULL_SCALE=1`` additionally reruns criteria 1 and 2 at
the full 801 x 801 truncation.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

import barflow as bf
from barflow import checks

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
def test_scaling_law_slope(trunc=100):
    started = time.time()
    sweep = bf.nu_sweep(2, trunc, FIG1_NUS, amplitude=1.0, variant="full")
    assert all(len(spec) == 2 * trunc + 1 for _, spec in sweep)
    fit_all = bf.fit_scaling(sweep)
    fit_small = bf.fit_scaling(sweep[-4:])
    assert 0.4 <= fit_all.slope <= 0.6, f"slope {fit_all.slope:.4f}"
    assert 0.45 <= fit_small.slope <= 0.55, f"small-nu slope {fit_small.slope:.4f}"
    assert time.time() - started <= 300.0


@criterion(2, "rank-collapse of the leading thirty eigenvalues")
def test_collapse(trunc=100):
    started = time.time()
    sweep = bf.nu_sweep(2, trunc, FIG2_NUS, amplitude=1.0, variant="full")
    scaled = {nu: spec.real[:30] / math.sqrt(nu) for nu, spec in sweep}
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
    # The mode is multiplied by E^2 once a step, one rounding each, and
    # E^2 = fl(E E) is within 2 * 2u + u of exp(-nu dt) (exp within 1 ulp,
    # E in [0.5, 1)), an error carried by every step; 4 more roundings cover
    # nu dt N against 1 and math.exp(-1).  So the error is within gamma_n.
    n = 6 * cfg.n_steps + 4
    u = np.finfo(float).eps / 2
    rel = abs(wt.get(1, 0) - math.exp(-1)) / math.exp(-1)
    assert rel <= n * u / (1 - n * u), f"amplitude error {rel:.3e}"
    # The shear row of the column l = 0 is -0 * amp, so every RK stage of
    # that column is a signed zero and its other rows stay exactly 0.
    rest = wt.coeffs.copy()
    rest[1 + 8, 8] = 0.0
    leak = np.abs(rest).max()
    assert leak == 0.0, f"leak {leak:.3e}"


@criterion(4, "anomalous-free subspace is exactly invariant")
def test_subspace_invariance():
    checks.check_subspace_invariance(checks.SUBSPACE_ACCEPTANCE)


@criterion(5, "mixed-norm decay beats diffusion five-fold, uniformly in nu")
def test_enhanced_decay():
    checks.check_enhanced_decay(checks.DECAY_ACCEPTANCE)


@criterion(6, "functional decreases at every interior sample, ten seeds")
def test_functional_dissipation():
    checks.check_dissipation_negative(checks.DISSIPATION_ACCEPTANCE)


@criterion(7, "weight identities over one hundred random parameter sets")
def test_constants_identities():
    checks.check_constants_identities(checks.IDENTITIES_ACCEPTANCE)


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
    checks.check_symmetrized_stability(checks.STABILITY_ACCEPTANCE)


@pytest.mark.skipif(
    not os.environ.get("BARFLOW_FULL_SCALE"),
    reason="set BARFLOW_FULL_SCALE=1 for the 801 x 801 rerun",
)
def test_full_scale_rerun():
    test_scaling_law_slope(trunc=400)
    test_collapse(trunc=400)
