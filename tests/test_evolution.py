import math

import numpy as np
import pytest

import barflow as bf
from barflow import checks
from barflow.fields import conjugate_asymmetry

# A test whose body is one ``checks.check_*`` call runs that registry
# invariant; its cases and bounds are stated in barflow/checks.py only.


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bf.IntegratorConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            bf.IntegratorConfig(dt=0.1, t_final=-1.0)
        with pytest.raises(ValueError):
            bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=0)
        with pytest.raises(ValueError):
            bf.IntegratorConfig(dt=0.3, t_final=1.0).n_steps


class TestEvolveLinear:
    def test_single_shear_mode_exact_decay(self):
        # e^{ix} decays at exactly e^{-nu t} with zero leak elsewhere
        nu = 0.01
        w0 = bf.mode_field(6, 6, {(1, 0): 1.0})
        cfg = bf.IntegratorConfig(dt=0.05, t_final=1.0 / nu, sample_every=2000)
        traj = bf.evolve_linear(w0, nu, 1.0, "full", cfg)
        wt = traj.fields[-1]
        assert abs(wt.get(1, 0) - math.exp(-1)) <= 1e-8 * math.exp(-1)
        rest = wt.coeffs.copy()
        rest[1 + 6, 6] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_zero_initial_data(self):
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0)
        traj = bf.evolve_linear(bf.zero_field(4, 4), 0.01, 1.0, "full", cfg)
        assert traj.diagnostics["l2"].max() == 0.0

    def test_diagnostics_rederivable_from_snapshots(self):
        w0 = bf.random_field(6, 6, 1)
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=5)
        traj = bf.evolve_linear(w0, 0.05, 1.0, "full", cfg)
        for t, f in zip(traj.field_times, traj.fields):
            i = int(np.argmin(np.abs(traj.times - t)))
            assert traj.diagnostics["enstrophy"][i] == pytest.approx(
                bf.enstrophy(f), rel=1e-14, abs=0
            )

    def test_central_mode_follows_ode(self):
        checks.check_anomalous_dynamics_match()

    def test_invariant_subspace_preserved(self):
        checks.check_subspace_invariance()

    def test_shear_row_purely_diffusive(self):
        checks.check_shear_row_diagonal_decay()

    def test_fourth_order_convergence(self):
        checks.check_fourth_order()

    def test_reality_preserved(self):
        checks.check_reality_preservation()


def unflushed_if_rk4(c0, nu, a, dt, n_steps):
    """IF-RK4 for the full shear generator with no flush, written apart
    from the package in the same floating-point operation order as
    ``evolution._if_rk4``: k1..k4 at t, t + dt/2, t + dt/2, t + dt, then
    w <- E^2 w + dt/6 (E^2 k1 + 2 (E (k2 + k3)) + k4) with E the
    half-step diffusion factor."""
    nx, ny = (c0.shape[0] - 1) // 2, (c0.shape[1] - 1) // 2
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(-ny, ny + 1)[None, :]
    e_half = np.exp(-nu * (ks * ks + ls * ls).astype(float) * (dt / 2))
    e_full = e_half * e_half
    # g(k -+ 1, l) = 1 - 1/((k -+ 1)^2 + l^2), and 1 at the excluded zero mode
    with np.errstate(divide="ignore"):
        fm = np.where((ks - 1) ** 2 + ls * ls > 0, 1.0 - 1.0 / ((ks - 1) ** 2 + ls * ls), 1.0)
        fp = np.where((ks + 1) ** 2 + ls * ls > 0, 1.0 - 1.0 / ((ks + 1) ** 2 + ls * ls), 1.0)

    def adv(u, t):
        out = np.zeros_like(u)
        out[1:] = fm[1:] * u[:-1]
        out[:-1] -= fp[:-1] * u[1:]
        return out * (-(ls / 2.0) * (a * math.exp(-nu * t)))

    w = c0.astype(complex)
    for n in range(n_steps):
        t = n * dt
        k1 = adv(w, t)
        k2 = adv(e_half * (w + dt / 2 * k1), t + dt / 2)
        k3 = adv(e_half * w + dt / 2 * k2, t + dt / 2)
        k4 = adv(e_full * w + dt * (e_half * k3), t + dt)
        w = e_full * w + dt / 6 * (e_full * k1 + 2 * (e_half * (k2 + k3)) + k4)
    return w


def subnormal_parts(c):
    parts = c.view(float)
    return int(np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)))


class TestSubnormalFlush:
    def test_flushed_run_matches_unflushed(self):
        # strong diffusion drives the high modes through the subnormal range
        # within two flush periods
        n, nu, a, dt = 16, 1.0, 1.0, 0.05
        n_steps = 2 * bf.evolution.FLUSH_EVERY
        c = bf.random_field(n, n, 11).coeffs
        sign = np.where(np.arange(-n, n + 1) % 2 == 0, 1.0, -1.0)[:, None]
        c = (c + sign * c[::-1, :]) / 2  # J-even and conjugate-symmetric
        w0 = bf.SpectralField(n, n, c, real_valued=True)
        cfg = bf.IntegratorConfig(dt=dt, t_final=n_steps * dt, sample_every=n_steps)
        traj = bf.evolve_linear(w0, nu, a, "full", cfg)
        got = traj.fields[-1].coeffs
        want = unflushed_if_rk4(c, nu, a, dt, n_steps)
        assert subnormal_parts(want) > 0
        assert traj.params["flushed_parts"] > 0

        l2_want = math.sqrt(float((np.abs(want) ** 2).sum()))
        assert traj.diagnostics["l2"][-1] == pytest.approx(l2_want, rel=1e-14, abs=0)
        # each real and imaginary part moves by less than the threshold
        assert np.abs(got.view(float) - want.view(float)).max() < bf.evolution.FLUSH_BELOW
        assert subnormal_parts(got) == 0
        assert np.array_equal(got, sign * got[::-1, :])
        assert np.array_equal(got[::-1, ::-1], np.conj(got))


class TestEvolveNonlinear:
    def test_bar_state_is_exact_solution(self):
        nu = 0.01
        w0 = bf.bar_state(1, 4, 4)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=1.0, sample_every=1000, grid=64)
        traj = bf.evolve_nonlinear(w0, nu, cfg)
        wt = traj.fields[-1]
        exact = bf.bar_state(1, wt.nx, wt.ny, t=1.0, nu=nu)
        err = np.abs(wt.coeffs - exact.coeffs).max() / np.abs(exact.coeffs).max()
        assert err <= 1e-6

    def test_dipole_state_is_exact_solution(self):
        nu = 0.01
        w0 = bf.dipole_state(1, 4, 4)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=1.0, sample_every=1000, grid=64)
        traj = bf.evolve_nonlinear(w0, nu, cfg)
        wt = traj.fields[-1]
        exact = bf.dipole_state(1, wt.nx, wt.ny, t=1.0, nu=nu)
        err = np.abs(wt.coeffs - exact.coeffs).max() / np.abs(exact.coeffs).max()
        assert err <= 1e-6

    def test_zero_stays_zero(self):
        cfg = bf.IntegratorConfig(dt=1e-2, t_final=0.1, sample_every=10, grid=16)
        traj = bf.evolve_nonlinear(bf.zero_field(4, 4), 0.01, cfg)
        assert traj.diagnostics["l2"].max() == 0.0

    def test_requires_reality_flag(self):
        w0 = bf.mode_field(2, 2, {(1, 0): 1.0})
        cfg = bf.IntegratorConfig(dt=1e-2, t_final=0.1, grid=16)
        with pytest.raises(ValueError):
            bf.evolve_nonlinear(w0, 0.01, cfg)

    def test_grid_validation(self):
        w0 = bf.bar_state(1, 4, 4)
        with pytest.raises(ValueError):
            bf.evolve_nonlinear(
                w0, 0.01, bf.IntegratorConfig(dt=1e-2, t_final=0.1, grid=48)
            )

    def test_mean_stays_zero(self):
        w0 = bf.random_field(6, 6, 4)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=0.05, sample_every=50, grid=32)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        assert all(f.get(0, 0) == 0.0 for f in traj.fields)

    def test_reality_preserved(self):
        w0 = bf.random_field(6, 6, 3)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=0.1, sample_every=25, grid=32)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        assert max(conjugate_asymmetry(f) for f in traj.fields) < 1e-12

    def test_cfl_warning(self):
        w0 = bf.bar_state(1, 4, 4, amplitude=50.0)
        cfg = bf.IntegratorConfig(dt=0.5, t_final=0.5, grid=64)
        with pytest.warns(RuntimeWarning):
            bf.evolve_nonlinear(w0, 0.01, cfg)

    def test_nan_abort_reports_step(self):
        # a violently unstable configuration must abort, not return garbage
        rng = np.random.default_rng(0)
        c = 1e4 * (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        c = (c + np.conj(c[::-1, ::-1])) / 2
        c[4, 4] = 0.0
        w0 = bf.SpectralField(4, 4, c, real_valued=True, copy=False)
        cfg = bf.IntegratorConfig(dt=10.0, t_final=1000.0, grid=32)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(FloatingPointError, match="step"):
                bf.evolve_nonlinear(w0, 0.01, cfg)

    def test_inviscid_enstrophy_conserved(self):
        checks.check_inviscid_conservation()


class TestDecayRateFit:
    def test_synthetic_exponential(self):
        traj = bf.Trajectory(
            params={"kind": "synthetic"},
            times=np.linspace(0.0, 2.0, 41),
            diagnostics={"enstrophy": np.exp(-3.0 * np.linspace(0.0, 2.0, 41))},
            field_times=np.array([]),
            fields=[],
        )
        fit = bf.decay_rate_fit(traj, "enstrophy")
        assert fit.rate == pytest.approx(3.0, rel=1e-12, abs=0)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_pure_mode_l2_rate(self):
        nu = 0.01
        w0 = bf.mode_field(4, 4, {(1, 0): 1.0})
        cfg = bf.IntegratorConfig(dt=0.05, t_final=20.0)
        traj = bf.evolve_linear(w0, nu, 1.0, "full", cfg)
        fit = bf.decay_rate_fit(traj, "l2")
        assert fit.rate == pytest.approx(2 * nu, rel=0.01, abs=0)

    def test_window_and_validation(self):
        traj = bf.Trajectory(
            params={},
            times=np.linspace(0.0, 1.0, 11),
            diagnostics={"l2": np.ones(11)},
            field_times=np.array([]),
            fields=[],
        )
        with pytest.raises(ValueError):
            bf.decay_rate_fit(traj, "l2", window=(0.0, 0.1))


class TestEnstrophyBalance:
    def test_bar_trajectory_residual(self):
        w0 = bf.bar_state(1, 4, 4)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=0.5, sample_every=1, grid=32)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        assert bf.enstrophy_balance_residual(traj) <= 1e-4

    def test_zero_field_guarded(self):
        cfg = bf.IntegratorConfig(dt=1e-2, t_final=0.1, grid=16)
        traj = bf.evolve_nonlinear(bf.zero_field(4, 4), 0.01, cfg)
        assert bf.enstrophy_balance_residual(traj) == 0.0

    def test_random_smooth_field(self):
        w0 = bf.random_field(10, 10, 4)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=0.3, sample_every=1, grid=64)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        assert bf.enstrophy_balance_residual(traj) <= 1e-3

    def test_linear_trajectory_rejected(self):
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0)
        traj = bf.evolve_linear(bf.random_field(4, 4, 0), 0.01, 1.0, "full", cfg)
        with pytest.raises(ValueError):
            bf.enstrophy_balance_residual(traj)


class TestDiffusionRate:
    def test_slowest_mode(self):
        w = bf.mode_field(6, 3, {(1, 2): 1.0, (4, 3): 0.5})
        assert bf.diffusion_rate(w, 1e-3) == pytest.approx(2e-3 * 5)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            bf.diffusion_rate(bf.zero_field(3, 3), 1e-3)
