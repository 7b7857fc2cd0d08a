import math
import re
import tracemalloc

import numpy as np
import pytest

import barflow as bf
from barflow.fields import conjugate_asymmetry


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


def reference_if_rk4(c0, nu, a, dt, n_steps, approximate=False, flush=False):
    """IF-RK4 for the shear generator on the full coefficient array, written
    apart from the package in the same floating-point operation order as
    ``evolution._if_rk4``: k1..k4 at t, t + dt/2, t + dt/2, t + dt, then
    w <- w E^2 + (k1 E^2 + (k2 + k3) E 2 + k4) dt/6 with E the
    half-step diffusion factor.  The order of the operands of each product
    is the package's too: under a fused multiply-add, x s and s x can round
    an underflowed part to zeros of opposite sign.

    ``approximate`` drops the coupling factors (fm = fp = 1).  With
    ``flush``, every part below ``FLUSH_BELOW`` of the whole array is set
    to zero after each ``FLUSH_EVERY``-th step.  Returns the states at
    steps 0..n_steps and the number of nonzero parts flushed.
    """
    nx, ny = (c0.shape[0] - 1) // 2, (c0.shape[1] - 1) // 2
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(-ny, ny + 1)[None, :]
    e_half = np.exp(-nu * (ks * ks + ls * ls).astype(float) * (dt / 2))
    e_full = e_half * e_half
    if approximate:
        fm = fp = np.ones(c0.shape)
    else:
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
    states, flushed = [w], 0
    for n in range(n_steps):
        t = n * dt
        k1 = adv(w, t)
        k2 = adv((k1 * (dt / 2) + w) * e_half, t + dt / 2)
        k3 = adv(w * e_half + k2 * (dt / 2), t + dt / 2)
        k4 = adv(k3 * e_half * dt + w * e_full, t + dt)
        w = w * e_full + (k1 * e_full + (k2 + k3) * e_half * 2.0 + k4) * (dt / 6)
        if flush and (n + 1) % bf.evolution.FLUSH_EVERY == 0:
            parts = w.view(float)
            tiny = (parts != 0) & (np.abs(parts) < bf.evolution.FLUSH_BELOW)
            flushed += int(np.count_nonzero(tiny))
            parts[tiny] = 0.0
        states.append(w)
    return states, flushed


def two_column_field(nx, ny, seed):
    """A field that is not reality-flagged, populated on the columns l = -1
    and l = 2 only."""
    c = bf.seeded_row_field(nx, ny, -1, seed).coeffs + bf.seeded_row_field(nx, ny, 2, seed + 1).coeffs
    return bf.SpectralField(nx, ny, c)


def real_coefficient_field(nx, ny, seed):
    """A reality-flagged field whose coefficients are all real: every
    imaginary part is +0, which a plain conjugate flip would write as -0."""
    return bf.SpectralField(nx, ny, bf.random_field(nx, ny, seed).coeffs.real.astype(complex), real_valued=True)


def same_bits(a, b):
    """Equal bit for bit, so also in the sign of every zero part."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLinearMatchesFullArrayReference:
    # evolve_linear advances only the columns that can be nonzero; every
    # snapshot of a run that stops short of the first flush step must still
    # hold the bits the full-array reference gives
    NU, A, DT, N_STEPS = 0.02, 1.5, 0.1, bf.evolution.FLUSH_EVERY - 1

    @pytest.mark.parametrize(
        "make, variant",
        [
            (lambda: bf.remove_anomalous(bf.random_field(8, 6, 2)), "full"),
            (lambda: bf.remove_anomalous(bf.random_field(8, 6, 2)), "approximate"),
            (lambda: bf.random_field(8, 6, 3), "full"),  # the l = 0 column is populated
            (lambda: bf.zero_field(8, 6), "full"),
            (lambda: bf.seeded_row_field(8, 6, 2, 4), "full"),
            (lambda: two_column_field(8, 6, 5), "full"),
            (lambda: real_coefficient_field(8, 6, 6), "full"),
        ],
        ids=["anomalous-free", "anomalous-free-approximate", "random", "zero", "one-column",
             "two-columns", "real-coefficients"],
    )
    def test_every_snapshot_equal(self, make, variant):
        w0 = make()
        cfg = bf.IntegratorConfig(dt=self.DT, t_final=self.N_STEPS * self.DT)
        traj = bf.evolve_linear(w0, self.NU, self.A, variant, cfg)
        want, _ = reference_if_rk4(
            w0.coeffs, self.NU, self.A, self.DT, self.N_STEPS, approximate=variant == "approximate"
        )
        assert len(traj.fields) == len(want) == self.N_STEPS + 1
        for i, (got, ref) in enumerate(zip(traj.fields, want)):
            assert same_bits(got.coeffs, ref), f"step {i}"
            assert traj.diagnostics["l2"][i] == math.sqrt(float((np.abs(ref) ** 2).sum()))
        assert traj.params["flushed_parts"] == 0


def span_field(nx, ny, seed):
    """A field that is not reality-flagged, with random coefficients on the
    columns l = -1, 0, +1 and 2."""
    rng = np.random.default_rng(seed)
    c = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
    c[:, ny - 1 : ny + 3] = rng.standard_normal((2 * nx + 1, 4)) + 1j * rng.standard_normal((2 * nx + 1, 4))
    c[nx, ny] = 0.0
    return bf.SpectralField(nx, ny, c)


def full_array_diagnostics(c):
    """l2, enstrophy, grad_norm_sq and max_pq of a full coefficient array,
    by the whole-array formulas: sums of |c|^2 and (k^2 + l^2) |c|^2, and
    the largest of |l = 0 row| and |c + J c| on the rows l = +-1."""
    nx, ny = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(-ny, ny + 1)[None, :]
    sq = np.square(np.abs(c))
    l2_sq = float(sq.sum())
    grad = bf.fields.PARSEVAL * float(((ks * ks + ls * ls).astype(float) * sq).sum())
    rows = c[:, ny - 1 : ny + 2 : 2]
    pairs = rows + bf.fields.parity(rows, bf.fields.parity_odd(ks))
    max_pq = max(float(np.abs(c[:, ny]).max()), float(np.abs(pairs).max()))
    return math.sqrt(l2_sq), bf.fields.PARSEVAL * l2_sq, grad, max_pq


class TestBlockRecordMatchesFullArray:
    # with sample_every = 7 most steps hand no field out, so their
    # diagnostics are read off the advanced block alone
    NU, A, DT, N_STEPS, SAMPLE = 0.02, 1.5, 0.1, 30, 7

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bf.random_field(8, 6, 3),  # reality-flagged, l = 0 populated
            lambda: bf.seeded_row_field(8, 6, 2, 4),  # no column with |l| <= 1
            lambda: span_field(8, 6, 5),
        ],
        ids=["flagged", "one-column", "span"],
    )
    def test_every_step_equal(self, make):
        w0 = make()
        want, _ = reference_if_rk4(w0.coeffs, self.NU, self.A, self.DT, self.N_STEPS)
        cfg = bf.IntegratorConfig(dt=self.DT, t_final=self.N_STEPS * self.DT, sample_every=self.SAMPLE)
        traj = bf.evolve_linear(w0, self.NU, self.A, "full", cfg)
        names = ("l2", "enstrophy", "grad_norm_sq", "max_pq")
        for step, ref in enumerate(want):
            got = tuple(float(traj.diagnostics[name][step]) for name in names)
            assert got == full_array_diagnostics(ref), f"step {step}"
        snapshot_steps = [*range(0, self.N_STEPS + 1, self.SAMPLE), self.N_STEPS]
        assert np.array_equal(traj.field_times, np.array(snapshot_steps) * self.DT)
        for step, got in zip(snapshot_steps, traj.fields):
            assert same_bits(got.coeffs, want[step]), f"step {step}"

        # an extra diagnostic sees the full field at every step, and the
        # built-in diagnostics do not change
        seen = []

        def full_field(field, t):
            step = round(t / self.DT)
            assert same_bits(field.coeffs, want[step]), f"step {step}"
            seen.append(step)
            return t

        with_extra = bf.evolve_linear(w0, self.NU, self.A, "full", cfg, {"probe": full_field})
        assert seen == list(range(self.N_STEPS + 1))
        for name in names:
            assert same_bits(with_extra.diagnostics[name], traj.diagnostics[name]), name


class TestRecorderStorage:
    def test_peak_grows_by_one_float64_per_series_and_step(self):
        # a Python list grows by about 32 B per float it holds
        w0 = bf.random_field(3, 3, 0)
        extra = {"probe": lambda field, t: t}
        n_series = 6  # times, l2, enstrophy, grad_norm_sq, max_pq, probe

        def peak(n_steps):
            cfg = bf.IntegratorConfig(dt=0.01, t_final=n_steps * 0.01, sample_every=10**6)
            tracemalloc.start()
            try:
                bf.evolve_linear(w0, 0.01, 1.0, "full", cfg, extra)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 500
        peak(n)  # warm the caches so both measured runs start alike
        growth = (peak(2 * n) - peak(n)) / n
        assert growth <= 1.25 * 8 * n_series


def subnormal_parts(c):
    parts = c.view(float)
    return int(np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)))


class TestSubnormalFlush:
    # strong diffusion drives the high modes through the subnormal range
    # within two flush periods
    N, NU, A, DT, N_STEPS = 16, 1.0, 1.0, 0.05, 2 * bf.evolution.FLUSH_EVERY

    def run(self, sample_every):
        """The J-even, conjugate-symmetric initial coefficients, the J sign
        pattern, and the trajectory."""
        n = self.N
        c = bf.random_field(n, n, 11).coeffs
        sign = np.where(np.arange(-n, n + 1) % 2 == 0, 1.0, -1.0)[:, None]
        c = (c + sign * c[::-1, :]) / 2
        w0 = bf.SpectralField(n, n, c, real_valued=True)
        cfg = bf.IntegratorConfig(dt=self.DT, t_final=self.N_STEPS * self.DT, sample_every=sample_every)
        return c, sign, bf.evolve_linear(w0, self.NU, self.A, "full", cfg)

    def test_flushed_run_matches_unflushed(self):
        c, sign, traj = self.run(sample_every=self.N_STEPS)
        got = traj.fields[-1].coeffs
        want = reference_if_rk4(c, self.NU, self.A, self.DT, self.N_STEPS)[0][-1]
        assert subnormal_parts(want) > 0
        assert traj.params["flushed_parts"] > 0

        l2_want = math.sqrt(float((np.abs(want) ** 2).sum()))
        assert traj.diagnostics["l2"][-1] == pytest.approx(l2_want, rel=1e-14, abs=0)
        # each real and imaginary part moves by less than the threshold
        assert np.abs(got.view(float) - want.view(float)).max() < bf.evolution.FLUSH_BELOW
        assert subnormal_parts(got) == 0
        assert np.array_equal(got, sign * got[::-1, :])
        assert np.array_equal(got[::-1, ::-1], np.conj(got))

    def test_flushed_parts_counted_on_the_full_array(self):
        c, _, traj = self.run(sample_every=1)
        want, flushed = reference_if_rk4(c, self.NU, self.A, self.DT, self.N_STEPS, flush=True)
        assert flushed > 0
        assert traj.params["flushed_parts"] == flushed
        # the advanced columns l >= 0 hold the reference's bits; the columns
        # l < 0 are their conjugate flips, equal to the reference in value
        # but not in the sign of a part that underflowed to zero
        n = self.N
        for i, (got, ref) in enumerate(zip(traj.fields, want)):
            assert same_bits(got.coeffs[:, n:], ref[:, n:]), f"step {i}"
            assert np.array_equal(got.coeffs, ref), f"step {i}"


def five_transform_rhs(w):
    """-N(w) and the velocity u1, u2 on the full m x m FFT lattice with five
    complex transforms: the dealiased advection term written apart from
    the package's half-spectrum version."""
    m = w.shape[0]
    kk = np.fft.fftfreq(m) * m
    kx, ky = kk[:, None], kk[None, :]
    k2 = kx * kx + ky * ky
    k2[0, 0] = 1.0
    keep = np.abs(kk) <= (m - 1) // 3

    def grid(mult):
        return np.fft.ifft2(mult * w).real * m * m

    u1, u2 = grid(1j * ky / k2), grid(-1j * kx / k2)
    out = -np.fft.fft2(u1 * grid(1j * kx) + u2 * grid(1j * ky)) / (m * m)
    out *= keep[:, None] & keep[None, :]
    out[0, 0] = 0.0
    return out, u1, u2


class TestEvolveNonlinear:
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

    def test_grid_keeps_every_initial_mode(self):
        # the 2/3 mask keeps |k|, |l| <= (m - 1) // 3: grid 16 holds kmax0 <= 5
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=1e-3, grid=16)
        with pytest.raises(ValueError, match="grid 16"):
            bf.evolve_nonlinear(bf.random_field(7, 7, 3, decay=0.01), 0.01, cfg)
        w0 = bf.random_field(5, 5, 3, decay=0.01)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        assert traj.diagnostics["l2"][0] == pytest.approx(w0.norm(), rel=1e-15, abs=0)

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

    def test_cfl_checked_at_every_step(self):
        # the inviscid flow speeds up: CFL 0.87 on the first step, over 1 later
        w0 = bf.random_field(6, 6, 0, decay=0.15)
        first = bf.evolve_nonlinear(w0, 0.0, bf.IntegratorConfig(dt=0.05, t_final=0.05, grid=32))
        assert 0.8 < first.params["max_cfl"] < 1.0
        cfg = bf.IntegratorConfig(dt=0.05, t_final=1.0, sample_every=20, grid=32)
        with pytest.warns(RuntimeWarning, match=r"step (\d+) of 20, from t = ") as caught:
            traj = bf.evolve_nonlinear(w0, 0.0, cfg)
        assert len(caught) == 1
        step = int(re.search(r"step (\d+)", str(caught[0].message)).group(1))
        assert step > 1
        assert traj.params["max_cfl"] > 1.0
        assert "max_cfl" not in traj.diagnostics

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_matches_five_transform_oracle(self, m):
        n = (m - 1) // 3
        w = bf.random_field(n, n, 5)
        full = np.zeros((m, m), dtype=complex)
        full[np.ix_(np.arange(-n, n + 1) % m, np.arange(-n, n + 1) % m)] = w.coeffs
        half = full[:, : m // 2 + 1].copy()
        assert np.abs(half[1 : n + 1, 0]).min() > 0  # the l = 0 column is populated
        out = np.empty_like(half)
        grid = bf.evolution._half_spectrum_advection(m)(half, out)
        want, u1, u2 = five_transform_rhs(full)
        scale = np.abs(want).max()
        assert np.abs(out - want[:, : m // 2 + 1]).max() <= 1e-14 * scale
        assert np.abs(grid[0] - u1).max() <= 1e-14 * np.abs(u1).max()
        assert np.abs(grid[1] - u2).max() <= 1e-14 * np.abs(u2).max()

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
