import math

import numpy as np
import pytest

import barflow as bf
from barflow.fields import _x_norm_weights
from barflow.hypocoercivity import _apply_commutator
from test_evolution import within_sum_bound


class TestConstants:
    def test_hand_values(self):
        c = bf.hypo_constants(1.0, 1.0, 1, nu=1e-4)
        assert c.alpha0 == pytest.approx(0.0220971, abs=1e-7)
        assert c.beta0 == pytest.approx(0.00195313, abs=1e-8)
        assert c.gamma0 == pytest.approx(0.0110485, abs=1e-7)

    def test_cross_term_margin_hand_arithmetic(self):
        # at m0 = a = ell = 1: 1/512^2 < (1/4096)/4 = 1/16384
        c = bf.hypo_constants(1.0, 1.0, 1, nu=1.0)
        assert c.beta0**2 == pytest.approx(1 / 262144, rel=1e-12, abs=0)
        assert c.alpha0 * c.gamma0 / 4 == pytest.approx(1 / 16384, rel=1e-12, abs=0)

    def test_nu_scaled_weights(self):
        nu = 4e-4
        c = bf.hypo_constants(0.5, 1.0, 2, nu)
        assert c.alpha == c.alpha0 * math.sqrt(nu)
        assert c.beta == c.beta0
        assert c.gamma == c.gamma0 / math.sqrt(nu)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            bf.hypo_constants(-1.0, 1.0, 1, 1e-3)
        with pytest.raises(ValueError):
            bf.hypo_constants(1.0, 0.0, 1, 1e-3)
        with pytest.raises(ValueError):
            bf.hypo_constants(1.0, 1.0, 0, 1e-3)

    def test_tampered_weights_rejected(self):
        c = bf.hypo_constants(1.0, 1.0, 1, 1e-3)
        bad = bf.HypoConstants(c.m0, c.a, c.ell, c.nu, c.alpha0, 10 * c.beta0, c.gamma0)
        with pytest.raises(ValueError):
            bad.validate()


def row_sum_x_norm_sq(c, nu, a, t):
    """The mixed norm as sums over each row l != 0 of ||w_l||^2,
    sqrt(nu/|l|) ||d_x w_l||^2 and ||C w_l||^2 / (sqrt(nu) |l|^{3/2}),
    with C w = -i (a l / 2) e^{-nu t} (w(k-1) + w(k+1)): the definition,
    written apart from the package."""
    nx, ny = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    ks = np.arange(-nx, nx + 1)[:, None].astype(float)
    ls = np.arange(-ny, ny + 1).astype(float)
    nb = np.zeros_like(c)
    nb[1:] += c[:-1]
    nb[:-1] += c[1:]
    cw = -0.5j * a * math.exp(-nu * t) * ls[None, :] * nb
    sq = np.abs(c) ** 2
    total = 0.0
    for j, ell in enumerate(ls):
        if ell != 0:
            total += (sq[:, j].sum() + math.sqrt(nu / abs(ell)) * (ks[:, 0] ** 2 * sq[:, j]).sum()
                      + (np.abs(cw[:, j]) ** 2).sum() / (math.sqrt(nu) * abs(ell) ** 1.5))
    return 2 * math.pi * total


def random_x_norm_fields(nx, ny, seed):
    """A reality-flagged and an unflagged random field, both zero on l = 0."""
    c = bf.random_field(nx, ny, seed).coeffs.copy()
    c[:, ny] = 0.0
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
    d[:, ny] = 0.0
    return bf.SpectralField(nx, ny, c, real_valued=True), bf.SpectralField(nx, ny, d)


class TestXNorm:
    @pytest.mark.parametrize("nx, ny, seed", [(6, 4, 0), (12, 5, 1), (48, 4, 2)])
    def test_matches_row_sums(self, nx, ny, seed):
        for w in random_x_norm_fields(nx, ny, seed):
            for nu, a in ((1e-3, 1.0), (1e-4, 1.3)):
                for t in (0.0, 0.7, 250.0):
                    got = bf.x_norm_sq(w, nu, a, t)
                    want = row_sum_x_norm_sq(w.coeffs, nu, a, t)
                    assert got == pytest.approx(want, rel=1e-13, abs=0), (w.real_valued, nu, a, t)

    @pytest.mark.parametrize("nx, ny, seed", [(6, 4, 0), (12, 5, 1), (48, 2, 2)])
    def test_bits_of_the_zero_padded_formula(self, nx, ny, seed):
        # the neighbour sum c(k-1) + c(k+1) formed on a zero array, then the
        # two weighted sums over the whole array
        for w in random_x_norm_fields(nx, ny, seed):
            c = w.coeffs
            w_sq, w_nb = _x_norm_weights(nx, ny, 1e-4)
            nb = np.zeros_like(c)
            nb[1:] = c[:-1]
            nb[:-1] += c[1:]
            sq = np.abs(c) ** 2 * w_sq
            nb_sq = np.abs(nb) ** 2 * w_nb
            for t in (0.0, 0.7, 250.0):
                amp = 1.3 * math.exp(-1e-4 * t)
                want = 2 * math.pi * (float(sq.sum()) + amp * amp * float(nb_sq.sum()))
                assert bf.x_norm_sq(w, 1e-4, 1.3, t) == want, (w.real_valued, t)

    def test_weights_cached_read_only(self):
        w_sq, w_nb = _x_norm_weights(6, 4, 1e-3)
        assert _x_norm_weights(6, 4, 1e-3)[0] is w_sq
        for weights in (w_sq, w_nb):
            assert not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0, 0] = 1.0
        assert not w_sq[:, 4].any() and not w_nb[:, 4].any()

    def test_zero_field(self):
        assert bf.x_norm_sq(bf.zero_field(4, 2), 1e-3, 1.0) == 0.0

    def test_single_mode_quadrature_oracle(self):
        # row l=1 holding e^{ix}: ||w||^2 = ||w_x||^2 = 2 pi and the
        # commutator term integrates |cos x e^{ix}|^2 = pi
        w = bf.mode_field(4, 2, {(1, 1): 1.0})
        nu, a = 1.0, 1.0
        got = bf.x_norm_sq(w, nu, a, 0.0)
        x = np.linspace(-math.pi, math.pi, 40001)
        quad = np.trapezoid(np.abs(np.cos(x) * np.exp(1j * x)) ** 2, x)
        want = 2 * math.pi + math.sqrt(nu) * 2 * math.pi + quad / math.sqrt(nu)
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_homogeneity(self):
        w1 = bf.mode_field(4, 2, {(1, 1): 1.0})
        w2 = bf.mode_field(4, 2, {(1, 1): 2.0})
        assert bf.x_norm_sq(w2, 0.01, 1.0) == pytest.approx(
            4 * bf.x_norm_sq(w1, 0.01, 1.0), rel=1e-14, abs=0
        )

    def test_shear_content_rejected(self):
        w = bf.bar_state(1, 4, 2)
        with pytest.raises(ValueError):
            bf.x_norm_sq(w, 1e-3, 1.0)


class TestFunctional:
    def test_zero_row(self):
        c = bf.hypo_constants(0.25, 1.0, 2, 1e-3)
        s = bf.functional_sample(np.zeros(9, dtype=complex), c, 0.0)
        assert s.phi_value == 0.0 and s.l2_sq == 0.0 and s.cross_term == 0.0

    def test_combination_identity(self):
        c = bf.hypo_constants(0.25, 1.0, 2, 1e-3)
        rng = np.random.default_rng(4)
        row = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        s = bf.functional_sample(row, c, 0.3)
        want = s.l2_sq + c.alpha * s.dx_sq - 2 * c.beta * s.cross_term + c.gamma * s.c_sq
        assert s.phi_value == pytest.approx(want, rel=1e-14, abs=0)

    def test_beta_zero_override_nonnegative(self):
        base = bf.hypo_constants(0.25, 1.0, 2, 1e-3)
        c = bf.HypoConstants(base.m0, base.a, base.ell, base.nu, base.alpha0, 0.0, base.gamma0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            row = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            assert bf.functional_sample(row, c, 0.0).phi_value >= 0.0

    def test_commutator_row_matches_matrix(self):
        row = np.arange(1.0, 8.0) + 0.5j
        got = _apply_commutator(row, 2, 1.3, 0.01, 0.7)
        want = bf.commutator_matrix(2, 3, 1.3, 0.7, 0.01) @ row
        assert np.abs(got - want).max() < 1e-15


class TestOscillatorEstimate:
    def test_free_laplacian_gap_zero(self):
        assert bf.oscillator_min_eig(0.125, 0.0, 64) == 0.0
        assert bf.estimate_m0(1e-6, 1.0, 0.0, 2) == 0.0

    def test_hermitian_discretization(self):
        # eigenvalues of the cosine-well operator are real by symmetry
        ks = np.arange(-64, 65)
        dim = len(ks)
        mat = np.zeros((dim, dim))
        mat[np.arange(dim), np.arange(dim)] = 0.125 * ks * ks + 10.0 / 2
        mat[np.arange(2, dim), np.arange(0, dim - 2)] = 10.0 / 4
        mat[np.arange(0, dim - 2), np.arange(2, dim)] = 10.0 / 4
        assert np.abs(mat - mat.T).max() == 0.0
        vals = np.linalg.eigvals(mat)
        assert np.abs(vals.imag).max() <= 1e-12

    def test_deep_well_square_root_scaling(self):
        # doubling the potential coefficient scales the gap by sqrt(2)
        lam1 = bf.oscillator_min_eig(0.125, 125.0, 128)
        lam2 = bf.oscillator_min_eig(0.125, 250.0, 128)
        assert lam2 / lam1 == pytest.approx(math.sqrt(2), rel=0.05, abs=0)

    def test_auto_m0_self_consistent(self):
        m0 = bf.auto_m0(1.0, 2, 1e-4)
        beta0 = m0 / (512 * 1.0 * 2)
        again = bf.estimate_m0(beta0, 1e-4, 1.0, 2)
        assert again == pytest.approx(m0, rel=1e-6, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bf.estimate_m0(0.0, 1e-3, 1.0, 2)
        with pytest.raises(ValueError):
            bf.estimate_m0(1e-3, 1e-3, 1.0, 2, n_modes=32)


class TestDecayCheck:
    def test_diffusive_baseline_exact(self):
        # a = 0 reduces to pure diffusion of the single populated mode
        w0 = bf.mode_field(6, 3, {(1, 2): 1.0})
        fit = bf.decay_check(w0, 1e-3, 0.0, t_final=1000.0, dt=0.5)
        assert fit.rate == pytest.approx(2e-3 * 5, rel=1e-9, abs=0)

    def test_anomalous_content_rejected(self):
        with pytest.raises(ValueError):
            bf.decay_check(bf.bar_state(1, 6, 2), 1e-3, 1.0, t_final=10.0, dt=0.1)


class TestFunctionalDissipation:
    def test_diffusive_single_mode_rate(self):
        # a = 0: Phi reduces to (1 + alpha k^2) ||w||^2 and decays at
        # exactly 2 nu (k^2 + ell^2)
        nu, k, ell = 1e-3, 1, 2
        cst = bf.HypoConstants(0.0, 0.0, ell, nu, 1.0, 0.0, 0.0)
        w0 = bf.mode_field(6, 3, {(k, ell): 1.0})
        cfg = bf.IntegratorConfig(dt=0.05, t_final=20.0, sample_every=1)
        traj = bf.evolve_linear(w0, nu, 0.0, "approximate", cfg)
        rep = bf.functional_dissipation(traj, cst)
        want = -2 * nu * (k * k + ell * ell)
        assert rep.min_ratio == pytest.approx(want, rel=1e-4, abs=0)
        assert rep.max_ratio == pytest.approx(want, rel=1e-4, abs=0)

    def test_zero_row_empty_report(self):
        cst = bf.hypo_constants(0.25, 1.0, 2, 1e-3)
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=1)
        traj = bf.evolve_linear(bf.zero_field(4, 3), 1e-3, 1.0, "approximate", cfg)
        rep = bf.functional_dissipation(traj, cst)
        assert rep.n_interior == 0

    def test_requires_dense_snapshots(self):
        cst = bf.hypo_constants(0.25, 1.0, 2, 1e-3)
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=5)
        traj = bf.evolve_linear(bf.seeded_row_field(6, 3, 2, 0), 1e-3, 1.0, "approximate", cfg)
        with pytest.raises(ValueError):
            bf.functional_dissipation(traj, cst)


class TestDiagnosticsIntegration:
    def test_x_norm_diagnostic_matches_direct(self):
        nu, a = 1e-3, 1.0
        w0 = bf.seeded_row_field(10, 3, 2, seed=6)
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=1)
        traj = bf.evolve_linear(w0, nu, a, "approximate", cfg, x_norm=True)
        for t, f in zip(traj.field_times, traj.fields):
            i = int(np.argmin(np.abs(traj.times - t)))
            assert within_sum_bound(traj.diagnostics["x_norm"][i], math.sqrt(bf.x_norm_sq(f, nu, a, t)), f.coeffs.shape)

    def test_phi_diagnostic(self):
        nu = 1e-3
        cst = bf.hypo_constants(0.25, 1.0, 2, nu)
        w0 = bf.seeded_row_field(10, 3, 2, seed=8)
        cfg = bf.IntegratorConfig(dt=0.1, t_final=1.0, sample_every=1)
        traj = bf.evolve_linear(
            w0, nu, 1.0, "approximate", cfg,
            extra_diagnostics={"phi": bf.phi_diagnostic(cst)},
        )
        row = traj.fields[0].coeffs[:, 2 + 3]
        s = bf.functional_sample(row, cst, 0.0)
        assert traj.diagnostics["phi"][0] == pytest.approx(s.phi_value, rel=1e-12, abs=0)
