import math

import numpy as np
import pytest

import barflow as bf
from barflow import checks
from barflow.fields import conjugate_asymmetry

# A test whose body is one ``checks.check_*`` call runs that registry
# invariant; its cases and bounds are stated in src/barflow/checks.py only.


class TestBarState:
    def test_cos_m1(self):
        w = bf.bar_state(1, 4, 4)
        assert w.get(1, 0) == 0.5
        assert w.get(-1, 0) == 0.5
        assert np.count_nonzero(w.coeffs) == 2

    def test_decay_factor(self):
        nu = 0.01
        w = bf.bar_state(1, 4, 4, t=1.0 / nu, nu=nu)
        assert w.get(1, 0) == pytest.approx(math.exp(-1) / 2, rel=1e-15, abs=0)

    def test_sin_m2(self):
        w = bf.bar_state(2, 4, 4, phase="sin")
        assert w.get(2, 0) == -0.5j
        assert w.get(-2, 0) == 0.5j

    def test_truncation_rejected(self):
        with pytest.raises(ValueError):
            bf.bar_state(5, 4, 4)


class TestDipoleState:
    def test_cos_m1(self):
        w = bf.dipole_state(1, 4, 4)
        for mode in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert w.get(*mode) == 0.5
        assert np.count_nonzero(w.coeffs) == 4

    def test_zero_amplitude(self):
        w = bf.dipole_state(1, 4, 4, amplitude=0.0)
        assert w.norm() == 0.0

    def test_sin_m1(self):
        w = bf.dipole_state(1, 4, 4, phase="sin")
        assert w.get(1, 0) == -0.5j
        assert w.get(-1, 0) == 0.5j
        assert w.get(0, 1) == -0.5j
        assert w.get(0, -1) == 0.5j


class TestBiotSavart:
    def test_cos_x_gives_sin_velocity(self):
        u = bf.biot_savart(bf.bar_state(1, 4, 4))
        assert u.u2.get(1, 0) == -0.5j
        assert u.u2.get(-1, 0) == 0.5j
        assert u.u1.norm() == 0.0

    def test_zero_field(self):
        u = bf.biot_savart(bf.zero_field(3, 3))
        assert u.u1.norm() == 0.0 and u.u2.norm() == 0.0

    def test_single_diagonal_mode(self):
        u = bf.biot_savart(bf.mode_field(4, 4, {(1, 1): 1.0}))
        assert u.u1.get(1, 1) == 0.5j
        assert u.u2.get(1, 1) == -0.5j

    def test_rejects_nonzero_mean(self):
        c = np.zeros((7, 7), dtype=complex)
        c[3, 3] = 1.0
        with pytest.raises(ValueError):
            bf.SpectralField(3, 3, c)

    def test_curl_recovery(self):
        checks.check_curl_recovery()


class TestAnomalousCoordinates:
    def test_central_mode_doubled(self):
        w = bf.mode_field(8, 2, {(0, 1): 1.0})
        coords = bf.anomalous_coordinates(w)
        assert coords.even_sums_plus[0] == 2.0

    def test_antisymmetric_cancels(self):
        w = bf.mode_field(8, 2, {(2, 1): 1.0, (-2, 1): -1.0})
        assert bf.anomalous_coordinates(w).even_sums_plus[1] == 0.0

    def test_odd_difference(self):
        w = bf.mode_field(8, 2, {(3, 1): 2.0, (-3, 1): 0.5})
        assert bf.anomalous_coordinates(w).odd_diffs_plus[1] == 1.5

    def test_jmax_beyond_truncation(self):
        w = bf.zero_field(8, 2)
        with pytest.raises(ValueError):
            bf.anomalous_coordinates(w, jmax=4)


class TestProjection:
    def test_bar_state_annihilated(self):
        p = bf.remove_anomalous(bf.bar_state(1, 6, 6))
        assert p.norm() == 0.0

    def test_higher_row_untouched(self):
        w = bf.mode_field(6, 3, {(1, 2): 1.0})
        p = bf.remove_anomalous(w)
        assert np.abs(p.coeffs - w.coeffs).max() == 0.0

    def test_even_mode_antisymmetrized(self):
        p = bf.remove_anomalous(bf.mode_field(8, 2, {(2, 1): 1.0}))
        assert p.get(2, 1) == 0.5
        assert p.get(-2, 1) == -0.5
        assert bf.anomalous_coordinates(p).even_sums_plus[1] == 0.0

    def test_idempotent_and_nonexpansive(self):
        checks.check_projection()

    def test_orthogonal(self):
        checks.check_projection()


class TestMembership:
    def test_projected_field_passes(self):
        w = bf.remove_anomalous(bf.random_field(9, 9, 0))
        ok, viol = bf.is_anomalous_free(w, tol=1e-14)
        assert ok and viol == 0.0

    def test_bar_state_fails(self):
        ok, _ = bf.is_anomalous_free(bf.bar_state(1, 6, 6))
        assert not ok

    def test_even_nx_edge_pair_fails(self):
        # at even nx the pair (+-nx, 1) is J-even, hence anomalous
        w = bf.mode_field(4, 4, {(4, 1): 1.0, (-4, 1): 1.0})
        ok, viol = bf.is_anomalous_free(w)
        assert not ok and viol == 2.0
        assert bf.remove_anomalous(w).norm() == 0.0

    def test_reported_violation_magnitude(self):
        w = bf.random_field(9, 9, 5)
        c = w.coeffs.copy()
        c[:, w.ny] = 0.0
        for l in (1, -1):
            row = c[:, l + w.ny]
            flip = row[::-1].copy()
            ks = np.arange(-w.nx, w.nx + 1)
            c[:, l + w.ny] = np.where(ks % 2 == 0, (row - flip) / 2, (row + flip) / 2)
        c[w.nx, w.ny + 1] = 1e-3  # plant what(0, 1)
        planted = bf.SpectralField(w.nx, w.ny, c, copy=False)
        ok, viol = bf.is_anomalous_free(planted, tol=1e-6)
        assert not ok
        assert viol == pytest.approx(2e-3, rel=1e-12, abs=0)


class TestQuadraticDiagnostics:
    def test_enstrophy_cos_x(self):
        # integral of cos^2 x over the torus = 2 pi^2
        assert bf.enstrophy(bf.bar_state(1, 4, 4)) == pytest.approx(
            2 * math.pi**2, rel=1e-14, abs=0
        )

    def test_zero_field(self):
        assert bf.enstrophy(bf.zero_field(4, 4)) == 0.0
        assert bf.grad_norm_sq(bf.zero_field(4, 4)) == 0.0

    def test_grad_norm_cos_x(self):
        assert bf.grad_norm_sq(bf.bar_state(1, 4, 4)) == pytest.approx(
            2 * math.pi**2, rel=1e-14, abs=0
        )

    def test_poincare(self):
        checks.check_poincare()


class TestSynthesis:
    def test_values_match_direct_sum(self):
        w = bf.mode_field(2, 2, {(1, 0): 0.5, (-1, 0): 0.5}, real_valued=True)
        x, _, vals = bf.synthesize(w, grid_x=16, grid_y=8)
        assert np.allclose(vals.real, np.cos(x)[:, None], atol=1e-13)

    def test_reality(self):
        checks.check_reality_synthesis()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        w = bf.random_field(5, 7, 2)
        path = tmp_path / "field.csv"
        bf.save_field(w, path)
        back = bf.load_field(path)
        assert back.nx == w.nx and back.ny == w.ny
        assert back.real_valued == w.real_valued
        assert np.abs(back.coeffs - w.coeffs).max() == 0.0

    def test_zero_field_round_trip(self, tmp_path):
        path = tmp_path / "zero.csv"
        bf.save_field(bf.zero_field(3, 3), path)
        assert bf.load_field(path).norm() == 0.0

    def test_exact_text(self, tmp_path):
        # 17 significant digits, the sign of a zero part kept, subnormals
        # written out, and exact zeros skipped
        entries = {(-1, -1): complex(0.5, -0.0), (0, 1): complex(0.0, 5e-324),
                   (1, 0): 0.1 + 0.2j, (1, 1): complex(-0.0, -2.5)}
        w = bf.mode_field(1, 1, entries)
        path = tmp_path / "field.csv"
        bf.save_field(w, path)
        assert path.read_text() == (
            "# nx=1 ny=1 reality=0\n"
            "k,l,re,im\n"
            "-1,-1,0.5,-0\n"
            "0,1,0,4.9406564584124654e-324\n"
            "1,0,0.10000000000000001,0.20000000000000001\n"
            "1,1,-0,-2.5\n"
        )
        back = bf.load_field(path)
        assert np.array_equal(back.coeffs.view(np.uint64), w.coeffs.view(np.uint64))


class TestImmutability:
    def test_coeffs_read_only(self):
        w = bf.bar_state(1, 4, 4)
        with pytest.raises(ValueError):
            w.coeffs[0, 0] = 1.0
        with pytest.raises(AttributeError):
            w.nx = 5

    def test_reality_validation(self):
        c = np.zeros((7, 7), dtype=complex)
        c[4, 3] = 1.0  # (1, 0) without its conjugate partner
        with pytest.raises(ValueError):
            bf.SpectralField(3, 3, c, real_valued=True)
        assert conjugate_asymmetry(bf.bar_state(1, 3, 3)) == 0.0
