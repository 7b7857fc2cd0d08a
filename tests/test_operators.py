import json
import math

import numpy as np
import pytest

import barflow as bf
from barflow import checks, operators

# A test whose body is one ``checks.check_*`` call runs that registry
# invariant; its cases and bounds are stated in barflow/checks.py only.


def row(op, k):
    return op.matrix[k + op.trunc]


class TestBarSlice:
    def test_hand_entries_ell2(self):
        # row k = 0 at nu = 0.001, amp = 1: diag -0.004, couplings -/+ 4/5
        op = bf.bar_slice(2, 4, nu=0.001, a=1.0)
        i = op.trunc
        assert op.matrix[i, i] == -0.004
        assert op.matrix[i, i - 1] == -0.8
        assert op.matrix[i, i + 1] == 0.8

    def test_hand_entries_ell1(self):
        op = bf.bar_slice(1, 4, nu=0.001, a=1.0)
        i = op.trunc
        assert op.matrix[i, i - 1] == -0.25
        assert op.matrix[i, i + 1] == 0.25

    def test_zero_amplitude_diagonal(self):
        op = bf.bar_slice(3, 5, nu=0.01, a=0.0)
        ks = np.arange(-5, 6)
        assert np.abs(op.matrix - np.diag(-0.01 * (ks**2 + 9))).max() == 0.0

    def test_band_structure(self):
        op = bf.bar_slice(2, 6, nu=0.01, a=1.0)
        off = np.abs(op.matrix.copy())
        for d in (-1, 0, 1):
            off -= np.abs(np.diag(np.diag(op.matrix, d), d))
        assert np.abs(off).max() == 0.0

    def test_ell_zero_rejected(self):
        with pytest.raises(ValueError):
            bf.bar_slice(0, 5, 0.01, 1.0)

    def test_decomposition_full_vs_approximate(self):
        checks.check_slice_decomposition()


class TestRealStorage:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: bf.bar_slice(2, 5, 0.01, 1.3, 0.7, "full").matrix,
            lambda: bf.bar_slice(2, 5, 0.01, 1.3, 0.7, "approximate").matrix,
            lambda: bf.bar_slice(2, 5, 0, 1.3).matrix,
            lambda: bf.symmetrized_bar_slice(1, 5, 0.01, 1.3, 0.7).matrix,
            lambda: bf.symmetrized_bar_slice(2, 5, 0.01, 1.3, 0.7).matrix,
            lambda: bf.adjoint_slice(bf.bar_slice(2, 5, 0.01, 1.3, 0.7)).matrix,
            lambda: bf.advection_matrix(2, 5, 1.3, 0.7, 0.01),
            lambda: bf.dipole_operator(3, 0.01, 1.3, 0.7).matrix,
            lambda: bf.symmetrized_dipole_operator(3, 0.01, 1.3, 0.7).matrix,
        ],
    )
    def test_real_builders_store_float64(self, build):
        assert build().dtype == np.float64

    def test_commutator_purely_imaginary(self):
        c = bf.commutator_matrix(2, 5, 1.3, 0.7, 0.01)
        assert c.dtype == np.complex128
        assert not np.any(c.real)


class TestCouplingFactor:
    def test_one_at_excluded_zero_mode(self):
        assert operators._coupling_factor(0, 0) == 1.0
        ks = np.arange(-3, 4)
        g = operators._coupling_factor(ks[:, None], ks[None, :])
        assert g[3, 3] == 1.0
        assert g[4, 3] == 0.0  # (k, l) = (1, 0)
        assert g[3, 5] == 1.0 - 1.0 / 4

    def test_approximate_is_one(self):
        ks = np.arange(-3, 4)
        g = operators._coupling_factor(ks[:, None], ks[None, :], "approximate")
        assert g.shape == (7, 7) and np.all(g == 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            operators._coupling_factor(1, 2, "symmetrized")


class TestAdvectionAndCommutator:
    def test_advection_skew_hermitian(self):
        b = bf.advection_matrix(2, 8, 1.3, t=0.5, nu=0.01)
        assert np.abs(b + b.conj().T).max() == 0.0

    def test_zero_amplitude(self):
        assert np.abs(bf.advection_matrix(1, 5, 0.0)).max() == 0.0
        assert np.abs(bf.commutator_matrix(1, 5, 0.0)).max() == 0.0

    def test_operator_norm_bound(self):
        # largest singular value stays below |a ell| e^{-nu t}
        b = bf.advection_matrix(1, 20, 1.0)
        assert np.linalg.norm(b, 2) <= 1.0
        c = bf.commutator_matrix(1, 20, 1.0)
        assert np.linalg.norm(c, 2) <= 1.0

    def test_commutator_identity_interior(self):
        checks.check_commutator_identity()

    def test_advection_commutator_commute_interior(self):
        checks.check_advection_commutes_with_commutator()


class TestAdjoint:
    def test_diagonal_self_adjoint(self):
        op = bf.bar_slice(2, 5, 0.01, 0.0)
        adj = bf.adjoint_slice(op)
        assert np.abs(adj.matrix - op.matrix).max() == 0.0
        assert adj.variant == "adjoint"

    def test_involution(self):
        op = bf.bar_slice(2, 5, 0.01, 1.0)
        back = bf.adjoint_slice(bf.adjoint_slice(op))
        assert np.abs(back.matrix - op.matrix).max() == 0.0

    def test_shear_modes_are_adjoint_null_directions(self):
        checks.check_anomalous_mode_exactness()


class TestSymmetrizedSlice:
    def test_multiplier_value(self):
        # entry (1, 2) <- (0, 2) coupling carries sqrt(4/5) * sqrt(1 - 1/4)
        op = bf.symmetrized_bar_slice(2, 5, 0.0, 1.0)
        i = op.trunc
        got = op.matrix[i + 1, i]
        want = -(2 / 2) * math.sqrt(1 - 1 / 5) * math.sqrt(1 - 1 / 4)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert math.sqrt(1 - 1 / 5) == pytest.approx(0.894427, abs=1e-6)

    def test_ell_one_excludes_center(self):
        op = bf.symmetrized_bar_slice(1, 6, 0.001, 1.0)
        assert op.dim == 12
        assert 0 not in op.wavenumbers.tolist()

    def test_advective_part_exactly_skew(self):
        for ell in (1, 2, 3):
            op = bf.symmetrized_bar_slice(ell, 8, 0.001, 1.0)
            adv = op.matrix - np.diag(np.diag(op.matrix))
            assert np.abs(adv + adv.conj().T).max() == 0.0

    def test_diagonal_is_diffusion(self):
        op = bf.symmetrized_bar_slice(2, 6, 0.003, 1.0)
        want = -0.003 * (op.wavenumbers**2 + 4)
        assert np.abs(np.diag(op.matrix) - want).max() == 0.0


class TestDipoleOperator:
    def test_row_k0_matches_bar_slice(self):
        d = bf.dipole_operator(3, 0.001, 1.0)
        idx = d.mode_index()
        r = idx[(0, 2)]
        b = bf.bar_slice(2, 3, 0.001, 1.0)
        assert d.matrix[r, r] == b.matrix[3, 3]
        assert d.matrix[r, idx[(-1, 2)]] == b.matrix[3, 2]
        assert d.matrix[r, idx[(1, 2)]] == b.matrix[3, 4]
        # l-couplings vanish on the k = 0 column
        assert d.matrix[r, idx[(0, 1)]] == 0.0
        assert d.matrix[r, idx[(0, 3)]] == 0.0

    def test_zero_amplitude_diagonal(self):
        d = bf.dipole_operator(3, 0.01, 0.0)
        lap = (d.modes**2).sum(axis=1)
        assert np.abs(d.matrix - np.diag(-0.01 * lap)).max() == 0.0

    def test_neighbor_couplings_only(self):
        d = bf.dipole_operator(3, 0.001, 1.0)
        idx = d.mode_index()
        for (k, l), r in idx.items():
            for (kp, lp), c in idx.items():
                if d.matrix[r, c] != 0 and (k, l) != (kp, lp):
                    assert abs(k - kp) + abs(l - lp) == 1

    def test_symmetrized_skew(self):
        ds = bf.symmetrized_dipole_operator(4, 0.001, 1.0)
        adv = ds.matrix - np.diag(np.diag(ds.matrix))
        assert np.abs(adv + adv.conj().T).max() < 1e-15
        assert ds.dim == (2 * 4 + 1) ** 2 - 5


class TestAnomalousGenerator:
    def test_diagonal_entries(self):
        a = bf.anomalous_generator(0.01, 1.0, 0.0, 3)
        assert a[2, 2] == -5 * 0.01  # second even coordinate
        assert a[1, 1] == -2 * 0.01  # first odd coordinate

    def test_coupling_magnitude(self):
        a = bf.anomalous_generator(0.01, 1.0, 0.0, 3)
        assert a[1, 2] == pytest.approx(0.4, rel=1e-15, abs=0)  # (a/2)(1 - 1/5)
        assert a[1, 0] == 0.0  # center mode never drives

    def test_zero_amplitude(self):
        a = bf.anomalous_generator(0.01, 0.0, 0.0, 2)
        assert np.abs(a - np.diag(np.diag(a))).max() == 0.0

    def test_tridiagonal(self):
        a = bf.anomalous_generator(0.01, 1.0, 0.0, 4)
        mask = np.abs(np.subtract.outer(np.arange(10), np.arange(10))) > 1
        assert np.abs(a[mask]).max() == 0.0

    def test_jmax_validation(self):
        with pytest.raises(ValueError):
            bf.anomalous_generator(0.01, 1.0, 0.0, 0)


class TestTwoDimensionalGenerator:
    def test_matches_slice_on_one_row(self):
        nu, a, t = 0.02, 1.1, 0.4
        w = bf.random_field(6, 4, 8)
        lw = bf.apply_bar_generator(w, nu, a, t, "full")
        for ell in (-2, 1, 3):
            op = bf.bar_slice(ell, 6, nu, a, t, "full")
            want = op.matrix @ w.coeffs[:, ell + 4]
            assert np.abs(lw.coeffs[:, ell + 4] - want).max() < 1e-14

    def test_shear_mode_exact(self):
        checks.check_anomalous_mode_exactness()


class TestMatrixSerialization:
    def test_round_trip(self, tmp_path):
        op = bf.bar_slice(2, 5, 0.001, 1.0)
        path = tmp_path / "op.csv"
        bf.save_matrix(op, path)
        entries, meta = bf.load_matrix(path)
        assert meta["variant"] == "full" and meta["ell"] == 2
        for (r, c), v in entries.items():
            assert v == op.matrix[r, c]
        assert len(entries) == np.count_nonzero(op.matrix)

    def test_rebuild_from_sidecar(self, tmp_path):
        op = bf.symmetrized_dipole_operator(3, 0.001, 1.0)
        path = tmp_path / "dip.csv"
        bf.save_matrix(op, path)
        with open(str(path) + ".meta.json") as fh:
            meta = json.load(fh)
        rebuilt = operators.build_from_params(meta)
        assert np.abs(rebuilt.matrix - op.matrix).max() == 0.0
