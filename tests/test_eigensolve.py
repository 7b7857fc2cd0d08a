import math

import numpy as np
import pytest

import barflow as bf
from barflow import checks, eigensolve

# A test whose body is one ``checks.check_*`` call runs that registry
# invariant; its cases and bounds are stated in barflow/checks.py only.


class TestComputeSpectrum:
    def test_diagonal_case_exact(self):
        # a = 0: eigenvalues are exactly -nu (k^2 + 4), k = -3..3
        op = bf.bar_slice(2, 3, nu=0.01, a=0.0)
        spec = bf.compute_spectrum(op)
        want = sorted((-0.01 * (k * k + 4) for k in range(-3, 4)), reverse=True)
        assert np.allclose(spec.eigenvalues.real, want, atol=1e-15)
        assert np.abs(spec.eigenvalues.imag).max() < 1e-15

    def test_three_by_three_characteristic_roots(self):
        # hand-expanded characteristic polynomial of the 3x3 approximate
        # slice (ell=1, N=1, nu=1, amp=1) is (x + 2)(x^2 + 3x + 5/2)
        op = bf.bar_slice(1, 1, nu=1.0, a=1.0, variant="approximate")
        spec = bf.compute_spectrum(op)
        want = np.array([-1.5 + 0.5j, -1.5 - 0.5j, -2.0 + 0.0j])
        got = sorted(spec.eigenvalues, key=lambda z: (z.real, z.imag))
        want = sorted(want, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-14)
        # cross-check against an independent root finder
        roots = np.roots([1.0, 5.0, 8.5, 5.0])
        roots = sorted(roots, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, roots, atol=1e-12)

    def test_nonfinite_rejected(self):
        op = bf.bar_slice(2, 3, 0.01, 1.0)
        bad = op.matrix.copy()
        bad[0, 0] = np.nan
        broken = bf.OperatorSlice(2, 3, 0.01, 1.0, 0.0, "full", op.wavenumbers, bad)
        with pytest.raises(ValueError):
            bf.compute_spectrum(broken)

    def test_sort_order(self):
        spec = bf.compute_spectrum(bf.bar_slice(2, 20, 1e-3, 1.0))
        re = spec.eigenvalues.real
        assert np.all(np.diff(re) <= 1e-9 * max(1.0, np.abs(re).max()))

    def test_symmetrized_stable(self):
        checks.check_symmetrized_stability()


def _slices(trunc):
    """Every kind of bar slice the package builds."""
    out = [
        bf.bar_slice(ell, trunc, 1e-3, 1.0, variant=variant)
        for ell in (1, 2, 3)
        for variant in ("full", "approximate")
    ]
    out += [bf.symmetrized_bar_slice(ell, trunc, 1e-3, 1.0) for ell in (1, 2)]
    out.append(bf.adjoint_slice(bf.bar_slice(2, trunc, 1e-3, 1.0)))
    return out


def _hausdorff(a, b):
    dist = np.abs(a[:, None] - b[None, :])
    return max(dist.min(axis=0).max(), dist.min(axis=1).max())


def _parity_map(ks):
    """(J w)(k) = (-1)^k w(-k) as a dense matrix on the wavenumbers ``ks``."""
    mirror = {int(k): i for i, k in enumerate(ks)}
    jmat = np.zeros((len(ks), len(ks)))
    for i, k in enumerate(ks):
        jmat[i, mirror[-int(k)]] = (-1.0) ** int(k)
    return jmat


class TestParitySectors:
    @pytest.mark.parametrize("op", _slices(30), ids=lambda op: f"{op.variant}-{op.ell}")
    def test_slices_commute_with_parity(self, op):
        jmat = _parity_map(op.wavenumbers)
        assert np.array_equal(jmat @ op.matrix, op.matrix @ jmat)
        assert not np.any(op.matrix.imag)

    @pytest.mark.parametrize("op", _slices(30), ids=lambda op: f"{op.variant}-{op.ell}")
    def test_sector_spectrum_matches_dense_complex(self, op):
        blocks = eigensolve._parity_sectors(op.wavenumbers, op.matrix.real)
        assert blocks is not None
        assert sum(b.shape[0] for b in blocks) == op.dim
        assert all(b.dtype == np.float64 for b in blocks)
        got = bf.compute_spectrum(op).eigenvalues
        want = np.linalg.eigvals(op.matrix)
        assert len(got) == op.dim
        assert _hausdorff(got, want) <= 1e-9 * np.abs(want).max()

    def test_parity_breaking_slice_falls_back(self):
        op = bf.bar_slice(2, 20, 1e-3, 1.0)
        bad = op.matrix.copy()
        bad[3, 4] += 0.25
        broken = bf.OperatorSlice(2, 20, 1e-3, 1.0, 0.0, "full", op.wavenumbers, bad)
        assert eigensolve._parity_sectors(broken.wavenumbers, bad.real) is None
        got = bf.compute_spectrum(broken).eigenvalues
        want = np.linalg.eigvals(bad)
        assert len(got) == broken.dim
        assert _hausdorff(got, want) <= 1e-9 * np.abs(want).max()

    def test_complex_slice_falls_back(self):
        op = bf.bar_slice(2, 20, 1e-3, 1.0)
        bad = op.matrix.astype(complex)
        bad[5, 5] += 0.01j
        broken = bf.OperatorSlice(2, 20, 1e-3, 1.0, 0.0, "full", op.wavenumbers, bad)
        got = bf.compute_spectrum(broken).eigenvalues
        want = np.linalg.eigvals(bad)
        assert len(got) == broken.dim
        assert _hausdorff(got, want) <= 1e-9 * np.abs(want).max()
        # the perturbed eigenvalue is not part of a conjugate pair
        assert not np.allclose(np.sort_complex(got), np.sort_complex(got.conj()))

    @pytest.mark.parametrize("jmax", [3, 10])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_even_sector_matches_anomalous_generator(self, jmax, sign):
        # the independent hand-written oracle: the closed system for the
        # anomalous coordinates is the J = +1 sector of the ell = 1 slice
        op = bf.bar_slice(1, 2 * jmax + 1, 1e-3, 1.0)
        even, _ = eigensolve._parity_sectors(op.wavenumbers, op.matrix.real)
        got = np.sort_complex(np.linalg.eigvals(even))
        want = np.sort_complex(np.linalg.eigvals(bf.anomalous_generator(1e-3, 1.0, 0.0, jmax, sign)))
        assert np.abs(got - want).max() <= 1e-13

    def test_real_non_slice_matrix(self):
        op = bf.symmetrized_dipole_operator(4, 1e-3, 1.0)
        got = bf.compute_spectrum(op).eigenvalues
        want = np.linalg.eigvals(op.matrix)
        assert got.dtype == complex
        assert _hausdorff(got, want) <= 1e-9 * np.abs(want).max()


class TestLeastDecaying:
    def test_diagonal(self):
        spec = bf.compute_spectrum(bf.bar_slice(2, 3, nu=0.01, a=0.0))
        assert bf.least_decaying(spec) == pytest.approx(-0.04, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bf.least_decaying(bf.Spectrum(np.array([]), {}))

    def test_symmetrized_nonpositive(self):
        checks.check_symmetrized_stability()


class TestNuSweep:
    def test_six_spectra(self):
        nus = [0.005, 0.002, 0.001, 0.0005, 0.00025, 0.0001]
        sweep = bf.nu_sweep(2, 30, nus)
        assert [nu for nu, _ in sweep] == nus
        assert all(len(spec) == 61 for _, spec in sweep)

    def test_single_member(self):
        sweep = bf.nu_sweep(2, 10, [1e-3])
        assert len(sweep) == 1

    def test_diffusive_baseline_slope_one(self):
        nus = [0.004, 0.002, 0.001, 0.0005]
        sweep = bf.nu_sweep(2, 10, nus, amplitude=0.0)
        for nu, spec in sweep:
            assert bf.least_decaying(spec).real == pytest.approx(-4 * nu, rel=1e-12, abs=0)
        fit = bf.fit_scaling(sweep)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            bf.nu_sweep(2, 10, [1e-3, 1e-3])
        with pytest.raises(ValueError):
            bf.nu_sweep(2, 10, [-1e-3])


class TestFitScaling:
    def test_exact_square_root_law(self):
        nus = [1e-2, 1e-3, 1e-4, 1e-5]
        samples = [(nu, 3.7 * math.sqrt(nu)) for nu in nus]
        fit = bf.fit_scaling(samples)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            bf.fit_scaling([(1e-3, 0.1), (1e-4, 0.03)])

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            bf.fit_scaling([(1e-3, 0.1), (1e-4, 0.0), (1e-5, 0.01)])

    def test_full_operator_square_root_scaling(self):
        # small-truncation rerun of the single-eigenvalue scaling study
        nus = [0.005, 0.002, 0.001, 0.0005, 0.00025, 0.0001]
        sweep = bf.nu_sweep(2, 60, nus)
        fit = bf.fit_scaling(sweep)
        assert 0.4 <= fit.slope <= 0.6


class TestCollapseTable:
    def test_count_one_matches_least_decaying(self):
        rows = bf.collapse_table(2, 15, [1e-3, 5e-4], count=1)
        for rank, nu, val in rows:
            assert rank == 1
            spec = bf.compute_spectrum(bf.bar_slice(2, 15, nu, 1.0))
            assert val == pytest.approx(
                bf.least_decaying(spec).real / math.sqrt(nu), rel=1e-12, abs=0
            )

    def test_shape(self):
        rows = bf.collapse_table(2, 10, [1e-3, 5e-4, 2.5e-4], count=6)
        assert len(rows) == 18
        assert {r[0] for r in rows} == set(range(1, 7))

    def test_count_capped(self):
        with pytest.raises(ValueError):
            bf.collapse_table(2, 3, [1e-3], count=100)


class TestSpectralInvariants:
    def test_eigen_residual(self):
        checks.check_eigen_residual()

    def test_adjoint_conjugate_spectrum(self):
        checks.check_adjoint_spectrum()

    def test_trace_identity(self):
        checks.check_trace()

    def test_truncation_stability(self):
        checks.check_truncation_stability()
