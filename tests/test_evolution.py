import math
import re
import tracemalloc
import warnings

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
        for dt, t_final in ((math.inf, 5.0), (math.nan, 5.0), (0.1, math.inf), (0.1, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                bf.IntegratorConfig(dt=dt, t_final=t_final)


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

    def test_flagged_asymmetric_field_rejected(self):
        # a flagged field is exactly conjugate-symmetric, so no asymmetry
        # reaches the integrators
        c = bf.random_field(6, 6, 1).coeffs.copy()
        c[0, 0] += 1e-10  # what(-6, -6)
        assert conjugate_asymmetry(bf.SpectralField(6, 6, c)) > 0.0
        with pytest.raises(ValueError, match="conjugate symmetry"):
            bf.SpectralField(6, 6, c, real_valued=True)

    @pytest.mark.parametrize("dt, warns", [(0.05, True), (0.04, False), (0.0443, True), (0.0441, False)])
    def test_advective_number_guard(self, dt, warns):
        # criterion 4's field: dt |a| max|l| = 64 dt against the RK4 limit
        # 2 sqrt(2) = 2.8284, so the limit lies between dt = 0.0441 (2.8224)
        # and 0.0443 (2.8352)
        w0 = bf.remove_anomalous(bf.random_field(64, 64, seed=11))
        cfg = bf.IntegratorConfig(dt=dt, t_final=dt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = bf.evolve_linear(w0, 1e-3, 1.0, "full", cfg)
        assert traj.params["advective_number"] == dt * 64
        assert [str(w.message).startswith("advective number") for w in caught] == ([True] if warns else [])
        assert all(w.category is RuntimeWarning for w in caught)

    def test_advective_limit_is_the_rk4_stability_bound(self):
        # |R(iy)|^2 = 1 - y^6/72 + y^8/576 for the RK4 polynomial R, which
        # is 1 again at y^2 = 8 and exceeds 1 beyond it
        def gain(y):
            z = 1j * y
            return abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 2

        for y in (0.5, 1.0, 2.0, 2.8, 3.0):
            assert gain(y) == pytest.approx(1 - y**6 / 72 + y**8 / 576, rel=1e-14, abs=0)
        assert 8**3 / 72 == 8**4 / 576
        limit = bf.evolution.ADVECTIVE_LIMIT
        assert limit * limit == pytest.approx(8.0, rel=4e-16, abs=0)
        assert gain(limit * (1 - 1e-6)) < 1.0 < gain(limit * (1 + 1e-6))

    def test_advective_number_of_the_advanced_block(self):
        # dt |a| max|l| over the block: 0 for the column l = 0 alone and for
        # the empty block of an unflagged zero field; a flagged field
        # advances l = 0..ny whatever it holds
        cfg = bf.IntegratorConfig(dt=0.25, t_final=0.25)
        cases = [
            (bf.mode_field(4, 4, {(1, 0): 1.0}), 0.0),
            (bf.SpectralField(4, 4), 0.0),
            (bf.zero_field(4, 4), 0.25 * 2.0 * 4),
            (bf.seeded_row_field(4, 4, -3, 0), 0.25 * 2.0 * 3),
            (bf.mode_field(4, 4, {(1, 0): 0.5, (-1, 0): 0.5}, real_valued=True), 0.25 * 2.0 * 4),
        ]
        for w0, want in cases:
            assert bf.evolve_linear(w0, 0.01, -2.0, "full", cfg).params["advective_number"] == want

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


def gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def sum_rounding_terms(shape):
    """n of the bound 2 gamma_n between two evaluations of one quadratic
    diagnostic of a coefficient array of ``shape``.

    Each diagnostic (l2^2, enstrophy, grad_norm_sq, x_norm^2) is a sum of
    nonnegative terms, and a sum computed in any order is within gamma_n of
    the exact one when every term passes through at most n roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2); two such evaluations are within 2 gamma_n of each other.
    The recorder sums the 2 M squared real and imaginary parts of an array
    of M coefficients (its block, weighted by each column's multiplicity),
    the full-array oracles M terms |c|^2, so a term meets at most 2 M - 1
    additions, plus 8 roundings that form it (hypot, square, weight) and
    scale its sum (by amp^2, the sum of the two X-norm sums, and the factor
    (2 pi)^2 or 2 pi).  The square root of l2 and x_norm halves the bound.
    A square that underflows adds an absolute error of at most 2^-1074
    instead, negligible against the sums compared here."""
    return 2 * math.prod(shape) + 8


def within_sum_bound(got, want, shape):
    """|got - want| <= 2 gamma_n |want|, n = sum_rounding_terms(shape)."""
    return abs(got - want) <= 2 * gamma(sum_rounding_terms(shape)) * abs(want)


def narrowed_columns(states, flagged):
    """The columns of the full array that a narrowing run holds in its
    block at each step of the reference ``states``, with their mirrors for
    a reality-flagged field: the block it starts with, narrowed after each
    ``FLUSH_EVERY``-th step (recorded before it narrows) to the columns
    that are nonzero in the reference there, keeping l = 0 if flagged."""
    ny = (states[0].shape[1] - 1) // 2
    ls = np.arange(-ny, ny + 1)

    def block(c):
        live = ls[np.abs(c).any(axis=0)]
        if flagged:
            return np.abs(ls) <= np.abs(live).max(initial=0)
        return (ls >= live.min()) & (ls <= live.max()) if live.size else np.zeros(ls.shape, bool)

    keep = np.ones(ls.shape, bool) if flagged else block(states[0])
    kept = []
    for i, c in enumerate(states):
        kept.append(keep)
        if i and i % bf.evolution.FLUSH_EVERY == 0:
            keep = block(c)
    return kept


def matches_narrowed_reference(got, ref, kept, flagged):
    """A snapshot of a narrowing run against the full-array reference: the
    same bits on every advanced column (l >= 0 if ``flagged``; the columns
    l < 0 are then conjugate flips, which may differ in the sign of a zero
    part) that is nonzero in the reference, equal in value everywhere, and
    +0 in every part of the columns not ``kept``."""
    nonzero = np.abs(ref).any(axis=0)
    if flagged:
        nonzero[: (ref.shape[1] - 1) // 2] = False
    dropped = np.ascontiguousarray(got[:, ~kept])
    return (same_bits(np.ascontiguousarray(got[:, nonzero]), np.ascontiguousarray(ref[:, nonzero]))
            and np.array_equal(got, ref) and same_bits(dropped, np.zeros_like(dropped)))


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
            (lambda: bf.seeded_row_field(48, 2, 2, 1), "approximate"),  # the hypo workload's shape
        ],
        ids=["anomalous-free", "anomalous-free-approximate", "random", "zero", "one-column",
             "two-columns", "real-coefficients", "hypo-shaped"],
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
            assert within_sum_bound(traj.diagnostics["l2"][i], math.sqrt(float((np.abs(ref) ** 2).sum())), ref.shape)
        assert traj.params["flushed_parts"] == 0


def span_field(nx, ny, seed):
    """A field that is not reality-flagged, with random coefficients on the
    columns l = -1, 0, +1 and 2."""
    rng = np.random.default_rng(seed)
    c = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
    c[:, ny - 1 : ny + 3] = rng.standard_normal((2 * nx + 1, 4)) + 1j * rng.standard_normal((2 * nx + 1, 4))
    c[nx, ny] = 0.0
    return bf.SpectralField(nx, ny, c)


def matches_full_array_diagnostics(diagnostics, step, ref):
    """The recorded l2, enstrophy and grad_norm_sq of ``step`` within the
    rounding bound of :func:`full_array_diagnostics` of ``ref``, and
    max_pq, which reads the same parts in the same order, equal."""
    names = ("l2", "enstrophy", "grad_norm_sq", "max_pq")
    got = [float(diagnostics[name][step]) for name in names]
    want = full_array_diagnostics(ref)
    return all(within_sum_bound(g, w, ref.shape) for g, w in zip(got[:3], want[:3])) and got[3] == want[3]


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
    pairs = rows + bf.fields.parity(rows)
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
            assert matches_full_array_diagnostics(traj.diagnostics, step, ref), f"step {step}"
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


def test_block_integrator_matches_reference_property():
    # random shapes, flags, populated columns, variants and step counts; at
    # nu = 20 the columns |l| >= 4, 3 and 2 die by the flush steps 64, 128
    # and 192, so the block narrows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dt, a = 0.05, 1.5

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.example(nx=5, ny=6, flagged=False, columns={-6, -3, 0, 2, 5}, seed=3, nu=20.0,
                        variant="full", n_steps=3 * bf.evolution.FLUSH_EVERY + 2)
    @hypothesis.example(nx=4, ny=6, flagged=True, columns={0, 1, 4, 6}, seed=5, nu=20.0,
                        variant="approximate", n_steps=2 * bf.evolution.FLUSH_EVERY + 1)
    @hypothesis.given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        flagged=st.booleans(),
        columns=st.sets(st.integers(-6, 6)),
        seed=st.integers(0, 2**16),
        nu=st.sampled_from([0.02, 4.0, 20.0]),
        variant=st.sampled_from(["full", "approximate"]),
        n_steps=st.integers(1, 3 * bf.evolution.FLUSH_EVERY + 2),
    )
    def check(nx, ny, flagged, columns, seed, nu, variant, n_steps):
        ls = np.arange(-ny, ny + 1)
        keep = np.isin(np.abs(ls) if flagged else ls, sorted(columns))
        if flagged:
            c = bf.random_field(nx, ny, seed).coeffs * keep  # zeroes l and -l together
        else:
            rng = np.random.default_rng(seed)
            c = (rng.standard_normal((2 * nx + 1, 2 * ny + 1)) + 1j * rng.standard_normal((2 * nx + 1, 2 * ny + 1))) * keep
            c[nx, ny] = 0.0
        w0 = bf.SpectralField(nx, ny, c, real_valued=flagged)
        want, flushed = reference_if_rk4(c, nu, a, dt, n_steps, approximate=variant == "approximate", flush=True)
        traj = bf.evolve_linear(w0, nu, a, variant, bf.IntegratorConfig(dt=dt, t_final=n_steps * dt))
        kept = narrowed_columns(want, flagged)
        assert traj.params["flushed_parts"] == flushed
        for step, (got, ref) in enumerate(zip(traj.fields, want)):
            assert matches_narrowed_reference(got.coeffs, ref, kept[step], flagged), f"step {step}"
        widths = [int(np.count_nonzero(k[ny:] if flagged else k)) for k in kept[1:]]
        assert traj.params["column_steps"] == sum(widths)

    check()


def test_recorder_matches_full_array_oracles_property():
    # the recorder's sums over a block against the whole-array oracles, on
    # every layout an integrator hands it: the columns l >= 0 of a flagged
    # field, the same block after it narrows, the span of an unflagged
    # field, and the nonlinear state (the columns l = 0..cut of the rows
    # k = -cut..cut, cut = (m - 1) // 3 on an m-point grid)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        layout=st.sampled_from(["flagged", "narrowed", "unflagged", "nonlinear"]),
        nx=st.integers(1, 9),
        ny=st.integers(1, 9),
        grid=st.sampled_from([16, 32, 64]),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-100, 1.0, 1e100]),
        nu=st.sampled_from([1e-4, 0.02, 4.0]),
        a=st.sampled_from([-1.5, 1.0]),
        t=st.sampled_from([0.0, 0.7, 250.0]),
        data=st.data(),
    )
    def check(layout, nx, ny, grid, seed, scale, nu, a, t, data):
        if layout == "nonlinear":
            nx = ny = (grid - 1) // 3
        rng = np.random.default_rng(seed)
        ls = np.arange(-ny, ny + 1)
        if layout == "unflagged":
            lo = data.draw(st.integers(0, 2 * ny), "lo")
            hi = data.draw(st.integers(lo + 1, 2 * ny + 1), "hi")
            c = rng.standard_normal((2 * nx + 1, 2 * ny + 1)) + 1j * rng.standard_normal((2 * nx + 1, 2 * ny + 1))
            c[:, :lo] = c[:, hi:] = 0.0
            cols = (lo, hi)
        else:
            width = data.draw(st.integers(1, ny + 1), "width") if layout == "narrowed" else ny + 1
            c = bf.random_field(nx, ny, seed).coeffs * (np.abs(ls) < width)
            cols = (ny, ny + width)
        c[:, ny] = 0.0  # the mixed norm needs an empty column l = 0
        w = bf.SpectralField(nx, ny, scale * c, real_valued=layout != "unflagged")
        shape = w.coeffs.shape

        # a flagged block starts with the columns l >= 0; a narrowed one
        # rebinds to its live columns after step 0
        start = (ny, 2 * ny + 1) if layout == "narrowed" else cols
        block = w.coeffs[:, start[0] : start[1]].copy()
        rec = bf.evolution._Recorder(nx, ny, w.real_valued, 1, 10, None, start, block, (nu, a))
        rec.record(0, t)
        block = w.coeffs[:, cols[0] : cols[1]].copy()
        rec.bind(cols, block)
        rec.record(1, t)
        traj = rec.finish({})
        assert np.array_equal(traj.fields[-1].coeffs, w.coeffs)
        x_norm = math.sqrt(bf.x_norm_sq(w, nu, a, t))
        for step in (0, 1):
            d = {name: float(values[step]) for name, values in traj.diagnostics.items()}
            assert within_sum_bound(d["l2"], w.norm(), shape), step
            assert within_sum_bound(d["enstrophy"], bf.enstrophy(w), shape), step
            assert within_sum_bound(d["grad_norm_sq"], bf.grad_norm_sq(w), shape), step
            assert within_sum_bound(d["x_norm"], x_norm, shape), step
            assert d["max_pq"] == bf.anomalous_content(w), step

    check()


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
        # each advanced column l >= 0 that is nonzero in the reference holds
        # its bits; the columns l < 0 are their conjugate flips, equal to the
        # reference in value but not in the sign of a part that underflowed
        # to zero; and the columns the run has dropped hold +0
        kept = narrowed_columns(want, flagged=True)
        for i, (got, ref) in enumerate(zip(traj.fields, want)):
            assert matches_narrowed_reference(got.coeffs, ref, kept[i], flagged=True), f"step {i}"


class TestNarrowing:
    # the TestSubnormalFlush field at nu = 1 over three flush periods and a
    # few steps: its block of 17 columns narrows to 15, 11 and 9
    N, NU, A, DT, N_STEPS = 16, 1.0, 1.0, 0.05, 3 * bf.evolution.FLUSH_EVERY + 5

    def flagged_field(self, clear_l0=False):
        c = bf.random_field(self.N, self.N, 11).coeffs.copy()
        sign = np.where(np.arange(-self.N, self.N + 1) % 2 == 0, 1.0, -1.0)[:, None]
        c = (c + sign * c[::-1, :]) / 2
        if clear_l0:
            c[:, self.N] = 0.0
        return bf.SpectralField(self.N, self.N, c, real_valued=True)

    def check_run(self, w0, sample_every, x_norm=False):
        """The trajectory, the reference states and the columns kept."""
        want, flushed = reference_if_rk4(w0.coeffs, self.NU, self.A, self.DT, self.N_STEPS, flush=True)
        cfg = bf.IntegratorConfig(dt=self.DT, t_final=self.N_STEPS * self.DT, sample_every=sample_every)
        traj = bf.evolve_linear(w0, self.NU, self.A, "full", cfg, x_norm=x_norm)
        kept = narrowed_columns(want, w0.real_valued)
        assert traj.params["flushed_parts"] == flushed
        snapshot_steps = sorted({*range(0, self.N_STEPS + 1, sample_every), self.N_STEPS})
        assert np.array_equal(traj.field_times, np.array(snapshot_steps) * self.DT)
        for step, got in zip(snapshot_steps, traj.fields):
            assert matches_narrowed_reference(got.coeffs, want[step], kept[step], w0.real_valued), f"step {step}"
        for step, ref in enumerate(want):
            assert matches_full_array_diagnostics(traj.diagnostics, step, ref), f"step {step}"
        # the block advanced into step i is the one the snapshot at i shows
        ny = self.N
        widths = [int(np.count_nonzero(k[ny:] if w0.real_valued else k)) for k in kept[1:]]
        assert traj.params["column_steps"] == sum(widths)
        assert traj.params["column_steps"] < self.N_STEPS * widths[0]
        return traj, want, kept

    @pytest.mark.parametrize("sample_every", [1, 50])
    def test_flagged_run_narrows(self, sample_every):
        # with sample_every = 50 the full array is last written at step 50,
        # before the columns that die by step 64 are dropped
        _, _, kept = self.check_run(self.flagged_field(), sample_every)
        assert [int(np.count_nonzero(kept[i])) for i in (64, 65, 129, 193)] == [33, 29, 21, 17]

    def test_x_norm_sees_the_narrowed_field(self):
        nu, a = self.NU, self.A
        traj, want, _ = self.check_run(self.flagged_field(clear_l0=True), 1, x_norm=True)
        for step, ref in enumerate(want):
            x = bf.x_norm_sq(bf.SpectralField(self.N, self.N, ref), nu, a, step * self.DT)
            assert within_sum_bound(traj.diagnostics["x_norm"][step], math.sqrt(x), ref.shape), f"step {step}"

    def test_unflagged_block_narrows_from_both_ends(self):
        # columns l = -13..11: the two ends die at different flush steps
        n = self.N
        rng = np.random.default_rng(7)
        c = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        c[:, n - 13 : n + 12] = rng.standard_normal((2 * n + 1, 25)) + 1j * rng.standard_normal((2 * n + 1, 25))
        c[n, n] = 0.0
        _, _, kept = self.check_run(bf.SpectralField(n, n, c), 1)
        ls = np.arange(-n, n + 1)
        first, last = ls[kept[0]][[0, -1]], ls[kept[-1]][[0, -1]]
        assert list(first) == [-13, 11]
        assert last[0] > -13 and last[1] < 11


def five_transform_rhs(w):
    """-N(w) and the velocity u1, u2 on the full m x m FFT lattice with five
    complex transforms: the dealiased advection term written apart from
    the package's block version."""
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
        assert max(conjugate_asymmetry(f) for f in traj.fields) == 0.0

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_l0_column_exactly_conjugate(self, m):
        # the block stores k and -k of the column l = 0, which the transforms
        # leave conjugate only to rounding
        n = (m - 1) // 3
        block = bf.random_field(n, n, 5).coeffs[:, n:].copy()
        out = np.empty_like(block)
        bf.evolution._block_advection(m)(block, out)
        col = out[:, 0]
        assert np.abs(col).max() > 0
        assert np.array_equal(col[::-1], np.conj(col))  # out(-k, 0) == conj(out(k, 0))

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_is_the_half_spectrum_transform(self, m):
        # transforming only the block's columns, one axis at a time, is bit
        # for bit irfft2/rfft2 of the zero-padded rfft2 half-spectrum
        n = (m - 1) // 3
        rows = np.arange(-n, n + 1) % m
        block = bf.random_field(n, n, 5).coeffs[:, n:].copy()
        out = np.empty_like(block)
        grid = bf.evolution._block_advection(m)(block, out)

        half = np.zeros((m, m // 2 + 1), dtype=complex)
        half[rows, : n + 1] = block
        kx, ky = (np.fft.fftfreq(m) * m)[:, None], np.arange(m // 2 + 1, dtype=float)[None, :]
        k2 = kx * kx + ky * ky
        k2[0, 0] = 1.0
        mult = np.stack(np.broadcast_arrays(1j * ky / k2, -1j * kx / k2, 1j * kx, 1j * ky)) * (m * m)
        want_grid = np.fft.irfft2(mult * half, s=(m, m))
        want_grid[2] *= want_grid[0]
        want_grid[3] *= want_grid[1]
        want_grid[2] += want_grid[3]
        want = np.fft.rfft2(want_grid[2])[rows, : n + 1] * complex(-1.0 / (m * m))
        want[n, 0] = 0.0
        want[:n, 0] = np.conj(want[:n:-1, 0])
        assert same_bits(grid, want_grid)
        assert same_bits(out, want)

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_velocity_is_biot_savart(self, m):
        # planes 0 and 1 of the grid are the package's Biot-Savart velocity,
        # sampled from x = y = 0 (synthesize starts its samples at -pi)
        n = (m - 1) // 3
        w = bf.random_field(n, n, 5)
        block = w.coeffs[:, n:].copy()
        grid = bf.evolution._block_advection(m)(block, np.empty_like(block))
        u = bf.biot_savart(w)
        for plane, component in zip(grid[:2], (u.u1, u.u2)):
            want = np.roll(bf.synthesize(component, m, m)[2], (-(m // 2), -(m // 2)), axis=(0, 1))
            assert np.abs(plane - want).max() <= 1e-14 * np.abs(want).max()

    def test_rhs_makes_four_transform_calls(self, monkeypatch):
        # the benchmark tracer counts the transforms at their np.fft attributes
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        block = bf.random_field(10, 10, 5).coeffs[:, 10:].copy()
        bf.evolution._block_advection(32)(block, np.empty_like(block))
        assert sorted(calls) == ["fft", "ifft", "irfft", "rfft"]

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_returns_its_one_grid(self, m):
        n = (m - 1) // 3
        advect_into = bf.evolution._block_advection(m)
        grids = []
        for seed in (5, 6):
            block = bf.random_field(n, n, seed).coeffs[:, n:].copy()
            grids.append(advect_into(block, np.empty_like(block)))
        assert grids[0] is grids[1]

    @pytest.mark.parametrize("m", [32, 64])
    def test_rhs_allocates_less_than_a_grid_per_call(self, m):
        n = (m - 1) // 3
        block = bf.random_field(n, n, 5).coeffs[:, n:].copy()
        out = np.empty_like(block)
        advect_into = bf.evolution._block_advection(m)
        advect_into(block, out)  # warm-up
        tracemalloc.start()
        try:
            for _ in range(10):
                advect_into(block, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np.empty((4, m, m)).nbytes

    def test_max_cfl_of_a_negative_peak_velocity(self):
        # the largest |u| is a negative value: -w flips every velocity exactly
        m, dt = 32, 0.01
        n = (m - 1) // 3
        w0 = bf.random_field(n, n, 5)
        block = w0.coeffs[:, n:].copy()
        u = bf.evolution._block_advection(m)(block, np.empty_like(block))[:2]
        if u.max() > -u.min():
            w0, u = bf.SpectralField(n, n, -w0.coeffs, real_valued=True), -u
        assert -u.min() > u.max()
        traj = bf.evolve_nonlinear(w0, 0.01, bf.IntegratorConfig(dt=dt, t_final=dt, grid=m))
        assert traj.params["max_cfl"] == np.abs(u).max() * dt / (2 * math.pi / m)

    def test_recorded_from_block(self):
        # every step's diagnostics are those of the snapshot the recorder
        # builds, whose columns l < 0 carry no -0 imaginary part
        w0 = bf.random_field(5, 5, 3, decay=0.3)
        cfg = bf.IntegratorConfig(dt=1e-3, t_final=0.02, sample_every=1, grid=32)
        traj = bf.evolve_nonlinear(w0, 0.01, cfg)
        d = traj.diagnostics
        assert len(traj.fields) == 21
        for step, f in enumerate(traj.fields):
            shape = f.coeffs.shape
            assert within_sum_bound(d["l2"][step], f.norm(), shape), f"step {step}"
            assert within_sum_bound(d["enstrophy"][step], bf.fields.enstrophy(f), shape), f"step {step}"
            assert within_sum_bound(d["grad_norm_sq"][step], bf.fields.grad_norm_sq(f), shape), f"step {step}"
            assert d["max_pq"][step] == bf.fields.anomalous_content(f), f"step {step}"
            imag = f.coeffs[:, : f.ny].imag
            assert not np.signbit(imag[imag == 0.0]).any(), f"step {step}"

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
        block = w.coeffs[:, n:].copy()
        assert np.abs(block[n + 1 :, 0]).min() > 0  # the l = 0 column is populated
        out = np.empty_like(block)
        grid = bf.evolution._block_advection(m)(block, out)
        want, u1, u2 = five_transform_rhs(full)
        scale = np.abs(want).max()
        assert np.abs(out - want[np.arange(-n, n + 1) % m, : n + 1]).max() <= 1e-14 * scale
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
