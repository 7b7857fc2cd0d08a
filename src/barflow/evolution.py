"""Time integration for the linearized and nonlinear vorticity equations.

Both integrators step through one integrating-factor RK4 core,
:func:`_if_rk4`, and supply only their right-hand side and state layout:
the diffusion exp(-nu (k^2 + l^2) dt) is applied exactly and the rest
gets classical RK4 on the transformed variable.  The linear generator is
nonautonomous through the shear amplitude a e^{-nu t}, evaluated at the
RK stage times so the scheme keeps its fourth order.  Its columns of
fixed l never mix, so it advances only the block of columns that can be
nonzero: l >= 0 for a reality-flagged field, whose columns l < 0 are the
conjugate flips of the columns l > 0, and otherwise the span of the
columns populated at t = 0.  The flush of tiny parts (below) runs on that
block, and ``params["flushed_parts"]`` counts the parts of the full array
it stands for: a part flushed from a column l >= 1 of a reality-flagged
field counts twice.

The pseudo-spectral solver keeps its state on the real half-spectrum
(numpy's ``rfft2`` layout), so each right-hand side costs one batched
``irfft2`` and one ``rfft2``, and it checks the CFL number of every step
from the velocity its first stage forms; the largest is
``params["max_cfl"]``.

Trajectories record scalar diagnostics at every step and full field
snapshots every ``sample_every`` steps and at the final step (snapshots
bound the memory; the diagnostics stored at snapshot times are
re-derivable from the snapshots).  The times and every diagnostic are
stored in float64 arrays allocated for all steps up front.  A linear run
reads its diagnostics off the advanced block and builds the full array
only on the steps that hand a field out: step 0 (the initial field as
given), snapshot steps, the final step, and every step when extra
diagnostics are present.  The benchmark tracer's per-step clock is such an
extra diagnostic, so traced runs, like ``decay_check`` with its X-norm,
build the full array at every step, and traced step times include that
work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import PARSEVAL, _wrap, anomalous_content_raw, pair_content_raw
from .operators import _coupling_factor, _k_neighbours

# Over t ~ 1/nu the integrating factor exp(-nu k^2 t) drives the high modes
# of the linear state into IEEE subnormals, where arithmetic runs several
# times slower.  So every FLUSH_EVERY steps, before that step is recorded,
# each real or imaginary part with |x| < FLUSH_BELOW is set to zero.  This
# is safe:
# * the square of a flushed part is below 1e-580, which underflows to
#   exactly 0, so it adds nothing to l2, enstrophy or grad_norm_sq;
# * the test |x| < FLUSH_BELOW is symmetric in sign, so the flush commutes
#   exactly with the parity map J of fields.parity, (J w)(k) = (-1)^k w(-k)
#   on each row, and with conjugation.
FLUSH_EVERY = 64
FLUSH_BELOW = 1e-290


@dataclass(frozen=True)
class IntegratorConfig:
    """Timestep, final time, snapshot cadence, and the transform grid of
    the pseudo-spectral solver (a power of two; ``None`` picks the smallest
    one :func:`evolve_nonlinear` accepts).
    """

    dt: float
    t_final: float
    sample_every: int = 1
    grid: int | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

    @property
    def n_steps(self):
        n = int(round(self.t_final / self.dt))
        if abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError("t_final must be an integer number of steps")
        return n


@dataclass
class Trajectory:
    """Time-sampled evolution output.

    ``times``/``diagnostics`` cover every step; ``fields`` holds snapshots
    at ``field_times``.
    """

    params: dict
    times: np.ndarray
    diagnostics: dict
    field_times: np.ndarray
    fields: list


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    max_residual: float
    n_samples: int


class _Recorder:
    """The per-step diagnostics and the snapshots of one run.

    ``times`` and every diagnostic, built-in and extra, are float64 arrays
    of length ``n_steps + 1``, allocated up front: step ``step`` writes
    slot ``step``, and :meth:`finish` hands the arrays to the
    :class:`Trajectory` without a copy.

    :meth:`record` reads a full coefficient array.  :meth:`record_block`
    reads only the columns ``cols = (lo, hi)`` that a linear run advances
    and gives the same values bit for bit: ``|block|^2`` goes into those
    columns of one reused full-shape array, whose other columns are 0, or
    for a reality-flagged field (block l >= 0) the flip of the columns
    l > 0, as |conj x| == |x|; the same whole-array sums then run.  Its
    ``max_pq`` reads the block's columns l = 0 and +-1: the row l = -1 of
    a flagged field mirrors the row l = +1 exactly, and a block with no
    column |l| <= 1 gives 0.0.  It takes the full array only on the steps
    that hand a field out (:meth:`wants_field`): snapshot steps, the final
    step, and every step when extra diagnostics, called as ``f(field, t)``,
    are present (the benchmark tracer's per-step clock is one).
    """

    def __init__(self, nx, ny, real_valued, n_steps, sample_every, extra_diagnostics, cols=None):
        self.nx = nx
        self.ny = ny
        self.real_valued = real_valued
        self.n_steps = n_steps
        self.sample_every = sample_every
        self.extra = extra_diagnostics or {}
        ks = np.arange(-nx, nx + 1)[:, None]
        ls = np.arange(-ny, ny + 1)[None, :]
        self.lap = (ks * ks + ls * ls).astype(float)
        self.sq = np.zeros_like(self.lap)
        self.lap_sq = np.empty_like(self.lap)
        self.lo, self.hi = cols or (0, 2 * ny + 1)
        self.shear_col = ny - self.lo if self.lo <= ny < self.hi else None
        pm1 = [ny + l - self.lo for l in (-1, 1) if self.lo <= ny + l < self.hi]
        self.pm1_cols = slice(pm1[0], pm1[-1] + 1, 2) if pm1 else None
        self.times = np.empty(n_steps + 1)
        self.diag = {name: np.empty(n_steps + 1) for name in
                     ("l2", "enstrophy", "grad_norm_sq", "max_pq", *self.extra)}
        self.field_times = []
        self.fields = []

    def _snapshot(self, step):
        return step % self.sample_every == 0 or step == self.n_steps

    def wants_field(self, step):
        """Whether step ``step`` hands the full array out."""
        return bool(self.extra) or self._snapshot(step)

    def record(self, step, t, coeffs):
        """Record step ``step`` at time ``t`` from the full array ``coeffs``."""
        np.square(np.abs(coeffs, out=self.sq), out=self.sq)
        self._sums(step, t)
        self.diag["max_pq"][step] = anomalous_content_raw(coeffs, self.ny)
        self._hand_out(step, t, coeffs)

    def record_block(self, step, t, block, full):
        """Record step ``step`` from ``block``, the columns ``lo:hi`` of the
        coefficient array; ``full`` is the whole array if
        :meth:`wants_field`, else None."""
        sq, ny = self.sq, self.ny
        part = sq[:, self.lo : self.hi]
        np.square(np.abs(block, out=part), out=part)
        if self.real_valued:  # |conj x| == |x|: the columns l < 0 mirror l > 0
            sq[:, :ny] = sq[::-1, : ny : -1]
        self._sums(step, t)
        shear = 0.0 if self.shear_col is None else float(np.abs(block[:, self.shear_col]).max())
        pairs = 0.0 if self.pm1_cols is None else pair_content_raw(block[:, self.pm1_cols])
        self.diag["max_pq"][step] = max(shear, pairs)
        if full is not None:
            self._hand_out(step, t, full)

    def _sums(self, step, t):
        l2_sq = float(self.sq.sum())
        if not math.isfinite(l2_sq):
            raise FloatingPointError(f"non-finite state at step {step} (t={t:.6g})")
        self.times[step] = t
        self.diag["l2"][step] = math.sqrt(l2_sq)
        self.diag["enstrophy"][step] = PARSEVAL * l2_sq
        lap_sq = np.multiply(self.lap, self.sq, out=self.lap_sq)
        self.diag["grad_norm_sq"][step] = PARSEVAL * float(lap_sq.sum())

    def _hand_out(self, step, t, coeffs):
        if self.extra:
            view = _wrap(self.nx, self.ny, coeffs.view(), self.real_valued)
            for name, fn in self.extra.items():
                self.diag[name][step] = float(fn(view, t))
        if self._snapshot(step):
            self.field_times.append(t)
            self.fields.append(_wrap(self.nx, self.ny, coeffs.copy(), self.real_valued))

    def finish(self, params):
        return Trajectory(
            params=params,
            times=self.times,
            diagnostics=self.diag,
            field_times=np.array(self.field_times),
            fields=self.fields,
        )


def _if_rk4(state, e_half, dt, n_steps, rhs_into, record):
    """Advance ``state`` in place by ``n_steps`` IF-RK4 steps of size ``dt``.

    With E = ``e_half`` = exp(-nu |k|^2 dt/2) on the layout of ``state``
    and R the non-diffusive right-hand side, which ``rhs_into(src, t, out,
    scratch)`` writes into ``out`` (``scratch`` may be overwritten), a step
    evaluates in place, in this order, ka = R(w, t), kb = R(E (w + dt/2 ka)),
    kc = R(E w + dt/2 kb) (both at t + dt/2), kd = R(E^2 w + dt (E kc),
    t + dt) and w <- E^2 w + dt/6 (E^2 ka + 2 (E (kb + kc)) + kd).
    ``record(step, state)`` runs at step 0 and after every step.

    E and E^2 are cast once to the dtype of ``state``: a real factor would
    be cast through a buffer on every multiply.  Their imaginary parts are
    +0, so each product is the one numpy formed after that cast.
    """
    e_full = (e_half * e_half).astype(state.dtype)
    e_half = e_half.astype(state.dtype)
    ka, kb, kc, kd, t1, t2, t3 = (np.empty_like(state) for _ in range(7))
    record(0, state)
    for n in range(n_steps):
        t = n * dt
        rhs_into(state, t, ka, t2)
        np.multiply(ka, dt / 2, out=t1)
        t1 += state
        t1 *= e_half
        rhs_into(t1, t + dt / 2, kb, t2)
        np.multiply(state, e_half, out=t1)
        np.multiply(kb, dt / 2, out=t3)
        t1 += t3
        rhs_into(t1, t + dt / 2, kc, t2)
        np.multiply(kc, e_half, out=t1)
        t1 *= dt
        np.multiply(state, e_full, out=t2)
        t1 += t2
        rhs_into(t1, t + dt, kd, t2)
        ka *= e_full
        kb += kc
        kb *= e_half
        kb *= 2.0
        ka += kb
        ka += kd
        ka *= dt / 6
        state *= e_full
        state += ka
        record(n + 1, state)


def evolve_linear(w0, nu, a, variant, config, extra_diagnostics=None):
    """Integrate d/dt what = L(t) what for the shear linearization.

    The diffusion is applied exactly through the integrating factor; the
    banded advection (amplitude a e^{-nu t}, ``full`` keeps the non-local
    coupling factors, ``approximate`` drops them) is advanced explicitly
    with stage-time evaluation.  Columns of fixed l never mix, and the
    l = 0 column decays purely diffusively.

    So only one contiguous block of columns is advanced: the columns
    l >= 0 of a reality-flagged field, else the span of the columns
    populated at t = 0 (the others stay exactly 0).  Step 0 records
    ``w0`` as given; every later step is recorded from the block, with
    the values the full array would give bit for bit (``_Recorder``).
    The full array, the block with, for a reality-flagged field, its
    columns l < 0 filled by the conjugate flip of the columns l > 0, is
    built only on the steps that hand it out: snapshot steps, the final
    step, and every step when ``extra_diagnostics`` are given.  So the
    asymmetry a flagged ``w0`` may carry (up to the 1e-8 relative that
    :class:`SpectralField` accepts) is gone after step 0.  The scheme
    keeps conjugate symmetry in value but not in the sign of a zero part,
    so the flip writes each zero imaginary part as +0; on the fields
    tried, this reproduces the full-array scheme bit for bit.

    ``extra_diagnostics`` maps names to callables ``f(field, t) -> float``
    evaluated at every step (e.g. a weighted-norm diagnostic).  Tiny parts
    of the block are flushed to zero every ``FLUSH_EVERY`` steps (module
    comment); ``params["flushed_parts"]`` is the number of nonzero parts
    flushed from the full array, so a part of a column l >= 1 of a
    reality-flagged field counts twice, once more for its mirror in -l.
    """
    nx, ny = w0.nx, w0.ny
    dt = config.dt
    n_steps = config.n_steps

    if w0.real_valued:
        lo, hi = ny, 2 * ny + 1
    else:
        populated = np.flatnonzero(w0.coeffs.any(axis=0))
        lo, hi = (int(populated[0]), int(populated[-1]) + 1) if populated.size else (0, 0)
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(lo - ny, hi - ny)[None, :]
    lap = (ks * ks + ls * ls).astype(float)
    e_half = np.exp(-nu * lap * (dt / 2))
    # complex coefficients with +0 imaginary parts (see _if_rk4)
    fm, fp = (f.astype(complex) for f in _k_neighbours(_coupling_factor(ks, ls, variant)))
    lpref = -(ls / 2.0)
    shear = np.zeros(lpref.shape, dtype=complex)

    full = w0.coeffs.astype(complex)
    state = full[:, lo:hi].copy()
    parts = state.view(float)
    flushed = 0

    def adv_into(src, t, out, scratch):
        # out = lpref * a e^{-nu t} * (fm * src(k-1) - fp * src(k+1))
        np.multiply(fm[1:, :], src[:-1, :], out=out[1:, :])
        out[0, :] = 0.0
        np.multiply(fp[:-1, :], src[1:, :], out=scratch[:-1, :])
        out[:-1, :] -= scratch[:-1, :]
        np.multiply(lpref, a * math.exp(-nu * t), out=shear.real)  # shear.imag stays +0
        out *= shear

    rec = _Recorder(nx, ny, w0.real_valued, n_steps, config.sample_every, extra_diagnostics, (lo, hi))
    # a reality-flagged field has what(-k, -l) = conj(what(k, l)), so its
    # columns l < 0 are read off the columns l > 0 of the state
    mirror, source = full[:, :ny], state[::-1, ny:0:-1]

    def record(step, w):
        nonlocal flushed
        if step == 0:  # w0 as given
            rec.record(0, 0.0, full)
            return
        if step % FLUSH_EVERY == 0:
            tiny = np.abs(parts) < FLUSH_BELOW
            tiny &= parts != 0.0
            flushed += int(np.count_nonzero(tiny))
            if w0.real_valued:  # the mirrors of the columns l >= 1
                flushed += int(np.count_nonzero(tiny[:, 2:]))
            parts[tiny] = 0.0
        handed = None
        if rec.wants_field(step):
            full[:, lo:hi] = w
            if w0.real_valued:
                np.conjugate(source, out=mirror)
                mirror.imag += 0.0  # -0 -> +0
            handed = full
        rec.record_block(step, step * dt, w, handed)

    _if_rk4(state, e_half, dt, n_steps, adv_into, record)
    return rec.finish(
        {
            "kind": "linear",
            "nu": nu,
            "a": a,
            "variant": variant,
            "dt": dt,
            "t_final": n_steps * dt,
            "flushed_parts": flushed,
        }
    )


def _half_wavenumbers(m):
    """The wavenumbers of the m x (m//2 + 1) ``rfft2`` layout: k in FFT
    order as a column and l = 0..m//2 as a row, both float."""
    return (np.fft.fftfreq(m) * m)[:, None], np.arange(m // 2 + 1, dtype=float)[None, :]


def _half_spectrum_advection(m):
    """The dealiased advection term on the real half-spectrum of an m-point grid.

    A real field is stored on numpy's ``rfft2`` layout: the m x (m//2 + 1)
    coefficients w(k, l), l = 0..m//2, with k in FFT order; the columns
    l < 0 are the conjugates w(-k, -l).  Returns ``advect_into``, where
    ``advect_into(w, out)`` writes -N(w) into ``out``, N the transform of
    u . grad w with the 2/3-rule mask |k|, |l| <= (m - 1) // 3 and a zero
    mean, and returns the (4, m, m) grid values whose planes 0 and 1 are
    the velocity u1, u2 of ``w``.
    """
    kx, ky = _half_wavenumbers(m)
    k2_safe = kx * kx + ky * ky
    k2_safe[0, 0] = 1.0
    scale = m * m  # our coefficients are amplitudes, numpy ffts are unnormalized
    # Biot-Savart u1, u2 and the gradient wx, wy, each scaled by m^2
    mult = np.stack(np.broadcast_arrays(
        1j * ky / k2_safe, -1j * kx / k2_safe, 1j * kx, 1j * ky
    )) * scale
    cut = (m - 1) // 3
    mask = (np.abs(kx) <= cut) & (ky <= cut)
    neg_mask = (mask * (-1.0 / scale)).astype(complex)
    spec = np.empty(mult.shape, dtype=complex)

    def advect_into(w, out):
        np.multiply(mult, w, out=spec)
        # numpy 2.4 irfft2 ignores out=, so the grid is its return value
        grid = np.fft.irfft2(spec, s=(m, m))
        grid[2] *= grid[0]
        grid[3] *= grid[1]
        grid[2] += grid[3]
        np.fft.rfft2(grid[2], out=out)
        out *= neg_mask
        out[0, 0] = 0.0
        return grid

    return advect_into


def evolve_nonlinear(w0, nu, config, extra_diagnostics=None):
    """Pseudo-spectral integration of the vorticity equation.

    The velocity comes from the Biot-Savart multipliers, the advection
    u . grad w is formed pointwise on the transform grid, and the 2/3-rule
    mask, which keeps |k|, |l| <= (m - 1) // 3 on a grid of m points, kills
    aliased products.  The mean stays exactly zero.  Requires a
    reality-flagged initial field and a power-of-two grid with
    m >= 3 kmax0 + 1, kmax0 the largest initial wavenumber, so that the mask
    keeps every initial mode.

    The state is stored on the real half-spectrum (the ``rfft2`` layout of
    :func:`_half_spectrum_advection`), so each right-hand side costs one
    batched ``irfft2`` and one ``rfft2``.  Every step's CFL number
    max|u| dt / dx is taken from the velocity at its start; the first step
    over 1 raises a ``RuntimeWarning`` and ``params["max_cfl"]`` is the
    largest over the run.
    """
    if not w0.real_valued:
        raise ValueError("nonlinear evolution requires a reality-flagged field")
    kmax0 = max(w0.nx, w0.ny)
    m = config.grid
    if m is None:
        m = 1 << max(4, (3 * kmax0).bit_length())
    if m & (m - 1) != 0:
        raise ValueError("transform grid must be a power of two")
    cut = (m - 1) // 3
    if cut < kmax0:
        raise ValueError(
            f"grid {m} too small for max wavenumber {kmax0}: the 2/3 mask keeps "
            f"|k| <= {cut}, so the grid needs m >= {3 * kmax0 + 1}"
        )

    dt = config.dt
    n_steps = config.n_steps
    h = m // 2 + 1
    kx, ky = _half_wavenumbers(m)
    e_half = np.exp(-nu * (kx * kx + ky * ky) * (dt / 2))
    advect_into = _half_spectrum_advection(m)

    state = np.zeros((m, h), dtype=complex)
    state[np.arange(-w0.nx, w0.nx + 1) % m, : w0.ny + 1] = w0.coeffs[:, w0.ny:]
    state[0, 0] = 0.0

    dx = 2 * math.pi / m
    max_cfl = 0.0

    def rhs_into(w, t, out, scratch):
        nonlocal max_cfl
        grid = advect_into(w, out)
        if w is state:  # the first stage: the velocity at the step's start
            cfl = float(np.abs(grid[:2]).max()) * dt / dx
            if cfl > 1.0 >= max_cfl:  # warn on the first step over the limit
                warnings.warn(
                    f"advective CFL number u_max dt / dx = {cfl:.3g} exceeds 1 on "
                    f"step {round(t / dt) + 1} of {n_steps}, from t = {t:.6g}",
                    RuntimeWarning,
                )
            max_cfl = max(max_cfl, cfl)

    # the |k|, |l| <= cut block, read from the half-spectrum in one gather;
    # the columns l < 0 are conjugated after it
    ks = np.arange(-cut, cut + 1)
    index = np.where(ks[None, :] < 0, -ks[:, None], ks[:, None]) % m * h + np.abs(ks)[None, :]
    block = np.empty(index.shape, dtype=complex)
    rec = _Recorder(cut, cut, True, n_steps, config.sample_every, extra_diagnostics)

    def record(step, w):
        np.take(w.ravel(), index, out=block)
        np.conjugate(block[:, :cut], out=block[:, :cut])
        rec.record(step, step * dt, block)

    _if_rk4(state, e_half, dt, n_steps, rhs_into, record)
    return rec.finish(
        {
            "kind": "nonlinear",
            "nu": nu,
            "grid": m,
            "dt": dt,
            "t_final": n_steps * dt,
            "max_cfl": max_cfl,
        }
    )


def decay_rate_fit(traj, which="l2", window=None):
    """Exponential decay rate of a squared norm over a time window.

    Fits ln(norm^2) against t by least squares and returns
    ``DecayFit(rate, amplitude, max_residual, n_samples)`` with
    norm^2 ~ amplitude * exp(-rate t).  Diagnostics stored as plain norms
    (``l2``, ``x_norm``) are squared; others (``enstrophy``, functional
    values) are fitted as-is.
    """
    y = np.asarray(traj.diagnostics[which], dtype=float)
    t = traj.times
    if window is not None:
        lo, hi = window
        sel = (t >= lo) & (t <= hi)
        t = t[sel]
        y = y[sel]
    if len(t) < 3:
        raise ValueError("need at least 3 samples in the fit window")
    if np.any(y <= 0):
        raise ValueError("norm must be positive on the fit window")
    logy = np.log(y)
    if which in ("l2", "x_norm"):
        logy = 2 * logy
    slope, intercept = np.polyfit(t, logy, 1)
    resid = float(np.abs(logy - (slope * t + intercept)).max())
    return DecayFit(float(-slope), float(math.exp(intercept)), resid, len(t))


def enstrophy_balance_residual(traj):
    """Worst normalized defect of d/dt(enstrophy/2) = -nu grad_norm_sq.

    Centered differences on the per-step diagnostics of a nonlinear
    trajectory; the result is discretization error only, since the
    dealiased advection conserves enstrophy semi-discretely.
    """
    if traj.params.get("kind") != "nonlinear":
        raise ValueError("enstrophy balance applies to nonlinear trajectories")
    t = traj.times
    if len(t) < 3:
        raise ValueError("need at least 3 samples")
    z = traj.diagnostics["enstrophy"]
    g = traj.diagnostics["grad_norm_sq"]
    nu = traj.params["nu"]
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-9, atol=1e-12):
        raise ValueError("centered differences need uniform sampling")
    dzdt_half = (z[2:] - z[:-2]) / (4 * h)
    denom = nu * g[1:-1]
    nonzero = denom != 0.0  # zero field: identity holds trivially
    defect = np.abs(dzdt_half[nonzero] + denom[nonzero]) / denom[nonzero]
    return float(defect.max(initial=0.0))


def diffusion_rate(w0, nu):
    """Pure-diffusion decay rate of the squared norm: 2 nu min(k^2 + l^2)
    over the populated modes."""
    ks, ls = w0.wavenumbers()
    lap = ks * ks + ls * ls
    populated = np.abs(w0.coeffs) > 0
    if not populated.any():
        raise ValueError("zero field has no decay rate")
    return 2.0 * nu * float(lap[populated].min())
