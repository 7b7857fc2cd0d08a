"""Time integration for the linearized and nonlinear vorticity equations.

Both integrators step through one integrating-factor RK4 core,
:func:`_if_rk4`, and supply only their right-hand side and state layout:
the diffusion exp(-nu (k^2 + l^2) dt) is applied exactly and the rest
gets classical RK4 on the transformed variable.  The linear generator is
nonautonomous through the shear amplitude a e^{-nu t}, evaluated at the
RK stage times so the scheme keeps its fourth order.

Trajectories record scalar diagnostics at every step and full field
snapshots every ``sample_every`` steps (snapshots bound the memory; the
diagnostics stored at snapshot times are re-derivable from the snapshots).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import PARSEVAL, _wrap
from .operators import _coupling_factor, _k_neighbours

# Over t ~ 1/nu the integrating factor exp(-nu k^2 t) drives the high modes
# of the linear state into IEEE subnormals, where arithmetic runs several
# times slower.  So every FLUSH_EVERY steps, before that step is recorded,
# each real or imaginary part with |x| < FLUSH_BELOW is set to zero.  This
# is safe:
# * the square of a flushed part is below 1e-580, which underflows to
#   exactly 0, so it adds nothing to l2, enstrophy or grad_norm_sq;
# * the test |x| < FLUSH_BELOW is symmetric in sign, so the flush commutes
#   exactly with the parity map J = S.P, (J w)(k) = (-1)^k w(-k) on each
#   row, and with conjugation.
FLUSH_EVERY = 64
FLUSH_BELOW = 1e-290


@dataclass(frozen=True)
class IntegratorConfig:
    """Timestep, final time, snapshot cadence, and nonlinear options.

    ``grid`` is the transform grid for the pseudo-spectral solver (power of
    two); ``dealias`` applies the 2/3-rule mask to quadratic products.
    """

    dt: float
    t_final: float
    sample_every: int = 1
    dealias: bool = True
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


def _raw_max_pq(coeffs, ny, even):
    """Largest anomalous-coordinate magnitude straight off a raw array;
    ``even`` marks the even wavenumbers k of the rows."""
    worst = float(np.abs(coeffs[:, ny]).max())
    for l in (1, -1):
        row = coeffs[:, l + ny]
        flipped = row[::-1]
        vals = np.abs(np.where(even, row + flipped, row - flipped))
        worst = max(worst, float(vals.max()))
    return worst


class _Recorder:
    def __init__(self, nx, ny, real_valued, sample_every, extra_diagnostics):
        self.nx = nx
        self.ny = ny
        self.real_valued = real_valued
        self.sample_every = sample_every
        self.extra = extra_diagnostics or {}
        ks = np.arange(-nx, nx + 1)[:, None]
        ls = np.arange(-ny, ny + 1)[None, :]
        self.lap = (ks * ks + ls * ls).astype(float)
        self.even = (ks[:, 0] % 2) == 0
        self.times = []
        self.diag = {name: [] for name in
                     ("l2", "enstrophy", "grad_norm_sq", "max_pq", *self.extra)}
        self.field_times = []
        self.fields = []

    def record(self, step, t, coeffs):
        sq = np.abs(coeffs) ** 2
        l2_sq = float(sq.sum())
        if not math.isfinite(l2_sq):
            raise FloatingPointError(f"non-finite state at step {step} (t={t:.6g})")
        self.times.append(t)
        self.diag["l2"].append(math.sqrt(l2_sq))
        self.diag["enstrophy"].append(PARSEVAL * l2_sq)
        self.diag["grad_norm_sq"].append(PARSEVAL * float((self.lap * sq).sum()))
        self.diag["max_pq"].append(_raw_max_pq(coeffs, self.ny, self.even))
        view = None
        if self.extra:
            view = _wrap(self.nx, self.ny, coeffs.view(), self.real_valued)
            for name, fn in self.extra.items():
                self.diag[name].append(float(fn(view, t)))
        if step % self.sample_every == 0:
            self.field_times.append(t)
            self.fields.append(
                _wrap(self.nx, self.ny, coeffs.copy(), self.real_valued)
            )
        self.last = coeffs

    def finish(self, params):
        if self.field_times[-1] != self.times[-1]:  # end on the final state
            self.field_times.append(self.times[-1])
            self.fields.append(_wrap(self.nx, self.ny, self.last.copy(), self.real_valued))
        return Trajectory(
            params=params,
            times=np.array(self.times),
            diagnostics={k: np.array(v) for k, v in self.diag.items()},
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
    """
    e_full = e_half * e_half
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


def evolve_linear(w0, nu, a, variant="full", config=None, extra_diagnostics=None):
    """Integrate d/dt what = L(t) what for the shear linearization.

    The diffusion is applied exactly through the integrating factor; the
    banded advection (amplitude a e^{-nu t}, ``full`` keeps the non-local
    coupling factors, ``approximate`` drops them) is advanced explicitly
    with stage-time evaluation.  Rows of fixed l never mix, and the l = 0
    row decays purely diffusively.

    ``extra_diagnostics`` maps names to callables ``f(field, t) -> float``
    evaluated at every step (e.g. a weighted-norm diagnostic).  Tiny parts
    are flushed to zero every ``FLUSH_EVERY`` steps (module comment); the
    number of nonzero parts flushed is ``params["flushed_parts"]``.
    """
    if config is None:
        raise ValueError("an IntegratorConfig is required")
    nx, ny = w0.nx, w0.ny
    dt = config.dt
    n_steps = config.n_steps

    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(-ny, ny + 1)[None, :]
    lap = (ks * ks + ls * ls).astype(float)
    e_half = np.exp(-nu * lap * (dt / 2))
    fm, fp = _k_neighbours(_coupling_factor(ks, ls, variant))
    lpref = -(ls / 2.0)

    state = w0.coeffs.astype(complex).copy()
    parts = state.view(float)
    flushed = 0

    def adv_into(src, t, out, scratch):
        # out = lpref * a e^{-nu t} * (fm * src(k-1) - fp * src(k+1))
        np.multiply(fm[1:, :], src[:-1, :], out=out[1:, :])
        out[0, :] = 0.0
        np.multiply(fp[:-1, :], src[1:, :], out=scratch[:-1, :])
        out[:-1, :] -= scratch[:-1, :]
        out *= lpref * (a * math.exp(-nu * t))

    rec = _Recorder(nx, ny, w0.real_valued, config.sample_every, extra_diagnostics)

    def record(step, w):
        nonlocal flushed
        if step and step % FLUSH_EVERY == 0:
            tiny = np.abs(parts) < FLUSH_BELOW
            tiny &= parts != 0.0
            flushed += int(np.count_nonzero(tiny))
            parts[tiny] = 0.0
        rec.record(step, step * dt, w)

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


def _fft_wavenumbers(m):
    return (np.fft.fftfreq(m) * m).astype(int)


def embed_fft(field, m):
    """Place truncated coefficients on an m x m FFT-layout lattice."""
    if 2 * field.nx + 1 > m or 2 * field.ny + 1 > m:
        raise ValueError("transform grid smaller than the stored truncation")
    out = np.zeros((m, m), dtype=complex)
    ks = np.arange(-field.nx, field.nx + 1)
    ls = np.arange(-field.ny, field.ny + 1)
    out[np.ix_(ks % m, ls % m)] = field.coeffs
    return out


def extract_fft(state, trunc):
    """Read the |k|,|l| <= trunc block of an FFT-layout lattice."""
    m = state.shape[0]
    ks = np.arange(-trunc, trunc + 1)
    coeffs = state[np.ix_(ks % m, ks % m)].copy()
    coeffs[trunc, trunc] = 0.0
    return _wrap(trunc, trunc, coeffs, True)


def evolve_nonlinear(w0, nu, config, extra_diagnostics=None):
    """Pseudo-spectral integration of the vorticity equation.

    The velocity comes from the Biot-Savart multipliers, the advection
    u . grad w is formed pointwise on the transform grid, and (with
    ``dealias``) the 2/3-rule mask kills aliased products.  The mean stays
    exactly zero.  Requires a reality-flagged initial field and a
    power-of-two grid of at least 4/3 of the largest initial wavenumber.
    """
    if not w0.real_valued:
        raise ValueError("nonlinear evolution requires a reality-flagged field")
    kmax0 = max(w0.nx, w0.ny)
    m = config.grid
    if m is None:
        m = 1 << max(4, (3 * kmax0 + 1 - 1).bit_length())
    if m & (m - 1) != 0:
        raise ValueError("transform grid must be a power of two")
    if config.dealias and m < math.ceil(4 * kmax0 / 3):
        raise ValueError(
            f"grid {m} too small for max wavenumber {kmax0} with dealiasing"
        )

    dt = config.dt
    n_steps = config.n_steps
    kk = _fft_wavenumbers(m)
    kx = kk[:, None].astype(float)
    ky = kk[None, :].astype(float)
    k2 = kx * kx + ky * ky
    k2_safe = k2.copy()
    k2_safe[0, 0] = 1.0
    if config.dealias:
        cut = (m - 1) // 3
        keep = (np.abs(kk) <= cut)
        mask = keep[:, None] & keep[None, :]
        trunc_out = cut
    else:
        mask = np.ones((m, m), dtype=bool)
        trunc_out = m // 2 - 1
    e_half = np.exp(-nu * k2 * (dt / 2))
    scale = m * m  # our coefficients are amplitudes, numpy ffts are unnormalized

    def velocity(w):
        u1 = np.fft.ifft2(1j * ky * w / k2_safe).real * scale
        u2 = np.fft.ifft2(-1j * kx * w / k2_safe).real * scale
        return u1, u2

    def rhs_into(w, t, out, scratch):
        # out = -N(w), N the dealiased transform of u . grad w
        u1, u2 = velocity(w)
        wx = np.fft.ifft2(1j * kx * w).real * scale
        wy = np.fft.ifft2(1j * ky * w).real * scale
        np.divide(np.fft.fft2(u1 * wx + u2 * wy), scale, out=out)
        out *= mask
        out[0, 0] = 0.0
        np.negative(out, out=out)

    state = embed_fft(w0, m)
    state *= mask
    state[0, 0] = 0.0

    # one-shot CFL heuristic on the initial data
    speed = max(np.abs(u).max() for u in velocity(state))
    dx = 2 * math.pi / m
    if speed * dt / dx > 1.0:
        warnings.warn(
            f"advective CFL heuristic exceeded: u_max dt / dx = {speed * dt / dx:.3g}",
            RuntimeWarning,
        )

    rec = _Recorder(trunc_out, trunc_out, True, config.sample_every, extra_diagnostics)

    def record(step, w):
        rec.record(step, step * dt, extract_fft(w, trunc_out).coeffs)

    _if_rk4(state, e_half, dt, n_steps, rhs_into, record)
    return rec.finish(
        {
            "kind": "nonlinear",
            "nu": nu,
            "grid": m,
            "dealias": config.dealias,
            "dt": dt,
            "t_final": n_steps * dt,
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
    worst = 0.0
    for i in range(1, len(t) - 1):
        dzdt_half = (z[i + 1] - z[i - 1]) / (4 * h)
        denom = nu * g[i]
        if denom == 0.0:
            continue  # zero field: identity holds trivially
        worst = max(worst, abs(dzdt_half + denom) / denom)
    return worst


def diffusion_rate(w0, nu):
    """Pure-diffusion decay rate of the squared norm: 2 nu min(k^2 + l^2)
    over the populated modes."""
    ks, ls = w0.wavenumbers()
    lap = ks * ks + ls * ls
    populated = np.abs(w0.coeffs) > 0
    if not populated.any():
        raise ValueError("zero field has no decay rate")
    return 2.0 * nu * float(lap[populated].min())
