"""Time integration for the linearized and nonlinear vorticity equations.

Both integrators step through one integrating-factor RK4 core,
:func:`_if_rk4`, and supply only their right-hand side and state layout,
with the layout's k^2 + l^2: the core forms the diffusion
exp(-nu (k^2 + l^2) dt), applies it exactly, and gives the rest classical
RK4 on the transformed variable.  The right-hand side is
supplied as a binder, ``bind_rhs(src, out, scratch, first) -> rhs(t)``,
which the core calls once per stage before the first step, so each stage's
views are built once and the step loop makes none.  The core steps over a
range of step numbers and stops early when the record hook asks it to.
The linear generator is nonautonomous through the shear amplitude
a e^{-nu t}, evaluated at the RK stage times so the scheme keeps its
fourth order.  Its columns of
fixed l never mix, so it advances only the block of columns that can be
nonzero: at first l >= 0 for a reality-flagged field, whose columns l < 0
are the conjugate flips of the columns l > 0, and otherwise the span of
the columns populated at t = 0.  A column of exact zeros stays exactly
zero, so after each flush of tiny parts (below) the block narrows to the
span of its columns that still hold a nonzero part (a flagged block keeps
l = 0 as its first column), and the run resumes on copies of those
columns; ``params["column_steps"]`` is the sum of the block's width over
the steps.  The flush runs on the block, and ``params["flushed_parts"]``
counts the parts of the full array it stands for: a part flushed from a
column l >= 1 of a reality-flagged field counts twice.  Its advective
number dt |a| max|l| over the initial block is
``params["advective_number"]``; over ``ADVECTIVE_LIMIT`` = 2 sqrt(2) it
warns before the first step.

The pseudo-spectral solver advances the block the 2/3 rule keeps, the
columns l = 0..cut of the rows k = -cut..cut, cut = (m - 1) // 3 on a grid
of m points: the layout the linear integrator advances for a
reality-flagged field.  Only its right-hand side knows numpy's FFT layout:
it writes the block into a zero-padded half-spectrum and makes one
batched inverse and one forward transform, each one axis at a time over
the columns l = 0..cut only, on buffers allocated once per run.  It checks
the CFL number of every step from the velocity its first stage forms; the
largest is ``params["max_cfl"]``.

Both integrators step with numpy's overflow and invalid-value warnings
off: a run that blows up is reported once, by the recorder's finiteness
check, which raises ``FloatingPointError``.

Trajectories record scalar diagnostics at every step and full field
snapshots every ``sample_every`` steps and at the final step (snapshots
bound the memory; the diagnostics stored at snapshot times are
re-derivable from the snapshots).  The times and every diagnostic are
stored in float64 arrays allocated for all steps up front.  Both
integrators hand the recorder, at every step from step 0 on, their state
itself, the block of columns they advance.  The recorder reads every
built-in diagnostic, the mixed X-norm included, off that block and alone
builds the full array, only on the steps that hand a field out: snapshot
steps, the final step, and every step when extra diagnostics are present.
The benchmark tracer's per-step clock is an extra diagnostic, so traced
runs build the full array at every step, and traced step times include
that work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import PARSEVAL, TWO_PI, _velocity_multipliers, _wrap, _x_norm_weights, pair_content_raw
from .operators import _amplitude, _coupling_factor, _k_neighbours

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

# The linear IF-RK4 step multiplies an advective mode of frequency omega,
# whose diffusion rate is d, by e^{-d dt} R(i omega dt) with R the RK4
# polynomial 1 + z + z^2/2 + z^3/6 + z^4/24.  |R(iy)|^2 = 1 - y^6/72 + y^8/576
# exceeds 1 exactly when |y| > 2 sqrt(2), and e^{-d dt} -> 1 as nu dt -> 0,
# so diffusion cannot be relied on to damp it.  On column l the advection
# is tridiagonal with bands (l/2) a e^{-nu t} g, 0 <= g <= 1, of opposite
# signs, so its eigenvalues are imaginary with |omega| <= |l| |a| for all
# t >= 0.  dt |a| max|l| <= ADVECTIVE_LIMIT then keeps every mode stable.
ADVECTIVE_LIMIT = 2 * math.sqrt(2)


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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
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

    ``params`` records what the integrator ran, ``t_final`` as the n dt it
    integrated; ``times``/``diagnostics`` cover every step; ``fields`` holds
    snapshots at ``field_times``.
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


class _Recorder:
    """The per-step diagnostics and the snapshots of one run.

    ``times`` and every diagnostic, built-in and extra, are float64 arrays
    of length ``n_steps + 1``, allocated up front: step ``step`` writes
    slot ``step``, and :meth:`finish` hands the arrays to the
    :class:`Trajectory` without a copy.

    :meth:`record` reads ``block``, the array an integrator advances in
    place, so every view of it and every weight is built once per block,
    by :meth:`bind`.  The block holds the columns ``cols = (lo, hi)`` of
    the full ``(2 nx + 1) x (2 ny + 1)`` array, and every diagnostic is
    read off it: ``l2``, ``enstrophy``, ``grad_norm_sq`` and, with
    ``x_norm = (nu, a)``, the mixed norm ``x_norm`` of
    ``hypocoercivity.x_norm_sq`` are weighted sums of the squared real and
    imaginary parts of the block, one matrix-vector product per step.
    Each weight carries the multiplicity of its column in the full array:
    2 for a column l >= 1 of a reality-flagged field, whose mirror -l has
    the same |c|^2, else 1.  ``max_pq`` reads the block's columns l = 0
    and +-1: the row l = -1 of a flagged field mirrors the row l = +1
    exactly, and a block with no column |l| <= 1 gives 0.0.  The mixed norm
    rejects, as ``x_norm_sq`` does, a field whose column l = 0 exceeds
    1e-10 of its norm.

    The full array is built only on the steps that hand it out: snapshot
    steps, the final step, and every step when extra diagnostics, called
    as ``f(field, t)``, are present (the benchmark tracer's per-step clock
    is one), which all get the same read-only field over it.
    """

    def __init__(self, nx, ny, real_valued, n_steps, sample_every, extra_diagnostics, cols, block, x_norm=None):
        self.nx = nx
        self.ny = ny
        self.real_valued = real_valued
        self.n_steps = n_steps
        self.sample_every = sample_every
        self.extra = extra_diagnostics or {}
        self.x_norm = x_norm
        self.full = np.empty((2 * nx + 1, 2 * ny + 1), dtype=complex)
        self.bind(cols, block)
        # one read-only field over the reused full array, handed to every
        # extra diagnostic
        self.view = _wrap(nx, ny, self.full.view(), real_valued)
        self.times = np.empty(n_steps + 1)
        names = ("l2", "enstrophy", "grad_norm_sq", "max_pq", *(("x_norm",) if x_norm else ()))
        self.diag = {name: np.empty(n_steps + 1) for name in (*names, *self.extra)}
        self.l2, self.enstrophy, self.grad_norm_sq, self.max_pq = (self.diag[name] for name in names[:4])
        self.x_norm_out = self.diag["x_norm"] if x_norm else None
        self.extra_out = [(fn, self.diag[name]) for name, fn in self.extra.items()]
        self.field_times = []
        self.fields = []

    def bind(self, cols, block):
        """Read from now on ``block``, a C-contiguous array holding the
        columns ``cols = (lo, hi)`` of the full array, which must hold
        every nonzero part; for a reality-flagged field ``lo`` is the column
        l = 0."""
        nx, ny = self.nx, self.ny
        lo, hi = cols
        self.block = block
        if not block.flags.c_contiguous:  # else the flat view below would be a copy
            raise ValueError("the recorded block must be C-contiguous")
        self.parts = block.view(float).reshape(-1)
        self.parts_sq = np.empty_like(self.parts)
        ks = np.arange(-nx, nx + 1)[:, None]
        ls = np.arange(lo - ny, hi - ny)[None, :]
        mult = np.where(self.real_valued & (ls > 0), 2.0, 1.0)
        weights = [mult, mult * (ks * ks + ls * ls)]

        def per_part(w):  # one weight per real or imaginary part of the block
            return np.repeat(np.broadcast_to(w, block.shape), 2, axis=1).ravel()

        if self.x_norm:
            w_sq, w_nb = _x_norm_weights(nx, ny, self.x_norm[0])
            weights.append(mult * w_sq[:, lo:hi])
            # c(k-1) + c(k+1) of the block, c = 0 beyond it
            self.nb = np.empty_like(block)
            self.nb_parts = self.nb.view(float).reshape(-1)
            self.nb_sq = np.empty_like(self.nb_parts)
            self.nb_weights = per_part(mult * w_nb[:, lo:hi])
            self.nb_mid, self.nb_first, self.nb_last = self.nb[1:-1], self.nb[0], self.nb[-1]
            self.block_below, self.block_above = block[:-2], block[2:]
            self.block_second, self.block_penultimate = block[1], block[-2]
        self.weights = np.stack([per_part(w) for w in weights], axis=1)  # one column per sum
        self.sums = np.zeros(len(weights))
        self.full.fill(0.0)
        self.full_block = self.full[:, lo:hi]
        if self.real_valued:  # the columns l < 0 and the block's columns l > 0 they mirror
            self.full_mirror = self.full[:, 2 * ny + 1 - hi : ny]
            self.block_mirrored = block[::-1, hi - lo - 1 : 0 : -1]
            self.full_mirror_imag = self.full_mirror.imag
        # max_pq reads the column l = 0 and the columns l = +-1 of the block
        self.shear_col = block[:, ny - lo] if lo <= ny < hi else None
        self.shear_abs = None if self.shear_col is None else np.empty(self.shear_col.shape)
        pm1 = [ny + l - lo for l in (-1, 1) if lo <= ny + l < hi]
        self.pm1 = block[:, pm1[0] : pm1[-1] + 1 : 2] if pm1 else None

    def record(self, step, t):
        """Record step ``step`` at time ``t`` from the block."""
        np.square(self.parts, out=self.parts_sq)
        l2_sq, grad_sq, *x_sq = np.dot(self.parts_sq, self.weights, out=self.sums).tolist()
        if not math.isfinite(l2_sq):
            raise FloatingPointError(f"non-finite state at step {step} (t={t:.6g})")
        self.times[step] = t
        self.l2[step] = math.sqrt(l2_sq)
        self.enstrophy[step] = PARSEVAL * l2_sq
        self.grad_norm_sq[step] = PARSEVAL * grad_sq
        shear = 0.0 if self.shear_col is None else np.maximum.reduce(
            np.abs(self.shear_col, out=self.shear_abs), None)
        pairs = 0.0 if self.pm1 is None else pair_content_raw(self.pm1)
        self.max_pq[step] = max(shear, pairs)
        if self.x_norm:
            if shear > 1e-10 * max(math.sqrt(l2_sq), 1e-300):
                raise ValueError(f"l = 0 content {shear:.3e} exceeds tolerance for the mixed norm")
            np.add(self.block_below, self.block_above, out=self.nb_mid)
            np.copyto(self.nb_first, self.block_second)
            np.copyto(self.nb_last, self.block_penultimate)
            np.square(self.nb_parts, out=self.nb_sq)
            nb_sq = float(np.dot(self.nb_sq, self.nb_weights))
            nu, a = self.x_norm
            amp = _amplitude(a, nu, t)
            self.x_norm_out[step] = math.sqrt(TWO_PI * (x_sq[0] + amp * amp * nb_sq))

        snapshot = step % self.sample_every == 0 or step == self.n_steps
        if not (snapshot or self.extra):
            return
        # The full array is the block, +0 in every other column, and for a
        # reality-flagged field the columns l < 0 are the conjugate flip of
        # the columns l > 0, what(-k, -l) = conj(what(k, l)), with every zero
        # imaginary part written as +0; a column a narrowed run has dropped,
        # and its mirror, hold +0.
        np.copyto(self.full_block, self.block)
        if self.real_valued:
            np.conjugate(self.block_mirrored, out=self.full_mirror)
            np.add(self.full_mirror_imag, 0.0, out=self.full_mirror_imag)  # -0 -> +0
        for fn, values in self.extra_out:
            values[step] = fn(self.view, t)
        if snapshot:
            self.field_times.append(t)
            self.fields.append(_wrap(self.nx, self.ny, self.full.copy(), self.real_valued))

    def finish(self, params):
        return Trajectory(
            params=params,
            times=self.times,
            diagnostics=self.diag,
            field_times=np.array(self.field_times),
            fields=self.fields,
        )


def _if_rk4(state, nu, lap, dt, steps, bind_rhs, record):
    """Advance ``state`` in place by IF-RK4 steps of size ``dt``, one per
    step number ``n`` of the range ``steps``, each from t = n dt.

    ``lap`` holds k^2 + l^2 on the layout of ``state``.  With the
    integrating factor E = exp(-nu lap dt/2), formed here and nowhere else,
    and R the non-diffusive right-hand side, a step evaluates in place, in
    this order, ka = R(w, t), kb = R(E (w + dt/2 ka)), kc = R(E w + dt/2 kb)
    (both at t + dt/2), kd = R(E^2 w + dt (E kc), t + dt) and
    w <- E^2 w + dt/6 (E^2 ka + 2 (E (kb + kc)) + kd).
    After the step from ``n`` it calls ``record(n + 1, state)``; callers
    record step 0 themselves.  If that call returns true, the core stops
    there and returns ``n + 1``, else it returns ``steps.stop`` after the
    last step.  So a caller may stop the run, change the layout of
    ``state`` and resume with ``range(stop, ...)``.

    The right-hand side is bound once per stage, before the first step:
    ``bind_rhs(src, out, scratch, first)`` returns ``rhs(t)``, which writes
    R(src, t) into ``out`` and may overwrite ``scratch``.  It is called with
    ``(state, ka)``, then ``(t1, kb)``, ``(t1, kc)`` and ``(t1, kd)``, all
    with the scratch ``t2``; ``first`` is true for the stage that reads
    ``state``.  So a binder builds its views once, and the step loop makes
    no view and converts no scalar.

    E, E^2 and the scalars dt/2, dt, 2 and dt/6 are cast once to the dtype
    of ``state``: a real operand would be cast through a buffer on every
    multiply, and a Python scalar converted on every call.  Their imaginary
    parts are +0, so each product is the one numpy formed after that cast.
    """
    mul, add = np.multiply, np.add
    e_half = np.multiply(lap, -nu)
    e_half *= dt / 2
    np.exp(e_half, out=e_half)
    e_full = (e_half * e_half).astype(state.dtype)
    e_half = e_half.astype(state.dtype)
    half_dt, full_dt, two, sixth_dt = (np.asarray(x, dtype=state.dtype) for x in (dt / 2, dt, 2.0, dt / 6))
    ka, kb, kc, kd, t1, t2, t3 = (np.empty_like(state) for _ in range(7))
    rhs_a = bind_rhs(state, ka, t2, True)
    rhs_b, rhs_c, rhs_d = (bind_rhs(t1, k, t2, False) for k in (kb, kc, kd))
    for n in steps:
        t = n * dt
        t_half = t + dt / 2
        rhs_a(t)
        mul(ka, half_dt, out=t1)
        add(t1, state, out=t1)
        mul(t1, e_half, out=t1)
        rhs_b(t_half)
        mul(state, e_half, out=t1)
        mul(kb, half_dt, out=t3)
        add(t1, t3, out=t1)
        rhs_c(t_half)
        mul(kc, e_half, out=t1)
        mul(t1, full_dt, out=t1)
        mul(state, e_full, out=t3)  # E^2 w, reused in the update
        add(t1, t3, out=t1)
        rhs_d(t + dt)
        mul(ka, e_full, out=ka)
        add(kb, kc, out=kb)
        mul(kb, e_half, out=kb)
        mul(kb, two, out=kb)
        add(ka, kb, out=ka)
        add(ka, kd, out=ka)
        mul(ka, sixth_dt, out=ka)
        add(t3, ka, out=state)
        if record(n + 1, state):
            return n + 1
    return steps.stop


def _live_span(block):
    """``(first, stop)``: the span of the columns of ``block`` that hold a
    nonzero part, ``(0, 0)`` if there is none."""
    live = np.flatnonzero(block.any(axis=0))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)


def evolve_linear(w0, nu, a, variant, config, extra_diagnostics=None, x_norm=False):
    """Integrate d/dt what = L(t) what for the shear linearization.

    The diffusion is applied exactly through the integrating factor; the
    banded advection (amplitude a e^{-nu t}, ``full`` keeps the non-local
    coupling factors, ``approximate`` drops them) is advanced explicitly
    with stage-time evaluation.  Columns of fixed l never mix, and the
    l = 0 column decays purely diffusively.

    So only one contiguous block of columns is advanced, at first the
    columns l >= 0 of a reality-flagged field, else the span of the columns
    populated at t = 0 (the others stay exactly 0).  A column of exact
    zeros stays exactly zero, so after each flush (below) the block narrows
    to the span of its columns that still hold a nonzero part; a flagged
    block keeps l = 0 as its first column and narrows from the right only.
    The run then resumes on contiguous copies of those columns of the
    state and of the step's coefficients.  ``params["column_steps"]`` is
    the sum of the block's width over the steps.

    Every step, step 0 included, is recorded from the block
    (``_Recorder``).  The scheme keeps conjugate symmetry in value but not
    in the sign of a zero part, so every snapshot equals that of the
    full-array scheme in value, and bit for bit on each column it advances
    that the full-array scheme leaves nonzero.

    With ``x_norm`` the diagnostics include ``x_norm``, the mixed norm
    sqrt(``hypocoercivity.x_norm_sq``) at the run's ``nu`` and ``a``; a
    field whose column l = 0 exceeds 1e-10 of its norm raises
    ``ValueError`` at the first such step.  ``extra_diagnostics`` maps
    names to callables ``f(field, t) -> float`` evaluated at every step on
    the full array.  Tiny parts of the block are flushed to zero every
    ``FLUSH_EVERY`` steps (module comment); ``params["flushed_parts"]`` is
    the number of nonzero parts flushed from the full array, so a part of
    a column l >= 1 of a reality-flagged field counts twice, once more for
    its mirror in -l.

    ``params["advective_number"]`` is dt |a| max|l| over the block the run
    starts with (0 for a block of only l = 0).  It bounds |omega| dt for
    every advective frequency omega of the run, so above
    ``ADVECTIVE_LIMIT`` (module comment) a ``RuntimeWarning`` is raised
    before the first step.
    """
    nx, ny = w0.nx, w0.ny
    dt = config.dt
    n_steps = config.n_steps

    lo, hi = (ny, 2 * ny + 1) if w0.real_valued else _live_span(w0.coeffs)
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(lo - ny, hi - ny)[None, :]
    lap = (ks * ks + ls * ls).astype(float)
    # complex coefficients with +0 imaginary parts (see _if_rk4)
    fm, fp = (f.astype(complex) for f in _k_neighbours(_coupling_factor(ks, ls, variant)))
    lpref = -(ls / 2.0)

    state = w0.coeffs[:, lo:hi].copy()
    flushed = 0
    advective = dt * abs(a) * (max(abs(lo - ny), abs(hi - 1 - ny)) if hi > lo else 0)
    if advective > ADVECTIVE_LIMIT:
        warnings.warn(
            f"advective number dt |a| max|l| = {advective:.3g} exceeds 2 sqrt(2) = "
            f"{ADVECTIVE_LIMIT:.4g}, the end of RK4's stability interval on the imaginary axis",
            RuntimeWarning,
        )

    def bind_adv(src, out, scratch, first):
        # out = lpref * a e^{-nu t} * (fm * src(k-1) - fp * src(k+1)), with
        # the shear row a e^{-nu t} lpref of the current block shared by the
        # four stages and recomputed only when the stage time changes
        src_lo, src_hi = src[:-1], src[1:]
        out_hi, out_lo, out_0 = out[1:], out[:-1], out[0]
        scratch_lo = scratch[:-1]
        fm_hi, fp_lo, pref, row, row_re = fm[1:], fp[:-1], lpref, shear, shear.real  # shear.imag stays +0

        def adv(t):
            nonlocal shear_t
            np.multiply(fm_hi, src_lo, out=out_hi)
            out_0.fill(0.0)
            np.multiply(fp_lo, src_hi, out=scratch_lo)
            np.subtract(out_lo, scratch_lo, out=out_lo)
            if t != shear_t:
                np.multiply(pref, _amplitude(a, nu, t), out=row_re)
                shear_t = t
            np.multiply(out, row, out=out)

        return adv

    rec = _Recorder(nx, ny, w0.real_valued, n_steps, config.sample_every, extra_diagnostics, (lo, hi), state,
                    (nu, a) if x_norm else None)
    live = None

    def record(step, w):
        nonlocal flushed, live
        if step % FLUSH_EVERY:
            rec.record(step, step * dt)
            return False
        parts = w.view(float)
        tiny = np.abs(parts) < FLUSH_BELOW
        tiny &= parts != 0.0
        flushed += int(np.count_nonzero(tiny))
        if w0.real_valued:  # the mirrors of the columns l >= 1
            flushed += int(np.count_nonzero(tiny[:, 2:]))
        parts[tiny] = 0.0
        rec.record(step, step * dt)
        first, stop = _live_span(w)
        live = (0, max(stop, 1)) if w0.real_valued else (first, stop)
        return live[1] - live[0] < w.shape[1]

    rec.record(0, 0.0)
    start, column_steps = 0, 0
    with np.errstate(over="ignore", invalid="ignore"):  # the recorder reports a blow-up
        while start < n_steps:  # one pass per block, from its first step
            shear, shear_t = np.zeros(lpref.shape, dtype=complex), None  # the block's shear row
            stop = _if_rk4(state, nu, lap, dt, range(start, n_steps), bind_adv, record)
            column_steps += (stop - start) * state.shape[1]
            start = stop
            if start < n_steps:  # narrow to the live columns
                first, end = live
                state, lap, fm, fp, lpref = (x[:, first:end].copy() for x in (state, lap, fm, fp, lpref))
                lo, hi = lo + first, lo + end
                rec.bind((lo, hi), state)
    return rec.finish(
        {
            "kind": "linear",
            "nu": nu,
            "amp": a,
            "variant": variant,
            "dt": dt,
            "t_final": n_steps * dt,
            "flushed_parts": flushed,
            "advective_number": advective,
            "column_steps": column_steps,
        }
    )


def _block_advection(m):
    """The dealiased advection term on the 2/3-rule block of an m-point grid.

    A real field is stored as its block: the (2 cut + 1) x (cut + 1)
    coefficients w(k, l), rows k = -cut..cut and columns l = 0..cut, with
    cut = (m - 1) // 3 the 2/3-rule bound; the columns l < 0 are the
    conjugates w(-k, -l).  This is the only function that knows numpy's
    FFT layout.  Returns ``advect_into``, where ``advect_into(w, out)``
    writes -N(w) into the block ``out``, N the transform of u . grad w
    with the 2/3-rule mask |k|, |l| <= cut and a zero mean, and returns
    the (4, m, m) grid values whose planes 0 and 1 are the velocity u1, u2
    of ``w``, formed by the multipliers of ``fields.biot_savart``
    (``fields._velocity_multipliers``).  The column l = 0 of ``out`` is
    exactly conjugate-symmetric, out(-k, 0) == conj(out(k, 0)).

    The block is written into the columns l = 0..cut of a zero-padded
    ``rfft2`` spectrum (k in FFT order) and transformed one axis at a
    time over those columns only; ``irfft`` pads them to m/2 + 1 itself.
    That is bit for bit ``irfft2``/``rfft2`` of the zero-padded
    half-spectrum, which make the same 1-D transforms axis by axis, as the
    skipped columns are zeros going in and masked coming out.  The numpy
    transforms are looked up on ``np.fft`` at each call.

    Every array a call uses is allocated here, once, and each transform
    writes into its own buffer through ``out=``.  The block's rows
    k = 0..cut and k = -cut..-1 go straight into the spectrum's rows 0..cut
    and m - cut..m - 1, and the masked result comes back through the same
    two row ranges.  So the returned grid is the buffer that the next call
    overwrites.
    """
    cut = (m - 1) // 3
    kx = np.arange(-cut, cut + 1, dtype=float)[:, None]
    ky = np.arange(cut + 1, dtype=float)[None, :]
    scale = m * m  # our coefficients are amplitudes, numpy ffts are unnormalized
    # Biot-Savart u1, u2 and the gradient wx, wy, each scaled by m^2
    mult = np.stack(np.broadcast_arrays(*_velocity_multipliers(kx, ky), 1j * kx, 1j * ky)) * scale
    neg = complex(-1.0 / scale)
    spec = np.zeros((4, m, cut + 1), dtype=complex)
    half = np.empty_like(spec)  # ifft over k
    grid = np.empty((4, m, m))  # irfft over l
    line = np.empty((m, m // 2 + 1), dtype=complex)  # rfft over l
    masked = np.empty((m, cut + 1), dtype=complex)  # fft over k of the kept columns
    # the rows k >= 0 and k < 0 of the block and the spectrum's rows that
    # hold the same k; one product per plane and half, as a product over all
    # four planes at once goes through numpy's buffered iterator, which
    # allocates
    block_rows = (slice(cut, None), slice(None, cut))
    fft_rows = (slice(None, cut + 1), slice(m - cut, None))
    scatter = [(mult[p, b], spec[p, f], b) for p in range(4) for b, f in zip(block_rows, fft_rows)]
    gather = [(masked[f], b) for b, f in zip(block_rows, fft_rows)]
    kept = line[:, : cut + 1]
    u1, u2, wx, wy = grid

    def advect_into(w, out):
        for factor, dest, rows in scatter:
            np.multiply(factor, w[rows], out=dest)
        np.fft.ifft(spec, axis=1, out=half)
        np.fft.irfft(half, n=m, axis=2, out=grid)
        np.multiply(wx, u1, out=wx)
        np.multiply(wy, u2, out=wy)
        np.add(wx, wy, out=wx)
        np.fft.rfft(wx, out=line)
        np.fft.fft(kept, axis=0, out=masked)
        for src, rows in gather:
            np.multiply(src, neg, out=out[rows])
        out[cut, 0] = 0.0
        # k and -k of the column l = 0 are both stored; the transforms leave
        # them conjugate only to rounding, so write k < 0 from k > 0
        np.conjugate(out[:cut:-1, 0], out=out[:cut, 0])
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

    The state is the block the mask keeps, the columns l = 0..cut with
    rows k = -cut..cut, cut = (m - 1) // 3: the layout :func:`evolve_linear`
    advances for a reality-flagged field, and the recorder reads it in
    place.  Only the right-hand side, :func:`_block_advection`, knows
    numpy's FFT layout.  The state is built from the columns l >= 0 of
    ``w0``.  Every step's CFL number max|u| dt / dx is taken from the
    velocity at its start; the first step over 1 raises a
    ``RuntimeWarning`` and ``params["max_cfl"]`` is the largest over the
    run.
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
    kx = np.arange(-cut, cut + 1, dtype=float)[:, None]
    ky = np.arange(cut + 1, dtype=float)[None, :]
    advect_into = _block_advection(m)

    state = np.zeros((2 * cut + 1, cut + 1), dtype=complex)
    state[cut - w0.nx : cut + w0.nx + 1, : w0.ny + 1] = w0.coeffs[:, w0.ny:]
    state[cut, 0] = 0.0

    dx = 2 * math.pi / m
    max_cfl = 0.0

    def bind_rhs(w, out, scratch, first):
        if not first:
            return lambda t: advect_into(w, out)

        def rhs(t):  # the first stage: the velocity at the step's start
            nonlocal max_cfl
            u = advect_into(w, out)[:2]
            cfl = max(float(u.max()), -float(u.min())) * dt / dx
            if cfl > 1.0 >= max_cfl:  # warn on the first step over the limit
                warnings.warn(
                    f"advective CFL number u_max dt / dx = {cfl:.3g} exceeds 1 on "
                    f"step {round(t / dt) + 1} of {n_steps}, from t = {t:.6g}",
                    RuntimeWarning,
                )
            max_cfl = max(max_cfl, cfl)

        return rhs

    rec = _Recorder(cut, cut, True, n_steps, config.sample_every, extra_diagnostics, (cut, 2 * cut + 1), state)
    rec.record(0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the recorder reports a blow-up
        _if_rk4(state, nu, kx * kx + ky * ky, dt, range(n_steps), bind_rhs,
                lambda step, w: rec.record(step, step * dt))
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
    ``DecayFit(rate, amplitude, max_residual)`` with
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
    return DecayFit(float(-slope), float(math.exp(intercept)), resid)


def _centered_rate(t, y):
    """The centered difference (y[2:] - y[:-2]) / (2h) of samples ``y`` at
    uniformly spaced times ``t`` (spacing h); anything else raises."""
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-9, atol=1e-12):
        raise ValueError("centered differences need uniform sampling")
    return (y[2:] - y[:-2]) / (2 * h)


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
    dzdt_half = _centered_rate(t, z) / 2
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
