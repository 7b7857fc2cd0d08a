"""Weighted-norm machinery quantifying the enhanced (faster than viscous)
decay of the approximate shear linearization.

The central objects are, per transverse wavenumber ell:

* the commutator operator  C = -i a ell e^{-nu t} (cos x .),
* the quadratic functional
      Phi = ||w||^2 + alpha ||w_x||^2 - 2 beta Re(w_x, C w) + gamma ||C w||^2
  with nu-scaled weights alpha = alpha0 sqrt(nu), beta = beta0,
  gamma = gamma0 / sqrt(nu),
* the mixed norm
      ||w||_X^2 = sum_{l != 0} [ ||w_l||^2 + sqrt(nu/|l|) ||d_x w_l||^2
                                 + ||C w_l||^2 / (sqrt(nu) |l|^{3/2}) ].

The weights derive from one measurable constant m0, the spectral gap of a
cosine-well Schrodinger operator (a shear analogue of the quantum harmonic
oscillator); :func:`estimate_m0` computes the sharp value on a truncated
basis.  With valid weights the functional decreases along approximate-
operator trajectories and the X-norm decays at a rate proportional to
sqrt(nu), which :func:`decay_check` measures by direct integration.

Norms and inner products here are those of L^2 on the circle, so a single
coefficient c at wavenumber k contributes 2 pi |c|^2.

All decay checks run in original (unrescaled) time with the expected
exponent proportional to sqrt(nu); that convention is unambiguous for the
nonautonomous amplitude a e^{-nu t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import IntegratorConfig, _centered_rate, decay_rate_fit, evolve_linear
from .fields import TWO_PI, _x_norm_weights, is_anomalous_free
from .operators import _amplitude, _banded, _k_neighbours

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class HypoConstants:
    """Functional weights derived from the oscillator constant m0.

    The derived weights must satisfy beta0^2 < alpha0 gamma0 / 4 (makes the
    cross term subordinate, sandwiching Phi between two definite quadratic
    forms) and beta0 >= 4 alpha0^2 (with equality under the canonical
    formulas below).
    """

    m0: float
    a: float
    ell: int
    nu: float
    alpha0: float
    beta0: float
    gamma0: float

    @property
    def alpha(self):
        return self.alpha0 * math.sqrt(self.nu)

    @property
    def beta(self):
        return self.beta0

    @property
    def gamma(self):
        return self.gamma0 / math.sqrt(self.nu)

    def validate(self):
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if not self.beta0 * self.beta0 < self.alpha0 * self.gamma0 / 4:
            raise ValueError("weights violate beta0^2 < alpha0 gamma0 / 4")
        if not self.beta0 >= 4 * self.alpha0 * self.alpha0 - 1e-15 * abs(self.beta0):
            raise ValueError("weights violate beta0 >= 4 alpha0^2")
        return self


def hypo_constants(m0, a, ell, nu):
    """Canonical weights from the oscillator constant:

        gamma0 = m0^{3/2} / (64 sqrt(2) a^3 |ell|^{3/2})
        alpha0 = m0^{1/2} / (32 sqrt(2) a |ell|^{1/2})
        beta0  = m0 / (512 a^2 |ell|)

    These satisfy beta0 = 4 alpha0^2 identically and the strict cross-term
    inequality; both are re-checked to guard overridden inputs.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell must be nonzero")
    if a == 0:
        raise ValueError("amplitude must be nonzero")
    la = abs(ell)
    gamma0 = m0 ** 1.5 / (64 * SQRT2 * a**3 * la**1.5)
    alpha0 = math.sqrt(m0) / (32 * SQRT2 * a * math.sqrt(la))
    beta0 = m0 / (512 * a * a * la)
    return HypoConstants(m0, a, ell, nu, alpha0, beta0, gamma0).validate()


@dataclass(frozen=True)
class FunctionalSample:
    """One evaluation of the functional and its four constituents."""

    t: float
    phi_value: float
    l2_sq: float
    dx_sq: float
    cross_term: float
    c_sq: float


def _apply_commutator(c, ell, a, nu, t):
    """(C w)(k) = -i (a ell / 2) e^{-nu t} (w(k-1) + w(k+1)), truncated.

    ``c`` is one row what(k) or a coefficient array with k along its first
    axis; ``ell`` broadcasts against the remaining axes.
    """
    sm, sp = _k_neighbours(c)
    return -0.5j * _amplitude(a, nu, t) * ell * (sm + sp)


def functional_sample(row, constants, t):
    """Evaluate the functional on one ell-row of coefficients.

    ``row`` holds what(k) for k = -N..N.  The commutator operator uses the
    amplitude a e^{-nu t} of the constants' (a, nu) at the given time.
    """
    row = np.asarray(row, dtype=complex)
    n = (len(row) - 1) // 2
    ks = np.arange(-n, n + 1)
    crow = _apply_commutator(row, constants.ell, constants.a, constants.nu, t)
    dxrow = 1j * ks * row
    l2_sq = TWO_PI * float(np.sum(np.abs(row) ** 2))
    dx_sq = TWO_PI * float(np.sum(np.abs(dxrow) ** 2))
    c_sq = TWO_PI * float(np.sum(np.abs(crow) ** 2))
    cross = TWO_PI * float(np.real(np.sum(np.conj(dxrow) * crow)))
    phi = (
        l2_sq
        + constants.alpha * dx_sq
        - 2 * constants.beta * cross
        + constants.gamma * c_sq
    )
    return FunctionalSample(t, phi, l2_sq, dx_sq, cross, c_sq)


def x_norm_sq(field, nu, a, t=0.0):
    """Squared mixed norm of a field whose l = 0 row vanishes.

    Rejects fields with l = 0 content above 1e-10 times the coefficient
    norm.  With C w = -i (a l / 2) e^{-nu t} (w(k-1) + w(k+1)) the norm is
    2 pi times two weighted sums,

        sum (1 + sqrt(nu/|l|) k^2) |c|^2
            + (a e^{-nu t})^2 sum |l|^{1/2} / (4 sqrt(nu)) |c(k-1) + c(k+1)|^2,

    over l != 0, with the weights of ``fields._x_norm_weights`` and
    c(k-1) + c(k+1) formed by ``operators._k_neighbours``.  It is the
    tests' oracle for the recorder's ``x_norm``, which builds its own
    neighbour sum on views bound once per block.
    """
    c = field.coeffs
    nx, ny = field.nx, field.ny
    sq = np.abs(c)
    sq *= sq
    if np.count_nonzero(c[:, ny]):  # a zero l = 0 column passes the check
        scale = math.sqrt(float(sq.sum()))
        row0 = float(np.abs(c[:, ny]).max())
        if row0 > 1e-10 * max(scale, 1e-300):
            raise ValueError(
                f"l = 0 content {row0:.3e} exceeds tolerance for the mixed norm"
            )
    w_sq, w_nb = _x_norm_weights(nx, ny, nu)
    nb_sq = np.abs(np.add(*_k_neighbours(c)))
    nb_sq *= nb_sq
    sq *= w_sq
    nb_sq *= w_nb
    amp = _amplitude(a, nu, t)
    # np.add.reduce(x, None) is the reduction x.sum() runs, without its wrapper
    return float(TWO_PI * (np.add.reduce(sq, None) + amp * amp * np.add.reduce(nb_sq, None)))


def oscillator_min_eig(c_lap, c_pot, n_modes):
    """Smallest eigenvalue of -c_lap d^2/dx^2 + c_pot cos^2(x) on the
    circle, discretized over e^{ikx}, |k| <= n_modes.

    cos^2 couples k to k and k +- 2; the matrix is real symmetric.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be at least 2")
    ks = np.arange(-n_modes, n_modes + 1)
    quarter = np.full(len(ks), c_pot / 4.0)
    mat = _banded(c_lap * ks * ks + c_pot / 2.0, {(-2,): quarter, (2,): quarter})
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"oscillator eigensolve failed: {exc}") from exc
    return float(vals[0])


def estimate_m0(beta0, nu, a, ell, t=0.0, n_modes=128):
    """Sharpest oscillator constant on the truncated basis.

    Computes lambda_min of H = -(1/8) d^2/dx^2 + (beta0 / 2 nu)
    (a ell e^{-nu t})^2 cos^2 x and returns lambda_min sqrt(nu) /
    (|ell| sqrt(beta0)), the best constant for which

        (1/8) ||u_x||^2 + (beta0 / 2 nu) ||C u||^2
            >= (m0 |ell| sqrt(beta0) / sqrt(nu)) ||u||^2

    holds for every u on the truncated space.
    """
    if beta0 <= 0 or nu <= 0:
        raise ValueError("beta0 and nu must be positive")
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell must be nonzero")
    if n_modes < 64:
        raise ValueError("n_modes must be at least 64")
    lam = _cosine_well_min_eig(beta0, nu, a, ell, t, n_modes)
    return lam * math.sqrt(nu) / (abs(ell) * math.sqrt(beta0))


def _cosine_well_min_eig(beta0, nu, a, ell, t=0.0, n_modes=128):
    """lambda_min of the oscillator H of :func:`estimate_m0`."""
    c_pot = (beta0 / (2 * nu)) * (ell * _amplitude(a, nu, t)) ** 2
    return oscillator_min_eig(0.125, c_pot, n_modes)


def auto_m0(a, ell, nu):
    """Self-consistent m0 at t = 0: iterate beta0(m0) -> estimate_m0(beta0)
    to a fixed point, to relative tolerance 1e-9 within 50 rounds.

    The oscillator estimate is nearly independent of beta0 in the
    deep-well regime (the gap scales as the square root of the potential
    coefficient, which is linear in beta0), so the iteration contracts
    strongly and settles in a few rounds.
    """
    m0 = 1.0
    for _ in range(50):
        beta0 = hypo_constants(m0, a, ell, nu).beta0
        new = estimate_m0(beta0, nu, a, ell)
        if new <= 0:
            return 0.0
        if abs(new - m0) <= 1e-9 * m0:
            return new
        m0 = new
    raise RuntimeError("oscillator constant iteration did not settle")


@dataclass(frozen=True)
class EnhancedDecayFit:
    """Measured mixed-norm decay: rate, its sqrt(nu)-normalized value, and
    the Gronwall prefactor."""

    rate: float
    m: float
    k: float
    max_residual: float


def decay_check(w0, nu, a, t_final, dt):
    """Measure the mixed-norm decay of the approximate evolution from w0.

    w0 must be free of anomalous content.  The squared norm is fitted as
    amplitude * exp(-rate t) from t = 0.05 T on, up to the last sample
    with squared norm at least 1e-30 (underflow truncates the window).
    Returns the fit with m = rate / sqrt(nu) and k = amplitude / x_0^2,
    x_0 the recorded ``x_norm`` of step 0.  The run records ``x_norm`` at
    every step off the block it advances (``evolve_linear`` with
    ``x_norm=True``), and the fit reads only those diagnostics, so the
    full array is built only for the two endpoint snapshots.
    """
    ok, viol = is_anomalous_free(w0, tol=1e-8)
    if not ok:
        raise ValueError(f"initial field has anomalous content {viol:.3e}")
    n_steps = IntegratorConfig(dt=dt, t_final=t_final).n_steps
    cfg = IntegratorConfig(dt=dt, t_final=t_final, sample_every=max(1, n_steps))
    traj = evolve_linear(w0, nu, a, "approximate", cfg, x_norm=True)
    xs = traj.diagnostics["x_norm"]
    t = traj.times
    sel = (t >= 0.05 * t_final) & (xs * xs >= 1e-30)
    if sel.sum() < 3:
        raise ValueError("fewer than 3 usable samples above the underflow floor")
    hi = float(t[sel].max())
    lo = float(t[sel].min())
    fit = decay_rate_fit(traj, "x_norm", window=(lo, hi))
    x0_sq = float(xs[0] ** 2)
    return EnhancedDecayFit(
        rate=fit.rate,
        m=fit.rate / math.sqrt(nu),
        k=fit.amplitude / x0_sq,
        max_residual=fit.max_residual,
    )


@dataclass(frozen=True)
class DissipationReport:
    """Centered-difference statistics of (dPhi/dt) / Phi along a trajectory."""

    min_ratio: float
    max_ratio: float
    n_interior: int


def functional_dissipation(traj, constants):
    """Extreme ratios (dPhi/dt) / Phi over the interior snapshot times of
    one ell-row.

    The row ell = constants.ell is read off the stored snapshots, so the
    trajectory must keep every step (sample_every = 1).  Samples from the
    first Phi below 1e-280 on are discarded; an all-zero row yields
    an empty report.
    """
    if len(traj.fields) != len(traj.times):
        raise ValueError("dissipation check needs snapshots at every step")
    phis = []
    for t, f in zip(traj.field_times, traj.fields):
        row = f.coeffs[:, constants.ell + f.ny]
        phis.append(functional_sample(row, constants, t).phi_value)
    phis = np.array(phis)
    times = traj.field_times
    if np.all(phis == 0):
        return DissipationReport(math.nan, math.nan, 0)
    cut = len(phis)
    below = np.nonzero(phis < 1e-280)[0]
    if len(below):
        cut = int(below[0])
    if cut < 3:
        raise ValueError("functional below floor too early for a centered difference")
    phis = phis[:cut]
    times = times[:cut]
    ratios = _centered_rate(times, phis) / phis[1:-1]
    return DissipationReport(float(ratios.min()), float(ratios.max()), len(ratios))
