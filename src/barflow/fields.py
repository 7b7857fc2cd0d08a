"""Spectral fields on the square torus [-pi, pi]^2.

A scalar field (vorticity, or a perturbation of it) is stored as a dense
complex array of Fourier coefficients on the truncated wavenumber lattice
|k| <= nx, |l| <= ny, with the convention

    w(x, y) = sum_{k,l} what(k, l) exp(i (k x + l y)),
    what(k, l) = (1 / 4 pi^2) integral w(x, y) exp(-i (k x + l y)) dx dy,

so that Parseval reads  integral |w|^2 = 4 pi^2 sum |what|^2.  Every field
has zero mean, what(0, 0) = 0, which is preserved by all operations here.

The module provides the exact slowly-decaying shear ("bar") and
Taylor-Green ("dipole") states, the Biot-Savart velocity reconstruction,
the anomalous-mode coordinates on the |l| = 1 rows together with the
orthogonal projection that removes them, quadratic diagnostics, and a CSV
interchange format shared by the rest of the package.

The anomalous subspace is defined by the parity map J of :func:`parity`,
(J w)(k, l) = (-1)^k w(-k, l): it is the whole l = 0 row plus the J = +1
part of the rows l = +-1.  Its coordinates are the entries of w + J w on
those rows; ``anomalous_coordinates(w, sign, jmax)`` reads them off the
row l = sign in the variable order of the closed tridiagonal system.  The
projection that removes the subspace keeps (w - J w)/2 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
PARSEVAL = TWO_PI * TWO_PI  # (2 pi)^2 factor relating coefficient sums to integrals


class SpectralField:
    """Immutable complex Fourier coefficient array on the truncated lattice.

    Parameters
    ----------
    nx, ny : int
        Truncation: coefficients are stored for |k| <= nx, |l| <= ny.
    coeffs : array_like of complex, shape (2*nx+1, 2*ny+1), optional
        Coefficient array; entry [k + nx, l + ny] is what(k, l).  Defaults
        to the zero field.
    real_valued : bool
        Declares that the field represents a real-valued function, i.e.
        what(-k, -l) = conj(what(k, l)) exactly, in value (a zero part may
        differ from its mirror in sign); any asymmetry raises.
    """

    __slots__ = ("nx", "ny", "coeffs", "real_valued")

    def __init__(self, nx, ny, coeffs=None, real_valued=False, copy=True):
        nx = int(nx)
        ny = int(ny)
        if nx < 1 or ny < 1:
            raise ValueError("truncation must be at least 1 in each direction")
        if coeffs is None:
            coeffs = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
            copy = False
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (2 * nx + 1, 2 * ny + 1):
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, "
                f"expected {(2 * nx + 1, 2 * ny + 1)}"
            )
        if coeffs[nx, ny] != 0:
            raise ValueError("zero-mean violated: what(0, 0) must vanish")
        if real_valued:
            if not np.isfinite(coeffs).all():  # checked first: nan > 0.0 is false, inf - inf warns
                raise ValueError("real_valued field has a non-finite coefficient")
            asym = conjugate_asymmetry_raw(coeffs)
            if asym > 0.0:
                raise ValueError(f"real_valued field lacks conjugate symmetry (asymmetry {asym:.3e})")
        if copy:
            coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "real_valued", bool(real_valued))

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    def __repr__(self):
        return (
            f"SpectralField(nx={self.nx}, ny={self.ny}, "
            f"real_valued={self.real_valued}, norm={self.norm():.6g})"
        )

    def get(self, k, l):
        """Coefficient what(k, l)."""
        if abs(k) > self.nx or abs(l) > self.ny:
            raise IndexError(f"mode ({k}, {l}) outside truncation")
        return complex(self.coeffs[k + self.nx, l + self.ny])

    def norm(self):
        """l2 norm of the coefficient array, sqrt(sum |what|^2)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def wavenumbers(self):
        """Column/row wavenumber grids (ks[:, None], ls[None, :])."""
        ks = np.arange(-self.nx, self.nx + 1)[:, None]
        ls = np.arange(-self.ny, self.ny + 1)[None, :]
        return ks, ls


def _wrap(nx, ny, coeffs, real_valued):
    """Internal constructor skipping validation and the defensive copy."""
    f = object.__new__(SpectralField)
    coeffs.setflags(write=False)
    object.__setattr__(f, "nx", nx)
    object.__setattr__(f, "ny", ny)
    object.__setattr__(f, "coeffs", coeffs)
    object.__setattr__(f, "real_valued", real_valued)
    return f


def conjugate_asymmetry_raw(coeffs):
    """max |what(-k,-l) - conj(what(k,l))| of a raw coefficient array."""
    return float(np.abs(coeffs[::-1, ::-1] - np.conj(coeffs)).max())


def conjugate_asymmetry(field):
    """Deviation of a field from the reality condition, as a max-abs value."""
    return conjugate_asymmetry_raw(field.coeffs)


def zero_field(nx, ny):
    """The zero field, flagged real-valued."""
    return SpectralField(nx, ny, real_valued=True)


def mode_field(nx, ny, entries, real_valued=False):
    """Field with prescribed coefficients, e.g. ``{(1, 0): 0.5, (-1, 0): 0.5}``."""
    c = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
    for (k, l), amp in entries.items():
        if abs(k) > nx or abs(l) > ny:
            raise ValueError(f"mode ({k}, {l}) outside truncation ({nx}, {ny})")
        c[k + nx, l + ny] = amp
    return SpectralField(nx, ny, c, real_valued=real_valued, copy=False)


def _exact_state(m, nx, ny, axes, phase, t, nu, amplitude):
    """a e^{-nu m^2 t} times the sum of cos(m x) and cos(m y) (or sin) over
    the ``axes`` it names, ``"x"`` or ``"xy"``, as a field: two nonzero
    coefficients per axis.  Raises if m exceeds the truncation of an axis.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    for axis, n in (("x", nx), ("y", ny)):
        if axis in axes and m > n:
            raise ValueError(f"m={m} exceeds truncation n{axis}={n}")
    amp = amplitude * math.exp(-nu * m * m * t)
    if phase == "cos":
        plus, minus = amp / 2, amp / 2
    elif phase == "sin":
        plus, minus = -0.5j * amp, 0.5j * amp
    else:
        raise ValueError("phase must be 'cos' or 'sin'")
    entries = {}
    for k, l in ({"x": (m, 0), "y": (0, m)}[axis] for axis in axes):
        entries[k, l], entries[-k, -l] = plus, minus
    return mode_field(nx, ny, entries, real_valued=True)


def bar_state(m, nx, ny, phase="cos", t=0.0, nu=0.0, amplitude=1.0):
    """Exact shear solution a e^{-nu m^2 t} cos(mx) (or sin) as a field.

    Exactly two coefficients are nonzero.  Raises if m exceeds the
    truncation.
    """
    return _exact_state(m, nx, ny, "x", phase, t, nu, amplitude)


def dipole_state(m, nx, ny, phase="cos", t=0.0, nu=0.0, amplitude=1.0):
    """Exact Taylor-Green solution a e^{-nu m^2 t}[cos mx + cos my] (or sin).

    Four nonzero coefficients; otherwise analogous to :func:`bar_state`.
    """
    return _exact_state(m, nx, ny, "xy", phase, t, nu, amplitude)


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free velocity as two spectral components on one lattice."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if (self.u1.nx, self.u1.ny) != (self.u2.nx, self.u2.ny):
            raise ValueError("velocity components must share a truncation")

    def max_divergence(self):
        """max_k |k . u1hat + l . u2hat|; identically zero up to rounding."""
        ks, ls = self.u1.wavenumbers()
        return float(np.abs(ks * self.u1.coeffs + ls * self.u2.coeffs).max())


def _velocity_multipliers(ks, ls):
    """The Biot-Savart multipliers ``(i l / (k^2 + l^2), -i k / (k^2 + l^2))``
    that take what(k, l) to (u1hat, u2hat), broadcast over ``ks`` and
    ``ls``; at k = l = 0 the denominator is taken as 1, so both are 0."""
    k2 = np.asarray(ks * ks + ls * ls, dtype=float)
    k2 = np.where(k2 == 0, 1.0, k2)
    return 1j * ls / k2, -1j * ks / k2


def biot_savart(w):
    """Velocity field uhat(k,l) = i (l, -k) what(k,l) / (k^2 + l^2), the
    coefficients times :func:`_velocity_multipliers`, which the nonlinear
    solver's right-hand side uses too.

    The (0, 0) amplitude must vanish (zero-mean vorticity), so the velocity
    mean is zero.
    """
    if w.coeffs[w.nx, w.ny] != 0:
        raise ValueError("vorticity must have zero mean")
    u1, u2 = (m * w.coeffs for m in _velocity_multipliers(*w.wavenumbers()))
    return VelocityField(
        _wrap(w.nx, w.ny, u1, w.real_valued),
        _wrap(w.nx, w.ny, u2, w.real_valued),
    )


def parity(c):
    """The parity map (J c)(k) = (-1)^k c(-k) along the first axis of ``c``,
    whose entries are the wavenumbers -n..n (an even length raises).

    Odd entries are negated rather than multiplied by -1, which could flip
    the sign of a zero part.
    """
    if c.shape[0] % 2 == 0:
        raise ValueError(f"first axis of length {c.shape[0]} is not the wavenumbers -n..n")
    n = c.shape[0] // 2
    odd = (np.arange(-n, n + 1) % 2 != 0).reshape((-1,) + (1,) * (c.ndim - 1))
    flipped = c[::-1]
    return np.where(odd, -flipped, flipped)


def _pm1_rows(coeffs, ny):
    """The rows l = -1 and l = +1 of a raw coefficient array, as one view."""
    return coeffs[:, ny - 1 : ny + 2 : 2]


def anomalous_coordinates(w, sign, jmax=None):
    """The entries k = 0..2 jmax + 1 of w + J w on the row l = sign.

    In that order they are (even_0, odd_0, ..., even_jmax, odd_jmax),

        even_j = what(2j, sign) + what(-2j, sign)
        odd_j  = what(2j+1, sign) - what(-(2j+1), sign),

    the variables of :func:`barflow.operators.anomalous_generator` (so
    even_0 = 2 what(0, sign)).  ``jmax`` defaults to the largest value with
    2*jmax + 1 <= nx, which is required so every referenced mode is stored.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if jmax is None:
        jmax = (w.nx - 1) // 2
    jmax = int(jmax)
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    if 2 * jmax + 1 > w.nx:
        raise ValueError(f"jmax={jmax} exceeds truncation nx={w.nx}")
    row = w.coeffs[:, w.ny + sign]
    return (row + parity(row))[w.nx : w.nx + 2 * jmax + 2]


def remove_anomalous(w):
    """Orthogonal projection onto the anomalous-free subspace.

    The l = 0 row is zeroed and the rows l = +-1 are replaced by their
    J = -1 parts (w - J w)/2, so even-k coefficients become (what(k) -
    what(-k))/2 and odd-k ones (what(k) + what(-k))/2; all other rows are
    untouched.  Idempotent, linear, and orthogonal for the coefficient
    inner product.
    """
    c = w.coeffs.copy()
    c[:, w.ny] = 0.0
    rows = _pm1_rows(c, w.ny)
    rows[...] = (rows - parity(rows)) / 2
    return _wrap(w.nx, w.ny, c, w.real_valued)


def pair_content_raw(rows):
    """max |c + J c| over the columns of ``rows``, whose axis -2 runs over
    the wavenumbers -n..n (0.0 for no column).  A leading axis, if there is
    one, stacks such arrays, and the result is then an array of one
    maximum per entry.

    (c + J c)(-k) is +-(c + J c)(k), bit for bit up to the sign of a zero
    part, so only k >= 0 is formed: c(k) + c(-k) at even k and
    c(k) - c(-k) at odd k, read through strided views with no flipped copy.
    """
    n = rows.shape[-2] // 2
    even = np.abs(rows[..., n::2, :] + rows[..., n::-2, :])
    odd = np.abs(rows[..., n + 1 :: 2, :] - rows[..., n - 1 :: -2, :])
    pairs = np.maximum(*(np.maximum.reduce(x, (-2, -1), initial=0.0) for x in (even, odd)))
    return float(pairs) if rows.ndim == 2 else pairs


def anomalous_content(w):
    """Largest anomalous-coordinate magnitude: the shear-aligned row and
    every entry of w + J w on the |l| = 1 rows."""
    return max(float(np.abs(w.coeffs[:, w.ny]).max()), pair_content_raw(_pm1_rows(w.coeffs, w.ny)))


def is_anomalous_free(w, tol=1e-10):
    """Whether every anomalous coordinate is below tol * ||w||.

    Returns ``(ok, violation)`` with the maximal violating magnitude.
    """
    viol = anomalous_content(w)
    return viol <= tol * w.norm(), viol


def enstrophy(w):
    """integral w^2 over the torus = (2 pi)^2 sum |what|^2."""
    return PARSEVAL * float(np.sum(np.abs(w.coeffs) ** 2))


def grad_norm_sq(w):
    """integral |grad w|^2 = (2 pi)^2 sum (k^2 + l^2) |what|^2."""
    ks, ls = w.wavenumbers()
    return PARSEVAL * float(np.sum((ks * ks + ls * ls) * np.abs(w.coeffs) ** 2))


def _x_norm_columns(ls, nu):
    """The column factors of the mixed norm (``hypocoercivity.x_norm_sq``)
    on the columns ``ls``: ``sqrt(nu/|l|)``, which multiplies k^2 |c|^2,
    and ``|l|^{1/2} / (4 sqrt(nu))``, the weight of |c(k-1) + c(k+1)|^2,
    both 0 on l = 0."""
    labs = np.abs(ls).astype(float)
    sel = labs > 0
    root, nb = np.zeros(labs.shape), np.zeros(labs.shape)
    root[sel] = np.sqrt(nu / labs[sel])
    nb[sel] = np.sqrt(labs[sel]) / (4 * math.sqrt(nu))
    return root, nb


def _x_norm_weights(nx, ny, nu):
    """Weights of the mixed norm on a (2 nx + 1) x (2 ny + 1) array:
    ``1 + sqrt(nu/|l|) k^2`` on |c|^2 and ``|l|^{1/2} / (4 sqrt(nu))`` on
    |c(k-1) + c(k+1)|^2, both 0 on l = 0 (:func:`_x_norm_columns`)."""
    ks = np.arange(-nx, nx + 1, dtype=float)[:, None]
    ls = np.arange(-ny, ny + 1)
    root, nb = _x_norm_columns(ls, nu)
    w_sq = np.where(ls != 0, 1.0 + root * (ks * ks), 0.0)
    return w_sq, np.broadcast_to(nb, w_sq.shape).copy()


def synthesize(w, grid_x=None, grid_y=None):
    """Sample the field on a uniform physical grid.

    Returns ``(x, y, values)`` where ``values[i, j] = w(x[i], y[j])`` as a
    complex array; for reality-flagged fields the imaginary part is at
    rounding level.
    """
    if grid_x is None:
        grid_x = 1 << max(3, (2 * w.nx + 2 - 1).bit_length())
    if grid_y is None:
        grid_y = 1 << max(3, (2 * w.ny + 2 - 1).bit_length())
    if grid_x < 2 * w.nx + 1 or grid_y < 2 * w.ny + 1:
        raise ValueError("grid too small for the stored truncation")
    f = np.zeros((grid_x, grid_y), dtype=complex)
    ks = np.arange(-w.nx, w.nx + 1)
    ls = np.arange(-w.ny, w.ny + 1)
    f[np.ix_(ks % grid_x, ls % grid_y)] = w.coeffs
    vals = np.fft.ifft2(f) * (grid_x * grid_y)
    x = -math.pi + TWO_PI * np.arange(grid_x) / grid_x
    y = -math.pi + TWO_PI * np.arange(grid_y) / grid_y
    # ifft samples start at 0; roll so the first sample sits at -pi
    vals = np.roll(vals, (grid_x // 2, grid_y // 2), axis=(0, 1))
    return x, y, vals


def random_field(nx, ny, seed, decay=0.1):
    """Seeded random smooth real-valued field: complex Gaussian coefficients
    damped by exp(-decay (k^2 + l^2)), conjugate-symmetrized, zero mean."""
    rng = np.random.default_rng(seed)
    shape = (2 * nx + 1, 2 * ny + 1)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ks = np.arange(-nx, nx + 1)[:, None]
    ls = np.arange(-ny, ny + 1)[None, :]
    g *= np.exp(-decay * (ks * ks + ls * ls))
    g = (g + np.conj(g[::-1, ::-1])) / 2
    g[nx, ny] = 0.0
    return SpectralField(nx, ny, g, real_valued=True, copy=False)


def seeded_row_field(nx, ny, ell, seed):
    """Seeded field supported on the single row l = ``ell``: complex
    Gaussian coefficients damped by exp(-0.05 k^2)."""
    rng = np.random.default_rng(seed)
    c = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
    ks = np.arange(-nx, nx + 1)
    c[:, ell + ny] = (
        rng.standard_normal(2 * nx + 1) + 1j * rng.standard_normal(2 * nx + 1)
    ) * np.exp(-0.05 * ks * ks)
    return SpectralField(nx, ny, c, copy=False)


def save_field(field, path):
    """Write the field as CSV: a header carrying nx, ny and the reality
    flag, then one ``k,l,re,im`` row per nonzero coefficient.

    Rows are written as each k is read, so no whole-field text is held.
    """
    nx, ny = field.nx, field.ny
    with open(path, "w") as fh:
        fh.write(f"# nx={nx} ny={ny} reality={int(field.real_valued)}\nk,l,re,im\n")
        for k, row in enumerate(field.coeffs, start=-nx):
            js = np.flatnonzero(row)
            c = row[js]
            fh.write("".join(
                f"{k},{l},{re:.17g},{im:.17g}\n"
                for l, re, im in zip((js - ny).tolist(), c.real.tolist(), c.imag.tolist())
            ))


def load_field(path):
    """Inverse of :func:`save_field`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing field header")
        meta = dict(item.split("=") for item in header[1:].split())
        nx = int(meta["nx"])
        ny = int(meta["ny"])
        reality = bool(int(meta["reality"]))
        fh.readline()  # column names
        c = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=complex)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, l, re, im = line.split(",")
            c[int(k) + nx, int(l) + ny] = complex(float(re), float(im))
    return SpectralField(nx, ny, c, real_valued=reality, copy=False)
