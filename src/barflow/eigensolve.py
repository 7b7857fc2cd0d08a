"""Dense non-Hermitian eigenvalue studies and viscosity scaling fits.

Spectra are computed with LAPACK's general dense solver (Hessenberg
reduction plus shifted QR, backward stable) via numpy; matrices here are at
most a few thousand square, so the dense route is the robust default.
The operators store their matrices as real (``float64``), and the solver
follows the dtype: a real matrix is solved in real arithmetic, a complex
one by the complex solver.  A real bar slice that commutes with the parity
map ``(J w)(k) = (-1)^k w(-k)`` is split into its J = +1 and J = -1
sectors, two real blocks of about half the size, whose spectra together
are the slice's.
Eigenvalues are sorted by descending real part with ties broken by
ascending imaginary part, which makes sweep tables and rank-collapse plots
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues plus the parameters of the matrix they came from."""

    eigenvalues: np.ndarray
    params: dict

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln nu, ln |Re lambda_1|)."""

    samples: tuple
    slope: float
    intercept: float
    max_residual: float


def _sort(vals, tie_tol=1e-9):
    """Descending real part; within real-part ties, ascending imaginary part.

    Ties are detected up to ``tie_tol`` times the real-part scale, so
    conjugate pairs (whose computed real parts differ only by rounding)
    order deterministically across runs and truncations.
    """
    order = np.lexsort((vals.imag, -vals.real))
    v = vals[order]
    n = len(v)
    if n == 0:
        return v
    scale = max(1.0, float(np.abs(v.real).max()))
    out = v.copy()
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(v[j].real - v[j - 1].real) <= tie_tol * scale:
            j += 1
        if j - i > 1:
            seg = v[i:j]
            out[i:j] = seg[np.argsort(seg.imag, kind="stable")]
        i = j
    return out


def _params_of(op):
    if hasattr(op, "params"):
        return op.params()
    return {}


def _checked_matrix(op):
    mat = np.asarray(op.matrix)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"matrix has non-finite entries: {_params_of(op)}")
    return mat


def _parity_sectors(ks, mat):
    """The J = +1 and J = -1 blocks of a real matrix on wavenumbers ``ks``,
    or None unless ``ks`` is symmetric and ``mat`` commutes with J exactly.

    J = +1 vectors satisfy w(-k) = (-1)^k w(k) and are coordinatized by
    k >= 0; J = -1 vectors satisfy w(-k) = -(-1)^k w(k), so w(0) = 0, and
    are coordinatized by k >= 1.  Column k > 0 of a block is column k of
    ``mat`` plus (J = +1) or minus (J = -1) (-1)^k times column -k.
    """
    if not np.array_equal(ks, -ks[::-1]):
        return None
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    if not np.array_equal(mat, np.outer(sign, sign) * mat[::-1, ::-1]):
        return None
    half = len(ks) // 2  # columns with k < 0; index ``half`` is k = 0 if present
    zero = len(ks) - 2 * half
    mirror = mat[:, :half][:, ::-1] * sign[half + zero :]
    even = mat[half:, half:].copy()
    even[:, zero:] += mirror[half:]
    odd = mat[half + zero :, half + zero :] - mirror[half + zero :]
    return [even, odd]


def _blocks(op, mat):
    """Matrices whose spectra together are the spectrum of ``mat``."""
    if np.iscomplexobj(mat):
        return [mat]
    if isinstance(op, operators.OperatorSlice):
        sectors = _parity_sectors(np.asarray(op.wavenumbers), mat)
        if sectors is not None:
            return sectors
    return [mat]


def compute_spectrum(op):
    """All eigenvalues of a built operator, sorted.

    Real-dtype matrices are solved in real arithmetic, and real bar slices
    that commute with J one parity sector at a time (see the module
    docstring).
    Raises ValueError on non-finite entries and RuntimeError (with the
    build parameters attached) if the QR iteration fails to converge.
    """
    mat = _checked_matrix(op)
    try:
        vals = [np.linalg.eigvals(block) for block in _blocks(op, mat)]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for {_params_of(op)}: {exc}") from exc
    return Spectrum(_sort(np.concatenate(vals).astype(complex, copy=False)), _params_of(op))


def least_decaying(spectrum):
    """First eigenvalue under the sort order (largest real part)."""
    if len(spectrum) == 0:
        raise ValueError("empty spectrum")
    return complex(spectrum.eigenvalues[0])


def nu_sweep(ell, trunc, nus, amplitude=1.0, variant="full"):
    """One spectrum per viscosity, in the input nu order, with the advective
    amplitude held fixed.

    The slice is built at t = 0 with a = amplitude, so the shear amplitude
    a e^{-nu t} equals ``amplitude`` independently of nu.
    """
    nus = [float(v) for v in nus]
    if any(v <= 0 for v in nus):
        raise ValueError("viscosities must be positive")
    if len(set(nus)) != len(nus):
        raise ValueError("viscosities must be distinct")
    return [
        (nu, compute_spectrum(operators.bar_slice_for(ell, trunc, nu, amplitude, variant=variant)))
        for nu in nus
    ]


def fit_scaling(sweep):
    """Log-log fit of |Re lambda_1| against nu over a sweep result.

    Accepts either ``[(nu, Spectrum), ...]`` or ``[(nu, value), ...]``.
    Needs at least three samples; a vanishing |Re lambda_1| is rejected.
    """
    points = []
    for nu, item in sweep:
        value = abs(least_decaying(item).real) if isinstance(item, Spectrum) else abs(item)
        points.append((float(nu), float(value)))
    if len(points) < 3:
        raise ValueError("need at least 3 samples for a scaling fit")
    if any(v == 0 for _, v in points):
        raise ValueError("|Re lambda_1| = 0 cannot enter a log-log fit")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.abs(y - (slope * x + intercept)).max()
    return ScalingFit(tuple(points), float(slope), float(intercept), float(resid))


def collapse_table(ell, trunc, nus, count, amplitude=1.0, variant="full"):
    """Rows (rank, nu, Re lambda_rank / sqrt(nu)) for the first ``count``
    eigenvalues of each sweep member; rank is 1-based."""
    sweep = nu_sweep(ell, trunc, nus, amplitude, variant)
    dim = len(sweep[0][1])
    if count > dim:
        raise ValueError(f"count={count} exceeds matrix dimension {dim}")
    rows = []
    for nu, spec in sweep:
        scaled = spec.eigenvalues.real[:count] / np.sqrt(nu)
        for rank in range(count):
            rows.append((rank + 1, nu, float(scaled[rank])))
    return rows


def eigen_residual(op):
    """max_i ||M v_i - lambda_i v_i|| / (||M|| ||v_i||) over all eigenpairs."""
    mat = _checked_matrix(op)
    try:
        vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for {_params_of(op)}: {exc}") from exc
    mnorm = np.linalg.norm(mat, 2)
    worst = 0.0
    mv = mat @ vecs
    for i, lam in enumerate(vals):
        r = np.linalg.norm(mv[:, i] - lam * vecs[:, i])
        worst = max(worst, r / (mnorm * np.linalg.norm(vecs[:, i])))
    return worst
