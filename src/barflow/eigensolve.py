"""Dense non-Hermitian eigenvalue studies and viscosity scaling fits.

Spectra are computed with LAPACK's general dense solver (Hessenberg
reduction plus shifted QR, backward stable) via numpy; matrices here are at
most a few thousand square, so the dense route is the robust default.
The operators are stored as real (``float64``), and the solver follows the
dtype: a real matrix is solved in real arithmetic, a complex one by the
complex solver.  A real bar slice that commutes with the parity map
:func:`barflow.fields.parity`, ``(J w)(k) = (-1)^k w(-k)``, is split into
its J = +1 and J = -1 sectors, two real tridiagonal blocks of about half
the size read off its bands, whose spectra together are the slice's.
A spectrum is a sorted complex array: descending real part with ties
broken by ascending imaginary part, which makes sweep tables and
rank-collapse plots deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln nu, ln |Re lambda_1|)."""

    samples: tuple
    slope: float
    intercept: float
    max_residual: float


def _sort(vals):
    """Descending real part; within real-part ties, ascending imaginary part.

    Neighbours under the descending real order tie when their real parts
    differ by at most 1e-9 times the real-part scale, so conjugate
    pairs (whose computed real parts differ only by rounding) order
    deterministically across runs and truncations.
    """
    v = vals[np.lexsort((vals.imag, -vals.real))]
    if len(v) == 0:
        return v
    scale = max(1.0, float(np.abs(v.real).max()))
    segment = np.r_[0, np.cumsum(np.abs(np.diff(v.real)) > 1e-9 * scale)]
    return v[np.lexsort((v.imag, segment))]


def _check_finite(op):
    """Raise ValueError unless the bands (slice) or matrix of ``op`` are finite."""
    parts = (op.diag, op.sub, op.sup) if isinstance(op, operators.OperatorSlice) else (op.matrix,)
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise ValueError(f"matrix has non-finite entries: {op.params()}")


def _parity_sectors(op):
    """The J = +1 and J = -1 blocks of a real bar slice, or None unless its
    wavenumbers are symmetric and its bands commute with J exactly:
    diag(k) = diag(-k) and sup(k) = -sub(-k).

    J = +1 vectors satisfy w(-k) = (-1)^k w(k) and are coordinatized by
    k >= 0; J = -1 vectors satisfy w(-k) = -(-1)^k w(k), so w(0) = 0, and
    are coordinatized by k >= 1.  Each block keeps the slice's bands on
    those k, except that row 0 of the J = +1 block couples to k = 1 by
    sup(0) - sub(0), or, with k = 0 absent, row 1 adds -+sub(1) to diag(1).
    """
    ks, diag, sub, sup = op.wavenumbers, op.diag, op.sub, op.sup
    commutes = (np.array_equal(ks, -ks[::-1]) and np.array_equal(diag, diag[::-1])
                and np.array_equal(sub, -sup[::-1]))
    if np.iscomplexobj(np.r_[diag, sub, sup]) or not commutes:
        return None
    h = len(ks) // 2  # index of the first k >= 0
    if ks[h] == 0:
        even = (diag[h:], sub[h:], np.r_[sup[h] - sub[h], sup[h + 1 :]])
        odd = (diag[h + 1 :], sub[h + 1 :], sup[h + 1 :])
    else:
        even = (np.r_[diag[h] - sub[h], diag[h + 1 :]], sub[h:], sup[h:])
        odd = (np.r_[diag[h] + sub[h], diag[h + 1 :]], sub[h:], sup[h:])
    return [operators._banded(d, {(-1,): s, (1,): p}) for d, s, p in (even, odd)]


def compute_spectrum(op):
    """All eigenvalues of a built operator, as a sorted complex array.

    Real-dtype matrices are solved in real arithmetic, and real bar slices
    that commute with J one parity sector at a time (see the module
    docstring).
    Raises ValueError on non-finite entries and RuntimeError (with the
    build parameters attached) if the QR iteration fails to converge.
    """
    _check_finite(op)
    sectors = _parity_sectors(op) if isinstance(op, operators.OperatorSlice) else None
    blocks = [op.matrix] if sectors is None else sectors
    try:
        vals = [np.linalg.eigvals(block) for block in blocks]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for {op.params()}: {exc}") from exc
    return _sort(np.concatenate(vals).astype(complex, copy=False))


def least_decaying(spectrum):
    """First eigenvalue under the sort order (largest real part)."""
    if len(spectrum) == 0:
        raise ValueError("empty spectrum")
    return complex(spectrum[0])


def nu_sweep(ell, trunc, nus, amplitude=1.0, variant="full"):
    """One spectrum per viscosity, in the input nu order, with the advective
    amplitude held fixed.

    The slice is built at t = 0 with a = amplitude, so the shear amplitude
    a e^{-nu t} equals ``amplitude`` independently of nu.
    """
    nus = [float(v) for v in nus]
    if not nus:
        raise ValueError("empty viscosity list")
    if any(v <= 0 for v in nus):
        raise ValueError("viscosities must be positive")
    if len(set(nus)) != len(nus):
        raise ValueError("viscosities must be distinct")
    return [
        (nu, compute_spectrum(operators.bar_slice_for(ell, trunc, nu, amplitude, variant=variant)))
        for nu in nus
    ]


def fit_scaling(sweep):
    """Log-log fit of |Re lambda_1| against nu over ``[(nu, spectrum), ...]``,
    the result of :func:`nu_sweep`.

    Needs at least three samples; a vanishing |Re lambda_1| is rejected.
    """
    points = [(float(nu), abs(least_decaying(spec).real)) for nu, spec in sweep]
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
    if count < 1:
        raise ValueError(f"count={count} must be at least 1")
    sweep = nu_sweep(ell, trunc, nus, amplitude, variant)
    dim = len(sweep[0][1])
    if count > dim:
        raise ValueError(f"count={count} exceeds matrix dimension {dim}")
    rows = []
    for nu, spec in sweep:
        scaled = spec.real[:count] / np.sqrt(nu)
        for rank in range(count):
            rows.append((rank + 1, nu, float(scaled[rank])))
    return rows


def eigen_residual(op):
    """max_i ||M v_i - lambda_i v_i|| / (||M|| ||v_i||) over all eigenpairs."""
    _check_finite(op)
    mat = op.matrix
    try:
        vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for {op.params()}: {exc}") from exc
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return float((res / (np.linalg.norm(mat, 2) * np.linalg.norm(vecs, axis=0))).max())
