"""Dense matrix representations of the linearized vorticity operators.

All matrices act on coefficient vectors indexed by wavenumber.  For the
per-row ("slice") operators at fixed transverse wavenumber ell, row i of a
matrix corresponds to k = i - N, k in [-N, N]; the symmetrized slice with
|ell| = 1 removes k = 0, and the retained wavenumbers are recorded on the
returned object.  For the two-dimensional Taylor-Green linearization, rows
enumerate modes (k, l) in lexicographic order, skipping the excluded set;
the index map is stored explicitly as ``modes``.

Couplings that would reference a wavenumber outside the truncation are
dropped, so boundary rows are missing one coupling; identities that involve
operator products therefore hold exactly only on interior rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fields import _wrap


@dataclass(frozen=True)
class OperatorSlice:
    """One fixed-ell slice of a linearized operator, as a dense matrix.

    ``wavenumbers[i]`` is the k value of row/column i.
    """

    ell: int
    trunc: int
    nu: float
    a: float
    t: float
    variant: str
    wavenumbers: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    def params(self):
        return {
            "kind": "bar_slice",
            "ell": self.ell,
            "trunc": self.trunc,
            "nu": self.nu,
            "a": self.a,
            "t": self.t,
            "variant": self.variant,
        }


@dataclass(frozen=True)
class DipoleOperator:
    """Two-dimensional Taylor-Green linearization on modes |k|,|l| <= N.

    ``modes[r]`` = (k, l) of row r; the zero mode is always excluded, and
    the symmetrized variant additionally excludes the four modes with
    k^2 + l^2 = 1 where the square-root multiplier vanishes.
    """

    trunc: int
    nu: float
    a: float
    t: float
    symmetrized: bool
    modes: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    def mode_index(self):
        return {(int(k), int(l)): r for r, (k, l) in enumerate(self.modes)}

    def params(self):
        return {
            "kind": "dipole",
            "trunc": self.trunc,
            "nu": self.nu,
            "a": self.a,
            "t": self.t,
            "variant": "dipole-symmetrized" if self.symmetrized else "dipole",
        }


def _amplitude(a, nu, t):
    return a * math.exp(-nu * t)


def bar_slice(ell, trunc, nu, a, t=0.0, variant="full"):
    """Linearization about the m=1 shear state restricted to one ell row.

    Row k carries the diagonal -nu (k^2 + ell^2) and couplings

        column k-1:  -(ell/2) a e^{-nu t} (1 - 1/((k-1)^2 + ell^2))
        column k+1:  +(ell/2) a e^{-nu t} (1 - 1/((k+1)^2 + ell^2)),

    with the parenthesized factors replaced by 1 for the ``approximate``
    variant (the non-local part dropped).  ell = 0 is rejected: that row of
    the two-dimensional operator is purely diagonal and is assembled
    separately by the evolution routines.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell = 0 has no band structure; handled as a diagonal block")
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    if variant not in ("full", "approximate"):
        raise ValueError(f"unknown variant {variant!r}")
    n = 2 * trunc + 1
    ks = np.arange(-trunc, trunc + 1)
    amp = _amplitude(a, nu, t)
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), np.arange(n)] = -nu * (ks * ks + ell * ell)

    def factor(m):
        if variant == "approximate":
            return np.ones_like(m, dtype=float)
        return 1.0 - 1.0 / (m * m + ell * ell)

    lower_k = ks[1:] - 1  # source mode of the sub-diagonal, rows k = -N+1..N
    upper_k = ks[:-1] + 1
    mat[np.arange(1, n), np.arange(0, n - 1)] = -(ell / 2) * amp * factor(lower_k)
    mat[np.arange(0, n - 1), np.arange(1, n)] = +(ell / 2) * amp * factor(upper_k)
    return OperatorSlice(ell, trunc, nu, a, t, variant, ks, mat)


def advection_matrix(ell, trunc, a, t=0.0, nu=0.0):
    """Skew part of the approximate slice: -i a ell e^{-nu t} (sin x .).

    Row k receives -(a ell / 2) e^{-nu t} from column k-1 and the opposite
    sign from column k+1; the matrix is real and antisymmetric.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell = 0 is annihilated by the advection")
    n = 2 * trunc + 1
    c = 0.5 * a * ell * _amplitude(1.0, nu, t)
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(1, n), np.arange(0, n - 1)] = -c
    mat[np.arange(0, n - 1), np.arange(1, n)] = +c
    return mat


def commutator_matrix(ell, trunc, a, t=0.0, nu=0.0):
    """Commutator of d/dx with the advection: -i a ell e^{-nu t} (cos x .).

    Row k receives -i (a ell / 2) e^{-nu t} from both columns k +- 1.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell = 0 is annihilated by the advection")
    n = 2 * trunc + 1
    c = -0.5j * a * ell * _amplitude(1.0, nu, t)
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(1, n), np.arange(0, n - 1)] = c
    mat[np.arange(0, n - 1), np.arange(1, n)] = c
    return mat


def adjoint_slice(op):
    """Conjugate transpose of a slice, tagged as the adjoint."""
    return OperatorSlice(
        op.ell,
        op.trunc,
        op.nu,
        op.a,
        op.t,
        "adjoint",
        op.wavenumbers,
        op.matrix.conj().T.copy(),
    )


def symmetrized_bar_slice(ell, trunc, nu, a, t=0.0):
    """Slice conjugated by sqrt(1 - 1/(k^2 + ell^2)) so the advective part
    becomes exactly skew-Hermitian.

    For |ell| = 1 the multiplier vanishes at k = 0 and that mode is removed
    from the index set.  The resulting matrix is diagonal-negative plus
    skew, hence all its eigenvalues have nonpositive real part.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell = 0 has no advective part to symmetrize")
    if trunc < 2:
        raise ValueError("trunc must be at least 2")
    ks = np.arange(-trunc, trunc + 1)
    mult = np.sqrt(1.0 - 1.0 / (ks * ks + ell * ell))
    n = 2 * trunc + 1
    mat = np.zeros((n, n), dtype=complex)
    # each coupling pair is computed once and mirrored with an exact sign
    # flip, so the advective part is skew-Hermitian bit-for-bit
    coef = 0.5 * a * ell * _amplitude(1.0, nu, t)
    sup = coef * mult[:-1] * mult[1:]
    mat[np.arange(0, n - 1), np.arange(1, n)] = sup
    mat[np.arange(1, n), np.arange(0, n - 1)] = -sup
    diag = np.arange(n)
    mat[diag, diag] = -nu * (ks * ks + ell * ell)
    if abs(ell) == 1:
        keep = ks != 0
        mat = mat[np.ix_(keep, keep)]
        ks = ks[keep]
    return OperatorSlice(ell, trunc, nu, a, t, "symmetrized", ks, mat)


def _dipole_modes(trunc, symmetrized):
    excluded = {(0, 0)}
    if symmetrized:
        excluded |= {(1, 0), (-1, 0), (0, 1), (0, -1)}
    modes = [
        (k, l)
        for k in range(-trunc, trunc + 1)
        for l in range(-trunc, trunc + 1)
        if (k, l) not in excluded
    ]
    return np.array(modes, dtype=int)


def dipole_operator(trunc, nu, a, t=0.0):
    """Linearization about the m=1 Taylor-Green state as one dense matrix.

    Row (k, l) combines shear-type couplings in k (prefactor -l/2) with
    couplings in l of the same form but with k and l exchanged (prefactor
    +k/2), each carrying the non-local factor 1 - 1/(mode of origin).
    """
    if trunc < 2:
        raise ValueError("trunc must be at least 2")
    modes = _dipole_modes(trunc, symmetrized=False)
    index = {(int(k), int(l)): r for r, (k, l) in enumerate(modes)}
    amp = _amplitude(a, nu, t)
    dim = len(modes)
    mat = np.zeros((dim, dim), dtype=complex)

    def g(k, l):
        return 1.0 - 1.0 / (k * k + l * l)

    for r, (k, l) in enumerate(modes):
        k = int(k)
        l = int(l)
        mat[r, r] = -nu * (k * k + l * l)
        for src, coef in (
            ((k - 1, l), -(l / 2) * amp),
            ((k + 1, l), +(l / 2) * amp),
            ((k, l - 1), +(k / 2) * amp),
            ((k, l + 1), -(k / 2) * amp),
        ):
            c = index.get(src)
            if c is not None:
                mat[r, c] = coef * g(*src)
    return DipoleOperator(trunc, nu, a, t, False, modes, mat)


def symmetrized_dipole_operator(trunc, nu, a, t=0.0):
    """Taylor-Green linearization conjugated by sqrt(1 - 1/(k^2 + l^2)).

    The advective part becomes exactly antisymmetric; the four modes with
    k^2 + l^2 = 1 (vanishing multiplier) are excluded along with the zero
    mode.
    """
    if trunc < 2:
        raise ValueError("trunc must be at least 2")
    modes = _dipole_modes(trunc, symmetrized=True)
    index = {(int(k), int(l)): r for r, (k, l) in enumerate(modes)}
    amp = _amplitude(a, nu, t)
    dim = len(modes)
    mat = np.zeros((dim, dim), dtype=complex)

    def s(k, l):
        return math.sqrt(1.0 - 1.0 / (k * k + l * l))

    # each undirected coupling is computed once and mirrored with an exact
    # sign flip, keeping the advective part skew-Hermitian bit-for-bit
    for r, (k, l) in enumerate(modes):
        k = int(k)
        l = int(l)
        mat[r, r] = -nu * (k * k + l * l)
        sr = s(k, l)
        for nbr, coef in (
            ((k + 1, l), +(l / 2) * amp),
            ((k, l + 1), -(k / 2) * amp),
        ):
            c = index.get(nbr)
            if c is not None:
                v = coef * sr * s(*nbr)
                mat[r, c] = v
                mat[c, r] = -v
    return DipoleOperator(trunc, nu, a, t, True, modes, mat)


def anomalous_generator(nu, a, t, jmax, sign=+1):
    """Generator of the closed tridiagonal system for the anomalous
    coordinates on the row l = sign.

    Variables are ordered (even_0, odd_0, even_1, odd_1, ..., even_jmax,
    odd_jmax), matching :class:`barflow.fields.AnomalousCoordinates` for the
    chosen sign.  With g(m) = 1 - 1/(m^2 + 1) and amp = a e^{-nu t}:

        d/dt even_0 = -nu even_0 + sign (amp/2) odd_0
        d/dt even_j = -nu (4 j^2 + 1) even_j
                      - sign (amp/2) [g(2j-1) odd_{j-1} - g(2j+1) odd_j]
        d/dt odd_j  = -nu ((2j+1)^2 + 1) odd_j
                      - sign (amp/2) [g(2j) even_j - g(2j+2) even_{j+1}]

    The even_{jmax+1} coupling is dropped (truncation); the system then
    matches the two-dimensional generator truncated at N = 2 jmax + 1.
    """
    jmax = int(jmax)
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    amp = _amplitude(a, nu, t)
    dim = 2 * (jmax + 1)
    mat = np.zeros((dim, dim), dtype=float)

    def g(m):
        return 1.0 - 1.0 / (m * m + 1.0)

    half = sign * amp / 2.0
    mat[0, 0] = -nu
    mat[0, 1] = +half
    for j in range(1, jmax + 1):
        p = 2 * j
        mat[p, p] = -nu * (4 * j * j + 1)
        mat[p, p - 1] = -half * g(2 * j - 1)
        mat[p, p + 1] = +half * g(2 * j + 1)
    for j in range(0, jmax + 1):
        q = 2 * j + 1
        mat[q, q] = -nu * ((2 * j + 1) ** 2 + 1)
        mat[q, q - 1] = -half * g(2 * j)
        if j < jmax:
            mat[q, q + 1] = +half * g(2 * j + 2)
    return mat


def bar_coupling_factors(nx, ny, variant):
    """Non-local coupling factors of the two-dimensional shear generator.

    Returns ``(fm, fp)`` where fm[k, l] multiplies the coupling from mode
    (k-1, l) and fp[k, l] the one from (k+1, l); both are 1 for the
    approximate variant.  The entries that would reference the excluded
    zero mode are set to 0 (they only arise on the l = 0 row, where the
    advection prefactor vanishes anyway).
    """
    ks = np.arange(-nx, nx + 1)[:, None].astype(float)
    ls = np.arange(-ny, ny + 1)[None, :].astype(float)
    if variant == "approximate":
        fm = np.ones((2 * nx + 1, 2 * ny + 1))
        fp = np.ones((2 * nx + 1, 2 * ny + 1))
    elif variant == "full":
        dm = (ks - 1) ** 2 + ls * ls
        dp = (ks + 1) ** 2 + ls * ls
        dm[dm == 0] = np.inf
        dp[dp == 0] = np.inf
        fm = 1.0 - 1.0 / dm
        fp = 1.0 - 1.0 / dp
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return fm, fp


def apply_bar_generator(w, nu, a, t=0.0, variant="full"):
    """Apply the full two-dimensional shear linearization to a field.

    Each l row evolves independently; the l = 0 row is purely diagonal.
    """
    ks, ls = w.wavenumbers()
    amp = _amplitude(a, nu, t)
    fm, fp = bar_coupling_factors(w.nx, w.ny, variant)
    c = w.coeffs
    sm = np.zeros_like(c)
    sm[1:, :] = c[:-1, :]
    sp = np.zeros_like(c)
    sp[:-1, :] = c[1:, :]
    out = -nu * (ks * ks + ls * ls) * c - (ls / 2.0) * amp * (fm * sm - fp * sp)
    return _wrap(w.nx, w.ny, out, False)


def apply_bar_adjoint(w, nu, a, t=0.0):
    """Apply the adjoint of the full shear linearization to a field.

    In coefficient form the adjoint moves the non-local factor to the
    target mode: row (k, l) gains +(l/2) amp (1 - 1/(k^2+l^2))
    [what(k-1, l) - what(k+1, l)].
    """
    ks, ls = w.wavenumbers()
    amp = _amplitude(a, nu, t)
    d = (ks * ks + ls * ls).astype(float)
    d[w.nx, w.ny] = np.inf
    fk = 1.0 - 1.0 / d
    c = w.coeffs
    sm = np.zeros_like(c)
    sm[1:, :] = c[:-1, :]
    sp = np.zeros_like(c)
    sp[:-1, :] = c[1:, :]
    out = -nu * (ks * ks + ls * ls) * c + (ls / 2.0) * amp * fk * (sm - sp)
    return _wrap(w.nx, w.ny, out, False)


def save_matrix(op, path):
    """Write nonzero entries as ``row,col,re,im`` CSV plus a JSON sidecar
    (``<path>.meta.json``) recording the build parameters."""
    mat = op.matrix
    lines = ["row,col,re,im"]
    rows, cols = np.nonzero(mat)
    for r, c in zip(rows.tolist(), cols.tolist()):
        v = mat[r, c]
        lines.append(f"{r},{c},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(op.params(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path):
    """Read a matrix CSV (entries dict) and its JSON sidecar (params)."""
    entries = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            r, c, re, im = line.split(",")
            entries[(int(r), int(c))] = float(re) + 1j * float(im)
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    return entries, meta


def build_from_params(params):
    """Rebuild an operator from a sidecar parameter dict."""
    kind = params["kind"]
    if kind == "bar_slice":
        variant = params["variant"]
        if variant == "symmetrized":
            return symmetrized_bar_slice(
                params["ell"], params["trunc"], params["nu"], params["a"], params["t"]
            )
        if variant == "adjoint":
            return adjoint_slice(
                bar_slice(
                    params["ell"],
                    params["trunc"],
                    params["nu"],
                    params["a"],
                    params["t"],
                    "full",
                )
            )
        return bar_slice(
            params["ell"], params["trunc"], params["nu"], params["a"], params["t"], variant
        )
    if kind == "dipole":
        if params["variant"] == "dipole-symmetrized":
            return symmetrized_dipole_operator(
                params["trunc"], params["nu"], params["a"], params["t"]
            )
        return dipole_operator(params["trunc"], params["nu"], params["a"], params["t"])
    if kind == "anomalous":
        class _Plain:
            def __init__(self, matrix, params):
                self.matrix = matrix
                self._params = params

            def params(self):
                return self._params

        mat = anomalous_generator(
            params["nu"], params["a"], params["t"], params["jmax"], params["sign"]
        )
        return _Plain(mat.astype(complex), params)
    raise ValueError(f"unknown operator kind {kind!r}")
