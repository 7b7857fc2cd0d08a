"""The linearized vorticity operators: banded slices and dense matrices.

All operators act on coefficient vectors indexed by wavenumber.  A per-row
("slice") operator at fixed transverse wavenumber ell is tridiagonal in k
and is stored as its three bands, row i for k = i - N, k in [-N, N]; the
symmetrized slice with |ell| = 1 removes k = 0, and the retained
wavenumbers are recorded on the returned object.  The two-dimensional
Taylor-Green linearization is a dense matrix whose rows enumerate modes
(k, l) in lexicographic order, skipping the excluded set; the index map is
stored explicitly as ``modes``.

The shared formulas are defined once.  Mode (k, l) couples to (k +- 1, l)
through the non-local factor g = 1 - 1/(k^2 + l^2) (:func:`_coupling_factor`,
1 for the ``approximate`` variant) and the zero-padded neighbour shift
:func:`_k_neighbours`; the bar's amplitude a e^{-nu t} is
:func:`_amplitude`; and every dense banded matrix, the cosine well of
``hypocoercivity`` included, is assembled from its bands by :func:`_banded`.
Every slice, dipole operator and field generator here is built from those
four; :func:`anomalous_generator` keeps its own hand-written g and loops
as an independent oracle.  Everything is real and stored as ``float64``
except the purely imaginary :func:`commutator_matrix`.

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
    """One fixed-ell slice of a linearized operator, as its three bands.

    ``wavenumbers[i]`` is the k value of row/column i; row i has ``diag[i]``
    on column i, ``sub[i]`` on column i - 1 and ``sup[i]`` on column i + 1
    (``sub[0]`` and ``sup[-1]`` lie outside the matrix).
    """

    ell: int
    trunc: int
    nu: float
    a: float
    t: float
    variant: str
    wavenumbers: np.ndarray
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @property
    def dim(self):
        return len(self.diag)

    @property
    def matrix(self):
        """The dense matrix, assembled from the bands."""
        return _banded(self.diag, {(-1,): self.sub, (1,): self.sup})

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
    """The bar's decaying amplitude a e^{-nu t}."""
    return a * math.exp(-nu * t)


def _coupling_factor(k, l, variant="full"):
    """Non-local factor g(k, l) = 1 - 1/(k^2 + l^2) of the shear coupling,
    broadcast over ``k`` and ``l``.

    It is 1 at the excluded zero mode k^2 + l^2 = 0, and 1 everywhere for
    the ``approximate`` variant, which drops the non-local part.
    """
    d = np.asarray(k * k + l * l, dtype=float)
    if variant == "approximate":
        return np.ones_like(d)
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    return 1.0 - 1.0 / np.where(d == 0, np.inf, d)


def _k_neighbours(c):
    """``(c(k-1), c(k+1))`` along the first axis, zero outside the
    truncation."""
    sm = np.zeros_like(c)
    sm[1:] = c[:-1]
    sp = np.zeros_like(c)
    sp[:-1] = c[1:]
    return sm, sp


def _l_neighbours(c):
    """``(c(k, l-1), c(k, l+1))`` along the second axis of a 2D array."""
    sm, sp = _k_neighbours(c.T)
    return sm.T, sp.T


def _banded(diag, couplings):
    """Dense matrix over a lattice of modes: ``diag`` (a 1D or 2D array,
    flattened in C order) on the diagonal, and for each ``offset: v`` of
    ``couplings`` mode m coupled to mode m + offset with weight v[m].
    Couplings that would leave the lattice are dropped.  The matrix is
    float64 unless an operand is complex; a slice's bands are
    ``{(-1,): sub, (1,): sup}``."""
    diag = np.asarray(diag, dtype=np.result_type(float, diag, *couplings.values()))
    modes = np.indices(diag.shape).reshape(diag.ndim, -1).T
    rows = np.arange(diag.size)
    mat = np.diag(diag.ravel())
    for offset, v in couplings.items():
        target = modes + offset
        inside = np.all((target >= 0) & (target < diag.shape), axis=1)
        cols = np.ravel_multi_index(tuple(target[inside].T), diag.shape)
        mat[rows[inside], cols] = np.ravel(v)[inside]
    return mat


def bar_slice(ell, trunc, nu, a, t=0.0, variant="full"):
    """Linearization about the m=1 shear state restricted to one ell row.

    Row k carries the diagonal -nu (k^2 + ell^2) and couplings

        column k-1:  -(ell/2) a e^{-nu t} g(k-1, ell)
        column k+1:  +(ell/2) a e^{-nu t} g(k+1, ell),

    with g = 1 - 1/(m^2 + ell^2) the non-local factor, replaced by 1 for
    the ``approximate`` variant.  ell = 0 is rejected: that row of the
    two-dimensional operator is purely diagonal and is assembled
    separately by the evolution routines.
    """
    ell = int(ell)
    if ell == 0:
        raise ValueError("ell = 0 has no band structure; handled as a diagonal block")
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    ks = np.arange(-trunc, trunc + 1)
    gm, gp = _k_neighbours(_coupling_factor(ks, ell, variant))
    band = -(ell / 2) * _amplitude(a, nu, t)
    diag = (-nu * (ks * ks + ell * ell)).astype(float)
    return OperatorSlice(ell, trunc, nu, a, t, variant, ks, diag, band * gm, -band * gp)


def advection_matrix(ell, trunc, a, t=0.0, nu=0.0):
    """Skew part of the approximate slice: -i a ell e^{-nu t} (sin x .).

    These are the off-diagonal bands of ``bar_slice(..., "approximate")``:
    row k receives -(a ell / 2) e^{-nu t} from column k-1 and the opposite
    sign from column k+1; the matrix is real and antisymmetric.
    """
    op = bar_slice(ell, trunc, nu, a, t, "approximate")
    return _banded(np.zeros(op.dim), {(-1,): op.sub, (1,): op.sup})


def commutator_matrix(ell, trunc, a, t=0.0, nu=0.0):
    """Commutator of d/dx with the advection: -i a ell e^{-nu t} (cos x .).

    [diag(i k), B] has entries i (k_row - k_col) B[row, col], so row k
    receives -i (a ell / 2) e^{-nu t} from both columns k +- 1.  The matrix
    is purely imaginary and the only complex one here.
    """
    op = bar_slice(ell, trunc, nu, a, t, "approximate")
    return 1j * _banded(np.zeros(op.dim), {(-1,): op.sub, (1,): -op.sup})


def adjoint_slice(op):
    """Conjugate transpose of a slice, tagged as the adjoint: its sub-band
    is the conjugated super-band shifted down one row, and vice versa."""
    sub, sup = _k_neighbours(op.sup.conj())[0], _k_neighbours(op.sub.conj())[1]
    return OperatorSlice(op.ell, op.trunc, op.nu, op.a, op.t, "adjoint", op.wavenumbers,
                         op.diag.conj(), sub, sup)


def symmetrized_bar_slice(ell, trunc, nu, a, t=0.0):
    """Slice conjugated by sqrt(g(k, ell)) so the advective part becomes
    exactly antisymmetric.

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
    mult = np.sqrt(_coupling_factor(ks, ell))
    # each coupling pair is computed once and mirrored with an exact sign
    # flip, so the advective part is antisymmetric bit-for-bit; the product
    # mult(k) mult(k+1) is formed first, so that it is symmetric in k and
    # the slice commutes with J bit-for-bit at any amplitude
    sup = 0.5 * a * ell * _amplitude(1.0, nu, t) * (mult * _k_neighbours(mult)[1])
    bands = [ks, (-nu * (ks * ks + ell * ell)).astype(float), -_k_neighbours(sup)[0], sup]
    if abs(ell) == 1:
        # every coupling to k = 0 carries mult(0) = 0, so the bands of
        # k = -1 and k = 1 become their (zero) couplings to each other
        bands = [b[ks != 0] for b in bands]
    return OperatorSlice(ell, trunc, nu, a, t, "symmetrized", *bands)


def _dipole(trunc, nu, a, t, symmetrized, couplings):
    """Taylor-Green operator on modes |k|, |l| <= trunc.

    ``couplings(k, l, amp, g)`` maps each neighbour offset (dk, dl) to the
    weight row (k, l) gives mode (k + dk, l + dl), as arrays over the
    lattice; the excluded modes are dropped after assembly.
    """
    if trunc < 2:
        raise ValueError("trunc must be at least 2")
    ks = np.arange(-trunc, trunc + 1)
    k, l = ks[:, None], ks[None, :]
    lap = k * k + l * l
    weights = couplings(k, l, _amplitude(a, nu, t), _coupling_factor(k, l))
    mat = _banded(-nu * lap, weights)
    keep = (lap > (1 if symmetrized else 0)).ravel()
    modes = np.stack(np.broadcast_arrays(k, l), axis=-1).reshape(-1, 2)[keep]
    return DipoleOperator(trunc, nu, a, t, symmetrized, modes, mat[np.ix_(keep, keep)])


def dipole_operator(trunc, nu, a, t=0.0):
    """Linearization about the m=1 Taylor-Green state as one dense matrix.

    Row (k, l) combines shear-type couplings in k (prefactor -l/2) with
    couplings in l of the same form but with k and l exchanged (prefactor
    +k/2), each carrying the non-local factor g of the mode of origin.
    """

    def couplings(k, l, amp, g):
        gkm, gkp = _k_neighbours(g)
        glm, glp = _l_neighbours(g)
        return {
            (-1, 0): -(l / 2) * amp * gkm,
            (+1, 0): +(l / 2) * amp * gkp,
            (0, -1): +(k / 2) * amp * glm,
            (0, +1): -(k / 2) * amp * glp,
        }

    return _dipole(trunc, nu, a, t, False, couplings)


def symmetrized_dipole_operator(trunc, nu, a, t=0.0):
    """Taylor-Green linearization conjugated by sqrt(g(k, l)).

    The advective part becomes exactly antisymmetric; the four modes with
    k^2 + l^2 = 1 (vanishing multiplier) are excluded along with the zero
    mode.
    """

    def couplings(k, l, amp, g):
        s = np.sqrt(g)
        # each undirected coupling is computed once and mirrored with an
        # exact sign flip, keeping the advective part antisymmetric
        sk = +(l / 2) * amp * s * _k_neighbours(s)[1]
        sl = -(k / 2) * amp * s * _l_neighbours(s)[1]
        return {
            (+1, 0): sk,
            (-1, 0): -_k_neighbours(sk)[0],
            (0, +1): sl,
            (0, -1): -_l_neighbours(sl)[0],
        }

    return _dipole(trunc, nu, a, t, True, couplings)


def anomalous_generator(nu, a, t, jmax, sign=+1):
    """Generator of the closed tridiagonal system for the anomalous
    coordinates on the row l = sign.

    Variables are ordered (even_0, odd_0, even_1, odd_1, ..., even_jmax,
    odd_jmax): the entries k = 0..2 jmax + 1 of w + J w, which
    ``barflow.fields.anomalous_coordinates(w, sign, jmax)`` returns.  With
    g(m) = 1 - 1/(m^2 + 1) and amp = a e^{-nu t}:

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


def _apply_by_row(w, nu, slice_of):
    """Apply ``slice_of(l)`` to each row l != 0 of a field, and -nu k^2 to
    the purely diagonal row l = 0."""
    ks = np.arange(-w.nx, w.nx + 1)
    out = np.empty_like(w.coeffs)
    for j, ell in enumerate(range(-w.ny, w.ny + 1)):
        c = w.coeffs[:, j]
        if ell == 0:
            out[:, j] = -nu * (ks * ks) * c
            continue
        op = slice_of(ell)
        sm, sp = _k_neighbours(c)
        out[:, j] = op.diag * c + op.sub * sm + op.sup * sp
    return _wrap(w.nx, w.ny, out, False)


def apply_bar_generator(w, nu, a, t=0.0, variant="full"):
    """Apply the full two-dimensional shear linearization to a field.

    Each l row evolves independently under its :func:`bar_slice`.
    """
    return _apply_by_row(w, nu, lambda ell: bar_slice(ell, w.nx, nu, a, t, variant))


def apply_bar_adjoint(w, nu, a, t=0.0):
    """Apply the adjoint of the full shear linearization to a field, row
    by row through :func:`adjoint_slice`."""
    return _apply_by_row(w, nu, lambda ell: adjoint_slice(bar_slice(ell, w.nx, nu, a, t)))


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


def bar_slice_for(ell, trunc, nu, a, t=0.0, variant="full"):
    """The bar slice of any variant: ``full`` and ``approximate`` from
    :func:`bar_slice`, ``symmetrized`` from :func:`symmetrized_bar_slice`,
    and ``adjoint`` as the adjoint of the ``full`` slice."""
    if variant == "symmetrized":
        return symmetrized_bar_slice(ell, trunc, nu, a, t)
    if variant == "adjoint":
        return adjoint_slice(bar_slice(ell, trunc, nu, a, t, "full"))
    return bar_slice(ell, trunc, nu, a, t, variant)


def build_from_params(params):
    """Rebuild an operator from a sidecar parameter dict."""
    kind = params["kind"]
    if kind == "bar_slice":
        return bar_slice_for(params["ell"], params["trunc"], params["nu"], params["a"],
                             params["t"], params["variant"])
    if kind == "dipole":
        if params["variant"] == "dipole-symmetrized":
            return symmetrized_dipole_operator(
                params["trunc"], params["nu"], params["a"], params["t"]
            )
        return dipole_operator(params["trunc"], params["nu"], params["a"], params["t"])
    raise ValueError(f"unknown operator kind {kind!r}")
