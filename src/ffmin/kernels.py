"""Vectorized NumPy kernels for the force-field terms, in float64.

The evaluation plan, MolecularSystem.arrays(), lists every difference vector
any term needs in one edge table: edge e is c[ea[e]] - c[eb[e]]. edges()
gathers them and their lengths in one pass, and each term kernel reads its
own section of those rows and gathers nothing itself:

  stretch    d = c_i - c_j for each bond;
  bend       a = c_i - c_j for each angle, then b = c_k - c_j for each;
  torsion    b1 = c_j - c_i for each dihedral, then every b2 = c_k - c_j,
             then every b3 = c_l - c_k;
  nonbonded  d = c_i - c_j for each interacting pair; the package's only
             Coulomb and LJ formula, also for a single-atom delta's pairs
             and, with epsilon 0, the far-field linearization's.

Given an output block G, a kernel also writes dE/d(edge vector) into its
rows, and scatter() turns the whole table into the atom gradient by adding
+G at ea and -G at eb. Leading axes of D and R hold independent coordinate
sets (a single-atom delta evaluates the current and the moved position in
one call); energies are summed over the rows only. Summation order is fixed,
so repeated calls on the same inputs are bit-identical.

Kernels do not raise. Degenerate geometry is reported as the first bad row
of the section, counting a row bad when it is bad in any coordinate set (-1
means clean); the energy layer turns it into a typed error naming the term.
"""

from __future__ import annotations

import numpy as np

from .constants import COULOMB_KJ_ANGSTROM, DEGENERATE_EPS, MIN_PAIR_DISTANCE

_C = COULOMB_KJ_ANGSTROM
_EPS = DEGENERATE_EPS
_RMIN = MIN_PAIR_DISTANCE

# the torsion is sum_k 0.5*V_k*(1 + sign_k*cos(k*phi)) over k = 1..4
_K = np.arange(1.0, 5.0)
_SIGN = np.array([1.0, -1.0, 1.0, -1.0])
# and its derivative sum_k V_k*_DPHI_k*sin(k*phi)
_DPHI = -0.5 * _K * _SIGN
# x[..., _ROT1] and x[..., _ROT2]: the components of a cross product's terms
_ROT1 = np.array([1, 2, 0])
_ROT2 = np.array([2, 0, 1])
_sum = np.add.reduce  # np.sum without its Python-level dispatch


def _dot(a, b):
    """Row dot products over the last axis.

    The operands must be C-ordered rows: einsum sums an F-ordered operand
    in another order.
    """
    return np.einsum("...j,...j->...", a, b)


def _first(bad):
    """-1 when no entry of bad is set, else the first row (last axis) set."""
    if not bad.any():
        return -1
    return int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])


def edges(c, idx):
    """Difference vectors D = c[idx[0]] - c[idx[1]] and their lengths R."""
    d = np.take(c, idx[0], axis=-2)
    d -= np.take(c, idx[1], axis=-2)
    return d, np.sqrt(_dot(d, d))


def scatter(w, index, n):
    """The (n, 3) atom gradient of an edge-gradient table.

    w is (2M, 3) with dE/d(edge) in its first M rows; the last M rows are
    overwritten with their negatives, and index = [ea..., eb...] places
    each row. One np.bincount per axis sums each atom's rows in index
    order from zero.
    """
    m = w.shape[0] // 2
    np.negative(w[:m], out=w[m:])
    g = np.empty((n, 3))
    for axis in range(3):
        g[:, axis] = np.bincount(index, weights=w[:, axis], minlength=n)
    return g


def stretch(D, R, K, r0, G=None):
    """Harmonic bonds: (energy, bad). Only the gradient checks for r = 0."""
    if G is not None:
        bad = _first(R < _RMIN)
        if bad >= 0:
            return 0.0, bad
    dev = R - r0
    kdev = K * dev
    if G is not None:
        np.multiply((2.0 * kdev / R)[..., None], D, out=G)
    return _sum(kdev * dev, axis=-1), -1


def bend(D, R, K, t0, G=None):
    """Harmonic angles: (energy, bad) for zero arms, or, with G, collinear arms."""
    m = K.size
    D = D.reshape(D.shape[:-2] + (2, m, 3))
    R = R.reshape(R.shape[:-1] + (2, m))
    bad = _first(R < _EPS)
    if bad >= 0:
        return 0.0, bad
    a, b = D[..., 0, :, :], D[..., 1, :, :]
    nab = R[..., 0, :] * R[..., 1, :]
    u = _dot(a, b) / nab
    np.minimum(np.maximum(u, -1.0, out=u), 1.0, out=u)
    dev = np.arccos(u) - t0
    kdev = K * dev
    if G is not None:
        sin_th = np.sqrt(1.0 - u * u)
        bad = _first(sin_th < _EPS)
        if bad >= 0:
            return 0.0, bad
        pref = -2.0 * kdev / sin_th
        # dE/da = pref*(b/(|a||b|) - u*a/|a|^2), and the same with a, b swapped
        G = G.reshape(2, m, 3)
        np.multiply((pref / nab)[:, None], D[::-1], out=G)
        G -= ((pref * u) / (R * R))[..., None] * D
    return _sum(kdev * dev, axis=-1), -1


def torsion(D, R, V, G=None):
    """OPLS torsions: (energy, bad) for a vanishing plane normal or central bond."""
    m = V.shape[0]
    D = D.reshape(D.shape[:-2] + (3, m, 3))
    b2n = R.reshape(R.shape[:-1] + (3, m))[..., 1, :]
    # plane normals n1 = b1 x b2 and n2 = b2 x b3, with np.cross's arithmetic
    P, Q = np.take(D, _ROT1, axis=-1), np.take(D, _ROT2, axis=-1)
    N = P[..., :2, :, :] * Q[..., 1:, :, :] - Q[..., :2, :, :] * P[..., 1:, :, :]
    nn = _dot(N, N)
    bad = _first((nn < _EPS * _EPS) | (b2n < _EPS)[..., None, :])
    if bad >= 0:
        return 0.0, bad
    n1, n2 = N[..., 0, :, :], N[..., 1, :, :]
    phi = np.arctan2(b2n * _dot(D[..., 0, :, :], n2), _dot(n1, n2))
    kphi = phi[..., None] * _K
    e = 0.5 * _sum(V + (V * _SIGN) * np.cos(kphi), axis=(-2, -1))
    if G is not None:
        dedphi = _dot(V * _DPHI, np.sin(kphi))
        G = G.reshape(3, m, 3)
        # dE/db1 = w*|b2|/|n1|^2 n1 and dE/db3 = w*|b2|/|n2|^2 n2, w = dE/dphi
        np.multiply((dedphi * b2n / nn)[..., None], N, out=G[::2])
        # dE/db2 = -(p dE/db1 + s dE/db3), p = b1.b2/|b2|^2, s = b3.b2/|b2|^2
        ps = _dot(D[::2], D[1]) / (b2n * b2n)
        np.einsum("km,kmj->mj", ps, G[::2], out=G[1])
        np.negative(G[1], out=G[1])
    return e, -1


def nonbonded(D, R, qq, sig, eps, s, cutoff, G=None):
    """Coulomb and LJ over interacting pairs: (coulomb, vdw, bad) for r = 0.

    With cutoff > 0 only pairs with r <= cutoff count.
    """
    bad = _first(R < _RMIN)
    if bad >= 0:
        return 0.0, 0.0, bad
    # in place where it saves a pair-sized temporary
    inv = 1.0 / R
    if cutoff > 0.0:
        # a zero 1/r zeroes every energy and gradient term of the pair
        inv[R > cutoff] = 0.0
    qinv = qq * inv
    x6 = sig * inv
    x6 **= 6
    lj = x6 * x6
    lj -= x6
    seps = s * eps
    ec = _C * _sum(qinv, axis=-1)
    if G is not None:
        # dE/dr / r = -(C qq/r + 24 s eps (2 x12 - x6)) / r^2, 2 x12 - x6 = 2 lj + x6
        f = lj + lj
        f += x6
        f *= seps
        f *= -24.0
        qinv *= -_C
        f += qinv
        f *= inv
        f *= inv
        np.multiply(f[..., None], D, out=G)
    lj *= seps
    return ec, 4.0 * _sum(lj, axis=-1), -1

