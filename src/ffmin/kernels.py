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

Each term has two halves. The energy half (stretch, bend, torsion,
nonbonded) returns the term energies, a bad row, and the intermediates its
derivative needs; the gradient half (stretch_grad ...) takes those
intermediates and writes dE/d(edge vector) into the term's rows of an
output block G, so each formula exists once. nonbonded hands on only its
parameters: nonbonded_grad recomputes the pair terms, so a value sweep kept
for a later gradient holds no pair-sized array but D and R. scatter() turns
the whole table into the atom gradient by adding +G at ea and -G at eb.
Leading axes of D and R hold independent coordinate sets (a single-atom
delta evaluates the current and the moved position in one call; gradient
halves take one set); energies are summed over the rows only. Summation
order is fixed, so repeated calls on the same inputs are bit-identical.

Kernels do not raise. Degenerate geometry is reported as the first bad row
of the section, counting a row bad when it is bad in any coordinate set (-1
means clean); the energy layer turns it into a typed error naming the term.
Length checks run only when short is true: too_short(R) is false when no
gathered length could trip one, so a clean sweep pays one R.min() for all
of them. The energy at a zero-length bond exists, so only stretch_grad
checks for it; collinear bend arms are likewise checked by bend_grad.
"""

from __future__ import annotations

import numpy as np

from .constants import COULOMB_KJ_ANGSTROM, DEGENERATE_EPS, MIN_PAIR_DISTANCE

_C = COULOMB_KJ_ANGSTROM
_EPS = DEGENERATE_EPS
_RMIN = MIN_PAIR_DISTANCE
# no length at or above this trips any kernel's length check
_LMIN = max(_RMIN, _EPS)

# the torsion is sum_k 0.5*V_k*(1 + SIGN_k*cos(k*phi)) over k = 1..4, and
# its derivative sum_k V_k*DPHI_k*sin(k*phi); the plan holds V*SIGN and
# V*DPHI per dihedral
_K = np.arange(1.0, 5.0)
TORSION_SIGN = np.array([1.0, -1.0, 1.0, -1.0])
TORSION_DPHI = -0.5 * _K * TORSION_SIGN
# x[..., _ROT1] and x[..., _ROT2]: the components of a cross product's terms
_ROT1 = np.array([1, 2, 0])
_ROT2 = np.array([2, 0, 1])
_sum = np.add.reduce  # np.sum without its Python-level dispatch
try:
    # np.einsum without its Python-level dispatch: what it calls when
    # optimize is off, as here
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # a NumPy that keeps it elsewhere
    _einsum = np.einsum


def _dot(a, b):
    """Row dot products over the last axis.

    The operands must be C-ordered rows: einsum sums an F-ordered operand
    in another order.
    """
    return _einsum("...j,...j->...", a, b)


def _first(bad):
    """-1 when no entry of bad is set, else the first row (last axis) set."""
    if not bad.any():
        return -1
    return int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])


def edges(c, idx):
    """Difference vectors D = c[idx[0]] - c[idx[1]] and their lengths R."""
    d = c.take(idx[0], axis=-2)
    d -= c.take(idx[1], axis=-2)
    return d, np.sqrt(_dot(d, d))


def too_short(R):
    """True when some length in R could trip a kernel's length check."""
    return R.size > 0 and R.min() < _LMIN


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


def stretch(D, R, K, r0, short):
    """Harmonic bonds: (energy, -1, K*(r - r0))."""
    dev = R - r0
    kdev = K * dev
    return _sum(kdev * dev, axis=-1), -1, kdev


def stretch_grad(D, R, kdev, G, short):
    """dE/d(bond) into G; the bad row for r = 0, else -1."""
    if short:
        bad = _first(R < _RMIN)
        if bad >= 0:
            return bad
    np.multiply((2.0 * kdev / R)[..., None], D, out=G)
    return -1


def bend(D, R, K, t0, short):
    """Harmonic angles: (energy, bad for a zero-length arm, intermediates)."""
    m = K.size
    D = D.reshape(D.shape[:-2] + (2, m, 3))
    R = R.reshape(R.shape[:-1] + (2, m))
    if short:
        bad = _first(R < _EPS)
        if bad >= 0:
            return 0.0, bad, None
    a, b = D[..., 0, :, :], D[..., 1, :, :]
    nab = R[..., 0, :] * R[..., 1, :]
    u = _dot(a, b) / nab
    np.minimum(np.maximum(u, -1.0, out=u), 1.0, out=u)
    dev = np.arccos(u) - t0
    kdev = K * dev
    return _sum(kdev * dev, axis=-1), -1, (nab, u, kdev)


def bend_grad(D, R, mid, G, short):
    """dE/d(arm) into G; the bad row for collinear arms, else -1."""
    nab, u, kdev = mid
    m = u.size
    sin_th = np.sqrt(1.0 - u * u)
    bad = _first(sin_th < _EPS)
    if bad >= 0:
        return bad
    pref = -2.0 * kdev / sin_th
    D = D.reshape(2, m, 3)
    R = R.reshape(2, m)
    # dE/da = pref*(b/(|a||b|) - u*a/|a|^2), and the same with a, b swapped
    G = G.reshape(2, m, 3)
    np.multiply((pref / nab)[:, None], D[::-1], out=G)
    G -= ((pref * u) / (R * R))[..., None] * D
    return -1


def torsion(D, R, V, VS, VD, short):
    """OPLS torsions: (energy, bad for a vanishing plane normal or, when
    short, central bond, intermediates); VS and VD are V*TORSION_SIGN and
    V*TORSION_DPHI."""
    m = V.shape[0]
    D = D.reshape(D.shape[:-2] + (3, m, 3))
    b2n = R.reshape(R.shape[:-1] + (3, m))[..., 1, :]
    # plane normals n1 = b1 x b2 and n2 = b2 x b3, with np.cross's arithmetic
    P, Q = D.take(_ROT1, axis=-1), D.take(_ROT2, axis=-1)
    N = P[..., :2, :, :] * Q[..., 1:, :, :] - Q[..., :2, :, :] * P[..., 1:, :, :]
    nn = _dot(N, N)
    bad = nn < _EPS * _EPS
    if short:
        bad |= (b2n < _EPS)[..., None, :]
    bad = _first(bad)
    if bad >= 0:
        return 0.0, bad, None
    n1, n2 = N[..., 0, :, :], N[..., 1, :, :]
    phi = np.arctan2(b2n * _dot(D[..., 0, :, :], n2), _dot(n1, n2))
    kphi = phi[..., None] * _K
    e = 0.5 * _sum(V + VS * np.cos(kphi), axis=(-2, -1))
    return e, -1, (N, nn, b2n, kphi, VD)


def torsion_grad(D, R, mid, G, short):
    """dE/d(b1, b2, b3) into G; always -1."""
    N, nn, b2n, kphi, VD = mid
    m = nn.shape[-1]
    dedphi = _dot(VD, np.sin(kphi))
    D = D.reshape(3, m, 3)
    G = G.reshape(3, m, 3)
    # dE/db1 = w*|b2|/|n1|^2 n1 and dE/db3 = w*|b2|/|n2|^2 n2, w = dE/dphi
    np.multiply((dedphi * b2n / nn)[..., None], N, out=G[::2])
    # dE/db2 = -(p dE/db1 + s dE/db3), p = b1.b2/|b2|^2, s = b3.b2/|b2|^2
    ps = _dot(D[::2], D[1]) / (b2n * b2n)
    _einsum("km,kmj->mj", ps, G[::2], out=G[1])
    np.negative(G[1], out=G[1])
    return -1


def _pair_terms(R, qq, sig, cutoff):
    """Per pair 1/r (0 beyond a cutoff > 0), qq/r, x6 = (sig/r)^6 and x12 - x6."""
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
    return inv, qinv, x6, lj


def nonbonded(D, R, qq, sig, seps, cutoff, short):
    """Coulomb and LJ over interacting pairs: (coulomb, vdw, bad for r = 0,
    the parameters); seps is scale*epsilon.

    With cutoff > 0 only pairs with r <= cutoff count.
    """
    if short:
        bad = _first(R < _RMIN)
        if bad >= 0:
            return 0.0, 0.0, bad, None
    _, qinv, _, lj = _pair_terms(R, qq, sig, cutoff)
    lj *= seps
    return _C * _sum(qinv, axis=-1), 4.0 * _sum(lj, axis=-1), -1, (qq, sig, seps, cutoff)


def nonbonded_grad(D, R, mid, G, short):
    """dE/d(pair) into G; always -1."""
    qq, sig, seps, cutoff = mid
    inv, qinv, x6, f = _pair_terms(R, qq, sig, cutoff)
    # dE/dr / r = -(C qq/r + 24 s eps (2 x12 - x6)) / r^2, 2 x12 - x6 = 2 lj + x6
    f += f
    f += x6
    f *= seps
    f *= -24.0
    qinv *= -_C
    f += qinv
    f *= inv
    f *= inv
    np.multiply(f[..., None], D, out=G)
    return -1
