"""Vectorized NumPy kernels for the force-field terms, in float64.

The evaluation plan, MolecularSystem.arrays(), lists every difference vector
any term needs in one edge table: edge e is c[ea[e]] - c[eb[e]]. The table
is held as a flat index (flat_index): entries 3*atom + axis into the
flattened coordinates, ea's three in the first row and eb's in the second.
edges() gathers the vectors and their lengths in one pass, and each term
kernel reads its own section of those rows and gathers nothing itself:

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
output block G, so each formula exists once. nonbonded hands on its pair
terms too, so the gradient half reuses them. G is the first M rows of a
C-ordered (2M, 3) block W: scatter() fills the other M with -G and sums all
2M rows into the flat atom gradient with one np.bincount on the same flat
index. Leading axes of D and R hold independent coordinate sets (a
single-atom delta evaluates the unmoved position and each displaced one in
one call; gradient halves take one set); energies are summed over the rows
only, so each set's energies are those it gets alone. Summation order is
fixed, so repeated calls on the same inputs are bit-identical.

At desk scale a call costs its NumPy dispatches and Python frames more than
its arithmetic. So the halves call NumPy's C entry points directly, reuse a
temporary in place where the operation and its operands stay the same (the
bits do too), and a clean check costs one count_nonzero and no frame.

Kernels do not raise. Degenerate geometry is reported as the first bad row
of the section, counting a row bad when it is bad in any coordinate set (-1
means clean); the energy layer turns it into a typed error naming the term.
Length checks run only when short is true: too_short(R) is false when no
gathered length could trip one, so a clean sweep pays one argmin for all
of them. At n=12 that saves 5-7 % of an oracle's value + gradient pair and
about 5 % of a fused call, against checking every length on every call.
The energy at a zero-length bond exists, so only stretch_grad checks for
it; collinear bend arms are likewise checked by bend_grad.
"""

from __future__ import annotations

import numpy as np
# np.einsum (as it runs with optimize off, as here), np.count_nonzero and np.clip
# without the Python-level dispatch that at desk scale outweighs the arithmetic
from numpy._core.multiarray import c_einsum as _einsum, count_nonzero as _count
from numpy._core.umath import clip as _clip

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
# x[..., _ROT] = (x[..., [1, 2, 0]], x[..., [2, 0, 1]]): a cross product's terms
_ROT = np.array([1, 2, 0, 2, 0, 1])
_sum = np.add.reduce  # np.sum without its Python-level dispatch
# row dot products over the last axis; the operands must be C-ordered rows,
# as einsum sums an F-ordered operand in another order
_ROWS = "...j,...j->..."


def all_finite(a):
    """np.isfinite(a).all(), without its dispatch."""
    return _count(np.isfinite(a)) == a.size


def _first(bad):
    """-1 when no entry of bad is set, else the first row (last axis) set."""
    if not _count(bad):
        return -1
    return int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])


def flat_index(pairs):
    """The flat edge index (2, 3k) of the atom pairs (2, k): for edge e, the
    entries 3*atom + axis of its atoms, axis 0 to 2."""
    # filled one axis at a time: slower than a broadcast over 3 under about
    # 150 edges, and 3.6-3.8x faster at 3000
    idx = np.empty(pairs.shape + (3,), dtype=pairs.dtype)
    first = np.multiply(pairs, 3, out=idx[..., 0])
    np.add(first, 1, out=idx[..., 1])
    np.add(first, 2, out=idx[..., 2])
    return idx.reshape(2, -1)


def edges(c, idx):
    """Difference vectors D = c[ea] - c[eb] and their lengths R, for the
    coordinates c (..., n, 3) and a flat edge index idx (flat_index)."""
    c = c.reshape(*c.shape[:-2], -1)
    d = c.take(idx[0], axis=-1)
    d -= c.take(idx[1], axis=-1)
    d = d.reshape(*d.shape[:-1], -1, 3)
    return d, np.sqrt(_einsum(_ROWS, d, d))


def too_short(R):
    """True when some length in R could trip a kernel's length check: R.min(),
    read where argmin finds it, is below _LMIN."""
    return R.size > 0 and R.ravel()[R.argmin()] < _LMIN


def scatter(W, idx, n):
    """The flat atom gradient (3n,) of an edge-gradient table.

    W is (2M, 3), C-ordered, with dE/d(edge) in its first M rows; the last
    M are overwritten with their negatives, and the flat edge index idx
    (2, 3M) places each entry, +G at ea and -G at eb. One np.bincount sums
    each coordinate's entries in index order from zero.
    """
    m = W.shape[0] // 2
    if not m:
        # np.bincount counts in integers when it has no weights to add
        return np.zeros(3 * n)
    np.negative(W[:m], out=W[m:])
    return np.bincount(idx.reshape(-1), W.reshape(-1), 3 * n)


def stretch(D, R, K, r0, short):
    """Harmonic bonds: (energy, -1, K*(r - r0))."""
    dev = R - r0
    kdev = K * dev
    dev *= kdev
    return _sum(dev, axis=-1), -1, kdev


def stretch_grad(D, R, kdev, G, short):
    """dE/d(bond) into G; the bad row for r = 0, else -1."""
    if short:
        bad = _first(R < _RMIN)
        if bad >= 0:
            return bad
    np.multiply((2.0 * kdev / R)[:, None], D, out=G)
    return -1


def bend(D, R, K, t0, short):
    """Harmonic angles: (energy, bad for a zero-length arm, intermediates)."""
    m = K.size
    if short:
        bad = _first(R.reshape(R.shape[:-1] + (2, m)) < _EPS)
        if bad >= 0:
            return 0.0, bad, None
    nab = R[..., :m] * R[..., m:]
    u = _einsum(_ROWS, D[..., :m, :], D[..., m:, :])
    u /= nab
    _clip(u, -1.0, 1.0, out=u)
    dev = np.arccos(u)
    dev -= t0
    kdev = K * dev
    dev *= kdev
    return _sum(dev, axis=-1), -1, (nab, u, kdev)


def bend_grad(D, R, mid, G, short):
    """dE/d(arm) into G; the bad row for collinear arms, else -1."""
    nab, u, kdev = mid
    sin_th = u * u
    np.subtract(1.0, sin_th, out=sin_th)
    np.sqrt(sin_th, out=sin_th)
    bad = sin_th < _EPS
    if _count(bad):
        return _first(bad)
    pref = -2.0 * kdev / sin_th
    # dE/da = pref*(b/(|a||b|) - u*a/|a|^2), and the same with a, b swapped
    m = u.size
    D = D.reshape(2, m, 3)
    G = G.reshape(2, m, 3)
    np.multiply((pref / nab)[:, None], D[::-1], out=G)
    G -= ((pref * u) / (R * R).reshape(2, m))[:, :, None] * D
    return -1


def torsion(D, R, V, VS, VD, short):
    """OPLS torsions: (energy, bad for a vanishing plane normal or, when
    short, central bond, intermediates); VS and VD are V*TORSION_SIGN and
    V*TORSION_DPHI."""
    m = V.shape[0]
    D = D.reshape(D.shape[:-2] + (3, m, 3))
    b2n = R[..., m:2 * m]
    # plane normals n1 = b1 x b2 and n2 = b2 x b3, with np.cross's arithmetic
    PQ = D.take(_ROT, axis=-1)
    N = PQ[..., :2, :, :3] * PQ[..., 1:, :, 3:]
    N -= PQ[..., :2, :, 3:] * PQ[..., 1:, :, :3]
    nn = _einsum(_ROWS, N, N)
    bad = nn < _EPS * _EPS
    if short:
        bad |= (b2n < _EPS)[..., None, :]
    if _count(bad):
        return 0.0, _first(bad), None
    n2 = N[..., 1, :, :]
    phi = np.arctan2(b2n * _einsum(_ROWS, D[..., 0, :, :], n2),
                     _einsum(_ROWS, N[..., 0, :, :], n2))
    kphi = phi[..., None] * _K
    t = np.cos(kphi)
    t *= VS
    t += V
    return 0.5 * _sum(t, axis=(-2, -1)), -1, (D, N, nn, b2n, kphi, VD)


def torsion_grad(D, R, mid, G, short):
    """dE/d(b1, b2, b3) into G; always -1."""
    D, N, nn, b2n, kphi, VD = mid
    dedphi = _einsum(_ROWS, VD, np.sin(kphi))
    G = G.reshape(D.shape)
    # dE/db1 = w*|b2|/|n1|^2 n1 and dE/db3 = w*|b2|/|n2|^2 n2, w = dE/dphi
    dedphi *= b2n
    np.multiply((dedphi / nn)[:, :, None], N, out=G[::2])
    # dE/db2 = -(p dE/db1 + s dE/db3), p = b1.b2/|b2|^2, s = b3.b2/|b2|^2
    ps = _einsum(_ROWS, D[::2], D[1])
    ps /= b2n * b2n
    _einsum("km,kmj->mj", ps, G[::2], out=G[1])
    np.negative(G[1], out=G[1])
    return -1


def _pair_terms(R, qq, sig, cutoff):
    """Per pair 1/r (0 beyond a cutoff > 0), qq/r, x6 = (sig/r)^6 and x12 - x6."""
    # in place where it saves a pair-sized temporary
    inv = np.reciprocal(R)
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
    (seps, *pair terms)); seps is scale*epsilon.

    With cutoff > 0 only pairs with r <= cutoff count.
    """
    if short:
        bad = _first(R < _RMIN)
        if bad >= 0:
            return 0.0, 0.0, bad, None
    terms = _pair_terms(R, qq, sig, cutoff)
    return (_C * _sum(terms[1], axis=-1), 4.0 * _sum(terms[3] * seps, axis=-1), -1,
            (seps, *terms))


def nonbonded_grad(D, R, mid, G, short):
    """dE/d(pair) into G; always -1."""
    seps, inv, qinv, x6, f = mid
    # dE/dr / r = -(C qq/r + 24 s eps (2 x12 - x6)) / r^2, 2 x12 - x6 = 2 lj + x6
    f += f
    f += x6
    f *= seps
    f *= -24.0
    qinv *= -_C
    f += qinv
    f *= inv
    f *= inv
    np.multiply(f[:, None], D, out=G)
    return -1
