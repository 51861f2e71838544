"""Vectorized NumPy kernels for the force-field terms, in float64.

Every kernel takes the (n, 3) coordinate array c and arrays of the
system's evaluation plan, MolecularSystem.arrays(): term tables with one
contiguous row of atom indices per term column, scatter indices, and the
i<j pair tables with their precomputed scale, charge product and combined
LJ parameters. Summation order is fixed, so repeated calls on the same
inputs are bit-identical.

Kernels do not raise. Degenerate geometry is reported through returned
term/pair indices (-1 means clean); the energy layer turns those into typed
errors naming the term. Gradient kernels return the term energy and add
their gradient into gout in place, accumulating each atom's rows in the
order of the scatter index, starting from zero.
"""

from __future__ import annotations

import numpy as np

from .constants import COULOMB_KJ_ANGSTROM, DEGENERATE_EPS, MIN_PAIR_DISTANCE

_C = COULOMB_KJ_ANGSTROM
_EPS = DEGENERATE_EPS
_RMIN = MIN_PAIR_DISTANCE


def _cross(a, b):
    """np.cross of (m, 3) rows, with its multiply-then-subtract arithmetic.

    The result is C-ordered like np.cross's: einsum sums an F-ordered
    operand in another order.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty(a.shape)
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def _scatter_add(gout, scatter, blocks):
    """Add the rows of the (m, 3) blocks, stacked in order, to gout[scatter].

    One np.bincount per axis sums each atom's rows in scatter order from
    zero, as np.add.at would; only one axis of the stacked weights exists
    at a time.
    """
    n = gout.shape[0]
    for axis in range(3):
        w = np.concatenate([b[:, axis] for b in blocks])
        gout[:, axis] += np.bincount(scatter, weights=w, minlength=n)


def _scatter_pairs(gout, scatter, coef, d):
    """gout[i] += coef * d and gout[j] -= coef * d for scatter = [i..., j...].

    Same sums as _scatter_add(gout, scatter, (g, -g)) with
    g = coef[:, None] * d, built one axis at a time.
    """
    n = gout.shape[0]
    for axis in range(3):
        g = coef * d[:, axis]
        gout[:, axis] += np.bincount(scatter, weights=np.concatenate((g, -g)), minlength=n)


def bond_energy(c, bidx, K, r0):
    if bidx.shape[1] == 0:
        return 0.0
    i, j = bidx
    d = c[i] - c[j]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    dev = r - r0
    return float(np.sum(K * dev * dev))


def bond_grad(c, bidx, K, r0, scatter, gout):
    if bidx.shape[1] == 0:
        return 0.0, -1
    i, j = bidx
    d = c[i] - c[j]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    bad = np.nonzero(r < _RMIN)[0]
    if bad.size:
        return 0.0, int(bad[0])
    dev = r - r0
    e = float(np.sum(K * dev * dev))
    _scatter_pairs(gout, scatter, 2.0 * K * dev / r, d)
    return e, -1


def _angle_core(c, aidx):
    i, j, k = aidx
    a = c[i] - c[j]
    b = c[k] - c[j]
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    return a, b, na, nb


def angle_energy(c, aidx, K, t0):
    if aidx.shape[1] == 0:
        return 0.0, -1
    a, b, na, nb = _angle_core(c, aidx)
    bad = np.nonzero((na < _EPS) | (nb < _EPS))[0]
    if bad.size:
        return 0.0, int(bad[0])
    u = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
    dev = np.arccos(u) - t0
    return float(np.sum(K * dev * dev)), -1


def angle_grad(c, aidx, K, t0, scatter, gout):
    if aidx.shape[1] == 0:
        return 0.0, -1
    a, b, na, nb = _angle_core(c, aidx)
    bad = np.nonzero((na < _EPS) | (nb < _EPS))[0]
    if bad.size:
        return 0.0, int(bad[0])
    u = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
    sin_th = np.sqrt(1.0 - u * u)
    bad = np.nonzero(sin_th < _EPS)[0]
    if bad.size:
        return 0.0, int(bad[0])
    dev = np.arccos(u) - t0
    e = float(np.sum(K * dev * dev))
    pref = (-2.0 * K * dev / sin_th)[:, None]
    gi = pref * (b / (na * nb)[:, None] - (u / (na * na))[:, None] * a)
    gk = pref * (a / (na * nb)[:, None] - (u / (nb * nb))[:, None] * b)
    _scatter_add(gout, scatter, (gi, gk, -(gi + gk)))
    return e, -1


def _dihedral_core(c, didx):
    i, j, k, l = didx
    b1 = c[j] - c[i]
    b2 = c[k] - c[j]
    b3 = c[l] - c[k]
    n1 = _cross(b1, b2)
    n2 = _cross(b2, b3)
    n1n = np.sqrt(np.einsum("ij,ij->i", n1, n1))
    n2n = np.sqrt(np.einsum("ij,ij->i", n2, n2))
    b2n = np.sqrt(np.einsum("ij,ij->i", b2, b2))
    return b1, b2, b3, n1, n2, n1n, n2n, b2n


def _dihedral_phi(b2, n1, n2, b2n):
    y = np.einsum("ij,ij->i", _cross(n1, n2), b2) / b2n
    x = np.einsum("ij,ij->i", n1, n2)
    return np.arctan2(y, x)


def dihedral_energy(c, didx, V):
    if didx.shape[1] == 0:
        return 0.0, -1
    b1, b2, b3, n1, n2, n1n, n2n, b2n = _dihedral_core(c, didx)
    bad = np.nonzero((n1n < _EPS) | (n2n < _EPS) | (b2n < _EPS))[0]
    if bad.size:
        return 0.0, int(bad[0])
    phi = _dihedral_phi(b2, n1, n2, b2n)
    e = 0.5 * (
        V[:, 0] * (1.0 + np.cos(phi))
        + V[:, 1] * (1.0 - np.cos(2.0 * phi))
        + V[:, 2] * (1.0 + np.cos(3.0 * phi))
        + V[:, 3] * (1.0 - np.cos(4.0 * phi))
    )
    return float(np.sum(e)), -1


def dihedral_grad(c, didx, V, scatter, gout):
    if didx.shape[1] == 0:
        return 0.0, -1
    b1, b2, b3, n1, n2, n1n, n2n, b2n = _dihedral_core(c, didx)
    bad = np.nonzero((n1n < _EPS) | (n2n < _EPS) | (b2n < _EPS))[0]
    if bad.size:
        return 0.0, int(bad[0])
    phi = _dihedral_phi(b2, n1, n2, b2n)
    e = 0.5 * (
        V[:, 0] * (1.0 + np.cos(phi))
        + V[:, 1] * (1.0 - np.cos(2.0 * phi))
        + V[:, 2] * (1.0 + np.cos(3.0 * phi))
        + V[:, 3] * (1.0 - np.cos(4.0 * phi))
    )
    dedphi = 0.5 * (
        -V[:, 0] * np.sin(phi)
        + 2.0 * V[:, 1] * np.sin(2.0 * phi)
        - 3.0 * V[:, 2] * np.sin(3.0 * phi)
        + 4.0 * V[:, 3] * np.sin(4.0 * phi)
    )
    ci = -(b2n / (n1n * n1n))[:, None] * n1
    cl = (b2n / (n2n * n2n))[:, None] * n2
    b2sq = b2n * b2n
    p = (np.einsum("ij,ij->i", b1, b2) / b2sq)[:, None]
    s = (np.einsum("ij,ij->i", b3, b2) / b2sq)[:, None]
    cj = -(1.0 + p) * ci + s * cl
    ck = -(1.0 + s) * cl + p * ci
    w = dedphi[:, None]
    _scatter_add(gout, scatter, (w * ci, w * cj, w * ck, w * cl))
    return float(np.sum(e)), -1


def _pair_geometry(c, pidx):
    iu, ju = pidx
    d = c[iu] - c[ju]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    return iu, ju, d, r


def nb_energy(c, pidx, act, qq, sig_ij, eps_ij, s, cutoff):
    if pidx.shape[1] == 0:
        return 0.0, 0.0, -1, -1
    iu, ju, d, r = _pair_geometry(c, pidx)
    bad = np.nonzero(act & (r < _RMIN))[0]
    if bad.size:
        k = int(bad[0])
        return 0.0, 0.0, int(iu[k]), int(ju[k])
    if cutoff > 0.0:
        act = act & (r <= cutoff)
    ec = _C * np.sum(np.where(act, qq / np.where(act, r, 1.0), 0.0))
    x6 = np.where(act, (sig_ij / np.where(act, r, 1.0)) ** 6, 0.0)
    ev = 4.0 * np.sum(s * eps_ij * (x6 * x6 - x6))
    return float(ec), float(ev), -1, -1


def nb_grad(c, pidx, act, qq, sig_ij, eps_ij, s, cutoff, scatter, gout):
    if pidx.shape[1] == 0:
        return 0.0, 0.0, -1, -1
    iu, ju, d, r = _pair_geometry(c, pidx)
    bad = np.nonzero(act & (r < _RMIN))[0]
    if bad.size:
        k = int(bad[0])
        return 0.0, 0.0, int(iu[k]), int(ju[k])
    if cutoff > 0.0:
        act = act & (r <= cutoff)
    rsafe = np.where(act, r, 1.0)
    qq = np.where(act, qq, 0.0)
    ec = _C * np.sum(qq / rsafe)
    x6 = np.where(act, (sig_ij / rsafe) ** 6, 0.0)
    sca = np.where(act, s, 0.0)
    ev = 4.0 * np.sum(sca * eps_ij * (x6 * x6 - x6))
    dedr_over_r = -_C * qq / rsafe**3 + 4.0 * sca * eps_ij * (
        -12.0 * x6 * x6 + 6.0 * x6
    ) / rsafe**2
    _scatter_pairs(gout, scatter, dedr_over_r, d)
    return float(ec), float(ev), -1, -1


def farfield_build(c, q, srow, atom, cutoff):
    d = c[atom] - c
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    near = ((r <= cutoff) | (srow != 1.0)).astype(np.uint8)
    near[atom] = 0
    far = ~near.astype(bool)
    far[atom] = False
    bad = np.nonzero(far & (r < _RMIN))[0]
    if bad.size:
        return 0.0, 0.0, 0.0, 0.0, near, int(bad[0])
    rf = np.where(far, r, 1.0)
    qq = np.where(far, q[atom] * q, 0.0)
    e0 = _C * np.sum(qq / rf)
    g = -_C * qq / rf**3
    coef = np.sum(g[:, None] * d, axis=0)
    return float(e0), float(coef[0]), float(coef[1]), float(coef[2]), near, -1


def near_nb_delta(c, q, sigma, epsilon, srow, atom, newpos, near_idx):
    if near_idx.shape[0] == 0:
        return 0.0, 0.0, -1
    j = near_idx
    s = srow[j]
    do = c[atom] - c[j]
    ro = np.sqrt(np.einsum("ij,ij->i", do, do))
    dn = newpos[None, :] - c[j]
    rn = np.sqrt(np.einsum("ij,ij->i", dn, dn))
    act = s != 0.0
    bad = np.nonzero(act & ((ro < _RMIN) | (rn < _RMIN)))[0]
    if bad.size:
        return 0.0, 0.0, int(j[bad[0]])
    ros = np.where(act, ro, 1.0)
    rns = np.where(act, rn, 1.0)
    qq = np.where(act, s * q[atom] * q[j], 0.0)
    dec = _C * np.sum(qq * (1.0 / rns - 1.0 / ros))
    eps_ij = np.sqrt(epsilon[atom] * epsilon[j])
    sig_ij = np.sqrt(sigma[atom] * sigma[j])
    xo = np.where(act, (sig_ij / ros) ** 6, 0.0)
    xn = np.where(act, (sig_ij / rns) ** 6, 0.0)
    sca = np.where(act, s, 0.0)
    dev = 4.0 * np.sum(sca * eps_ij * ((xn * xn - xn) - (xo * xo - xo)))
    return float(dec), float(dev), -1


def nb_atom_delta(c, q, sigma, epsilon, srow, cutoff, atom, newpos):
    s = srow
    do = c[atom] - c
    ro = np.sqrt(np.einsum("ij,ij->i", do, do))
    dn = newpos[None, :] - c
    rn = np.sqrt(np.einsum("ij,ij->i", dn, dn))
    act = s != 0.0
    bad = np.nonzero(act & ((ro < _RMIN) | (rn < _RMIN)))[0]
    if bad.size:
        return 0.0, 0.0, int(bad[0])
    ros = np.where(act, ro, 1.0)
    rns = np.where(act, rn, 1.0)
    in_old = act & ((cutoff <= 0.0) | (ro <= cutoff))
    in_new = act & ((cutoff <= 0.0) | (rn <= cutoff))
    qq = s * q[atom] * q
    eps_ij = np.sqrt(epsilon[atom] * epsilon)
    sig_ij = np.sqrt(sigma[atom] * sigma)
    xo = np.where(in_old, (sig_ij / ros) ** 6, 0.0)
    xn = np.where(in_new, (sig_ij / rns) ** 6, 0.0)
    dec = _C * (
        np.sum(np.where(in_new, qq / rns, 0.0)) - np.sum(np.where(in_old, qq / ros, 0.0))
    )
    dev = 4.0 * (
        np.sum(np.where(in_new, s, 0.0) * eps_ij * (xn * xn - xn))
        - np.sum(np.where(in_old, s, 0.0) * eps_ij * (xo * xo - xo))
    )
    return float(dec), float(dev), -1


def _with_moved(c, atom, newpos):
    moved = c.copy()
    moved[atom] = newpos
    return moved


def bond_delta(c, atom, newpos, bidx, K, r0, rows):
    if rows.shape[0] == 0:
        return 0.0
    sub = bidx[:, rows]
    e_old = bond_energy(c, sub, K[rows], r0[rows])
    e_new = bond_energy(_with_moved(c, atom, newpos), sub, K[rows], r0[rows])
    return e_new - e_old


def angle_delta(c, atom, newpos, aidx, K, t0, rows):
    if rows.shape[0] == 0:
        return 0.0, -1
    sub = aidx[:, rows]
    e_old, bad = angle_energy(c, sub, K[rows], t0[rows])
    if bad >= 0:
        return 0.0, int(rows[bad])
    e_new, bad = angle_energy(
        _with_moved(c, atom, newpos), sub, K[rows], t0[rows]
    )
    if bad >= 0:
        return 0.0, int(rows[bad])
    return e_new - e_old, -1


def dihedral_delta(c, atom, newpos, didx, V, rows):
    if rows.shape[0] == 0:
        return 0.0, -1
    sub = didx[:, rows]
    e_old, bad = dihedral_energy(c, sub, V[rows])
    if bad >= 0:
        return 0.0, int(rows[bad])
    e_new, bad = dihedral_energy(_with_moved(c, atom, newpos), sub, V[rows])
    if bad >= 0:
        return 0.0, int(rows[bad])
    return e_new - e_old, -1
