"""Vectorized NumPy kernels for the force-field terms, in float64.

Every kernel takes the (n, 3) coordinate array c and the parameter arrays
of MolecularSystem.arrays(). Summation order is fixed, so repeated calls on
the same inputs are bit-identical.

Kernels do not raise. Degenerate geometry is reported through returned
term/pair indices (-1 means clean); the energy layer turns those into typed
errors naming the term. Gradient kernels return the term energy and add
their gradient into gout in place.
"""

from __future__ import annotations

import numpy as np

from .constants import COULOMB_KJ_ANGSTROM, DEGENERATE_EPS, MIN_PAIR_DISTANCE

_C = COULOMB_KJ_ANGSTROM
_EPS = DEGENERATE_EPS
_RMIN = MIN_PAIR_DISTANCE


def bond_energy(c, bidx, K, r0):
    if bidx.shape[0] == 0:
        return 0.0
    d = c[bidx[:, 0]] - c[bidx[:, 1]]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    dev = r - r0
    return float(np.sum(K * dev * dev))


def bond_grad(c, bidx, K, r0, gout):
    if bidx.shape[0] == 0:
        return 0.0, -1
    d = c[bidx[:, 0]] - c[bidx[:, 1]]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    bad = np.nonzero(r < _RMIN)[0]
    if bad.size:
        return 0.0, int(bad[0])
    dev = r - r0
    e = float(np.sum(K * dev * dev))
    g = (2.0 * K * dev / r)[:, None] * d
    acc = np.zeros_like(c)
    np.add.at(acc, bidx[:, 0], g)
    np.add.at(acc, bidx[:, 1], -g)
    gout += acc
    return e, -1


def _angle_core(c, aidx):
    a = c[aidx[:, 0]] - c[aidx[:, 1]]
    b = c[aidx[:, 2]] - c[aidx[:, 1]]
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    return a, b, na, nb


def angle_energy(c, aidx, K, t0):
    if aidx.shape[0] == 0:
        return 0.0, -1
    a, b, na, nb = _angle_core(c, aidx)
    bad = np.nonzero((na < _EPS) | (nb < _EPS))[0]
    if bad.size:
        return 0.0, int(bad[0])
    u = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
    dev = np.arccos(u) - t0
    return float(np.sum(K * dev * dev)), -1


def angle_grad(c, aidx, K, t0, gout):
    if aidx.shape[0] == 0:
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
    acc = np.zeros_like(c)
    np.add.at(acc, aidx[:, 0], gi)
    np.add.at(acc, aidx[:, 2], gk)
    np.add.at(acc, aidx[:, 1], -(gi + gk))
    gout += acc
    return e, -1


def _dihedral_core(c, didx):
    b1 = c[didx[:, 1]] - c[didx[:, 0]]
    b2 = c[didx[:, 2]] - c[didx[:, 1]]
    b3 = c[didx[:, 3]] - c[didx[:, 2]]
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    n1n = np.sqrt(np.einsum("ij,ij->i", n1, n1))
    n2n = np.sqrt(np.einsum("ij,ij->i", n2, n2))
    b2n = np.sqrt(np.einsum("ij,ij->i", b2, b2))
    return b1, b2, b3, n1, n2, n1n, n2n, b2n


def _dihedral_phi(b2, n1, n2, b2n):
    y = np.einsum("ij,ij->i", np.cross(n1, n2), b2) / b2n
    x = np.einsum("ij,ij->i", n1, n2)
    return np.arctan2(y, x)


def dihedral_energy(c, didx, V):
    if didx.shape[0] == 0:
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


def dihedral_grad(c, didx, V, gout):
    if didx.shape[0] == 0:
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
    acc = np.zeros_like(c)
    w = dedphi[:, None]
    np.add.at(acc, didx[:, 0], w * ci)
    np.add.at(acc, didx[:, 1], w * cj)
    np.add.at(acc, didx[:, 2], w * ck)
    np.add.at(acc, didx[:, 3], w * cl)
    gout += acc
    return float(np.sum(e)), -1


def _pair_tables(c, scale):
    n = c.shape[0]
    iu, ju = np.triu_indices(n, 1)
    d = c[iu] - c[ju]
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    s = scale[iu, ju]
    return iu, ju, d, r, s


def nb_energy(c, q, sigma, epsilon, scale, cutoff):
    n = c.shape[0]
    if n < 2:
        return 0.0, 0.0, -1, -1
    iu, ju, d, r, s = _pair_tables(c, scale)
    act = s != 0.0
    bad = np.nonzero(act & (r < _RMIN))[0]
    if bad.size:
        k = int(bad[0])
        return 0.0, 0.0, int(iu[k]), int(ju[k])
    if cutoff > 0.0:
        act = act & (r <= cutoff)
    qq = s * q[iu] * q[ju]
    ec = _C * np.sum(np.where(act, qq / np.where(act, r, 1.0), 0.0))
    eps_ij = np.sqrt(epsilon[iu] * epsilon[ju])
    sig_ij = np.sqrt(sigma[iu] * sigma[ju])
    x6 = np.where(act, (sig_ij / np.where(act, r, 1.0)) ** 6, 0.0)
    ev = 4.0 * np.sum(s * eps_ij * (x6 * x6 - x6))
    return float(ec), float(ev), -1, -1


def nb_grad(c, q, sigma, epsilon, scale, cutoff, gout):
    n = c.shape[0]
    if n < 2:
        return 0.0, 0.0, -1, -1
    iu, ju, d, r, s = _pair_tables(c, scale)
    act = s != 0.0
    bad = np.nonzero(act & (r < _RMIN))[0]
    if bad.size:
        k = int(bad[0])
        return 0.0, 0.0, int(iu[k]), int(ju[k])
    if cutoff > 0.0:
        act = act & (r <= cutoff)
    rsafe = np.where(act, r, 1.0)
    qq = np.where(act, s * q[iu] * q[ju], 0.0)
    ec = _C * np.sum(qq / rsafe)
    eps_ij = np.sqrt(epsilon[iu] * epsilon[ju])
    sig_ij = np.sqrt(sigma[iu] * sigma[ju])
    x6 = np.where(act, (sig_ij / rsafe) ** 6, 0.0)
    sca = np.where(act, s, 0.0)
    ev = 4.0 * np.sum(sca * eps_ij * (x6 * x6 - x6))
    dedr_over_r = -_C * qq / rsafe**3 + 4.0 * sca * eps_ij * (
        -12.0 * x6 * x6 + 6.0 * x6
    ) / rsafe**2
    g = dedr_over_r[:, None] * d
    acc = np.zeros_like(c)
    np.add.at(acc, iu, g)
    np.add.at(acc, ju, -g)
    gout += acc
    return float(ec), float(ev), -1, -1


def farfield_build(c, q, scale, atom, cutoff):
    d = c[atom] - c
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    srow = scale[atom]
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


def near_nb_delta(c, q, sigma, epsilon, scale, atom, newpos, near_idx):
    if near_idx.shape[0] == 0:
        return 0.0, 0.0, -1
    j = near_idx
    s = scale[atom, j]
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


def nb_atom_delta(c, q, sigma, epsilon, scale, cutoff, atom, newpos):
    s = scale[atom].copy()
    s[atom] = 0.0
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
    sub = bidx[rows]
    e_old = bond_energy(c, sub, K[rows], r0[rows])
    e_new = bond_energy(_with_moved(c, atom, newpos), sub, K[rows], r0[rows])
    return e_new - e_old


def angle_delta(c, atom, newpos, aidx, K, t0, rows):
    if rows.shape[0] == 0:
        return 0.0, -1
    sub = aidx[rows]
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
    sub = didx[rows]
    e_old, bad = dihedral_energy(c, sub, V[rows])
    if bad >= 0:
        return 0.0, int(rows[bad])
    e_new, bad = dihedral_energy(_with_moved(c, atom, newpos), sub, V[rows])
    if bad >= 0:
        return 0.0, int(rows[bad])
    return e_new - e_old, -1
