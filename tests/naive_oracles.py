"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the plainest possible style
(python loops, direct formulas, no shared helpers with the package) and
must not import from ffmin.energy or ffmin.kernels. Where these values
disagree with the package, the package is wrong.
"""

import math

import numpy as np

# transcribed independently from the problem statement
C_REF = 1389.38757


def pair_scale(policy, i, j):
    key = (i, j) if i < j else (j, i)
    if key in policy.excluded:
        return 0.0
    if key in policy.scaled14:
        return policy.s14
    return 1.0


def stretch_energy(system):
    e = 0.0
    for b in system.bonds:
        r = math.dist(system.coords[b.i], system.coords[b.j])
        e += b.K * (r - b.r0) ** 2
    return e


def bend_energy(system):
    e = 0.0
    for a in system.angles:
        u = system.coords[a.i] - system.coords[a.j]
        v = system.coords[a.k] - system.coords[a.j]
        c = float(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        theta = math.acos(min(1.0, max(-1.0, c)))
        e += a.K * (theta - a.theta0) ** 2
    return e


def dihedral_angle(p0, p1, p2, p3):
    """Signed dihedral via projection onto the plane normal to the central
    bond (a construction different from the cross-product/atan2 kernel)."""
    b0 = p0 - p1
    b1 = p2 - p1
    b2 = p3 - p2
    b1 = b1 / np.linalg.norm(b1)
    v = b0 - np.dot(b0, b1) * b1
    w = b2 - np.dot(b2, b1) * b1
    x = float(np.dot(v, w))
    y = float(np.dot(np.cross(b1, v), w))
    return math.atan2(y, x)


def torsion_energy(system):
    e = 0.0
    for d in system.dihedrals:
        phi = dihedral_angle(
            system.coords[d.i], system.coords[d.j],
            system.coords[d.k], system.coords[d.l],
        )
        e += 0.5 * (
            d.V1 * (1.0 + math.cos(phi))
            + d.V2 * (1.0 - math.cos(2.0 * phi))
            + d.V3 * (1.0 + math.cos(3.0 * phi))
            + d.V4 * (1.0 - math.cos(4.0 * phi))
        )
    return e


def nonbonded_energies(system):
    """(coulomb, vdw) by literal double loop over i < j."""
    ec = 0.0
    ev = 0.0
    n = system.natoms
    cutoff = system.nonbonded.cutoff
    for i in range(n):
        for j in range(i + 1, n):
            s = pair_scale(system.nonbonded, i, j)
            if s == 0.0:
                continue
            r = math.dist(system.coords[i], system.coords[j])
            if cutoff is not None and r > cutoff:
                continue
            ai = system.atoms[i]
            aj = system.atoms[j]
            ec += s * C_REF * ai.q * aj.q / r
            eps = math.sqrt(ai.epsilon * aj.epsilon)
            sig = math.sqrt(ai.sigma * aj.sigma)
            sr6 = (sig / r) ** 6
            ev += s * 4.0 * eps * (sr6 * sr6 - sr6)
    return ec, ev


def farfield_linearization(system, atom, cutoff):
    """(e_far0, coef, near) of atom's Coulomb sum split at cutoff.

    near lists the partners at r <= cutoff or with a scale other than 1, in
    index order; the far sum is C q_a q_j / r over the rest, and coef its
    closed-form gradient, the sum of -C q_a q_j d / r^3 with d = c_a - c_j.
    """
    e = 0.0
    coef = [0.0, 0.0, 0.0]
    near = []
    qa = system.atoms[atom].q
    for j in range(system.natoms):
        if j == atom:
            continue
        r = math.dist(system.coords[atom], system.coords[j])
        if r <= cutoff or pair_scale(system.nonbonded, atom, j) != 1.0:
            near.append(j)
            continue
        qq = qa * system.atoms[j].q
        e += C_REF * qq / r
        for k in range(3):
            d = system.coords[atom][k] - system.coords[j][k]
            coef[k] -= C_REF * qq * d / r**3
    return e, np.array(coef), near


def total_energy(system):
    ec, ev = nonbonded_energies(system)
    return (
        stretch_energy(system) + bend_energy(system) + torsion_energy(system)
        + ec + ev
    )


def fd_gradient(f, x, step=1e-5):
    """Central differences of an arbitrary scalar callable."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    for k in range(x.size):
        orig = x[k]
        x[k] = orig + step
        fp = f(x)
        x[k] = orig - step
        fm = f(x)
        x[k] = orig
        g[k] = (fp - fm) / (2.0 * step)
    return g


def rmsd_scalar(v, w):
    """Per-component accumulation, no vectorization."""
    total = 0.0
    count = 0
    for a, b in zip(v, w):
        for p, q in zip(a, b):
            total += (p - q) ** 2
        count += 1
    return math.sqrt(total / (3.0 * count))


def dense_bfgs_direction(pairs, g):
    """Explicit-matrix reference for the two-loop recursion.

    H0 = gamma I with gamma = <s,y>/<y,y> from the newest pair, then the
    textbook update H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
    applied oldest to newest. Returns -H g.
    """
    g = np.asarray(g, dtype=np.float64)
    if not pairs:
        gn = np.linalg.norm(g)
        return -g / gn if gn > 0 else -g
    n = g.size
    s_new, y_new = pairs[-1]
    gamma = float(np.dot(s_new, y_new)) / float(np.dot(y_new, y_new))
    H = gamma * np.eye(n)
    for s, y in pairs:
        rho = 1.0 / float(np.dot(s, y))
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return -H @ g


def scatter(rows, index, natoms):
    """Atom gradient of edge-gradient rows: rows[k] belongs to atom index[k].

    Each atom's rows are added in index order, every sum starting from 0.0.
    """
    g = [[0.0, 0.0, 0.0] for _ in range(natoms)]
    for k, atom in enumerate(index):
        for axis in range(3):
            g[atom][axis] += float(rows[k][axis])
    return np.array(g, dtype=np.float64)
