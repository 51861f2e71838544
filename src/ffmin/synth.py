"""Synthetic chain molecules for benchmarks, demos and property tests.

The geometry is an extended backbone along x with seeded transverse
noise, so small systems are reproducible, strained enough to relax, and
free of coincident pairs by construction.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    MolecularSystem,
    build_default_exclusions,
)


# per term kind in draw order, the (lo, hi) of each uniform column: per
# atom |q|, sigma, epsilon; per bond K, r0; per angle K, theta0; per
# dihedral V1, V2, V3. Each kind's lo and hi - lo as arrays, for its rows
# to broadcast against
_RANGES = (((0.5, 1.5), (2.8, 3.6), (0.3, 0.8)),
           ((250.0, 350.0), (1.4, 1.6)),
           ((30.0, 60.0), (1.8, 2.0)),
           ((0.5, 3.0), (0.0, 1.5), (0.0, 1.0)))
_LO_SPAN = tuple((np.array([lo for lo, _ in kind]), np.array([hi - lo for lo, hi in kind]))
                 for kind in _RANGES)


def make_chain_system(natoms, seed=0, strain=0.3, cutoff=None) -> MolecularSystem:
    """Alkane-like chain with every term type present (for natoms >= 4).

    The draw order is part of the contract, since benchmarks, demo pools and
    tests name their systems by (natoms, seed, strain, cutoff). The
    uniforms are drawn row by row, per atom q, sigma, epsilon; per bond K,
    r0; per angle K, theta0; per dihedral V1, V2, V3. Then the coordinate
    noise is drawn. A golden digest in the tests pins the systems this
    builds.
    """
    if natoms < 2:
        raise ValueError("need at least 2 atoms")
    rng = np.random.default_rng(seed)
    # one draw for every uniform, split by kind: lo + (hi - lo) * u is
    # Generator.uniform(lo, hi)'s own formula, so each value is the one a
    # scalar uniform call at that place draws
    rows = (natoms, natoms - 1, natoms - 2, max(natoms - 3, 0))
    ends = list(accumulate((r * lo.size for r, (lo, _) in zip(rows, _LO_SPAN)), initial=0))
    u = rng.random(ends[-1])
    params, bond_p, angle_p, dih_p = (
        (lo + span * u[a:b].reshape(-1, lo.size)).tolist()
        for (lo, span), a, b in zip(_LO_SPAN, ends, ends[1:]))

    q = [p[0] * (0.2 if i % 2 == 0 else -0.2) for i, p in enumerate(params)]
    # bring total charge to zero so far fields stay mild
    shift = sum(q) / natoms
    # tuples from lists: one from a generator is allocated at a guess and
    # shrunk, which grows CPython's free lists on every build
    atoms = tuple([AtomSpec(i, f"C{i}", qi - shift, sigma, epsilon)
                   for i, (qi, (_, sigma, epsilon)) in enumerate(zip(q, params))])
    bonds = tuple([BondTerm(i, i + 1, K, r0) for i, (K, r0) in enumerate(bond_p)])
    angles = tuple([AngleTerm(i, i + 1, i + 2, K, theta0)
                    for i, (K, theta0) in enumerate(angle_p)])
    dihedrals = tuple([DihedralTerm(i, i + 1, i + 2, i + 3, V1, V2, V3, 0.0)
                       for i, (V1, V2, V3) in enumerate(dih_p)])

    coords = np.zeros((natoms, 3))
    coords[:, 0] = np.arange(natoms) * 1.5
    coords += rng.normal(scale=strain, size=(natoms, 3)) if strain > 0 else 0.0

    nonbonded = build_default_exclusions(natoms, bonds, cutoff=cutoff)
    return MolecularSystem(
        atoms=atoms,
        coords=coords,
        bonds=bonds,
        angles=angles,
        dihedrals=dihedrals,
        nonbonded=nonbonded,
    )


def perturbed_copy(system: MolecularSystem, scale, seed) -> MolecularSystem:
    """Same topology, coordinates jittered by N(0, scale) per component."""
    rng = np.random.default_rng(seed)
    coords = system.coords + rng.normal(scale=scale, size=system.coords.shape)
    return system.with_coords(coords)
