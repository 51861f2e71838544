"""Synthetic chain molecules for benchmarks, demos and property tests.

The geometry is an extended backbone along x with seeded transverse
noise, so small systems are reproducible, strained enough to relax, and
free of coincident pairs by construction.
"""

from __future__ import annotations

import numpy as np

from .model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    MolecularSystem,
    build_default_exclusions,
)


def make_chain_system(natoms, seed=0, strain=0.3, cutoff=None) -> MolecularSystem:
    """Alkane-like chain with every term type present (for natoms >= 4).

    The draw order is part of the contract, since benchmarks, demo pools and
    tests name their systems by (natoms, seed, strain, cutoff). One
    generator call per term kind draws its uniforms row by row, per atom q,
    sigma, epsilon; per bond K, r0; per angle K, theta0; per dihedral V1,
    V2, V3. Then the coordinate noise is drawn. A golden digest in the tests
    pins the systems this builds.
    """
    if natoms < 2:
        raise ValueError("need at least 2 atoms")
    rng = np.random.default_rng(seed)

    def uniform(rows, *ranges):
        # rows x len(ranges) uniforms, one column per (lo, hi): lo + (hi -
        # lo) * u is Generator.uniform(lo, hi)'s own formula, so each value
        # is the one a scalar uniform call at that place draws
        lo, hi = np.array(ranges).T
        return (lo + (hi - lo) * rng.random((max(rows, 0), len(ranges)))).tolist()

    params = uniform(natoms, (0.5, 1.5), (2.8, 3.6), (0.3, 0.8))
    q = [p[0] * (0.2 if i % 2 == 0 else -0.2) for i, p in enumerate(params)]
    # bring total charge to zero so far fields stay mild
    shift = sum(q) / natoms
    atoms = tuple(
        AtomSpec(i, f"C{i}", qi - shift, sigma, epsilon)
        for i, (qi, (_, sigma, epsilon)) in enumerate(zip(q, params))
    )
    bonds = tuple(
        BondTerm(i, i + 1, K=K, r0=r0)
        for i, (K, r0) in enumerate(uniform(natoms - 1, (250.0, 350.0), (1.4, 1.6)))
    )
    angles = tuple(
        AngleTerm(i, i + 1, i + 2, K=K, theta0=theta0)
        for i, (K, theta0) in enumerate(uniform(natoms - 2, (30.0, 60.0), (1.8, 2.0)))
    )
    dihedrals = tuple(
        DihedralTerm(i, i + 1, i + 2, i + 3, V1=V1, V2=V2, V3=V3, V4=0.0)
        for i, (V1, V2, V3) in enumerate(
            uniform(natoms - 3, (0.5, 3.0), (0.0, 1.5), (0.0, 1.0)))
    )

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
