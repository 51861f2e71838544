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
    """Alkane-like chain with every term type present (for natoms >= 4)."""
    if natoms < 2:
        raise ValueError("need at least 2 atoms")
    rng = np.random.default_rng(seed)
    atoms = []
    for i in range(natoms):
        q = float(rng.uniform(0.5, 1.5)) * (0.2 if i % 2 == 0 else -0.2)
        atoms.append(AtomSpec(
            id=i,
            label=f"C{i}",
            q=q,
            sigma=float(rng.uniform(2.8, 3.6)),
            epsilon=float(rng.uniform(0.3, 0.8)),
        ))
    # bring total charge to zero so far fields stay mild
    shift = sum(a.q for a in atoms) / natoms
    atoms = [
        AtomSpec(a.id, a.label, a.q - shift, a.sigma, a.epsilon)
        for a in atoms
    ]

    bonds = tuple(
        BondTerm(i, i + 1, K=float(rng.uniform(250.0, 350.0)),
                 r0=float(rng.uniform(1.4, 1.6)))
        for i in range(natoms - 1)
    )
    angles = tuple(
        AngleTerm(i, i + 1, i + 2, K=float(rng.uniform(30.0, 60.0)),
                  theta0=float(rng.uniform(1.8, 2.0)))
        for i in range(natoms - 2)
    )
    dihedrals = tuple(
        DihedralTerm(i, i + 1, i + 2, i + 3,
                     V1=float(rng.uniform(0.5, 3.0)),
                     V2=float(rng.uniform(0.0, 1.5)),
                     V3=float(rng.uniform(0.0, 1.0)),
                     V4=0.0)
        for i in range(natoms - 3)
    )

    coords = np.zeros((natoms, 3))
    coords[:, 0] = np.arange(natoms) * 1.5
    coords += rng.normal(scale=strain, size=(natoms, 3)) if strain > 0 else 0.0

    nonbonded = build_default_exclusions(natoms, bonds, cutoff=cutoff)
    return MolecularSystem(
        atoms=tuple(atoms),
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
