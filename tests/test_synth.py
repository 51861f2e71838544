"""make_chain_system builds the same systems from the same arguments: a
golden digest pins them, and a scalar-draw reference pins the draw order."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmin.model import AngleTerm, AtomSpec, BondTerm, DihedralTerm
from ffmin.synth import make_chain_system


def canonical_bytes(system):
    """The system's terms by repr, its pair sets sorted, s14, the cutoff,
    then its coordinate bytes."""
    nb = system.nonbonded
    text = "\n".join(repr(part) for part in (
        system.atoms, system.bonds, system.angles, system.dihedrals,
        sorted(nb.excluded), sorted(nb.scaled14), nb.s14, nb.cutoff))
    return text.encode() + system.coords.tobytes()


def golden_table():
    for n in (2, 3, 4, 5, 12, 30, 100, 301):
        for seed in range(8):
            for strain in (0.0, 0.15, 0.3):
                yield n, seed, strain, None
    for seed in range(8):
        yield 30, seed, 0.3, 10.0


# sha256 over canonical_bytes of every golden_table() system, in order
GOLDEN_SHA256 = "6a9e312915dd2837587381400a00367305d45c514845070c35c3b6bfe2d51d67"


def test_chain_systems_match_the_golden_digest():
    digest = hashlib.sha256()
    for n, seed, strain, cutoff in golden_table():
        digest.update(canonical_bytes(make_chain_system(n, seed, strain, cutoff=cutoff)))
    assert digest.hexdigest() == GOLDEN_SHA256


def scalar_draw_chain(natoms, seed, strain, cutoff):
    """make_chain_system's documented draws, one scalar rng.uniform call per
    value, and a linear chain's pair sets: (atoms, bonds, angles, dihedrals,
    excluded, scaled14, cutoff, coords)."""
    rng = np.random.default_rng(seed)
    raw = []
    for i in range(natoms):
        q = float(rng.uniform(0.5, 1.5)) * (0.2 if i % 2 == 0 else -0.2)
        raw.append((q, float(rng.uniform(2.8, 3.6)), float(rng.uniform(0.3, 0.8))))
    shift = sum(q for q, _, _ in raw) / natoms
    atoms = tuple(AtomSpec(i, f"C{i}", q - shift, sigma, eps)
                  for i, (q, sigma, eps) in enumerate(raw))
    bonds = []
    for i in range(natoms - 1):
        K = float(rng.uniform(250.0, 350.0))
        bonds.append(BondTerm(i, i + 1, K, float(rng.uniform(1.4, 1.6))))
    angles = []
    for i in range(natoms - 2):
        K = float(rng.uniform(30.0, 60.0))
        angles.append(AngleTerm(i, i + 1, i + 2, K, float(rng.uniform(1.8, 2.0))))
    dihedrals = []
    for i in range(natoms - 3):
        v1 = float(rng.uniform(0.5, 3.0))
        v2 = float(rng.uniform(0.0, 1.5))
        v3 = float(rng.uniform(0.0, 1.0))
        dihedrals.append(DihedralTerm(i, i + 1, i + 2, i + 3, v1, v2, v3, 0.0))
    coords = np.zeros((natoms, 3))
    coords[:, 0] = np.arange(natoms) * 1.5
    if strain > 0:
        coords += rng.normal(scale=strain, size=(natoms, 3))
    excluded = {(i, j) for i in range(natoms) for j in range(i + 1, min(i + 3, natoms))}
    scaled14 = {(i, i + 3) for i in range(natoms - 3)}
    return (atoms, tuple(bonds), tuple(angles), tuple(dihedrals), excluded, scaled14,
            cutoff, coords.tobytes())


@settings(max_examples=60, deadline=None)
@given(natoms=st.integers(2, 80), seed=st.integers(0, 2**32 - 1),
       strain=st.sampled_from([0.0, 0.15, 0.3, 1.0]), cutoff=st.sampled_from([None, 10.0]))
def test_chain_system_matches_the_scalar_draw_reference(natoms, seed, strain, cutoff):
    s = make_chain_system(natoms, seed, strain, cutoff=cutoff)
    got = (s.atoms, s.bonds, s.angles, s.dihedrals, s.nonbonded.excluded,
           s.nonbonded.scaled14, s.nonbonded.cutoff, s.coords.tobytes())
    assert got == scalar_draw_chain(natoms, seed, strain, cutoff)
