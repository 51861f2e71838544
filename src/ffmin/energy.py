"""Potential energy, analytic gradient, and the incremental-move machinery.

The objective is the OPLS-style sum

    E = E_stretch + E_bend + E_torsion + E_coulomb + E_vdw

over a MolecularSystem, in kJ/mol with distances in angstrom. All functions
here are pure in (system, coords); summation order is fixed, so repeated
calls are bit-identical.

energy_total(system, x) and energy_and_gradient(system, x) evaluate the
system's plan (MolecularSystem.arrays()) at flat coordinates x, or at
system.coords when x is omitted, without building a new system.

Degenerate geometry and non-finite energies or gradients raise
EnergyEvaluationError, naming the term, instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .model import MolecularSystem


class EnergyEvaluationError(ValueError):
    """Degenerate or invalid geometry in a named interaction term."""


@dataclass(frozen=True)
class EnergyBreakdown:
    stretch: float
    bend: float
    torsion: float
    coulomb: float
    vdw: float

    @property
    def total(self):
        # computed as the sum, never stored separately
        return self.stretch + self.bend + self.torsion + self.coulomb + self.vdw


@dataclass(frozen=True)
class FarFieldLinearization:
    """First-order model of one atom's far-field Coulomb sum.

    e_far0 is the exact far-field energy at the reference position and coef
    its gradient there, so moving the atom by delta changes the far-field
    part by approximately coef . delta. near_idx lists the atoms handled
    exactly (within cutoff, plus every excluded/scaled partner regardless of
    distance).
    """

    atom: int
    cutoff: float
    ref_pos: np.ndarray
    e_far0: float
    coef: np.ndarray
    near_idx: np.ndarray


def _bond_name(system, row):
    b = system.bonds[row]
    return f"stretch term {row} (atoms {b.i}-{b.j})"


def _angle_name(system, row):
    a = system.angles[row]
    return f"bend term {row} (atoms {a.i}-{a.j}-{a.k})"


def _dihedral_name(system, row):
    d = system.dihedrals[row]
    return f"torsion term {row} (atoms {d.i}-{d.j}-{d.k}-{d.l})"


def _stretch(p, c):
    return float(kernels.bond_energy(c, p["bond_idx"], p["bond_K"], p["bond_r0"]))


def _bend(system, p, c):
    e, bad = kernels.angle_energy(c, p["ang_idx"], p["ang_K"], p["ang_t0"])
    if bad >= 0:
        raise EnergyEvaluationError(f"{_angle_name(system, bad)}: zero-length arm")
    return float(e)


def _torsion(system, p, c):
    e, bad = kernels.dihedral_energy(c, p["dih_idx"], p["dih_V"])
    if bad >= 0:
        raise EnergyEvaluationError(f"{_dihedral_name(system, bad)}: degenerate plane")
    return float(e)


def _nonbonded(p, c):
    ec, ev, bi, bj = kernels.nb_energy(
        c, p["pair_idx"], p["pair_act"], p["pair_qq"], p["pair_sig"], p["pair_eps"],
        p["pair_scale"], p["cutoff"],
    )
    if bi >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({bi},{bj}): coincident atoms")
    return float(ec), float(ev)


def energy_stretch(system: MolecularSystem) -> float:
    return _stretch(system.arrays(), system.coords)


def energy_bend(system: MolecularSystem) -> float:
    return _bend(system, system.arrays(), system.coords)


def energy_torsion(system: MolecularSystem) -> float:
    return _torsion(system, system.arrays(), system.coords)


def energy_coulomb(system: MolecularSystem) -> float:
    return _nonbonded(system.arrays(), system.coords)[0]


def energy_vdw(system: MolecularSystem) -> float:
    return _nonbonded(system.arrays(), system.coords)[1]


def _finite(bd, g=None):
    """bd, after checking that its total (and the gradient g) is finite."""
    if math.isfinite(bd.total) and (g is None or np.isfinite(g).all()):
        return bd
    for term in fields(bd):
        value = getattr(bd, term.name)
        if not math.isfinite(value):
            raise EnergyEvaluationError(f"{term.name} energy is not finite: {value!r}")
    what = "gradient" if math.isfinite(bd.total) else "total energy"
    raise EnergyEvaluationError(f"{what} is not finite")


def _coords(system, x):
    return system.coords if x is None else system.coords_at(x)


def energy_total(system: MolecularSystem, x=None) -> EnergyBreakdown:
    """Per-term energies at flat coordinates x (default: system.coords).

    Raises ModelError for an x of the wrong size or with a non-finite entry.
    """
    c = _coords(system, x)
    p = system.arrays()
    ec, ev = _nonbonded(p, c)
    return _finite(EnergyBreakdown(
        stretch=_stretch(p, c),
        bend=_bend(system, p, c),
        torsion=_torsion(system, p, c),
        coulomb=ec,
        vdw=ev,
    ))


def energy_and_gradient(system: MolecularSystem, x=None):
    """One fused sweep: (EnergyBreakdown, flattened analytic gradient).

    Evaluates at flat coordinates x, or at system.coords when x is None.
    Callers needing both quantities should use this instead of two separate
    calls; the gradient kernels produce the term energies as a byproduct.
    """
    c = _coords(system, x)
    p = system.arrays()
    gout = np.zeros(c.shape)
    e_bond, bad = kernels.bond_grad(
        c, p["bond_idx"], p["bond_K"], p["bond_r0"], p["bond_scatter"], gout
    )
    if bad >= 0:
        raise EnergyEvaluationError(f"{_bond_name(system, bad)}: coincident endpoints")
    e_ang, bad = kernels.angle_grad(
        c, p["ang_idx"], p["ang_K"], p["ang_t0"], p["ang_scatter"], gout
    )
    if bad >= 0:
        raise EnergyEvaluationError(
            f"{_angle_name(system, bad)}: zero-length arm or collinear geometry"
        )
    e_dih, bad = kernels.dihedral_grad(c, p["dih_idx"], p["dih_V"], p["dih_scatter"], gout)
    if bad >= 0:
        raise EnergyEvaluationError(f"{_dihedral_name(system, bad)}: degenerate plane")
    ec, ev, bi, bj = kernels.nb_grad(
        c, p["pair_idx"], p["pair_act"], p["pair_qq"], p["pair_sig"], p["pair_eps"],
        p["pair_scale"], p["cutoff"], p["pair_scatter"], gout,
    )
    if bi >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({bi},{bj}): coincident atoms")
    breakdown = EnergyBreakdown(
        stretch=float(e_bond), bend=float(e_ang), torsion=float(e_dih),
        coulomb=float(ec), vdw=float(ev),
    )
    return _finite(breakdown, gout), gout.reshape(-1)


def gradient_total(system: MolecularSystem):
    """Analytic gradient of the total energy, flattened to length 3n."""
    return energy_and_gradient(system)[1]


def finite_difference_gradient(system: MolecularSystem, step=1e-5):
    """Central-difference gradient of energy_total, flattened to 3n."""
    if not step > 0:
        raise ValueError(f"FD step must be > 0, got {step}")
    base = np.array(system.coords, dtype=np.float64)
    flat = base.reshape(-1)
    g = np.zeros(flat.size, dtype=np.float64)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        ep = energy_total(system, flat).total
        flat[k] = orig - step
        em = energy_total(system, flat).total
        flat[k] = orig
        g[k] = (ep - em) / (2.0 * step)
    return g


def linearize_farfield_coulomb(system: MolecularSystem, atom: int,
                               cutoff: float) -> FarFieldLinearization:
    """Split atom's Coulomb sum at cutoff and linearize the far part.

    Excluded and 1-4 scaled partners always land in the near set, whatever
    their distance, so the far sum is a plain unscaled charge sum.
    """
    if not 0 <= atom < system.natoms:
        raise ValueError(f"atom index {atom} out of range for {system.natoms} atoms")
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    p = system.arrays()
    e0, cx, cy, cz, near_mask, bad = kernels.farfield_build(
        system.coords, p["q"], system.scale_row(atom), atom, float(cutoff)
    )
    if bad >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({atom},{bad}): coincident atoms")
    return FarFieldLinearization(
        atom=atom,
        cutoff=float(cutoff),
        ref_pos=system.coords[atom].copy(),
        e_far0=float(e0),
        coef=np.array([cx, cy, cz], dtype=np.float64),
        near_idx=np.nonzero(near_mask)[0].astype(np.int64),
    )


def delta_energy_atom_move(system: MolecularSystem, lin: FarFieldLinearization,
                           delta) -> float:
    """Energy change for moving lin.atom by delta, using the far-field model.

    Bonded terms touching the atom and near-field nonbonded pairs are
    recomputed exactly; the far Coulomb field changes by the linear form
    coef . delta; far vdW is neglected. Only valid while the system still
    holds the coordinates lin was built from.

    Requires the system's own nonbonded cutoff to be "none": with a hard
    system cutoff the far field modelled here would not be part of the
    objective at all.
    """
    if system.nonbonded.cutoff is not None:
        raise ValueError("incremental delta requires a system nonbonded cutoff of none")
    delta = np.asarray(delta, dtype=np.float64).reshape(3)
    atom = lin.atom
    newpos = system.coords[atom] + delta
    p = system.arrays()
    c = system.coords

    dec, dev, bad = kernels.near_nb_delta(
        c, p["q"], p["sigma"], p["epsilon"], system.scale_row(atom), atom, newpos,
        lin.near_idx,
    )
    if bad >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({atom},{bad}): coincident atoms")

    bond_rows, ang_rows, dih_rows = system.atom_terms(atom)
    de = kernels.bond_delta(c, atom, newpos, p["bond_idx"], p["bond_K"], p["bond_r0"], bond_rows)
    dea, bad = kernels.angle_delta(c, atom, newpos, p["ang_idx"], p["ang_K"], p["ang_t0"], ang_rows)
    if bad >= 0:
        raise EnergyEvaluationError(f"{_angle_name(system, bad)}: zero-length arm")
    ded, bad = kernels.dihedral_delta(c, atom, newpos, p["dih_idx"], p["dih_V"], dih_rows)
    if bad >= 0:
        raise EnergyEvaluationError(f"{_dihedral_name(system, bad)}: degenerate plane")

    far = float(lin.coef @ delta)
    return float(de) + float(dea) + float(ded) + float(dec) + float(dev) + far


def exact_delta_atom_move(system: MolecularSystem, atom: int, delta) -> float:
    """Exact O(n) energy change for moving one atom (no linearization).

    Used to confirm candidate moves and as the oracle for the far-field
    approximation error.
    """
    if not 0 <= atom < system.natoms:
        raise ValueError(f"atom index {atom} out of range for {system.natoms} atoms")
    delta = np.asarray(delta, dtype=np.float64).reshape(3)
    newpos = system.coords[atom] + delta
    p = system.arrays()
    c = system.coords
    dec, dev, bad = kernels.nb_atom_delta(
        c, p["q"], p["sigma"], p["epsilon"], system.scale_row(atom), p["cutoff"], atom,
        newpos,
    )
    if bad >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({atom},{bad}): coincident atoms")
    bond_rows, ang_rows, dih_rows = system.atom_terms(atom)
    de = kernels.bond_delta(c, atom, newpos, p["bond_idx"], p["bond_K"], p["bond_r0"], bond_rows)
    dea, bad = kernels.angle_delta(c, atom, newpos, p["ang_idx"], p["ang_K"], p["ang_t0"], ang_rows)
    if bad >= 0:
        raise EnergyEvaluationError(f"{_angle_name(system, bad)}: zero-length arm")
    ded, bad = kernels.dihedral_delta(c, atom, newpos, p["dih_idx"], p["dih_V"], dih_rows)
    if bad >= 0:
        raise EnergyEvaluationError(f"{_dihedral_name(system, bad)}: degenerate plane")
    return float(de) + float(dea) + float(ded) + float(dec) + float(dev)
