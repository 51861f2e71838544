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


# no NumPy floating-point warning leaves this layer: huge coordinates give
# non-finite terms, and _finite turns those into named errors
_QUIET = np.errstate(all="ignore")

_BONDED = {  # plan section, kernel, parameter keys, edges per term, what a bad row means
    "stretch": ("bond", kernels.stretch, ("bond_K", "bond_r0"), 1, "coincident endpoints"),
    "bend": ("angle", kernels.bend, ("ang_K", "ang_t0"), 2, "zero-length arm"),
    "torsion": ("torsion", kernels.torsion, ("dih_V",), 3, "degenerate plane"),
}


def _term_name(system, term, row):
    if term == "stretch":
        b = system.bonds[row]
        return f"stretch term {row} (atoms {b.i}-{b.j})"
    if term == "bend":
        a = system.angles[row]
        return f"bend term {row} (atoms {a.i}-{a.j}-{a.k})"
    d = system.dihedrals[row]
    return f"torsion term {row} (atoms {d.i}-{d.j}-{d.k}-{d.l})"


def _bonded(system, p, term, D, R, G=None, rows=None):
    """One bonded term over its edge rows D, R: those of every term, or of rows."""
    _, kernel, keys, _, what = _BONDED[term]
    e, bad = kernel(D, R, *(p[k] if rows is None else p[k][rows] for k in keys), G)
    if bad >= 0:
        if term == "bend" and G is not None:
            what = "zero-length arm or collinear geometry"
        row = bad if rows is None else int(rows[bad])
        raise EnergyEvaluationError(f"{_term_name(system, term, row)}: {what}")
    return e


def _nonbonded(p, D, R, G=None):
    ec, ev, bad = kernels.nonbonded(D, R, p["pair_qq"], p["pair_sig"], p["pair_eps"],
                                    p["pair_scale"], p["cutoff"], G)
    if bad >= 0:
        bi, bj = p["edge_idx"][:, p["pair"]][:, bad]
        raise EnergyEvaluationError(f"nonbonded pair ({bi},{bj}): coincident atoms")
    return float(ec), float(ev)


def _one_term(system, term):
    """One bonded term at system.coords, gathering only its own edges."""
    p = system.arrays()
    D, R = kernels.edges(system.coords, p["edge_idx"][:, p[_BONDED[term][0]]])
    return float(_bonded(system, p, term, D, R))


def _pairs_only(system):
    p = system.arrays()
    return _nonbonded(p, *kernels.edges(system.coords, p["edge_idx"][:, p["pair"]]))


@_QUIET
def energy_stretch(system: MolecularSystem) -> float:
    return _one_term(system, "stretch")


@_QUIET
def energy_bend(system: MolecularSystem) -> float:
    return _one_term(system, "bend")


@_QUIET
def energy_torsion(system: MolecularSystem) -> float:
    return _one_term(system, "torsion")


@_QUIET
def energy_coulomb(system: MolecularSystem) -> float:
    return _pairs_only(system)[0]


@_QUIET
def energy_vdw(system: MolecularSystem) -> float:
    return _pairs_only(system)[1]


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


@_QUIET
def energy_total(system: MolecularSystem, x=None) -> EnergyBreakdown:
    """Per-term energies at flat coordinates x (default: system.coords).

    Raises ModelError for an x of the wrong size or with a non-finite entry.
    """
    p = system.arrays()
    D, R = kernels.edges(_coords(system, x), p["edge_idx"])
    pair = p["pair"]
    # pairs first: a coincident pair is named before any degenerate bonded term
    ec, ev = _nonbonded(p, D[pair], R[pair])
    bonded = {term: float(_bonded(system, p, term, D[p[sec]], R[p[sec]]))
              for term, (sec, *_) in _BONDED.items()}
    return _finite(EnergyBreakdown(**bonded, coulomb=ec, vdw=ev))


@_QUIET
def energy_and_gradient(system: MolecularSystem, x=None):
    """One fused sweep: (EnergyBreakdown, flattened analytic gradient).

    Evaluates at flat coordinates x, or at system.coords when x is None.
    Callers needing both quantities should use this instead of two separate
    calls; the gradient kernels produce the term energies as a byproduct.
    """
    c = _coords(system, x)
    p = system.arrays()
    D, R = kernels.edges(c, p["edge_idx"])
    # the edge gradients G = W[:M]; scatter() fills W[M:] with -G
    W = np.empty((2 * R.size, 3))
    bonded = {term: float(_bonded(system, p, term, D[p[sec]], R[p[sec]], W[p[sec]]))
              for term, (sec, *_) in _BONDED.items()}
    pair = p["pair"]
    ec, ev = _nonbonded(p, D[pair], R[pair], W[pair])
    g = kernels.scatter(W, p["edge_scatter"], c.shape[0])
    return _finite(EnergyBreakdown(**bonded, coulomb=ec, vdw=ev), g), g.reshape(-1)


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


@_QUIET
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


def _atom_delta(system, atom, delta, partners=None):
    """Exact energy change of moving atom by delta, over its bonded terms and
    its nonbonded partners (all of them when partners is None).

    The term kernels evaluate the current and the moved coordinates at once,
    as two coordinate sets.
    """
    p = system.arrays()
    both = np.array((system.coords, system.coords))
    both[1, atom] += delta
    row = system.scale_row(atom)
    j = np.flatnonzero(row) if partners is None else partners[row[partners] != 0.0]
    s = row[j]
    q, sigma, epsilon = p["q"], p["sigma"], p["epsilon"]
    D, R = kernels.edges(both, np.stack((np.full_like(j, atom), j)))
    ec, ev, bad = kernels.nonbonded(
        D, R, s * q[atom] * q[j], np.sqrt(sigma[atom] * sigma[j]),
        np.sqrt(epsilon[atom] * epsilon[j]), s, p["cutoff"],
    )
    if bad >= 0:
        raise EnergyEvaluationError(f"nonbonded pair ({atom},{j[bad]}): coincident atoms")
    total = (ec[1] - ec[0]) + (ev[1] - ev[0])
    for term, rows in zip(_BONDED, system.atom_terms(atom)):
        sec, _, _, width, _ = _BONDED[term]
        start, stop = p[sec].start, p[sec].stop
        # the rows' edges, in the section's layout
        ids = (start + rows + (stop - start) // width * np.arange(width)[:, None]).ravel()
        D, R = kernels.edges(both, p["edge_idx"][:, ids])
        e_old, e_new = _bonded(system, p, term, D, R, rows=rows)
        total += e_new - e_old
    return float(total)


@_QUIET
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
    return _atom_delta(system, lin.atom, delta, lin.near_idx) + float(lin.coef @ delta)


@_QUIET
def exact_delta_atom_move(system: MolecularSystem, atom: int, delta) -> float:
    """Exact O(n) energy change for moving one atom (no linearization).

    Used to confirm candidate moves and as the oracle for the far-field
    approximation error.
    """
    if not 0 <= atom < system.natoms:
        raise ValueError(f"atom index {atom} out of range for {system.natoms} atoms")
    return _atom_delta(system, atom, np.asarray(delta, dtype=np.float64).reshape(3))
