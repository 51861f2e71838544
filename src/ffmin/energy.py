"""Potential energy, analytic gradient, and the incremental-move machinery.

The objective is the OPLS-style sum

    E = E_stretch + E_bend + E_torsion + E_coulomb + E_vdw

over a MolecularSystem, in kJ/mol with distances in angstrom. All functions
here are pure in (system, coords); summation order is fixed, so repeated
calls are bit-identical.

The value sweep (_Sweep) gathers every edge of the plan,
MolecularSystem.arrays(), at flat x (or at system.coords) and runs each
term's kernels.py energy half on its section, in the check order of the
plan's term table (pairs, stretch, bend, torsion), and raises the first
energy fault as it meets it: energy_total. energy_and_gradient finishes it
with each term's gradient half, which reuses the pair terms, and one
scatter; finishing raises only a fault that exists for the gradient alone
(a zero-length bond, collinear bend arms). So energy_total,
energy_and_gradient, an oracle's value then gradient and the single-atom
deltas name the same fault of a geometry.

A KeptSweep lets a caller that values a point and then wants the gradient
there (an oracle whose line search accepts its last probe) keep that
sweep: the gradient at the kept x then runs only the gradient halves, pair
terms included, with the same bits. The store holds the sweep valued last
and nothing else, so a call never holds two sweeps.
Every gather, here and in the kernels, reads the plan's flat edge
index (kernels.flat_index). _term runs one term's energy half over other
edge rows: one section alone (energy_stretch ...), one atom's rows (the
single-atom deltas) or its far partners (linearize_farfield_coulomb).

Every public function leaves through one exit: no NumPy warning escapes,
and degenerate geometry or a NaN or inf result raises EnergyEvaluationError
naming the term row, the term, the delta or the far-field coefficient; for
a NaN or inf result it is its subclass NonFiniteEnergyError.

The exit sets NumPy's error state through its context variable, to what
np.errstate(all="ignore") would set, in its own frame: errstate's decorator
adds a frame and builds its object on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy._core.umath import _extobj_contextvar as _errstate, _make_extobj as _make_errstate

from . import kernels
from .model import MolecularSystem, pair_parameters


class EnergyEvaluationError(ValueError):
    """Degenerate or invalid geometry in a named interaction term."""


class NonFiniteEnergyError(EnergyEvaluationError):
    """A NaN or inf result with no degenerate term: finite coordinates whose
    energy overflows. A line search's probe treats it as not relaxing."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term energies; total is their sum, derived, so it is no field:
    not in repr or equality, and replace computes it anew."""

    stretch: float
    bend: float
    torsion: float
    coulomb: float
    vdw: float

    @property
    def total(self):
        return self.stretch + self.bend + self.torsion + self.coulomb + self.vdw


@dataclass(frozen=True)
class FarFieldLinearization:
    """First-order model of one atom's far-field Coulomb sum: e_far0 at the
    atom's position, and its gradient coef there, so moving the atom by delta
    changes it by about coef . delta. near_idx lists the partners evaluated
    exactly.
    """

    atom: int
    e_far0: float
    coef: np.ndarray
    near_idx: np.ndarray


# per term of the plan's term table: edges per row, and what a bad row of
# its energy half and of its gradient half means (None: that half never
# reports one)
_TERMS = {
    "pairs": (1, "coincident atoms", None),
    "stretch": (1, None, "coincident endpoints"),
    "bend": (2, "zero-length arm", "collinear geometry"),
    "torsion": (3, "degenerate plane", None),
}


def _plan_rows(p, term, rows=None):
    """The flat edge index (2, 3k) and kernel parameters of a term's rows in
    the plan p: its whole section, or the given bonded term rows."""
    _, _, sec, args = p["terms"][term]
    edge = p["edge_flat"].reshape(2, -1, 3)
    if rows is None:
        return edge[:, sec].reshape(2, -1), args
    # the rows' edges, in the section's layout
    width = _TERMS[term][0]
    ids = (sec.start + rows + (sec.stop - sec.start) // width * np.arange(width)[:, None]).ravel()
    return edge[:, ids].reshape(2, -1), [a[rows] for a in args]


def _raise(system, term, what, bad, rows=None):
    """Raise the EnergyEvaluationError naming a term's bad row and its fault
    what; rows names rows other than the whole plan section: (2, k) pair
    atoms, or term rows. A pair is named (lower atom, higher atom)."""
    if term == "pairs":
        if rows is None:
            p = system.arrays()
            rows = p["edge_flat"][:, 3 * p["terms"]["pairs"][2].start::3] // 3
        i, j = sorted(rows[:, bad])
        raise EnergyEvaluationError(f"nonbonded pair ({i},{j}): {what}")
    row = bad if rows is None else int(rows[bad])
    t = {"stretch": system.bonds, "bend": system.angles, "torsion": system.dihedrals}[term][row]
    atoms = "-".join(str(getattr(t, a)) for a in "ijkl" if hasattr(t, a))
    raise EnergyEvaluationError(f"{term} term {row} (atoms {atoms}): {what}")


def _term(system, term, D, R, args, rows=None):
    """A term's energy half on edge rows D, R with kernel parameters args and
    every length check on: (its energies, [coulomb, vdw] for pairs, and the
    intermediates of its gradient half), raising for the first bad row."""
    *energies, bad, mid = system.arrays()["terms"][term][0](D, R, *args, True)
    if bad >= 0:
        _raise(system, term, _TERMS[term][1], bad, rows)
    return energies, mid


class _Sweep:
    """The value sweep at x (default: system.coords): one gather of the plan's
    edges and each term's energy half on its section, in check order,
    raising the first bad row it meets.

    sections holds each term's (D, R) section views and parts its
    (energies..., bad row, intermediates).
    """

    __slots__ = ("m", "short", "sections", "parts", "breakdown")

    def __init__(self, system, x):
        c = system.coords if x is None else system.coords_at(x)
        p = system.arrays()
        D, R = kernels.edges(c, p["edge_flat"])
        self.m = R.size
        self.short = short = kernels.too_short(R)
        self.sections = sections = []
        self.parts = parts = []
        for term, (energy, _, sec, args) in p["terms"].items():
            section = D[sec], R[sec]
            part = energy(*section, *args, short)
            if part[-2] >= 0:
                _raise(system, term, _TERMS[term][1], part[-2])
            sections.append(section)
            parts.append(part)
        pairs, bonds, angles, dihedrals = parts
        self.breakdown = EnergyBreakdown(float(bonds[0]), float(angles[0]), float(dihedrals[0]),
                                         float(pairs[0]), float(pairs[1]))

    def finish(self, system):
        """The breakdown and flat gradient: each term's gradient half, in
        check order, then one scatter, raising a gradient half's bad row.
        Consumes the sweep."""
        p = system.arrays()
        short, sections, parts = self.short, self.sections, self.parts
        # the edge gradients G = W[:M]; scatter() fills W[M:] with -G
        W = np.empty((2 * self.m, 3))
        for term, (_, grad, sec, _) in p["terms"].items():
            # popped, not named, so each term's edge rows and intermediates
            # are freed once used: the scatter runs with W alone, which at a
            # few hundred atoms spares the allocator fresh pages on each call
            bad = grad(*sections.pop(0), parts.pop(0)[-1], W[sec], short)
            if bad >= 0:
                _raise(system, term, _TERMS[term][2], bad)
        return self.breakdown, kernels.scatter(W, p["edge_flat"], system.natoms)


class KeptSweep:
    """The value sweep valued last, kept for a gradient at the same x.

    One slot, keyed on a copy of x's bytes: an x edited in place afterwards
    no longer matches. energy_total empties it before it sweeps, then keeps
    its own sweep there; energy_and_gradient takes the sweep if it was kept
    at its x, and empties the slot either way.
    """

    def __init__(self):
        self.slot = None  # (x's bytes, sweep), or None when empty

    def take(self, x):
        """The sweep kept at x, or None; empties the store either way."""
        slot, self.slot = self.slot, None
        return slot[1] if slot and slot[0] == np.asarray(x, dtype=np.float64).tobytes() else None


def _nonfinite(out, what):
    """The first non-finite part of a result, named, or None; what names a
    scalar result or a breakdown's total."""
    if isinstance(out, EnergyBreakdown):
        if math.isfinite(out.total):  # then every term is finite too
            return None
        terms = [_nonfinite(getattr(out, t.name), f"{t.name} energy") for t in fields(out)]
        return next(filter(None, terms), None) or _nonfinite(out.total, what)
    if isinstance(out, tuple):  # energy_and_gradient's (breakdown, gradient)
        return _nonfinite(out[0], what) or _nonfinite(out[1], "gradient")
    if isinstance(out, FarFieldLinearization):
        return _nonfinite(out.e_far0, what) or _nonfinite(out.coef, "far-field coefficient")
    if math.isfinite(out) if isinstance(out, float) else kernels.all_finite(out):
        return None
    return f"{what} is not finite" + (f": {out!r}" if np.ndim(out) == 0 else "")


def _checked(what):
    """The one exit of every public function here: NumPy warnings silenced,
    a non-finite result part raised as NonFiniteEnergyError (see _nonfinite)."""
    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            # what np.errstate(all="ignore") does around a call, without
            # building its Python object on every call
            token = _errstate.set(_make_errstate(all="ignore"))
            try:
                out = fn(*args, **kwargs)
            finally:
                _errstate.reset(token)
            bad = _nonfinite(out, what)
            if bad:
                raise NonFiniteEnergyError(bad)
            return out
        return checked
    return decorate


def _one_term(system, term):
    """One term's energies at system.coords, gathering only its own edges."""
    idx, args = _plan_rows(system.arrays(), term)
    energies, _ = _term(system, term, *kernels.edges(system.coords, idx), args)
    return [float(e) for e in energies]


@_checked("stretch energy")
def energy_stretch(system: MolecularSystem) -> float:
    return _one_term(system, "stretch")[0]


@_checked("bend energy")
def energy_bend(system: MolecularSystem) -> float:
    return _one_term(system, "bend")[0]


@_checked("torsion energy")
def energy_torsion(system: MolecularSystem) -> float:
    return _one_term(system, "torsion")[0]


@_checked("coulomb energy")
def energy_coulomb(system: MolecularSystem) -> float:
    return _one_term(system, "pairs")[0]


@_checked("vdw energy")
def energy_vdw(system: MolecularSystem) -> float:
    return _one_term(system, "pairs")[1]


@_checked("total energy")
def energy_total(system: MolecularSystem, x=None, kept=None) -> EnergyBreakdown:
    """Per-term energies at flat coordinates x (default: system.coords): the
    value sweep.

    With a KeptSweep kept, it is emptied first, and the sweep is kept there
    for a gradient at the same x. Raises ModelError for an x of the wrong
    size or with a non-finite entry.
    """
    if kept is not None:
        kept.slot = None
    sweep = _Sweep(system, x)
    if kept is not None:
        kept.slot = np.asarray(x, dtype=np.float64).tobytes(), sweep
    return sweep.breakdown


@_checked("total energy")
def energy_and_gradient(system: MolecularSystem, x=None, kept=None):
    """(EnergyBreakdown, flattened analytic gradient) at flat coordinates x,
    or at system.coords when x is None: the value sweep finished by its
    gradient halves.

    With a KeptSweep kept, a sweep kept at this x is finished in place of a
    new one (the same bits), and the store is emptied. Callers needing both
    quantities should use this instead of two separate calls.
    """
    sweep = None if kept is None else kept.take(x)
    if sweep is None:
        sweep = _Sweep(system, x)
    return sweep.finish(system)


def gradient_total(system: MolecularSystem):
    """Analytic gradient of the total energy, flattened to length 3n."""
    return energy_and_gradient(system)[1]


@_checked("finite-difference gradient")
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


@_checked("far-field energy")
def linearize_farfield_coulomb(system: MolecularSystem, atom: int,
                               cutoff: float) -> FarFieldLinearization:
    """Split atom's Coulomb sum at cutoff and linearize the far part.

    Partners at r <= cutoff are near, and so are excluded and 1-4 scaled
    ones at any distance; the far rows go through the nonbonded kernel at
    scale 1 with LJ off (epsilon 0), and their edge gradients sum to coef.
    """
    if not 0 <= atom < system.natoms:
        raise ValueError(f"atom index {atom} out of range for {system.natoms} atoms")
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    p = system.arrays()
    pairs = np.stack((np.full(system.natoms, atom), np.arange(system.natoms)))
    D, R = kernels.edges(system.coords, kernels.flat_index(pairs))
    # the atom's own row has scale 0: near, and dropped from near_idx below
    near = (R <= cutoff) | (system.scale_row(atom) != 1.0)
    far = np.flatnonzero(~near)
    near[atom] = False
    qq, sig, _ = pair_parameters(p, atom, far, 1.0)
    D, R = D[far], R[far]
    (e_far0, _), mid = _term(system, "pairs", D, R, (qq, sig, 0.0, -1.0), rows=pairs[:, far])
    G = np.empty((far.size, 3))
    kernels.nonbonded_grad(D, R, mid, G, True)
    return FarFieldLinearization(
        atom=atom, e_far0=float(e_far0), coef=G.sum(axis=0), near_idx=np.flatnonzero(near))


def _atom_delta(system, atom, deltas, partners=None):
    """Exact energy changes (S,) of moving atom by each of deltas (S, 3) over
    its nonbonded partners (all of them when partners is None) and its
    bonded terms, each term at once on S + 1 coordinate sets, set 0 unmoved."""
    p = system.arrays()
    sets = np.repeat(system.coords[None], len(deltas) + 1, axis=0)
    sets[1:, atom] += deltas
    scale = system.scale_row(atom)
    j = np.flatnonzero(scale) if partners is None else partners[scale[partners] != 0.0]
    total = 0.0
    for term, rows in zip(_TERMS, (np.stack((np.full_like(j, atom), j)),
                                   *system.atom_terms(atom))):
        if term == "pairs":
            idx = kernels.flat_index(rows)
            args = (*pair_parameters(p, atom, j, scale[j]), p["terms"]["pairs"][3][-1])
        else:
            idx, args = _plan_rows(p, term, rows)
        energies, _ = _term(system, term, *kernels.edges(sets, idx), args, rows=rows)
        for e in energies:
            total += e[1:] - e[0]
    return total


def _per_delta(delta, changes):
    """changes(stack) for one displacement (3,), as a float, or a stack (S, 3),
    S >= 1; ValueError for any other shape (a flat (6,) is not two moves)."""
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[-1] != 3 or not d.size:
        raise ValueError(f"displacement of shape {d.shape}: expected (3,) or (S, 3), S >= 1")
    out = changes(d.reshape(-1, 3))
    return float(out[0]) if d.ndim == 1 else out


@_checked("energy delta")
def delta_energy_atom_move(system: MolecularSystem, lin: FarFieldLinearization, delta):
    """Energy change for moving lin.atom by delta (or by each row of an
    (S, 3) stack), using the far-field model.

    Bonded terms touching the atom and near-field nonbonded pairs are
    recomputed exactly; the far Coulomb field changes by the linear form
    coef . delta; far vdW is neglected. Only valid while the system still
    holds the coordinates lin was built from.

    Requires a system without a nonbonded cutoff, whose objective holds the
    far field modelled here.
    """
    if system.nonbonded.cutoff is not None:
        raise ValueError("incremental delta requires a system nonbonded cutoff of none")
    # vecdot takes each row's dot product as coef @ row would, bit for bit
    return _per_delta(delta, lambda d: _atom_delta(system, lin.atom, d, lin.near_idx)
                      + np.vecdot(d, lin.coef))


@_checked("energy delta")
def exact_delta_atom_move(system: MolecularSystem, atom: int, delta):
    """Exact O(n) energy change for moving one atom by delta (or by each row
    of an (S, 3) stack), with no linearization.

    Used to confirm candidate moves, as atom_wiggle's exact probes, and as
    the oracle for the far-field approximation error.
    """
    if not 0 <= atom < system.natoms:
        raise ValueError(f"atom index {atom} out of range for {system.natoms} atoms")
    return _per_delta(delta, lambda d: _atom_delta(system, atom, d))
