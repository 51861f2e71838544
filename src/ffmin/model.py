"""Molecular system data model.

A MolecularSystem bundles per-atom parameters, coordinates, the bonded term
lists (bonds, angles, dihedrals) and the nonbonded pair policy. Instances are
immutable; coordinate updates go through ``system.with_coords(new)`` which
shares every parameter array, so concurrent evaluations never race.

Validation happens at construction time: indices in range, positive force
constants where required, angle rest values strictly inside (0, pi), policy
pair sets disjoint and canonically ordered. ``with_coords`` checks only the
new coordinates, since the topology it shares was checked already.

``MolecularSystem.arrays()`` is the system's evaluation plan: one edge table
of every difference vector a term needs, with the term and pair parameters,
built once on first use, so energies evaluate on flat coordinates without
building a new system per call. It is kept in the system's topology cache,
one dict that every system ``with_coords`` derives shares (a plan built on a
derived system serves its parent too), as is ``save_system``'s file text.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from . import kernels
from .kernels import TORSION_DPHI, TORSION_SIGN


class ModelError(ValueError):
    """Raised when a system or term fails validation."""


# The term classes below (AtomSpec, BondTerm, AngleTerm, DihedralTerm) are
# frozen dataclasses with an __init__ of their own: it checks its arguments,
# then fills the instance with one dict update. The generated frozen
# __init__ makes one object.__setattr__ call per field and then runs
# __post_init__, which reads the fields back; this builds a term in
# 55-65 % of that time. The dict it gives each term costs about 140 bytes;
# storing through a bound object.__setattr__ would save them, but builds a
# term in about 85 % of the time. Equality, hashing, repr, replace, copy and
# pickle are the dataclass's, and assignment still raises
# FrozenInstanceError.


@dataclass(frozen=True)
class AtomSpec:
    """Per-atom force-field parameters.

    q is the partial charge in units of e, sigma the LJ diameter in angstrom,
    epsilon the LJ well depth in kJ/mol.
    """

    id: int
    label: str
    q: float
    sigma: float
    epsilon: float

    def __init__(self, id, label, q, sigma, epsilon):
        if id < 0:
            raise ModelError(f"atom id must be >= 0, got {id}")
        if not (sigma > 0.0):
            raise ModelError(f"atom {id}: sigma must be > 0, got {sigma}")
        if epsilon < 0.0:
            raise ModelError(f"atom {id}: epsilon must be >= 0, got {epsilon}")
        self.__dict__.update(id=id, label=label, q=q, sigma=sigma, epsilon=epsilon)


@dataclass(frozen=True)
class BondTerm:
    """Harmonic stretch K*(r - r0)^2 between atoms i and j."""

    i: int
    j: int
    K: float
    r0: float

    def __init__(self, i, j, K, r0):
        if i == j:
            raise ModelError(f"bond ({i},{j}): endpoints must differ")
        if K < 0.0:
            raise ModelError(f"bond ({i},{j}): K must be >= 0")
        if not (r0 > 0.0):
            raise ModelError(f"bond ({i},{j}): r0 must be > 0")
        self.__dict__.update(i=i, j=j, K=K, r0=r0)


@dataclass(frozen=True)
class AngleTerm:
    """Harmonic bend K*(theta - theta0)^2 with apex at atom j.

    theta0 is in radians here; file I/O converts from degrees.
    """

    i: int
    j: int
    k: int
    K: float
    theta0: float

    def __init__(self, i, j, k, K, theta0):
        if len({i, j, k}) != 3:
            raise ModelError(f"angle ({i},{j},{k}): atoms must be distinct")
        if K < 0.0:
            raise ModelError(f"angle ({i},{j},{k}): K must be >= 0")
        if not (0.0 < theta0 < math.pi):
            raise ModelError(f"angle ({i},{j},{k}): theta0 must lie in (0, pi), got {theta0}")
        self.__dict__.update(i=i, j=j, k=k, K=K, theta0=theta0)


@dataclass(frozen=True)
class DihedralTerm:
    """OPLS cosine-series torsion over the chain i-j-k-l.

    Energy is 0.5*(V1*(1+cos phi) + V2*(1-cos 2phi) + V3*(1+cos 3phi)
    + V4*(1-cos 4phi)) with phi the signed dihedral.
    """

    i: int
    j: int
    k: int
    l: int
    V1: float
    V2: float
    V3: float
    V4: float

    def __init__(self, i, j, k, l, V1, V2, V3, V4):
        if len({i, j, k, l}) != 4:
            raise ModelError(f"dihedral ({i},{j},{k},{l}): atoms must be distinct")
        self.__dict__.update(i=i, j=j, k=k, l=l, V1=V1, V2=V2, V3=V3, V4=V4)


def _canonical_pairs(pairs, what):
    """The set of (i, j) pairs with each stored as (min, max); i == j is an error."""
    out = set()
    add = out.add
    for i, j in pairs:
        if i < j:
            add((i, j))
        elif i == j:
            raise ModelError(f"{what} pair ({i},{j}): indices must differ")
        else:
            add((j, i))
    return frozenset(out)


@dataclass(frozen=True)
class NonbondedPolicy:
    """Which pairs interact, at what scale, and under what cutoff.

    excluded pairs contribute nothing; scaled14 pairs are multiplied by s14;
    every other distinct pair has scale 1. cutoff is a hard truncation radius
    in angstrom, or None for no cutoff. Both pair sets are stored as
    (min, max) pairs, so (j, i) means the same pair as (i, j).
    """

    excluded: frozenset = frozenset()
    scaled14: frozenset = frozenset()
    s14: float = 0.5
    cutoff: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "excluded", _canonical_pairs(self.excluded, "excluded"))
        object.__setattr__(self, "scaled14", _canonical_pairs(self.scaled14, "scaled14"))
        if self.excluded & self.scaled14:
            raise ModelError("nonbonded policy: excluded and scaled14 pair sets overlap")
        if not (0.0 <= self.s14 <= 1.0):
            raise ModelError(f"nonbonded policy: s14 must be in [0, 1], got {self.s14}")
        if self.cutoff is not None and not (self.cutoff > 0.0):
            raise ModelError(f"nonbonded policy: cutoff must be > 0, got {self.cutoff}")


def pair_parameters(p, i, j, scale):
    """The combination rule: kernels.nonbonded's (qq, sig, seps) for the
    pairs (i, j) at the given scale, from the per-atom q, sigma, epsilon in
    p: qq = scale*q_i*q_j, sig = sqrt(sigma_i*sigma_j) and seps =
    scale*sqrt(epsilon_i*epsilon_j)."""
    q, sigma, epsilon = p["q"], p["sigma"], p["epsilon"]
    return (scale * q[i] * q[j], np.sqrt(sigma[i] * sigma[j]),
            scale * np.sqrt(epsilon[i] * epsilon[j]))


def _columns(terms, names, dtype):
    """Per attribute name, its values over the terms as one array of dtype."""
    # a list: tuple() of a generator shrinks a tuple of a guessed length, and
    # a small tuple shrunk so is freed onto the free list of its final length
    # though none was taken from it, so each plan built would leave a few
    # tuples there, up to that list's limit of 2000
    return [np.fromiter(map(attrgetter(name), terms), dtype, len(terms)) for name in names]


def _pair_index(n, i, j):
    """Position of the pair (i, j), i < j, in np.triu_indices(n, 1) order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def build_default_exclusions(natoms, bonds, s14=0.5, cutoff=None):
    """Derive the standard policy from the bond graph.

    Pairs separated by one or two bonds are excluded, pairs separated by
    exactly three bonds are scaled by s14. Separation is the graph distance
    in the bond topology, independent of geometry: the 1-2 pairs are the
    bonds, the 1-3 pairs two neighbours of one atom, and the 1-4 pairs a
    neighbour of each end of one bond, when they are two atoms and not a
    1-2 or 1-3 pair already.
    """
    bonded = set()
    for b in bonds:
        i, j = b.i, b.j
        if not (0 <= i < natoms and 0 <= j < natoms):
            raise ModelError(f"bond ({i},{j}): index out of range for {natoms} atoms")
        bonded.add((i, j) if i < j else (j, i))
    adj = [[] for _ in range(natoms)]
    for i, j in bonded:
        adj[i].append(j)
        adj[j].append(i)

    excluded = {(a, b) for nbrs in adj if len(nbrs) > 1 for a in nbrs for b in nbrs if a < b}
    excluded |= bonded
    # a == j or b == i would make a bonded pair, which is excluded anyway
    scaled = {(a, b) if a < b else (b, a)
              for i, j in bonded for a in adj[i] if a != j for b in adj[j] if b != i and a != b}
    scaled -= excluded
    return NonbondedPolicy(excluded, scaled, s14, cutoff)  # the policy freezes both


@dataclass(frozen=True)
class MolecularSystem:
    """Immutable system: atoms, coordinates and interaction terms.

    coords has shape (natoms, 3) in angstrom. The evaluation plan handed to
    kernels (charges, the edge table and its term and pair parameters) is
    derived once, on first use, and cached.
    """

    atoms: tuple
    coords: np.ndarray
    bonds: tuple = ()
    angles: tuple = ()
    dihedrals: tuple = ()
    nonbonded: NonbondedPolicy = field(default_factory=NonbondedPolicy)
    # the topology cache: each entry depends on every field but coords. Not
    # an init field, so dataclasses.replace() starts from an empty cache
    # instead of sharing entries built for other parameters
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._check_topology()
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.shape != (self.natoms, 3):
            raise ModelError(f"coords shape {coords.shape} does not match {self.natoms} atoms")
        self._set_coords(coords)

    def _check_topology(self):
        n = len(self.atoms)
        for idx, a in enumerate(self.atoms):
            if a.id != idx:
                raise ModelError(f"atom ids must be 0..n-1 in order; position {idx} has id {a.id}")
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise ModelError(f"bond ({b.i},{b.j}): index out of range")
        for a in self.angles:
            if not (0 <= a.i < n and 0 <= a.j < n and 0 <= a.k < n):
                raise ModelError(f"angle ({a.i},{a.j},{a.k}): index out of range")
        for d in self.dihedrals:
            if not (0 <= d.i < n and 0 <= d.j < n and 0 <= d.k < n and 0 <= d.l < n):
                raise ModelError(f"dihedral ({d.i},{d.j},{d.k},{d.l}): index out of range")
        for what in ("excluded", "scaled14"):
            for i, j in getattr(self.nonbonded, what):
                if i < 0 or j >= n:
                    raise ModelError(f"{what} pair ({i},{j}): index out of range for {n} atoms")

    def _set_coords(self, coords):
        coords = self.coords_at(coords)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def natoms(self):
        return len(self.atoms)

    def coords_at(self, x):
        """x as an (natoms, 3) float64 array of coordinates for this system.

        x may be flat (length 3n) or already (n, 3). Raises ModelError when
        it does not hold 3n values or holds a non-finite one.
        """
        n = len(self.atoms)
        c = np.asarray(x, dtype=np.float64)
        if c.size != 3 * n:
            raise ModelError(f"coordinates of size {c.size} do not match {n} atoms")
        c = c.reshape(n, 3)
        if not kernels.all_finite(c):
            raise ModelError("coords must be finite")
        return c

    def with_coords(self, coords):
        """New system sharing all parameters, with replaced coordinates.

        Only the coordinates are checked; the topology is this system's, and
        so is its topology cache: both systems share the one _cache dict.
        """
        new = copy.copy(self)  # shallow, so _cache is the same dict
        new._set_coords(np.array(coords, dtype=np.float64))
        return new

    def arrays(self):
        """The evaluation plan: one edge table and its parameters, cached per system.

        Returns a dict with
          - charges q and LJ sigma/epsilon per atom;
          - edge_flat (2, 3M), the flat edge index (kernels.flat_index):
            edge e is the difference vector c[ea[e]] - c[eb[e]], with
            edge_flat[0, 3e + axis] = 3*ea[e] + axis and edge_flat[1]
            likewise for eb; the gather and the gradient scatter both read it;
          - terms: per term in check order ("pairs", "stretch", "bend",
            "torsion"), its kernels' energy and gradient halves, its edge
            section as a slice of edges, and the parameters they take.
            The sections: pairs (c_i - c_j for every interacting i<j pair,
            that is every pair of nonzero scale, in np.triu_indices order),
            stretch (d = c_i - c_j per bond), bend (every a = c_i - c_j,
            then every b = c_k - c_j) and torsion (every b1 = c_j - c_i,
            then b2 = c_k - c_j, then b3 = c_l - c_k). The parameters: per
            pair the (qq, sig, seps) of pair_parameters, scale being s14
            for 1-4 pairs and else 1, then the cutoff, -1.0 when the policy
            has none; K and r0 per bond; K and theta0 per angle; V (m, 4),
            V*TORSION_SIGN and V*TORSION_DPHI per dihedral.

        Every array is read-only but edge_flat, which callers must not
        write either: np.take and np.bincount copy a read-only index on
        every call, a copy as large as the gathered edge vectors.
        """
        cached = self._cache.get("params")
        if cached is None:
            cached = self._build_plan()
            for v in chain(cached.values(), *(row[3] for row in cached["terms"].values())):
                if isinstance(v, np.ndarray) and v is not cached["edge_flat"]:
                    v.setflags(write=False)
            self._cache["params"] = cached
        return cached

    def _build_plan(self):
        n = self.natoms
        nb = self.nonbonded
        keys = ("q", "sigma", "epsilon")
        per_atom = dict(zip(keys, _columns(self.atoms, keys, np.float64)))
        bi, bj = _columns(self.bonds, "ij", np.intp)
        ai, aj, ak = _columns(self.angles, "ijk", np.intp)
        di, dj, dk, dl = _columns(self.dihedrals, "ijkl", np.intp)

        # every i<j pair in np.triu_indices(n, 1) order, built without its n x n mask
        first = np.arange(n, dtype=np.intp)
        counts = n - 1 - first
        iu = np.repeat(first, counts)
        # within row i, j runs from i + 1 up: row i starts at pair cumsum[i] - counts[i],
        # so j = k - (cumsum[i] - counts[i]) + i + 1 = k - (cumsum[i] - n) at pair k
        ju = np.arange(iu.size) - np.repeat(np.cumsum(counts) - n, counts)
        scale = np.ones(iu.size, dtype=np.float64)
        # the excluded pairs, then the 1-4 pairs, read in one pass
        lo, hi = np.fromiter(chain.from_iterable(chain(nb.excluded, nb.scaled14)), np.intp,
                             2 * (len(nb.excluded) + len(nb.scaled14))).reshape(-1, 2).T
        at = _pair_index(n, lo, hi)
        scale[at[:len(nb.excluded)]] = 0.0
        scale[at[len(nb.excluded):]] = nb.s14
        keep = scale != 0.0
        iu, ju, scale = iu[keep], ju[keep], scale[keep]

        edge_idx = np.stack((np.concatenate((bi, ai, ak, dj, dk, dl, iu)),
                             np.concatenate((bj, aj, aj, di, dj, dk, ju))))
        ends = list(accumulate((bi.size, 2 * ai.size, 3 * di.size, iu.size), initial=0))
        bond, angle, torsion, pair = map(slice, ends, ends[1:])
        dih_V = np.fromiter(chain.from_iterable(map(attrgetter("V1", "V2", "V3", "V4"),
                                                    self.dihedrals)),
                            np.float64, 4 * len(self.dihedrals)).reshape(-1, 4)
        cutoff = -1.0 if nb.cutoff is None else float(nb.cutoff)

        return {
            **per_atom, "edge_flat": kernels.flat_index(edge_idx),
            "terms": {
                "pairs": (kernels.nonbonded, kernels.nonbonded_grad, pair,
                          (*pair_parameters(per_atom, iu, ju, scale), cutoff)),
                "stretch": (kernels.stretch, kernels.stretch_grad, bond,
                            tuple(_columns(self.bonds, ("K", "r0"), np.float64))),
                "bend": (kernels.bend, kernels.bend_grad, angle,
                         tuple(_columns(self.angles, ("K", "theta0"), np.float64))),
                "torsion": (kernels.torsion, kernels.torsion_grad, torsion,
                            (dih_V, dih_V * TORSION_SIGN, dih_V * TORSION_DPHI)),
            },
        }

    def scale_row(self, atom):
        """Pair scales of atom with every atom, 0.0 at atom itself."""
        partners, scales = self._atom_table()["scaled"][atom]
        row = np.ones(self.natoms)
        row[atom] = 0.0
        row[partners] = scales
        return row

    def atom_terms(self, atom):
        """Row indices of the bonded terms that involve the given atom."""
        table = self._atom_table()
        return table["bonds"][atom], table["angles"][atom], table["dihedrals"][atom]

    def _atom_table(self):
        """Per atom: its bonded term rows, and its partners of scale other than 1."""
        table = self._cache.get("atom_terms")
        if table is None:
            n = self.natoms
            table = {key: [[] for _ in range(n)]
                     for key in ("bonds", "angles", "dihedrals", "scaled")}
            for key, terms, attrs in (("bonds", self.bonds, "ij"),
                                      ("angles", self.angles, "ijk"),
                                      ("dihedrals", self.dihedrals, "ijkl")):
                for row, term in enumerate(terms):
                    for a in attrs:
                        table[key][getattr(term, a)].append(row)
            for pairs, value in ((self.nonbonded.excluded, 0.0),
                                 (self.nonbonded.scaled14, self.nonbonded.s14)):
                for i, j in pairs:
                    table["scaled"][i].append((j, value))
                    table["scaled"][j].append((i, value))
            for key in ("bonds", "angles", "dihedrals"):
                table[key] = [np.array(rows, dtype=np.int64) for rows in table[key]]
            table["scaled"] = [
                (np.array([j for j, _ in row], dtype=np.intp),
                 np.array([v for _, v in row], dtype=np.float64))
                for row in table["scaled"]
            ]
            self._cache["atom_terms"] = table
        return table
