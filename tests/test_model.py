import copy
import dataclasses
import math
import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as naive
from ffmin.model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    ModelError,
    MolecularSystem,
    NonbondedPolicy,
    build_default_exclusions,
)
from ffmin.synth import make_chain_system


def atom(i, q=0.0, sigma=3.0, epsilon=0.1):
    return AtomSpec(id=i, label=f"A{i}", q=q, sigma=sigma, epsilon=epsilon)


def test_atomspec_validation():
    with pytest.raises(ModelError):
        AtomSpec(id=-1, label="x", q=0.0, sigma=3.0, epsilon=0.1)
    with pytest.raises(ModelError):
        AtomSpec(id=0, label="x", q=0.0, sigma=0.0, epsilon=0.1)
    with pytest.raises(ModelError):
        AtomSpec(id=0, label="x", q=0.0, sigma=3.0, epsilon=-0.1)


def test_bond_term_validation():
    BondTerm(0, 1, K=100.0, r0=1.5)
    with pytest.raises(ModelError):
        BondTerm(1, 1, K=100.0, r0=1.5)
    with pytest.raises(ModelError):
        BondTerm(0, 1, K=-1.0, r0=1.5)
    with pytest.raises(ModelError):
        BondTerm(0, 1, K=1.0, r0=0.0)


def test_angle_term_validation():
    AngleTerm(0, 1, 2, K=50.0, theta0=1.9)
    with pytest.raises(ModelError):
        AngleTerm(0, 1, 0, K=50.0, theta0=1.9)
    with pytest.raises(ModelError):
        AngleTerm(0, 1, 2, K=-1.0, theta0=1.9)
    # theta0 strictly inside (0, pi)
    with pytest.raises(ModelError):
        AngleTerm(0, 1, 2, K=50.0, theta0=0.0)
    with pytest.raises(ModelError):
        AngleTerm(0, 1, 2, K=50.0, theta0=np.pi)


def test_dihedral_term_validation():
    DihedralTerm(0, 1, 2, 3, V1=1.0, V2=0.0, V3=0.5, V4=0.0)
    with pytest.raises(ModelError):
        DihedralTerm(0, 1, 2, 1, V1=1.0, V2=0.0, V3=0.0, V4=0.0)


# per term class: its fields in order, and valid values for them
TERM_CLASSES = {
    AtomSpec: (("id", "label", "q", "sigma", "epsilon"), (3, "C3", -0.25, 3.1, 0.4)),
    BondTerm: (("i", "j", "K", "r0"), (2, 5, 300.0, 1.5)),
    AngleTerm: (("i", "j", "k", "K", "theta0"), (4, 2, 7, 40.0, 1.9)),
    DihedralTerm: (("i", "j", "k", "l", "V1", "V2", "V3", "V4"), (0, 1, 2, 3, 1.0, 0.5, 0.25, 0.0)),
}


@pytest.mark.parametrize("cls", list(TERM_CLASSES), ids=lambda c: c.__name__)
def test_term_classes_keep_their_dataclass_contract(cls):
    names, values = TERM_CLASSES[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    term = cls(*values)
    # keyword, positional and mixed calls build equal objects, field by field
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    assert cls(**dict(zip(names, values))) == term == mixed
    assert dataclasses.astuple(term) == values
    assert hash(cls(*values)) == hash(term)
    other = cls(*values[:-1], values[-1] + 0.5)
    assert other != term and dataclasses.astuple(other)[-1] == values[-1] + 0.5
    assert repr(term) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, name, values[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(term, name)
    assert dataclasses.replace(term, **{names[-1]: values[-1] + 0.5}) == other
    assert dataclasses.replace(term) == term
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert twin == term and twin is not term and type(twin) is cls
        assert dataclasses.astuple(twin) == values


# one row per invalid value of each term class, with today's exact message;
# a value that breaks two checks names the first of them
INVALID_TERMS = [
    (AtomSpec, (-1, "x", 0.0, 3.0, 0.1), "atom id must be >= 0, got -1"),
    (AtomSpec, (-1, "x", 0.0, 0.0, -0.1), "atom id must be >= 0, got -1"),
    (AtomSpec, (2, "x", 0.0, 0.0, 0.1), "atom 2: sigma must be > 0, got 0.0"),
    (AtomSpec, (2, "x", 0.0, -1.5, 0.1), "atom 2: sigma must be > 0, got -1.5"),
    (AtomSpec, (2, "x", 0.0, math.nan, 0.1), "atom 2: sigma must be > 0, got nan"),
    (AtomSpec, (2, "x", 0.0, 0.0, -0.1), "atom 2: sigma must be > 0, got 0.0"),
    (AtomSpec, (2, "x", 0.0, 3.0, -0.1), "atom 2: epsilon must be >= 0, got -0.1"),
    (BondTerm, (1, 1, 100.0, 1.5), "bond (1,1): endpoints must differ"),
    (BondTerm, (1, 1, -1.0, 0.0), "bond (1,1): endpoints must differ"),
    (BondTerm, (0, 1, -1.0, 1.5), "bond (0,1): K must be >= 0"),
    (BondTerm, (0, 1, -1.0, 0.0), "bond (0,1): K must be >= 0"),
    (BondTerm, (0, 1, 1.0, 0.0), "bond (0,1): r0 must be > 0"),
    (BondTerm, (0, 1, 1.0, math.nan), "bond (0,1): r0 must be > 0"),
    (AngleTerm, (0, 1, 0, 50.0, 1.9), "angle (0,1,0): atoms must be distinct"),
    (AngleTerm, (0, 0, 2, 50.0, 1.9), "angle (0,0,2): atoms must be distinct"),
    (AngleTerm, (0, 2, 2, -1.0, 0.0), "angle (0,2,2): atoms must be distinct"),
    (AngleTerm, (0, 1, 2, -1.0, 1.9), "angle (0,1,2): K must be >= 0"),
    (AngleTerm, (0, 1, 2, -1.0, 0.0), "angle (0,1,2): K must be >= 0"),
    (AngleTerm, (0, 1, 2, 50.0, 0.0), "angle (0,1,2): theta0 must lie in (0, pi), got 0.0"),
    (AngleTerm, (0, 1, 2, 50.0, math.pi),
     "angle (0,1,2): theta0 must lie in (0, pi), got 3.141592653589793"),
    (AngleTerm, (0, 1, 2, 50.0, math.nan), "angle (0,1,2): theta0 must lie in (0, pi), got nan"),
    (DihedralTerm, (0, 1, 2, 1, 1.0, 0.0, 0.0, 0.0), "dihedral (0,1,2,1): atoms must be distinct"),
    (DihedralTerm, (3, 1, 2, 3, 1.0, 0.0, 0.0, 0.0), "dihedral (3,1,2,3): atoms must be distinct"),
    (DihedralTerm, (0, 0, 0, 0, 1.0, 0.0, 0.0, 0.0), "dihedral (0,0,0,0): atoms must be distinct"),
]


@pytest.mark.parametrize("cls,values,msg", INVALID_TERMS)
def test_term_classes_refuse_invalid_values_with_their_messages(cls, values, msg):
    names = TERM_CLASSES[cls][0]
    with pytest.raises(ModelError, match=f"^{re.escape(msg)}$"):
        cls(*values)
    with pytest.raises(ModelError, match=f"^{re.escape(msg)}$"):
        cls(**dict(zip(names, values)))
    # replace builds through the same checks
    valid = cls(*TERM_CLASSES[cls][1])
    with pytest.raises(ModelError, match=f"^{re.escape(msg)}$"):
        dataclasses.replace(valid, **dict(zip(names, values)))


def test_policy_validation():
    with pytest.raises(ModelError):
        NonbondedPolicy(frozenset({(0, 1)}), frozenset({(0, 1)}))
    with pytest.raises(ModelError):
        NonbondedPolicy(s14=1.5)
    with pytest.raises(ModelError):
        NonbondedPolicy(cutoff=0.0)


def test_pair_scale_lookup():
    pol = NonbondedPolicy(
        excluded=frozenset({(0, 1)}), scaled14=frozenset({(1, 2)}), s14=0.5)
    sys0 = MolecularSystem(atoms=tuple(atom(i) for i in range(3)),
                           coords=np.arange(9.0).reshape(3, 3), nonbonded=pol)
    # row a holds the scale of (a, j) for every j, and 0 at a itself
    assert sys0.scale_row(0).tolist() == [0.0, 0.0, 1.0]
    assert sys0.scale_row(1).tolist() == [0.0, 0.0, 0.5]
    assert sys0.scale_row(2).tolist() == [1.0, 0.5, 0.0]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert sys0.scale_row(i)[j] == naive.pair_scale(pol, i, j)


def test_default_exclusions_linear_chain():
    # a-b-c-d: 1-2 and 1-3 pairs excluded, the single 1-4 pair scaled
    bonds = (BondTerm(0, 1, 1.0, 1.5), BondTerm(1, 2, 1.0, 1.5),
             BondTerm(2, 3, 1.0, 1.5))
    pol = build_default_exclusions(4, bonds, s14=0.5)
    assert pol.excluded == frozenset({(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)})
    assert pol.scaled14 == frozenset({(0, 3)})


def test_default_exclusions_disconnected():
    pol = build_default_exclusions(2, (), s14=0.5)
    assert pol.excluded == frozenset()
    assert pol.scaled14 == frozenset()


def test_default_exclusions_ring4_matches_bfs_oracle():
    # 0-1-2-3-0: every pair sits at graph distance <= 2
    bonds = (BondTerm(0, 1, 1.0, 1.5), BondTerm(1, 2, 1.0, 1.5),
             BondTerm(2, 3, 1.0, 1.5), BondTerm(3, 0, 1.0, 1.5))
    pol = build_default_exclusions(4, bonds)
    assert pol.scaled14 == frozenset()
    assert pol.excluded == frozenset(
        {(i, j) for i in range(4) for j in range(i + 1, 4)})

    # brute-force shortest path oracle on a random tree-ish graph
    rng = np.random.default_rng(7)
    n = 9
    rbonds = tuple(BondTerm(int(rng.integers(0, i)), i, 1.0, 1.5)
                   for i in range(1, n))
    dist = np.full((n, n), 99)
    np.fill_diagonal(dist, 0)
    for b in rbonds:
        dist[b.i, b.j] = dist[b.j, b.i] = 1
    for _ in range(n):
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    pol = build_default_exclusions(n, rbonds)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] in (1, 2):
                assert (i, j) in pol.excluded
            elif dist[i, j] == 3:
                assert (i, j) in pol.scaled14
            else:
                assert (i, j) not in pol.excluded
                assert (i, j) not in pol.scaled14


def floyd_warshall(n, edges):
    """All-pairs bond-graph distances, math.inf between components."""
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for i, j in edges:
        dist[i][j] = dist[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


@st.composite
def bond_graphs(draw):
    """(n, edges) with n <= 16: random bonds, which leave isolated atoms and
    make branches, a ring through some atoms (a triangle at length 3), and
    repeats of some bonds, reversed or not."""
    n = draw(st.integers(1, 16))
    atom_ = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(atom_, atom_).filter(lambda e: e[0] != e[1]),
                          max_size=2 * n))
    if n >= 3:
        ring = draw(st.lists(atom_, max_size=n, unique=True))
        if len(ring) >= 3:
            edges += zip(ring, ring[1:] + ring[:1])
    if edges:
        for i, j in draw(st.lists(st.sampled_from(edges), max_size=4)):
            edges.append(draw(st.sampled_from([(i, j), (j, i)])))
    return n, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(graph=bond_graphs())
def test_default_exclusions_match_a_floyd_warshall_reference(graph):
    n, edges = graph
    dist = floyd_warshall(n, edges)
    pol = build_default_exclusions(n, tuple(BondTerm(i, j, 1.0, 1.5) for i, j in edges))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert pol.excluded == {(i, j) for i, j in pairs if dist[i][j] in (1, 2)}
    assert pol.scaled14 == {(i, j) for i, j in pairs if dist[i][j] == 3}


@pytest.mark.parametrize("i,j", [(0, 3), (3, 1), (7, 9), (-1, 1), (2, -3)])
def test_default_exclusions_refuse_a_bond_out_of_range(i, j):
    bonds = (BondTerm(0, 1, 1.0, 1.5), BondTerm(i, j, 1.0, 1.5))
    with pytest.raises(ModelError, match=rf"^bond \({i},{j}\): index out of range for 3 atoms$"):
        build_default_exclusions(3, bonds)


def test_chain_needs_two_atoms():
    from ffmin.synth import make_chain_system
    with pytest.raises(ValueError, match="at least 2 atoms"):
        make_chain_system(1)


def test_system_validation():
    atoms = (atom(0), atom(1))
    coords = np.zeros((2, 3))
    coords[1, 0] = 1.5
    MolecularSystem(atoms=atoms, coords=coords)

    with pytest.raises(ModelError):
        MolecularSystem(atoms=(atom(0), atom(0)), coords=coords)
    with pytest.raises(ModelError):
        MolecularSystem(atoms=atoms, coords=np.zeros((3, 3)))
    bad = coords.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ModelError):
        MolecularSystem(atoms=atoms, coords=bad)
    with pytest.raises(ModelError):
        MolecularSystem(atoms=atoms, coords=coords,
                        bonds=(BondTerm(0, 2, 1.0, 1.5),))
    with pytest.raises(ModelError):
        MolecularSystem(atoms=atoms, coords=coords,
                        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 5)})))


def three_atoms(**terms):
    return MolecularSystem(atoms=(atom(0), atom(1), atom(2)), coords=np.arange(9.0).reshape(3, 3),
                           **terms)


@pytest.mark.parametrize("terms,msg", [
    ({"bonds": (BondTerm(0, 1, 1.0, 1.5), BondTerm(1, 3, 1.0, 1.5))},
     "bond (1,3): index out of range for 3 atoms"),
    ({"bonds": (BondTerm(-1, 2, 1.0, 1.5),)}, "bond (-1,2): index out of range for 3 atoms"),
    ({"angles": (AngleTerm(0, 1, 2, 1.0, 1.9), AngleTerm(0, 1, 3, 1.0, 1.9))},
     "angle (0,1,3): index out of range for 3 atoms"),
    ({"angles": (AngleTerm(-1, 0, 1, 1.0, 1.9),)},
     "angle (-1,0,1): index out of range for 3 atoms"),
    ({"dihedrals": (DihedralTerm(0, 1, 2, -1, 1.0, 0.0, 0.0, 0.0),)},
     "dihedral (0,1,2,-1): index out of range for 3 atoms"),
    ({"dihedrals": (DihedralTerm(3, 0, 1, 2, 1.0, 0.0, 0.0, 0.0),)},
     "dihedral (3,0,1,2): index out of range for 3 atoms"),
    ({"nonbonded": NonbondedPolicy(scaled14=frozenset({(2, 3)}))},
     "scaled14 pair (2,3): index out of range for 3 atoms"),
    # two faults at once: the system names the first in its check order
    # (atom ids, bonds, angles, dihedrals, then the policy's pairs)
    ({"bonds": (BondTerm(0, 5, 1.0, 1.5),),
      "nonbonded": NonbondedPolicy(excluded=frozenset({(0, 7)}))},
     "bond (0,5): index out of range for 3 atoms"),
    ({"dihedrals": (DihedralTerm(0, 1, 2, 4, 1.0, 0.0, 0.0, 0.0),),
      "angles": (AngleTerm(0, 1, 9, 1.0, 1.9),)},
     "angle (0,1,9): index out of range for 3 atoms"),
    ({"nonbonded": NonbondedPolicy(excluded=frozenset({(0, 7)}), scaled14=frozenset({(0, 4)}))},
     "excluded pair (0,7): index out of range for 3 atoms"),
])
def test_system_names_its_first_topology_fault(terms, msg):
    with pytest.raises(ModelError, match=f"^{re.escape(msg)}$"):
        three_atoms(**terms)


def test_a_bond_out_of_range_reads_alike_on_both_paths():
    bond = BondTerm(1, 3, 1.0, 1.5)
    with pytest.raises(ModelError) as derived:
        build_default_exclusions(3, (bond,))
    with pytest.raises(ModelError) as built:
        three_atoms(bonds=(bond,))
    assert str(derived.value) == str(built.value) == "bond (1,3): index out of range for 3 atoms"


def test_with_coords_shares_parameters():
    from ffmin.synth import make_chain_system
    sys0 = make_chain_system(6, seed=1)
    p0 = sys0.arrays()
    moved = sys0.with_coords(sys0.coords + 1.0)
    assert moved.arrays() is p0  # parameter cache carried over
    assert not np.array_equal(moved.coords, sys0.coords)
    # accepts flattened coordinate vectors too
    flat = sys0.with_coords(sys0.coords.ravel())
    assert np.array_equal(flat.coords, sys0.coords)
    # the cache is shared both ways: a plan built first on a derived system
    # is its parent's plan, and on every other system derived from either
    parent = make_chain_system(6, seed=1)
    child = parent.with_coords(parent.coords + 1.0)
    grandchild = child.with_coords(child.coords + 1.0)
    assert child.arrays() is parent.arrays() is grandchild.arrays()
    assert child.atom_terms(2)[0] is parent.atom_terms(2)[0]
    # a dataclasses.replace copy starts from an empty cache
    from dataclasses import replace
    copied = replace(parent)
    assert copied._cache == {}
    assert copied.arrays() is not parent.arrays()


def test_with_coords_checks_only_coordinates(monkeypatch):
    from ffmin.synth import make_chain_system
    sys0 = make_chain_system(6, seed=1)

    def fail():
        raise AssertionError("topology re-checked")

    monkeypatch.setattr(MolecularSystem, "_check_topology", lambda self: fail())
    moved = sys0.with_coords(sys0.coords + 1.0)
    assert np.array_equal(moved.coords, sys0.coords + 1.0)
    with pytest.raises(ModelError):
        sys0.with_coords(np.zeros(3 * sys0.natoms + 3))
    bad = sys0.coords.copy()
    bad[2, 1] = np.inf
    with pytest.raises(ModelError):
        sys0.with_coords(bad)


def test_replace_does_not_share_the_plan():
    from dataclasses import replace

    from ffmin.energy import energy_total
    from ffmin.synth import make_chain_system
    sys0 = make_chain_system(30, seed=0, strain=0.3)
    assert energy_total(sys0).coulomb != 0.0  # builds and caches the plan
    nb = sys0.nonbonded
    policy = NonbondedPolicy(nb.excluded, nb.scaled14, nb.s14, cutoff=3.0)
    cut = replace(sys0, nonbonded=policy)
    fresh = MolecularSystem(atoms=sys0.atoms, coords=sys0.coords, bonds=sys0.bonds,
                            angles=sys0.angles, dihedrals=sys0.dihedrals, nonbonded=policy)
    assert cut.arrays() is not sys0.arrays()
    assert energy_total(cut) == energy_total(fresh)


def pair_atoms(p):
    """The plan's pair edges as atom pairs (2, k), read off its flat edge index."""
    return p["edge_flat"][:, 3 * p["terms"]["pairs"][2].start::3] // 3


def test_plan_pair_tables_follow_the_policy():
    # pairs listed as (j, i) count like (i, j)
    pol = NonbondedPolicy(excluded=frozenset({(0, 1), (3, 1)}),
                          scaled14=frozenset({(2, 0), (3, 4)}), s14=0.25)
    scale = {(0, 1): 0.0, (1, 3): 0.0, (0, 2): 0.25, (3, 4): 0.25}
    atoms = tuple(atom(i, q=0.1 * (i + 1), sigma=2.0 + i, epsilon=0.05 * i) for i in range(5))
    sys0 = MolecularSystem(atoms=atoms, coords=np.arange(15.0).reshape(5, 3), nonbonded=pol)
    p = sys0.arrays()
    # the interacting pairs, in np.triu_indices order, are the plan's pair edges
    interacting = [(i, j) for i, j in zip(*np.triu_indices(5, 1)) if scale.get((i, j), 1.0)]
    assert pair_atoms(p).T.tolist() == [list(ij) for ij in interacting]
    qq, sig, seps, _ = p["terms"]["pairs"][3]
    for k, (i, j) in enumerate(interacting):
        s = scale.get((i, j), 1.0)
        assert qq[k] == s * atoms[i].q * atoms[j].q
        assert sig[k] == np.sqrt(atoms[i].sigma * atoms[j].sigma)
        assert seps[k] == s * np.sqrt(atoms[i].epsilon * atoms[j].epsilon)
    for a in range(5):
        want = [0.0 if b == a else scale.get((min(a, b), max(a, b)), 1.0) for b in range(5)]
        assert sys0.scale_row(a).tolist() == want


def test_coords_are_immutable():
    sys0 = MolecularSystem(atoms=(atom(0),), coords=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        sys0.coords[0, 0] = 1.0


def test_atom_terms_rows():
    from ffmin.synth import make_chain_system
    sys0 = make_chain_system(8, seed=2)
    for a in range(sys0.natoms):
        brows, arows, drows = sys0.atom_terms(a)
        for t, b in enumerate(sys0.bonds):
            assert (t in brows) == (a in (b.i, b.j))
        for t, ang in enumerate(sys0.angles):
            assert (t in arows) == (a in (ang.i, ang.j, ang.k))
        for t, d in enumerate(sys0.dihedrals):
            assert (t in drows) == (a in (d.i, d.j, d.k, d.l))


def test_policy_stores_reversed_pairs_canonically():
    pol = NonbondedPolicy(excluded=frozenset({(3, 1)}), scaled14=frozenset({(4, 0)}))
    assert pol.excluded == frozenset({(1, 3)})
    assert pol.scaled14 == frozenset({(0, 4)})
    sys0 = MolecularSystem(atoms=tuple(atom(i, q=0.1) for i in range(5)),
                           coords=np.arange(15.0).reshape(5, 3), nonbonded=pol)
    assert sys0.scale_row(1)[3] == sys0.scale_row(3)[1] == 0.0
    assert sys0.scale_row(0)[4] == sys0.scale_row(4)[0] == 0.5
    p = sys0.arrays()
    pairs = pair_atoms(p).T.tolist()
    assert [1, 3] not in pairs and [0, 4] in pairs
    for k, (i, j) in enumerate(pairs):
        assert p["terms"]["pairs"][3][0][k] == naive.pair_scale(pol, i, j) * 0.1 * 0.1
    with pytest.raises(ModelError, match="must differ"):
        NonbondedPolicy(excluded=frozenset({(2, 2)}))


def test_policy_overlap_check_sees_reversed_pairs():
    with pytest.raises(ModelError, match="overlap"):
        NonbondedPolicy(excluded=frozenset({(1, 3)}), scaled14=frozenset({(3, 1)}))


def hand_built_system():
    """Six atoms in a bent chain, with an explicit policy that lists pairs
    reversed and a cutoff; its terms do not follow the atom order."""
    atoms = tuple(atom(i, q=0.1 * (i - 2.5), sigma=2.5 + 0.1 * i, epsilon=0.05 * (i + 1))
                  for i in range(6))
    coords = np.array([[0.0, 0.0, 0.0], [1.5, 0.2, 0.0], [2.4, 1.4, 0.1],
                       [3.9, 1.5, 0.3], [4.8, 2.7, 0.2], [6.3, 2.6, 0.5]])
    bonds = tuple(BondTerm(i + 1, i, 300.0 + i, 1.5) for i in range(5))
    angles = (AngleTerm(2, 1, 0, 40.0, 1.9), AngleTerm(1, 2, 3, 45.0, 2.0),
              AngleTerm(5, 4, 3, 50.0, 1.8))
    dihedrals = (DihedralTerm(3, 2, 1, 0, 1.0, 0.5, 0.25, 0.1),
                 DihedralTerm(2, 3, 4, 5, 2.0, 0.0, 0.75, 0.0))
    policy = NonbondedPolicy(
        excluded=frozenset({(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (2, 0), (3, 1), (5, 3)}),
        scaled14=frozenset({(3, 0), (5, 2)}), s14=0.25, cutoff=4.5)
    return MolecularSystem(atoms=atoms, coords=coords, bonds=bonds, angles=angles,
                           dihedrals=dihedrals, nonbonded=policy)


@pytest.mark.parametrize("make", [
    partial(make_chain_system, 8, seed=2), partial(make_chain_system, 12, seed=4, cutoff=7.0),
    # no angles or dihedrals, then no dihedrals
    partial(make_chain_system, 2), partial(make_chain_system, 3, seed=1),
    hand_built_system,
], ids=["8-2-None", "12-4-7.0", "2-0-None", "3-1-None", "hand-built"])
def test_plan_edge_table_layout(make):
    s = make()
    n, cutoff = s.natoms, s.nonbonded.cutoff
    p = s.arrays()
    # the flat edge index: entries 3*atom + axis, ea's in row 0, eb's in row 1
    flat = p["edge_flat"]
    ea, eb = flat[:, ::3] // 3
    assert flat.shape == (2, 3 * ea.size) and flat.dtype == np.intp
    assert np.array_equal(flat.reshape(2, -1, 3), 3 * np.stack((ea, eb))[..., None] + np.arange(3))

    def section(term):
        sec = p["terms"][term][2]
        return list(zip(ea[sec].tolist(), eb[sec].tolist()))

    # the plan holds these five entries and nothing else
    assert list(p) == ["q", "sigma", "epsilon", "edge_flat", "terms"]
    # the sections tile the edges: bonds, angles, dihedrals, then pairs
    secs = [p["terms"][term][2] for term in ("stretch", "bend", "torsion", "pairs")]
    assert [sec.start for sec in secs] == [0] + [sec.stop for sec in secs[:-1]]
    assert secs[-1].stop == ea.size
    assert section("stretch") == [(b.i, b.j) for b in s.bonds]
    assert section("bend") == [(a.i, a.j) for a in s.angles] + [(a.k, a.j) for a in s.angles]
    d = s.dihedrals
    assert section("torsion") == ([(t.j, t.i) for t in d] + [(t.k, t.j) for t in d]
                                  + [(t.l, t.k) for t in d])
    # each nonzero-scale i<j pair exactly once, in np.triu_indices order, and no other
    pairs = section("pairs")
    assert pairs == [(i, j) for i, j in zip(*np.triu_indices(n, 1))
                     if naive.pair_scale(s.nonbonded, i, j) != 0.0]
    assert len(pairs) < n * (n - 1) // 2
    # qq and seps carry the scale: s14 for the 1-4 pairs, 1 for the rest
    scale, at = [naive.pair_scale(s.nonbonded, i, j) for i, j in pairs], s.atoms
    qq = [c * at[i].q * at[j].q for c, (i, j) in zip(scale, pairs)]
    sig = [np.sqrt(at[i].sigma * at[j].sigma) for i, j in pairs]
    seps = [c * np.sqrt(at[i].epsilon * at[j].epsilon) for c, (i, j) in zip(scale, pairs)]
    assert any(c != 1.0 for c in scale) == bool(s.nonbonded.scaled14)
    # every plan array is read-only but the flat index, which np.take and
    # np.bincount would copy on each call if it were
    assert [k for k, v in p.items() if isinstance(v, np.ndarray) and v.flags.writeable] == [
        "edge_flat"]

    # the term table: check order, each term's kernels, and the
    # parameters its kernels take, read-only like every plan array but edge_flat
    from ffmin import kernels
    from ffmin.kernels import TORSION_DPHI, TORSION_SIGN
    V = np.array([[t.V1, t.V2, t.V3, t.V4] for t in d]).reshape(-1, 4)
    want = {
        "pairs": (kernels.nonbonded, kernels.nonbonded_grad,
                  (qq, sig, seps, -1.0 if cutoff is None else cutoff)),
        "stretch": (kernels.stretch, kernels.stretch_grad,
                    ([b.K for b in s.bonds], [b.r0 for b in s.bonds])),
        "bend": (kernels.bend, kernels.bend_grad,
                 ([a.K for a in s.angles], [a.theta0 for a in s.angles])),
        "torsion": (kernels.torsion, kernels.torsion_grad,
                    (V, V * TORSION_SIGN, V * TORSION_DPHI)),
    }
    assert list(p["terms"]) == list(want)
    for term, (energy, grad, args) in want.items():
        assert p["terms"][term][:2] == (energy, grad)
        got = p["terms"][term][3]
        assert len(got) == len(args)
        for a, b in zip(got, args):
            assert np.asarray(a).tobytes() == np.asarray(b, dtype=np.float64).tobytes()
            assert not np.ndim(a) or (a.dtype == np.float64 and not a.flags.writeable)
