import numpy as np
import pytest

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
    assert pol.pair_scale(0, 1) == 0.0
    assert pol.pair_scale(1, 0) == 0.0
    assert pol.pair_scale(1, 2) == 0.5
    assert pol.pair_scale(2, 1) == 0.5
    assert pol.pair_scale(0, 2) == 1.0


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
    assert pol.pair_scale(1, 3) == pol.pair_scale(3, 1) == 0.0
    assert pol.pair_scale(0, 4) == pol.pair_scale(4, 0) == 0.5
    sys0 = MolecularSystem(atoms=tuple(atom(i, q=0.1) for i in range(5)),
                           coords=np.arange(15.0).reshape(5, 3), nonbonded=pol)
    p = sys0.arrays()
    pairs = pair_atoms(p).T.tolist()
    assert [1, 3] not in pairs and [0, 4] in pairs
    for k, (i, j) in enumerate(pairs):
        assert p["terms"]["pairs"][3][0][k] == pol.pair_scale(i, j) * 0.1 * 0.1
    with pytest.raises(ModelError, match="must differ"):
        NonbondedPolicy(excluded=frozenset({(2, 2)}))


def test_policy_overlap_check_sees_reversed_pairs():
    with pytest.raises(ModelError, match="overlap"):
        NonbondedPolicy(excluded=frozenset({(1, 3)}), scaled14=frozenset({(3, 1)}))


@pytest.mark.parametrize("n,seed,cutoff", [(8, 2, None), (12, 4, 7.0)])
def test_plan_edge_table_layout(n, seed, cutoff):
    from ffmin.synth import make_chain_system
    s = make_chain_system(n, seed=seed, cutoff=cutoff)
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
                     if s.nonbonded.pair_scale(i, j) != 0.0]
    assert len(pairs) < n * (n - 1) // 2
    # qq and seps carry the scale: s14 for the 1-4 pairs, 1 for the rest
    scale, at = [s.nonbonded.pair_scale(i, j) for i, j in pairs], s.atoms
    qq = [c * at[i].q * at[j].q for c, (i, j) in zip(scale, pairs)]
    sig = [np.sqrt(at[i].sigma * at[j].sigma) for i, j in pairs]
    seps = [c * np.sqrt(at[i].epsilon * at[j].epsilon) for c, (i, j) in zip(scale, pairs)]
    assert any(c != 1.0 for c in scale)
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
