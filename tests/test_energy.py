import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naive_oracles as naive
from conftest import two_cluster_system
from ffmin.constants import COULOMB_KJ_ANGSTROM
from ffmin.energy import (
    EnergyEvaluationError,
    delta_energy_atom_move,
    energy_and_gradient,
    energy_bend,
    energy_coulomb,
    energy_stretch,
    energy_torsion,
    energy_total,
    energy_vdw,
    exact_delta_atom_move,
    finite_difference_gradient,
    gradient_total,
    linearize_farfield_coulomb,
)
from ffmin.model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    ModelError,
    MolecularSystem,
    NonbondedPolicy,
)
from ffmin.oracle import MolecularOracle
from ffmin.synth import make_chain_system


def atom(i, q=0.0, sigma=3.0, epsilon=0.1):
    return AtomSpec(id=i, label=f"A{i}", q=q, sigma=sigma, epsilon=epsilon)


def pair_system(r, q=0.0, sigma=3.0, epsilon=0.1, excluded=False, **kw):
    pol = (NonbondedPolicy(excluded=frozenset({(0, 1)}))
           if excluded else NonbondedPolicy(cutoff=kw.get("cutoff")))
    return MolecularSystem(
        atoms=(atom(0, q, sigma, epsilon), atom(1, q, sigma, epsilon)),
        coords=np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]]),
        bonds=kw.get("bonds", ()),
        nonbonded=pol,
    )


# ---------------------------------------------------------------- stretch

def test_stretch_zero_at_equilibrium():
    s = pair_system(1.09, excluded=True, bonds=(BondTerm(0, 1, 1422.56, 1.09),))
    assert energy_stretch(s) == 0.0


def test_stretch_hand_value():
    s = pair_system(2.0, excluded=True, bonds=(BondTerm(0, 1, 100.0, 1.5),))
    assert energy_stretch(s) == pytest.approx(25.0, rel=1e-14)


def test_stretch_matches_naive_oracle():
    s = make_chain_system(10, seed=5)
    assert energy_stretch(s) == pytest.approx(naive.stretch_energy(s), rel=1e-12)


# ------------------------------------------------------------------- bend

def right_angle_system(theta0=math.pi / 2, K=50.0):
    return MolecularSystem(
        atoms=(atom(0), atom(1), atom(2)),
        coords=np.array([[1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.5, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=K, theta0=theta0),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})),
    )


def test_bend_zero_at_rest_angle():
    assert energy_bend(right_angle_system()) == pytest.approx(0.0, abs=1e-24)


def test_bend_collinear_energy():
    # theta = pi is fine for the energy; K (pi - pi/2)^2 = (pi/2)^2 for K = 1
    s = MolecularSystem(
        atoms=(atom(0), atom(1), atom(2)),
        coords=np.array([[-1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=math.pi / 2),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})),
    )
    assert energy_bend(s) == pytest.approx((math.pi / 2) ** 2, rel=1e-12)


def test_bend_zero_arm_is_error():
    s = MolecularSystem(
        atoms=(atom(0), atom(1), atom(2)),
        coords=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.5, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=1.9),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})),
    )
    with pytest.raises(EnergyEvaluationError, match="bend term 0"):
        energy_bend(s)


def test_bend_matches_naive_oracle():
    s = make_chain_system(12, seed=6)
    assert energy_bend(s) == pytest.approx(naive.bend_energy(s), rel=1e-12)


# ---------------------------------------------------------------- torsion

def planar_dihedral_system(cis, V):
    # j-k along x; i and l both at +y for cis (phi = 0), l at -y for trans
    ly = 1.0 if cis else -1.0
    return MolecularSystem(
        atoms=tuple(atom(i) for i in range(4)),
        coords=np.array([
            [-0.5, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.5, 0.0, 0.0],
            [2.0, ly, 0.0],
        ]),
        dihedrals=(DihedralTerm(0, 1, 2, 3, *V),),
        nonbonded=NonbondedPolicy(excluded=frozenset(
            {(i, j) for i in range(4) for j in range(i + 1, 4)})),
    )


def test_torsion_cis_hand_value():
    s = planar_dihedral_system(cis=True, V=(1.0, 1.0, 1.0, 1.0))
    assert energy_torsion(s) == pytest.approx(2.0, rel=1e-12)


def test_torsion_trans_zero():
    s = planar_dihedral_system(cis=False, V=(1.0, 0.0, 0.0, 0.0))
    assert energy_torsion(s) == pytest.approx(0.0, abs=1e-12)


def test_torsion_sixty_degrees_matches_independent_construction():
    phi = math.pi / 3
    coords = np.array([
        [1.0, 0.0, 1.2],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -1.5],
        [math.cos(phi), math.sin(phi), -2.7],
    ])
    s = MolecularSystem(
        atoms=tuple(atom(i) for i in range(4)),
        coords=coords,
        dihedrals=(DihedralTerm(0, 1, 2, 3, 1.3, 0.7, 0.4, 0.2),),
        nonbonded=NonbondedPolicy(excluded=frozenset(
            {(i, j) for i in range(4) for j in range(i + 1, 4)})),
    )
    measured = naive.dihedral_angle(*coords)
    assert abs(abs(measured) - phi) < 1e-12  # geometry built to sit at 60 deg
    assert energy_torsion(s) == pytest.approx(naive.torsion_energy(s), rel=1e-12)


def test_torsion_degenerate_plane_is_error():
    s = MolecularSystem(
        atoms=tuple(atom(i) for i in range(4)),
        coords=np.array([
            [-1.0, 0.0, 0.0],  # i collinear with j-k
            [0.0, 0.0, 0.0],
            [1.5, 0.0, 0.0],
            [2.0, 1.0, 0.0],
        ]),
        dihedrals=(DihedralTerm(0, 1, 2, 3, 1.0, 0.0, 0.0, 0.0),),
        nonbonded=NonbondedPolicy(excluded=frozenset(
            {(i, j) for i in range(4) for j in range(i + 1, 4)})),
    )
    with pytest.raises(EnergyEvaluationError, match="torsion term 0"):
        energy_torsion(s)


def test_torsion_matches_naive_oracle():
    s = make_chain_system(12, seed=7)
    assert energy_torsion(s) == pytest.approx(naive.torsion_energy(s), rel=1e-12)


# -------------------------------------------------------------- nonbonded

def test_coulomb_unit_charges_at_one_angstrom():
    s = pair_system(1.0, q=1.0, epsilon=0.0)
    assert energy_coulomb(s) == pytest.approx(1389.38757, abs=1e-5)
    assert COULOMB_KJ_ANGSTROM == 1389.38757


def test_excluded_pair_contributes_nothing():
    s = pair_system(1.0, q=1.0, excluded=True)
    assert energy_coulomb(s) == 0.0
    assert energy_vdw(s) == 0.0


def test_vdw_landmarks():
    sigma, eps = 3.4, 0.9
    at_sigma = pair_system(sigma, sigma=sigma, epsilon=eps)
    assert abs(energy_vdw(at_sigma)) <= 1e-10 * eps
    at_min = pair_system(2.0 ** (1.0 / 6.0) * sigma, sigma=sigma, epsilon=eps)
    assert energy_vdw(at_min) == pytest.approx(-eps, rel=1e-10)


def test_clashed_pair_blows_up():
    sigma = 3.5
    s = pair_system(0.3 * sigma, sigma=sigma, epsilon=0.276)
    assert energy_vdw(s) > 1e6


def test_nonbonded_matches_naive_oracle():
    rng = np.random.default_rng(11)
    n = 8
    atoms = tuple(
        AtomSpec(i, f"A{i}", q=float(rng.uniform(-0.5, 0.5)),
                 sigma=float(rng.uniform(2.8, 3.6)),
                 epsilon=float(rng.uniform(0.1, 0.9)))
        for i in range(n)
    )
    coords = rng.uniform(0.0, 6.0, (n, 3))
    pol = NonbondedPolicy(
        excluded=frozenset({(0, 1), (2, 3)}),
        scaled14=frozenset({(0, 3)}), s14=0.5)
    s = MolecularSystem(atoms=atoms, coords=coords, nonbonded=pol)
    ec, ev = naive.nonbonded_energies(s)
    assert energy_coulomb(s) == pytest.approx(ec, rel=1e-12)
    assert energy_vdw(s) == pytest.approx(ev, rel=1e-12)


def test_cutoff_omits_far_pairs():
    s = pair_system(8.0, q=1.0, cutoff=7.0)
    assert energy_coulomb(s) == 0.0
    s = pair_system(5.0, q=1.0, cutoff=7.0)
    assert energy_coulomb(s) == pytest.approx(COULOMB_KJ_ANGSTROM / 5.0, rel=1e-12)


def test_coincident_included_pair_is_error():
    s = pair_system(0.0, q=1.0)
    with pytest.raises(EnergyEvaluationError, match=r"nonbonded pair \(0,1\)"):
        energy_coulomb(s)


# ------------------------------------------------------------------ total

def test_total_all_zero_for_inert_pair():
    bd = energy_total(pair_system(5.0, excluded=True))
    assert (bd.stretch, bd.bend, bd.torsion, bd.coulomb, bd.vdw) == (0,) * 5
    assert bd.total == 0.0


def test_total_is_sum_of_terms():
    s = make_chain_system(14, seed=8)
    bd = energy_total(s)
    assert bd.total == bd.stretch + bd.bend + bd.torsion + bd.coulomb + bd.vdw
    assert bd.stretch == pytest.approx(energy_stretch(s), rel=1e-15)
    assert bd.coulomb == pytest.approx(energy_coulomb(s), rel=1e-15)


def test_total_matches_naive_oracle_20_atoms():
    s = make_chain_system(20, seed=9)
    assert energy_total(s).total == pytest.approx(naive.total_energy(s), rel=1e-11)


def test_total_bit_identical_across_calls():
    s = make_chain_system(15, seed=10)
    assert energy_total(s).total == energy_total(s).total
    assert np.array_equal(gradient_total(s), gradient_total(s))


# ------------------------------------------------- differential vs naive

TERMS = ("stretch", "bend", "torsion", "coulomb", "vdw")


def with_cutoff(system, cutoff):
    nb = system.nonbonded
    return MolecularSystem(
        atoms=system.atoms, coords=system.coords, bonds=system.bonds,
        angles=system.angles, dihedrals=system.dihedrals,
        nonbonded=NonbondedPolicy(nb.excluded, nb.scaled14, nb.s14, cutoff),
    )


DIFFERENTIAL_SYSTEMS = {
    "chain": lambda: make_chain_system(14, seed=3, strain=0.3),
    "cloud": lambda: two_cluster_system(seed=5, n=24, gap=12.0),
    "cloud-cutoff7": lambda: with_cutoff(two_cluster_system(seed=5, n=24, gap=12.0), 7.0),
}


def naive_breakdown(system):
    ec, ev = naive.nonbonded_energies(system)
    return {
        "stretch": naive.stretch_energy(system),
        "bend": naive.bend_energy(system),
        "torsion": naive.torsion_energy(system),
        "coulomb": ec,
        "vdw": ev,
    }


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SYSTEMS))
def test_breakdown_matches_naive_oracle(name):
    s = DIFFERENTIAL_SYSTEMS[name]()
    want = naive_breakdown(s)
    for bd in (energy_total(s), energy_and_gradient(s)[0]):
        for term in TERMS:
            assert getattr(bd, term) == pytest.approx(want[term], rel=1e-11), term


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SYSTEMS))
def test_gradient_matches_fd_of_naive_energy_on_fixtures(name):
    s = DIFFERENTIAL_SYSTEMS[name]()

    def f(flat):
        return naive.total_energy(s.with_coords(flat))

    fd = naive.fd_gradient(f, s.coords.ravel(), step=1e-5)
    g = gradient_total(s)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("r,counted", [
    (7.0, True),
    (np.nextafter(7.0, np.inf), False),
], ids=["at-cutoff", "one-ulp-beyond"])
def test_pair_on_cutoff_boundary_matches_naive_oracle(r, counted):
    s = pair_system(r, q=1.0, sigma=3.0, epsilon=0.4, cutoff=7.0)
    ec, ev = naive.nonbonded_energies(s)
    assert (ec != 0.0, ev != 0.0) == (counted, counted)
    assert energy_coulomb(s) == pytest.approx(ec, rel=1e-12)
    assert energy_vdw(s) == pytest.approx(ev, rel=1e-12)
    bd, g = energy_and_gradient(s)
    assert (bd.coulomb, bd.vdw) == (energy_coulomb(s), energy_vdw(s))
    assert np.any(g != 0.0) == counted


# ------------------------------------------- flat-coordinate evaluation

PLAN_SYSTEMS = {
    **DIFFERENTIAL_SYSTEMS,
    "chain-cutoff7": lambda: with_cutoff(make_chain_system(14, seed=3, strain=0.3), 7.0),
}
_plan_systems = {name: make() for name, make in PLAN_SYSTEMS.items()}


def perturbed(system, seed, scale):
    rng = np.random.default_rng(seed)
    return system.coords.ravel() + scale * rng.standard_normal(3 * system.natoms)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PLAN_SYSTEMS)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.05, 0.3]))
def test_flat_x_is_bit_identical_to_with_coords(name, seed, scale):
    s = _plan_systems[name]
    x = perturbed(s, seed, scale)
    moved = s.with_coords(x)
    assert energy_total(s, x) == energy_total(moved)
    bd, g = energy_and_gradient(s, x)
    bd_ref, g_ref = energy_and_gradient(moved)
    assert bd == bd_ref
    assert g.tobytes() == g_ref.tobytes()


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(PLAN_SYSTEMS)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.05, 0.3]))
def test_flat_x_matches_naive_oracle(name, seed, scale):
    s = _plan_systems[name]
    x = perturbed(s, seed, scale)
    want = naive_breakdown(s.with_coords(x))
    for bd in (energy_total(s, x), energy_and_gradient(s, x)[0]):
        for term in TERMS:
            assert getattr(bd, term) == pytest.approx(want[term], rel=1e-11, abs=1e-11), term


@pytest.mark.parametrize("r,counted", [
    (7.0, True),
    (np.nextafter(7.0, np.inf), False),
], ids=["at-cutoff", "one-ulp-beyond"])
def test_flat_x_pair_on_cutoff_boundary(r, counted):
    s = pair_system(3.0, q=1.0, sigma=3.0, epsilon=0.4, cutoff=7.0)
    x = np.array([0.0, 0.0, 0.0, r, 0.0, 0.0])
    ec, ev = naive.nonbonded_energies(s.with_coords(x))
    assert (ec != 0.0, ev != 0.0) == (counted, counted)
    for bd in (energy_total(s, x), energy_and_gradient(s, x)[0]):
        assert bd.coulomb == pytest.approx(ec, rel=1e-12)
        assert bd.vdw == pytest.approx(ev, rel=1e-12)


def test_flat_x_degenerate_geometry_raises_named_error():
    s = make_chain_system(6, seed=1)
    for a, b in ((0, 1), (0, 4)):  # a bonded pair, then a full-scale pair
        x = s.coords.copy()
        x[b] = x[a]
        for fn in (energy_total, energy_and_gradient):
            with pytest.raises(EnergyEvaluationError) as flat:
                fn(s, x.ravel())
            with pytest.raises(EnergyEvaluationError) as moved:
                fn(s.with_coords(x))
            assert str(flat.value) == str(moved.value)


def test_oracle_rejects_bad_x():
    s = make_chain_system(6, seed=1)
    oracle = MolecularOracle(s)
    x = s.coords.ravel().copy()
    x[4] = np.nan
    for call in (oracle.value, oracle.gradient, oracle.value_and_gradient):
        with pytest.raises(ModelError):
            call(x)
        with pytest.raises(ModelError):
            call(s.coords.ravel()[:-1])


def test_atom_deltas_with_scaled_and_excluded_partners_match_naive():
    # a charged chain: every atom has excluded (1-2, 1-3) and scaled (1-4)
    # partners, and the end atoms exercise both edges of the pair-row gather
    s = make_chain_system(12, seed=4, strain=0.2)
    pol = s.nonbonded
    e0 = naive.total_energy(s)
    step = np.array([0.04, -0.03, 0.05])
    for atom in (0, 1, 6, 11):
        moved = s.coords.copy()
        moved[atom] += step
        want = naive.total_energy(s.with_coords(moved)) - e0
        assert exact_delta_atom_move(s, atom, step) == pytest.approx(want, rel=1e-9, abs=1e-9)

        lin = linearize_farfield_coulomb(s, atom, 3.0)
        r = np.linalg.norm(s.coords - s.coords[atom], axis=1)
        near = [j for j in range(s.natoms)
                if j != atom and (r[j] <= 3.0 or naive.pair_scale(pol, atom, j) != 1.0)]
        assert lin.near_idx.tolist() == near
        # some partners are near only through their scale
        assert any(naive.pair_scale(pol, atom, j) != 1.0 and r[j] > 3.0 for j in near)
        far = [j for j in range(s.natoms) if j != atom and j not in near]
        e_far = sum(COULOMB_KJ_ANGSTROM * s.atoms[atom].q * s.atoms[j].q / r[j] for j in far)
        assert lin.e_far0 == pytest.approx(e_far, rel=1e-12)


# --------------------------------------------------------------- gradient

def test_gradient_zero_at_diatomic_equilibrium():
    s = pair_system(1.09, excluded=True, bonds=(BondTerm(0, 1, 1422.56, 1.09),))
    assert np.allclose(gradient_total(s), 0.0, atol=1e-12)


def test_gradient_sums_to_zero():
    for seed in range(5):
        s = make_chain_system(12, seed=seed)
        g = gradient_total(s).reshape(-1, 3)
        net = np.linalg.norm(g.sum(axis=0))
        assert net <= 1e-9 * max(1.0, np.linalg.norm(g))


def test_gradient_matches_package_fd():
    s = make_chain_system(15, seed=12)
    g = gradient_total(s)
    fd = finite_difference_gradient(s, step=1e-5)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_gradient_matches_fd_of_naive_energy():
    # independent energy implementation differentiated independently
    s = make_chain_system(8, seed=13)

    def f(flat):
        return naive.total_energy(s.with_coords(flat))

    fd = naive.fd_gradient(f, s.coords.ravel(), step=1e-5)
    g = gradient_total(s)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_fd_discrepancy_shrinks_with_step():
    s = make_chain_system(9, seed=14)
    g = gradient_total(s)
    e1 = np.linalg.norm(finite_difference_gradient(s, step=2e-4) - g)
    e2 = np.linalg.norm(finite_difference_gradient(s, step=1e-4) - g)
    # central differences: error O(step^2), allow slack for roundoff
    assert e2 <= e1 / 3.0


def test_fd_zero_interaction_system():
    s = pair_system(5.0, excluded=True)
    assert np.all(finite_difference_gradient(s) == 0.0)
    with pytest.raises(ValueError):
        finite_difference_gradient(s, step=0.0)


def test_gradient_collinear_angle_is_error():
    s = MolecularSystem(
        atoms=(atom(0), atom(1), atom(2)),
        coords=np.array([[-1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=1.9),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})),
    )
    with pytest.raises(EnergyEvaluationError, match="bend term 0"):
        energy_and_gradient(s)


def test_fused_call_matches_separate_calls():
    s = make_chain_system(13, seed=15)
    bd, g = energy_and_gradient(s)
    assert bd.total == energy_total(s).total
    assert np.array_equal(g, gradient_total(s))


# -------------------------------------------------------------- invariance

def test_translation_invariance():
    s = make_chain_system(11, seed=16)
    e0 = energy_total(s).total
    shifted = s.with_coords(s.coords + np.array([12.3, -4.5, 6.7]))
    assert energy_total(shifted).total == pytest.approx(e0, rel=1e-9)


def test_rotation_invariance():
    s = make_chain_system(11, seed=17)
    e0 = energy_total(s).total
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]  # keep it proper
    assert energy_total(s.with_coords(s.coords @ q.T)).total == pytest.approx(
        e0, rel=1e-9)


TERM_FUNCTIONS = {"stretch": energy_stretch, "bend": energy_bend, "torsion": energy_torsion,
                  "coulomb": energy_coulomb, "vdw": energy_vdw}


@pytest.mark.parametrize("scale,term", [(1e100, "torsion"), (1e160, "stretch")])
def test_huge_finite_coordinates_raise_named_error(scale, term):
    # finite x whose cross products or squares overflow: NaN/inf terms
    system = make_chain_system(6, seed=1)
    x = system.coords.ravel() * scale
    oracle = MolecularOracle(system)
    calls = (lambda: energy_total(system, x), lambda: energy_and_gradient(system, x),
             lambda: oracle.value(x), lambda: oracle.gradient(x),
             lambda: oracle.value_and_gradient(x),
             lambda: TERM_FUNCTIONS[term](system.with_coords(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(EnergyEvaluationError, match=f"{term} energy is not finite"):
                call()


@pytest.mark.parametrize("scale,term", [(1e100, "torsion"), (1e160, "stretch")])
def test_huge_finite_coordinates_warn_nothing(scale, term):
    # the named error is the only signal: no NumPy RuntimeWarning escapes
    system = make_chain_system(6, seed=1)
    x = system.coords.ravel() * scale
    huge = system.with_coords(x)
    oracle = MolecularOracle(system)
    named = (lambda: energy_total(system, x), lambda: energy_and_gradient(system, x),
             lambda: oracle.value(x), lambda: oracle.gradient(x),
             lambda: oracle.value_and_gradient(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the far field vanishes at these scales (r overflows, 1/r = 0)
        lin = linearize_farfield_coulomb(huge, 2, 7.0)
        assert math.isfinite(lin.e_far0) and np.isfinite(lin.coef).all()
        deltas = (lambda: exact_delta_atom_move(huge, 2, [1.0, 0, 0]),
                  lambda: delta_energy_atom_move(huge, lin, [1.0, 0, 0]))
        for call in named:
            with pytest.raises(EnergyEvaluationError, match=f"{term} energy is not finite"):
                call()
        for call in deltas:
            with pytest.raises(EnergyEvaluationError, match="energy delta is not finite"):
                call()
        # each per-term value is finite or raises its named error
        for name, fn in TERM_FUNCTIONS.items():
            try:
                assert math.isfinite(fn(huge)), name
            except EnergyEvaluationError as exc:
                assert str(exc).startswith(f"{name} energy is not finite"), name


def test_far_field_overflow_raises_named_error():
    # a far partner across the whole float range: the difference vector
    # overflows to inf while 1/r is 0, so the edge gradient is 0 * inf
    pair = MolecularSystem(atoms=(atom(0, q=0.5), atom(1, q=-0.5)),
                           coords=np.array([[-1.5e308, 0.0, 0.0], [1.5e308, 0.0, 0.0]]),
                           nonbonded=NonbondedPolicy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyEvaluationError, match="far-field coefficient is not finite"):
            linearize_farfield_coulomb(pair, 0, 7.0)


def test_exit_sets_the_error_state_errstate_would():
    # the exit sets NumPy's error-state variable itself; inside it NumPy must
    # see what np.errstate(all="ignore") gives, and after it the caller's state
    from ffmin.energy import _checked

    seen = []

    @_checked("probe")
    def probe():
        seen.append((np.geterr(), np.geterrcall()))
        return float(np.float64(1.0) / np.float64(0.0))

    def call(err, flag):
        pass

    system = make_chain_system(6, seed=1)
    x = system.coords.ravel() * 1e100
    with np.errstate(all="raise", call=call):
        outer = np.geterr()
        with np.errstate(all="ignore"):
            expected = (np.geterr(), np.geterrcall())
        with pytest.raises(EnergyEvaluationError, match="probe is not finite: inf"):
            probe()
        assert seen == [expected]
        assert (np.geterr(), np.geterrcall()) == (outer, call)
        # the kernels' overflow is silenced even where the caller raises
        with pytest.raises(EnergyEvaluationError, match="torsion energy is not finite"):
            energy_total(system, x)
        assert np.geterr() == outer



def test_breakdown_is_frozen_and_its_total_follows_its_fields():
    import dataclasses

    bd = energy_total(make_chain_system(6, seed=1))
    assert [f.name for f in dataclasses.fields(bd)] == [
        "stretch", "bend", "torsion", "coulomb", "vdw"]
    assert bd.total == bd.stretch + bd.bend + bd.torsion + bd.coulomb + bd.vdw
    assert "total" not in repr(bd)
    for name in ("stretch", "total"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bd, name, 0.0)
    moved = dataclasses.replace(bd, vdw=bd.vdw + 1.0)
    assert moved.total == bd.stretch + bd.bend + bd.torsion + bd.coulomb + (bd.vdw + 1.0)
    assert moved != bd and dataclasses.replace(moved, vdw=bd.vdw) == bd
    assert hash(dataclasses.replace(moved, vdw=bd.vdw)) == hash(bd)

# ----------------------------------------------------- the edge-table plan

def with_pair_on_cutoff(system, x, cutoff=7.0):
    """x with atom 1 moved to exactly cutoff from atom 0 along x."""
    c = np.round(x.reshape(-1, 3) * 2.0**20) / 2.0**20  # dyadic: the sums below are exact
    c[1] = c[0] + np.array([cutoff, 0.0, 0.0])
    return c.ravel()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(PLAN_SYSTEMS)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.05, 0.3]), on_cutoff=st.booleans())
def test_plan_terms_match_naive_oracle(name, seed, scale, on_cutoff):
    s = _plan_systems[name]
    x = perturbed(s, seed, scale)
    if on_cutoff:
        x = with_pair_on_cutoff(s, x)
    moved = s.with_coords(x)
    want = naive_breakdown(moved)
    terms = {"stretch": energy_stretch, "bend": energy_bend, "torsion": energy_torsion,
             "coulomb": energy_coulomb, "vdw": energy_vdw}
    for term, fn in terms.items():
        assert fn(moved) == pytest.approx(want[term], rel=1e-11, abs=1e-11), term
    for bd in (energy_total(s, x), energy_and_gradient(s, x)[0]):
        for term in TERMS:
            assert getattr(bd, term) == pytest.approx(want[term], rel=1e-11, abs=1e-11), term


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(PLAN_SYSTEMS)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.05, 0.3]))
def test_plan_gradient_matches_fd_of_naive_energy(name, seed, scale):
    s = _plan_systems[name]
    x = perturbed(s, seed, scale)
    if s.nonbonded.cutoff is not None:
        # the energy jumps where a pair crosses the cutoff: keep FD steps off it
        c = x.reshape(-1, 3)
        r = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        assume(np.abs(r - s.nonbonded.cutoff).min() > 1e-3)
    fd = naive.fd_gradient(lambda flat: naive.total_energy(s.with_coords(flat)), x, step=1e-5)
    g = energy_and_gradient(s, x)[1]
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_plan_gradient_counts_a_pair_on_the_cutoff():
    # the cloud has no exclusions, so atoms 0 and 1 interact, exactly at the cutoff
    s = _plan_systems["cloud-cutoff7"]
    x = with_pair_on_cutoff(s, s.coords.ravel())
    g_on = energy_and_gradient(s, x)[1].reshape(-1, 3)
    g_below = energy_and_gradient(with_cutoff(s, np.nextafter(7.0, 0.0)), x)[1].reshape(-1, 3)
    pair = MolecularSystem(atoms=s.atoms[:2], coords=x.reshape(-1, 3)[:2],
                           nonbonded=NonbondedPolicy())
    g_pair = gradient_total(pair).reshape(-1, 3)
    assert np.all(g_pair[:, 0] != 0.0)  # the pair lies along x
    # the pair adds its whole gradient to its atoms and nothing elsewhere
    scale = np.abs(g_on).max()
    np.testing.assert_allclose(g_on[:2] - g_below[:2], g_pair, rtol=0.0, atol=1e-12 * scale)
    assert np.array_equal(g_on[2:], g_below[2:])


CHAIN6 = make_chain_system(6, seed=1)
DEGENERATE = {
    # (atom moved onto, atom moved): the whole-system fault, which
    # energy_total, energy_and_gradient, an oracle's value and gradient and
    # exact_delta_atom_move all name, then each one-term call's message and
    # the far-field delta's, None for no error
    (0, 1): dict(system="bend term 0 (atoms 0-1-2): zero-length arm",
                 stretch=None, bend="bend term 0 (atoms 0-1-2): zero-length arm",
                 torsion="torsion term 0 (atoms 0-1-2-3): degenerate plane", coulomb=None,
                 delta="bend term 0 (atoms 0-1-2): zero-length arm"),
    (0, 4): dict(system="nonbonded pair (0,4): coincident atoms",
                 stretch=None, bend=None, torsion=None,
                 coulomb="nonbonded pair (0,4): coincident atoms", delta=None),
    (2, 3): dict(system="bend term 1 (atoms 1-2-3): zero-length arm",
                 stretch=None, bend="bend term 1 (atoms 1-2-3): zero-length arm",
                 torsion="torsion term 0 (atoms 0-1-2-3): degenerate plane", coulomb=None,
                 delta="bend term 1 (atoms 1-2-3): zero-length arm"),
    (0, 5): dict(system="nonbonded pair (0,5): coincident atoms",
                 stretch=None, bend=None, torsion=None,
                 coulomb="nonbonded pair (0,5): coincident atoms", delta=None),
}


def raised(call):
    try:
        call()
    except EnergyEvaluationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("onto,atom", sorted(DEGENERATE))
def test_degenerate_geometry_raises_the_same_messages(onto, atom):
    x = CHAIN6.coords.copy()
    x[atom] = x[onto]
    moved = CHAIN6.with_coords(x)
    step = CHAIN6.coords[onto] - CHAIN6.coords[atom]
    lin = linearize_farfield_coulomb(CHAIN6, atom, 2.0)
    oracle = MolecularOracle(CHAIN6)
    whole = dict(total=lambda: energy_total(moved), fused=lambda: energy_and_gradient(moved),
                 value=lambda: oracle.value(x.ravel()),
                 gradient=lambda: oracle.gradient(x.ravel()),
                 exact=lambda: exact_delta_atom_move(CHAIN6, atom, step))
    calls = dict(stretch=lambda: energy_stretch(moved), bend=lambda: energy_bend(moved),
                 torsion=lambda: energy_torsion(moved), coulomb=lambda: energy_coulomb(moved),
                 delta=lambda: delta_energy_atom_move(CHAIN6, lin, step))
    want = dict(DEGENERATE[(onto, atom)])
    assert {name: raised(call) for name, call in whole.items()} == dict.fromkeys(
        whole, want.pop("system"))
    assert {name: raised(call) for name, call in calls.items()} == want


def test_collinear_planar_and_coincident_bond_messages():
    atoms = tuple(atom(i) for i in range(4))
    line = MolecularSystem(
        atoms=atoms[:3], coords=np.array([[-1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=1.9),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})))
    planar = MolecularSystem(
        atoms=atoms, coords=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.0, 1.0, 0]]),
        dihedrals=(DihedralTerm(0, 1, 2, 3, 1.0, 2.0, 3.0, 0.5),),
        nonbonded=NonbondedPolicy(excluded=frozenset(
            {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)})))
    diatomic = pair_system(0.0, excluded=True, bonds=(BondTerm(0, 1, 300.0, 1.5),))
    assert raised(lambda: energy_total(line)) is None
    assert raised(lambda: energy_and_gradient(line)) == (
        "bend term 0 (atoms 0-1-2): collinear geometry")
    for fn in (energy_total, energy_and_gradient):
        assert raised(lambda: fn(planar)) == "torsion term 0 (atoms 0-1-2-3): degenerate plane"
    assert energy_total(diatomic).stretch == 300.0 * 1.5**2
    assert raised(lambda: energy_and_gradient(diatomic)) == (
        "stretch term 0 (atoms 0-1): coincident endpoints")


def test_oracle_value_then_gradient_names_the_fused_fault():
    # a value call keeps its sweep for the gradient at the same x; finishing
    # it must name the fused call's fault, and a value call that raises
    # keeps nothing, so the gradient names the value's fault
    atoms = tuple(atom(i) for i in range(4))
    line = MolecularSystem(
        atoms=atoms[:3], coords=np.array([[-1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=1.9),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1), (0, 2), (1, 2)})))
    diatomic = pair_system(0.0, excluded=True, bonds=(BondTerm(0, 1, 300.0, 1.5),))
    # the collinear angle 0-1-2 also flattens the plane of torsion 0-1-2-3,
    # an energy fault, so it is named before the gradient's collinear arms
    flat = MolecularSystem(
        atoms=atoms,
        coords=np.array([[-1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [1.5, 1.5, 0.0]]),
        angles=(AngleTerm(0, 1, 2, K=1.0, theta0=1.9), AngleTerm(1, 2, 3, K=1.0, theta0=1.9)),
        dihedrals=(DihedralTerm(0, 1, 2, 3, 1.0, 2.0, 3.0, 0.5),),
        nonbonded=NonbondedPolicy(excluded=frozenset(
            {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)})))
    collinear = "bend term 0 (atoms 0-1-2): collinear geometry"
    planar = "torsion term 0 (atoms 0-1-2-3): degenerate plane"
    cases = [(line, None, collinear),
             (diatomic, None, "stretch term 0 (atoms 0-1): coincident endpoints"),
             (flat, planar, planar)]
    for system, value_message, fused_message in cases:
        assert raised(lambda: energy_and_gradient(system)) == fused_message
        oracle = MolecularOracle(system)
        x = system.coords.ravel()
        assert raised(lambda: oracle.value(x)) == value_message
        assert raised(lambda: oracle.gradient(x)) == fused_message


def test_repeated_calls_are_bit_identical_across_allocations():
    s = make_chain_system(30, seed=0, strain=0.3)
    x = perturbed(s, 7, 0.05)
    lin = linearize_farfield_coulomb(s, 11, 7.0)
    step = np.array([0.03, -0.02, 0.01])

    def evaluate():
        bd, g = energy_and_gradient(s, x)
        return (energy_total(s, x), bd, g.tobytes(), energy_torsion(s), energy_coulomb(s),
                exact_delta_atom_move(s, 11, step), delta_energy_atom_move(s, lin, step))

    first = evaluate()
    for size in (1, 3, 17, 1001):
        # shift where the next arrays land
        junk = [np.empty(size), np.ones((size, 3))]
        assert evaluate() == first
        del junk


# ------------------------------------------------- kernel bookkeeping

@settings(max_examples=60, deadline=None)
@given(natoms=st.integers(1, 7), data=st.data())
def test_scatter_adds_each_atoms_rows_in_index_order(natoms, data):
    from ffmin import kernels

    m = data.draw(st.integers(0, 12))
    ends = st.lists(st.integers(0, natoms - 1), min_size=m, max_size=m)
    ea, eb = data.draw(ends), data.draw(ends)
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e300, 1.0]),
                      st.floats(-1e6, 1e6, allow_nan=False))
    rows = np.array(data.draw(st.lists(st.lists(value, min_size=3, max_size=3),
                                       min_size=m, max_size=m)), dtype=np.float64).reshape(m, 3)
    W = np.empty((2 * m, 3))
    W[:m] = rows
    got = kernels.scatter(W, kernels.flat_index(np.array([ea, eb], dtype=np.intp)), natoms)
    want = naive.scatter(np.concatenate((rows, -rows)), ea + eb, natoms)
    assert got.dtype == np.float64 and got.shape == (3 * natoms,)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(chain=st.booleans(), natoms=st.integers(4, 16), seed=st.integers(0, 2**16),
       cutoff=st.sampled_from([None, 7.0]), scale=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
       clashes=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 39), st.integers(0, 39)),
                        max_size=2))
def test_energy_halves_treat_stacked_sets_as_sets_alone(chain, natoms, seed, cutoff, scale,
                                                        clashes):
    """Each energy half on two stacked coordinate sets gives, byte for byte,
    each set's energies, and as its bad row the first row bad in either set."""
    import dataclasses

    from ffmin import kernels

    if chain:
        s = make_chain_system(natoms, seed % 7, 0.3, cutoff=cutoff)
    else:
        s = dataclasses.replace(two_cluster_system(seed % 5),
                                nonbonded=NonbondedPolicy(cutoff=cutoff))
    rng = np.random.default_rng(seed)
    both = s.coords + scale * rng.standard_normal((2, s.natoms, 3))
    for k, i, j in clashes:
        # set k puts one atom onto another: a zero-length edge, arm or plane
        both[k, j % s.natoms] = both[k, i % s.natoms]
    p = s.arrays()
    for term, (energy, _, sec, args) in p["terms"].items():
        D, R = kernels.edges(both, p["edge_flat"][:, 3 * sec.start:3 * sec.stop])
        *stacked, bad, _ = energy(D, R, *args, True)
        alone = [energy(D[k], R[k], *args, True) for k in (0, 1)]
        bads = [a[-2] for a in alone if a[-2] >= 0]
        assert bad == (min(bads) if bads else -1), term
        if bad < 0:
            for e, *each in zip(stacked, *(a[:-2] for a in alone)):
                assert np.asarray(e).tobytes() == np.array(each).tobytes(), term


@pytest.mark.parametrize("call", ["energy_and_gradient", "linearize_farfield_coulomb",
                                  "oracle value then gradient"])
def test_a_fused_call_computes_the_pair_terms_once(call, monkeypatch):
    from ffmin import kernels

    computed = []
    pair_terms = kernels._pair_terms

    def counted(*args):
        computed.append(args[0].size)
        return pair_terms(*args)

    s = make_chain_system(12, seed=0, strain=0.3)
    s.arrays()
    monkeypatch.setattr(kernels, "_pair_terms", counted)
    if call == "energy_and_gradient":
        energy_and_gradient(s)
        assert len(computed) == 1
    elif call == "linearize_farfield_coulomb":
        lin = linearize_farfield_coulomb(s, 0, 3.0)
        assert len(computed) == 1 and computed[0] == s.natoms - 1 - lin.near_idx.size
    else:
        # the sweep valued last keeps its pair terms for the gradient there
        oracle = MolecularOracle(s)
        x = s.coords.ravel()
        oracle.value(x)
        oracle.gradient(x)
        assert len(computed) == 1


def test_a_gradient_at_an_earlier_probe_sweeps_afresh(monkeypatch):
    """Valuing a higher point after a lower one empties the oracle's store,
    so the gradient at the lower point sweeps again, pair terms included,
    with the bytes of a fresh call."""
    from ffmin import kernels

    computed = []
    pair_terms = kernels._pair_terms

    def counted(*args):
        computed.append(1)
        return pair_terms(*args)

    s = make_chain_system(12, seed=0, strain=0.3)
    x = s.coords.ravel()
    y = x + 0.1 * np.random.default_rng(0).standard_normal(x.size)
    lower, higher = sorted((x, y), key=lambda z: energy_total(s, z).total)
    want = energy_and_gradient(s, lower)[1]
    monkeypatch.setattr(kernels, "_pair_terms", counted)
    oracle = MolecularOracle(s)
    oracle.value(lower)
    oracle.value(higher)
    assert oracle.gradient(lower).tobytes() == want.tobytes()
    assert len(computed) == 3
