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
    exact_delta_atom_move,
    linearize_farfield_coulomb,
)
from ffmin.model import AtomSpec, MolecularSystem, NonbondedPolicy
from ffmin.synth import make_chain_system


def cloud(coords, q=0.3, cutoff=None):
    coords = np.asarray(coords, dtype=float)
    atoms = tuple(AtomSpec(i, f"A{i}", q, 3.0, 0.2) for i in range(len(coords)))
    return MolecularSystem(atoms=atoms, coords=coords,
                           nonbonded=NonbondedPolicy(cutoff=cutoff))


# ----------------------------------------------------------- linearization

def test_all_atoms_inside_cutoff_gives_empty_far_field():
    rng = np.random.default_rng(22)
    s = cloud(rng.uniform(0, 3, (8, 3)) + np.arange(8)[:, None] * 0.01)
    lin = linearize_farfield_coulomb(s, 2, 50.0)
    assert lin.e_far0 == 0.0
    assert np.all(lin.coef == 0.0)
    assert sorted(lin.near_idx) == [0, 1, 3, 4, 5, 6, 7]


def test_single_far_neighbor_coefficient_magnitude():
    # unit charges, far partner at distance 10: |dE/dx| = C/100 along the
    # axis, pointing so that shrinking the separation raises the energy
    minus = cloud([[0, 0, 0], [-10, 0, 0]], q=1.0)
    lin = linearize_farfield_coulomb(minus, 0, 7.0)
    assert lin.e_far0 == pytest.approx(COULOMB_KJ_ANGSTROM / 10.0, rel=1e-12)
    assert lin.coef[0] == pytest.approx(-COULOMB_KJ_ANGSTROM / 100.0, rel=1e-12)
    assert lin.coef[1] == lin.coef[2] == 0.0

    plus = cloud([[0, 0, 0], [10, 0, 0]], q=1.0)
    lin = linearize_farfield_coulomb(plus, 0, 7.0)
    assert lin.coef[0] == pytest.approx(COULOMB_KJ_ANGSTROM / 100.0, rel=1e-12)


def test_scaled_and_excluded_partners_are_always_near():
    s = MolecularSystem(
        atoms=tuple(AtomSpec(i, f"A{i}", 0.5, 3.0, 0.2) for i in range(3)),
        coords=np.array([[0.0, 0, 0], [20.0, 0, 0], [25.0, 0, 0]]),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1)}),
                                  scaled14=frozenset({(0, 2)}), s14=0.5),
    )
    lin = linearize_farfield_coulomb(s, 0, 7.0)
    assert sorted(lin.near_idx) == [1, 2]
    assert lin.e_far0 == 0.0
    assert np.all(lin.coef == 0.0)


def far_sum(s, atom, far_idx, pos):
    qa = s.atoms[atom].q
    return sum(
        COULOMB_KJ_ANGSTROM * qa * s.atoms[j].q / np.linalg.norm(pos - s.coords[j])
        for j in far_idx
    )


def test_coefficients_match_fd_of_exact_far_sum():
    s = two_cluster_system(seed=3)
    atom = 5
    lin = linearize_farfield_coulomb(s, atom, 7.0)
    far_idx = sorted(set(range(s.natoms)) - {atom} - set(lin.near_idx))
    assert len(far_idx) == 20
    ref = s.coords[atom]
    assert lin.e_far0 == pytest.approx(far_sum(s, atom, far_idx, ref), rel=1e-12)
    step = 1e-6
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = step
        fd = (far_sum(s, atom, far_idx, ref + e)
              - far_sum(s, atom, far_idx, ref - e)) / (2 * step)
        assert lin.coef[ax] == pytest.approx(fd, rel=1e-6, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["chain", "clusters"]), seed=st.integers(0, 2**16),
       data=st.data())
def test_linearization_matches_plain_loop_far_sum(kind, seed, data):
    if kind == "chain":
        s = make_chain_system(data.draw(st.integers(2, 30), label="n"), seed=seed, strain=0.3)
    else:
        s = two_cluster_system(seed % 8)
    atom = data.draw(st.integers(0, s.natoms - 1), label="atom")
    # a dyadic cutoff and coordinates: the on-cutoff distance below is exact
    cutoff = data.draw(st.integers(8, 320), label="cutoff16") / 16.0
    c = np.round(s.coords * 2.0**20) / 2.0**20
    full = [j for j in range(s.natoms)
            if j != atom and naive.pair_scale(s.nonbonded, atom, j) == 1.0]
    on = data.draw(st.sampled_from(full), label="on_cutoff") if full else None
    if on is not None:
        c[on] = c[atom] + np.array([cutoff, 0.0, 0.0])
        d = np.linalg.norm(c - c[on], axis=1)
        assume(np.delete(d, on).min() > 0.5)  # no partner lands on the moved one
    s = s.with_coords(c)
    e_far0, coef, near = naive.farfield_linearization(s, atom, cutoff)
    lin = linearize_farfield_coulomb(s, atom, cutoff)
    assert lin.near_idx.tolist() == near
    if on is not None:
        assert on in near  # r == cutoff is near
    assert lin.e_far0 == pytest.approx(e_far0, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(lin.coef, coef, rtol=1e-10, atol=1e-12)


def test_linearize_input_validation():
    s = cloud([[0, 0, 0], [3, 0, 0]])
    with pytest.raises(ValueError, match="out of range"):
        linearize_farfield_coulomb(s, 2, 7.0)
    with pytest.raises(ValueError, match="cutoff"):
        linearize_farfield_coulomb(s, 0, -1.0)


@pytest.mark.parametrize("atom", [-1, 2])
def test_exact_delta_rejects_atom_out_of_range(atom):
    s = cloud([[0, 0, 0], [3, 0, 0]])
    with pytest.raises(ValueError, match="out of range"):
        exact_delta_atom_move(s, atom, [0.1, 0.0, 0.0])


# ------------------------------------------------------------ delta moves

def test_zero_delta_is_zero():
    s = two_cluster_system(seed=1)
    lin = linearize_farfield_coulomb(s, 0, 7.0)
    assert delta_energy_atom_move(s, lin, np.zeros(3)) == 0.0
    assert exact_delta_atom_move(s, 0, np.zeros(3)) == 0.0


def test_no_far_atoms_makes_delta_exact():
    rng = np.random.default_rng(30)
    s = cloud(rng.uniform(0, 4, (9, 3)), q=0.4)
    lin = linearize_farfield_coulomb(s, 4, 50.0)
    for _ in range(5):
        d = rng.uniform(-0.3, 0.3, 3)
        a = delta_energy_atom_move(s, lin, d)
        e = exact_delta_atom_move(s, 4, d)
        assert a == pytest.approx(e, rel=1e-10, abs=1e-12)


def test_delta_includes_bonded_terms():
    s = make_chain_system(12, seed=31)
    atom = 6
    lin = linearize_farfield_coulomb(s, atom, 100.0)  # everything near
    rng = np.random.default_rng(32)
    d = rng.uniform(-0.2, 0.2, 3)
    from ffmin.energy import energy_total
    moved = s.coords.copy()
    moved[atom] += d
    brute = energy_total(s.with_coords(moved)).total - energy_total(s).total
    assert delta_energy_atom_move(s, lin, d) == pytest.approx(brute, rel=1e-9)
    assert exact_delta_atom_move(s, atom, d) == pytest.approx(brute, rel=1e-9)


def test_halving_delta_divides_error_by_at_least_3p5():
    ladder = [0.4, 0.2, 0.1, 0.05]
    for seed in (0, 2, 3):
        s = two_cluster_system(seed)
        rng = np.random.default_rng(seed + 500)
        atom = int(rng.integers(s.natoms))
        lin = linearize_farfield_coulomb(s, atom, 7.0)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        errs = [
            abs(delta_energy_atom_move(s, lin, d * u)
                - exact_delta_atom_move(s, atom, d * u))
            for d in ladder
        ]
        for big, small in zip(errs, errs[1:]):
            assert big / small >= 3.5


def test_loglog_error_slope_is_quadratic():
    ladder = np.array([0.4, 0.2, 0.1, 0.05])
    s = two_cluster_system(seed=7)
    rng = np.random.default_rng(507)
    atom = int(rng.integers(s.natoms))
    lin = linearize_farfield_coulomb(s, atom, 7.0)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    errs = np.array([
        abs(delta_energy_atom_move(s, lin, d * u)
            - exact_delta_atom_move(s, atom, d * u))
        for d in ladder
    ])
    slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_delta_requires_cutoff_free_system():
    s = cloud([[0, 0, 0], [3, 0, 0]], cutoff=7.0)
    lin_free = linearize_farfield_coulomb(cloud([[0, 0, 0], [3, 0, 0]]), 0, 7.0)
    with pytest.raises(ValueError, match="cutoff"):
        delta_energy_atom_move(s, lin_free, [0.1, 0, 0])


def test_moved_atom_collision_raises():
    s = cloud([[0, 0, 0], [1.5, 0, 0]], q=0.5)
    lin = linearize_farfield_coulomb(s, 0, 7.0)
    with pytest.raises(EnergyEvaluationError, match="coincident"):
        delta_energy_atom_move(s, lin, [1.5, 0, 0])
    with pytest.raises(EnergyEvaluationError, match="coincident"):
        exact_delta_atom_move(s, 0, [1.5, 0, 0])


def test_exact_delta_respects_system_cutoff():
    # with a hard cutoff the far pair simply vanishes from the objective
    far = cloud([[0, 0, 0], [10, 0, 0]], q=1.0, cutoff=7.0)
    d = exact_delta_atom_move(far, 0, [1.0, 0, 0])
    assert d == 0.0  # still outside cutoff after the move


# ------------------------------------------------------- stacked displacements

@pytest.mark.parametrize("kind", ["chain", "clusters", "far only"])
@pytest.mark.parametrize("seed", range(3))
def test_a_stack_of_displacements_is_its_single_calls(kind, seed):
    # a far field (cutoff 7) and bonded, scaled and excluded partners; with
    # far partners only, the change is the linear term alone, bit for bit;
    # the stack's rows are general vectors, not just axis probes
    rng = np.random.default_rng(seed + 800)
    if kind == "far only":
        s = cloud(np.vstack([np.zeros(3), rng.uniform(15, 25, (3, 3))]), q=0.4)
        atom = 0
    else:
        s = make_chain_system(14, seed, 0.3) if kind == "chain" else two_cluster_system(seed)
        atom = int(rng.integers(s.natoms))
    lin = linearize_farfield_coulomb(s, atom, 7.0)
    for size in (1, 2, 6, 7):
        stack = rng.uniform(-0.3, 0.3, (size, 3))
        for stacked, alone in ((delta_energy_atom_move(s, lin, stack),
                                [delta_energy_atom_move(s, lin, d) for d in stack]),
                               (exact_delta_atom_move(s, atom, stack),
                                [exact_delta_atom_move(s, atom, d) for d in stack])):
            assert isinstance(stacked, np.ndarray) and stacked.shape == (size,)
            assert all(isinstance(a, float) for a in alone)
            assert stacked.tobytes() == np.array(alone).tobytes()


def test_a_stack_with_one_colliding_row_raises():
    s = cloud([[0, 0, 0], [1.5, 0, 0], [0, 4, 0]], q=0.5)
    lin = linearize_farfield_coulomb(s, 0, 7.0)
    stack = np.array([[0.1, 0, 0], [1.5, 0, 0], [0, 0.1, 0]])
    with pytest.raises(EnergyEvaluationError, match="coincident"):
        delta_energy_atom_move(s, lin, stack)
    with pytest.raises(EnergyEvaluationError, match="coincident"):
        exact_delta_atom_move(s, 0, stack)
    # the clean rows alone are fine
    assert np.isfinite(exact_delta_atom_move(s, 0, stack[[0, 2]])).all()


@pytest.mark.parametrize("shape", [(), (2,), (6,), (0, 3), (2, 2), (1, 3, 1), (2, 3, 3)])
def test_a_displacement_of_another_shape_is_refused(shape):
    # a flat (6,) must not read as two moves
    s = cloud([[0, 0, 0], [3, 0, 0]])
    lin = linearize_farfield_coulomb(s, 0, 7.0)
    delta = np.full(shape, 0.1)
    with pytest.raises(ValueError, match="displacement of shape"):
        delta_energy_atom_move(s, lin, delta)
    with pytest.raises(ValueError, match="displacement of shape"):
        exact_delta_atom_move(s, 0, delta)
