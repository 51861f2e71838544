import contextlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

import ffmin.optimizers.common as common
from ffmin.synth import make_chain_system


@pytest.fixture
def chain10():
    return make_chain_system(10, seed=42, strain=0.3)


def two_cluster_system(seed, n=40, gap=40.0, radius=3.5):
    """Two charge clusters separated by a wide gap, no bonded terms.

    Each cluster fits in a ball of diameter 7 so every same-cluster pair
    sits inside the 7 A near cutoff and every cross-cluster pair is far
    (>= gap - 2*radius). At that range the neglected far vdW is orders of
    magnitude below the curvature of the far Coulomb sum, which is the
    regime the linearized delta evaluation is meant for.
    """
    from ffmin.model import AtomSpec, MolecularSystem, NonbondedPolicy

    rng = np.random.default_rng(seed)
    half = n // 2
    pts = []
    for center in ((0.0, 0.0, 0.0), (gap, 0.0, 0.0)):
        got = []
        while len(got) < half:
            p = rng.uniform(-radius, radius, 3)
            if p @ p > radius * radius:
                continue
            p = np.asarray(center) + p
            if all(np.linalg.norm(p - q) > 2.0 for q in got):
                got.append(p)
        pts += got
    q = rng.uniform(0.3, 0.8, n) * rng.choice([-1.0, 1.0], n)
    q -= q.mean()
    atoms = tuple(
        AtomSpec(i, f"A{i}", float(q[i]), float(rng.uniform(2.8, 3.6)),
                 float(rng.uniform(0.3, 0.8)))
        for i in range(n)
    )
    return MolecularSystem(atoms=atoms, coords=np.array(pts),
                           nonbonded=NonbondedPolicy())


def assert_systems_equal(a, b):
    assert a.natoms == b.natoms
    for x, y in zip(a.atoms, b.atoms):
        assert (x.id, x.label, x.q, x.sigma, x.epsilon) == (
            y.id, y.label, y.q, y.sigma, y.epsilon)
    assert np.array_equal(a.coords, b.coords)
    assert a.bonds == b.bonds
    for p, q in zip(a.angles, b.angles):
        assert (p.i, p.j, p.k, p.K) == (q.i, q.j, q.k, q.K)
        # theta0 crosses a radians->degrees->radians round trip on disk
        assert p.theta0 == pytest.approx(q.theta0, rel=1e-15)
    assert a.dihedrals == b.dihedrals
    assert a.nonbonded.excluded == b.nonbonded.excluded
    assert a.nonbonded.scaled14 == b.nonbonded.scaled14
    assert a.nonbonded.s14 == b.nonbonded.s14
    assert a.nonbonded.cutoff == b.nonbonded.cutoff


def record_rows(res):
    """Every trace record field but wall_seconds, one row per record."""
    return np.array([(r.iteration, r.f, r.grad_norm, r.step, r.value_calls, r.grad_calls,
                      r.best_f) for r in res.trace.records])


@contextlib.contextmanager
def shifted_clock(shift):
    """Run the block with the runs' clock (common.time.perf_counter) reading
    shift() seconds ahead of the real one, so a test can move a run past
    its deadline at a chosen call without waiting on a clock."""
    clock = SimpleNamespace(perf_counter=lambda: time.perf_counter() + shift())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "time", clock)
        yield
