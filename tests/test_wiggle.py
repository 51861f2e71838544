import numpy as np
import pytest

from conftest import record_rows, shifted_clock
from ffmin.energy import EnergyEvaluationError, energy_total
from ffmin.model import AtomSpec, BondTerm, MolecularSystem, NonbondedPolicy
from ffmin.optimizers import TIME_BUDGET, StopCriteria
from ffmin.optimizers.wiggle import WiggleConfig, WiggleResult, atom_wiggle
from ffmin.synth import make_chain_system

NO_TOL = dict(gradient_norm_rtol=0.0)


def counted(made, fn):
    """fn, appending its name to made once per evaluation it makes: once a
    call, or once per displacement of a single-atom delta's (S, 3) stack."""
    def call(*args, **kwargs):
        evaluations = np.size(args[-1]) // 3 if "delta" in fn.__name__ else 1
        made.extend([fn.__name__] * evaluations)
        return fn(*args, **kwargs)
    return call


def diatomic(r, K=300.0, r0=1.5):
    return MolecularSystem(
        atoms=(AtomSpec(0, "A0", 0.0, 3.0, 0.1), AtomSpec(1, "A1", 0.0, 3.0, 0.1)),
        coords=np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]]),
        bonds=(BondTerm(0, 1, K, r0),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1)})),
    )


def test_diatomic_relaxes_to_rest_length():
    # axis-aligned bond: the per-axis parabola is exact, so the very first
    # accepted move lands on the rest length
    res = atom_wiggle(diatomic(1.8), WiggleConfig(h=0.05, seed=1),
                      StopCriteria(max_iterations=5, **NO_TOL))
    d = np.linalg.norm(res.system.coords[1] - res.system.coords[0])
    assert abs(d - 1.5) <= 1e-8
    assert res.f <= 1e-12
    assert res.status == "iteration_budget"


def test_wiggle_never_moves_off_a_minimum():
    s = diatomic(1.5)
    res = atom_wiggle(s, WiggleConfig(h=0.05, seed=2),
                      StopCriteria(max_iterations=10, **NO_TOL))
    assert np.array_equal(res.system.coords, s.coords)
    assert all(rec.step == 0.0 for rec in res.trace.records)
    assert res.f == 0.0


def test_every_accepted_move_strictly_lowers_audited_energy():
    # epoch_iterations=1 resyncs against a full recompute every iteration,
    # so each trace row's f is exact and auditable
    s = make_chain_system(12, seed=3, strain=0.4)
    res = atom_wiggle(s, WiggleConfig(h=0.05, seed=4, epoch_iterations=1),
                      StopCriteria(max_iterations=300, **NO_TOL))
    recs = res.trace.records
    moves = 0
    for prev, cur in zip(recs, recs[1:]):
        if cur.step > 0.0:
            moves += 1
            assert cur.f < prev.f
        else:
            assert cur.f == prev.f
    assert moves > 50
    assert res.f == energy_total(res.system).total
    assert res.f < recs[0].f


def test_wiggle_is_deterministic_per_seed():
    s = make_chain_system(12, seed=3, strain=0.4)
    stop = StopCriteria(max_iterations=60, **NO_TOL)
    a = atom_wiggle(s, WiggleConfig(h=0.05, seed=7), stop)
    b = atom_wiggle(s, WiggleConfig(h=0.05, seed=7), stop)
    c = atom_wiggle(s, WiggleConfig(h=0.05, seed=8), stop)
    assert np.array_equal(a.system.coords, b.system.coords)
    assert a.f == b.f
    assert [r.f for r in a.trace.records] == [r.f for r in b.trace.records]
    assert not np.array_equal(a.system.coords, c.system.coords)


def test_incremental_mode_rejects_cutoff_systems():
    s = make_chain_system(8, seed=5, cutoff=7.0)
    with pytest.raises(ValueError, match="cutoff"):
        atom_wiggle(s, WiggleConfig())


def test_full_recompute_mode_handles_cutoff_systems():
    s = make_chain_system(8, seed=5, cutoff=7.0)
    res = atom_wiggle(s, WiggleConfig(seed=6, use_incremental_coulomb=False),
                      StopCriteria(max_iterations=100, **NO_TOL))
    assert res.f < energy_total(s).total


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
def test_colliding_probe_is_discarded_not_fatal(incremental):
    # the +x probe of either atom lands exactly on the other one; that probe
    # must be dropped while the rest still drive the atoms apart
    s = MolecularSystem(
        atoms=(AtomSpec(0, "A0", 0.5, 3.0, 0.2), AtomSpec(1, "A1", 0.5, 3.0, 0.2)),
        coords=np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]),
        nonbonded=NonbondedPolicy(),
    )
    res = atom_wiggle(s, WiggleConfig(h=0.05, seed=0, use_incremental_coulomb=incremental),
                      StopCriteria(max_iterations=50, **NO_TOL))
    d = np.linalg.norm(res.system.coords[1] - res.system.coords[0])
    assert d > 1.0
    assert res.f < res.trace.records[0].f
    # six probes, a vertex and an exact delta at most per iteration: the
    # probes of a stack that raised are evaluated again uncharged
    calls = np.diff([r.value_calls for r in res.trace.records])
    assert calls.min() >= 6 and calls.max() <= 8


def test_exact_delta_that_raises_is_counted_and_moves_nothing(monkeypatch):
    import ffmin.optimizers.wiggle as wiggle

    made = []

    def degenerate(*args):
        made.append("exact_delta_atom_move")
        raise EnergyEvaluationError("energy delta: degenerate geometry")

    for name in ("energy_total", "delta_energy_atom_move"):
        monkeypatch.setattr(wiggle, name, counted(made, getattr(wiggle, name)))
    monkeypatch.setattr(wiggle, "exact_delta_atom_move", degenerate)
    s = make_chain_system(12, seed=0, strain=0.3)
    res = atom_wiggle(s, WiggleConfig(seed=1), StopCriteria(max_iterations=20, **NO_TOL))
    assert "exact_delta_atom_move" in made
    assert np.array_equal(res.system.coords, s.coords)
    assert all(r.step == 0.0 and r.f == res.f for r in res.trace.records)
    assert res.f == energy_total(s).total
    assert res.trace.records[-1].value_calls == len(made)


def test_incremental_and_full_agree_without_far_field():
    # all atoms inside the cutoff: both probe models are the exact delta over
    # the same partners, so seeded runs walk bit-identical paths
    s = make_chain_system(6, seed=9, strain=0.3)
    stop = StopCriteria(max_iterations=80, **NO_TOL)
    a = atom_wiggle(s, WiggleConfig(h=0.05, seed=11, cutoff=1e6), stop)
    b = atom_wiggle(s, WiggleConfig(h=0.05, seed=11,
                                    use_incremental_coulomb=False), stop)
    assert np.array_equal(a.system.coords, b.system.coords)
    assert a.f == b.f
    assert [r.step for r in a.trace.records] == [r.step for r in b.trace.records]
    assert any(r.step > 0.0 for r in a.trace.records)


def test_exact_branch_makes_at_most_seven_value_calls_an_iteration():
    # six axis probes and the vertex, each already an exact delta: the best
    # candidate is accepted on its own value, with no second exact delta
    s = make_chain_system(30, seed=0, strain=0.3)
    res = atom_wiggle(s, WiggleConfig(seed=1, use_incremental_coulomb=False),
                      StopCriteria(max_iterations=60, **NO_TOL))
    calls = np.diff([r.value_calls for r in res.trace.records])
    assert calls.max() <= 7
    assert any(r.step > 0.0 for r in res.trace.records)


def test_exact_branch_sweeps_the_whole_system_only_for_its_start(monkeypatch):
    import ffmin.optimizers.wiggle as wiggle

    made = []
    for name in ("energy_total", "delta_energy_atom_move", "exact_delta_atom_move"):
        monkeypatch.setattr(wiggle, name, counted(made, getattr(wiggle, name)))
    s = make_chain_system(12, seed=0, strain=0.3)
    res = atom_wiggle(s, WiggleConfig(seed=1, epoch_iterations=3, use_incremental_coulomb=False),
                      StopCriteria(max_iterations=20, **NO_TOL))
    assert made.count("energy_total") == 1
    assert "delta_energy_atom_move" not in made
    # six axis probes per iteration, each an exact single-atom delta
    assert made.count("exact_delta_atom_move") >= 6 * 20
    assert res.trace.records[-1].value_calls == len(made)


def test_wiggle_config_validation():
    with pytest.raises(ValueError, match="h"):
        WiggleConfig(h=0.0)
    with pytest.raises(ValueError, match="epoch"):
        WiggleConfig(epoch_iterations=0)
    with pytest.raises(ValueError, match="cutoff"):
        WiggleConfig(cutoff=-1.0)


def test_wiggle_trace_bookkeeping():
    s = make_chain_system(10, seed=12, strain=0.3)
    res = atom_wiggle(s, WiggleConfig(seed=13),
                      StopCriteria(max_iterations=40, **NO_TOL))
    assert isinstance(res, WiggleResult)
    assert res.iterations == 40
    assert len(res.trace.records) == 41
    calls = [r.value_calls for r in res.trace.records]
    assert calls == sorted(calls)
    assert all(np.isnan(r.grad_norm) for r in res.trace.records)
    assert np.array_equal(res.x, res.system.coords.ravel())


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
def test_oracle_budget_is_never_exceeded(incremental, monkeypatch):
    import ffmin.optimizers.wiggle as wiggle

    made = []

    for name in ("energy_total", "delta_energy_atom_move", "exact_delta_atom_move"):
        monkeypatch.setattr(wiggle, name, counted(made, getattr(wiggle, name)))
    s = make_chain_system(12, seed=0, strain=0.3)
    # epoch 3: some caps fall on a resync
    config = WiggleConfig(seed=1, epoch_iterations=3, use_incremental_coulomb=incremental)
    for cap in range(2, 61):
        made.clear()
        res = atom_wiggle(s, config, StopCriteria(max_iterations=None, max_oracle_calls=cap,
                                                  **NO_TOL))
        assert res.status == "oracle_budget", cap
        assert len(made) <= cap, cap
        assert res.trace.records[-1].value_calls <= cap, cap
        # the run ends at its last accepted configuration
        assert np.array_equal(res.x, res.system.coords.ravel()), cap
        assert res.f == res.trace.records[-1].f, cap
        assert res.f == pytest.approx(energy_total(res.system).total, rel=1e-12, abs=1e-9), cap


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
def test_deadline_ends_the_run_at_its_last_accepted_configuration(incremental, monkeypatch):
    import ffmin.optimizers.wiggle as wiggle

    made = []

    for name in ("energy_total", "delta_energy_atom_move", "exact_delta_atom_move"):
        monkeypatch.setattr(wiggle, name, counted(made, getattr(wiggle, name)))

    class DeadlineOracle(wiggle.ObjectiveOracle):
        """Moves the runs' clock two hours on once it has counted k calls, so
        the time budget runs out at a chosen call without waiting on a clock."""

        def charge(self, values, grads):
            super().charge(values, grads)
            # the six axis probes are charged at once, so the count can
            # step past k
            if self.value_calls >= k:
                fired.append(self.value_calls)

    s = make_chain_system(12, seed=0, strain=0.3)
    # epoch 3: some deadlines fall just before a resync
    config = WiggleConfig(seed=1, epoch_iterations=3, use_incremental_coulomb=incremental)
    ends = set()
    for k in range(2, 61):
        made.clear()
        fired = []
        with monkeypatch.context() as mp, shifted_clock(lambda: 7200.0 if fired else 0.0):
            mp.setattr(wiggle, "ObjectiveOracle", DeadlineOracle)
            # every iteration makes a call, so a deadline that never fires
            # ends the run at the iteration budget, not the wall budget
            res = atom_wiggle(s, config, StopCriteria(max_iterations=k, max_wall_time=3600.0,
                                                      **NO_TOL))
        assert res.status == res.trace.status == TIME_BUDGET, k
        assert fired and k <= fired[0] < k + 6, k
        assert len(made) == fired[0], k  # no evaluation after the refusal
        # the run ends at its last accepted configuration: that of a run
        # stopped after as many iterations
        ref = atom_wiggle(s, config, StopCriteria(max_iterations=res.iterations, **NO_TOL))
        assert np.array_equal(res.x, ref.x), k
        assert np.array_equal(res.x, res.system.coords.ravel()), k
        assert res.f == res.trace.records[-1].f, k
        rows, ref_rows = record_rows(res), record_rows(ref)
        assert np.array_equal(rows[:-1], ref_rows[:-1], equal_nan=True), k
        if rows[-1, 4] == ref_rows[-1, 4]:
            ends.add("iteration")
            assert np.array_equal(rows[-1], ref_rows[-1], equal_nan=True), k
        else:
            # a refused resync still records the iteration's move, at the
            # running energy
            ends.add("resync")
            assert rows[-1, 4] == ref_rows[-1, 4] - 1 == fired[0], k
            assert (rows[-1, 0], rows[-1, 3]) == (ref_rows[-1, 0], ref_rows[-1, 3]), k
            assert res.f == pytest.approx(ref.f, rel=1e-12, abs=1e-9), k
    assert ends == ({"iteration", "resync"} if incremental else {"iteration"})
