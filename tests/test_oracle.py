"""MolecularOracle's kept value sweeps: a gradient at a point the oracle has
just valued finishes that value sweep instead of sweeping again. These tests
check that nothing outside the oracle can tell: every gradient is the bytes
of a fresh energy_and_gradient, and counts and a run's budget refusals are
unchanged. The last test checks how a FunctionOracle counts and converts."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_cluster_system
from ffmin import energy
from ffmin.energy import energy_and_gradient, energy_total, gradient_total
from ffmin.optimizers import (
    ORACLE_BUDGET,
    TIME_BUDGET,
    CgVariant,
    StopCriteria,
    cg,
    lbfgs,
    make_linesearch,
)
from ffmin.optimizers.common import Run
from ffmin.oracle import FunctionOracle, MolecularOracle
from ffmin.synth import make_chain_system
from ffmin.tracefile import strip_wall_column, trace_text


SYSTEMS = {
    "chain": make_chain_system(14, seed=3, strain=0.3),
    "chain-cutoff7": make_chain_system(14, seed=3, strain=0.3, cutoff=7.0),
    "two-cluster": two_cluster_system(2, n=16),
}


@contextlib.contextmanager
def counted_sweeps():
    """Count the value sweeps started (each gather of the edge table)."""
    started = []
    init = energy._Sweep.__init__

    def counting(self, system, x):
        started.append(1)
        init(self, system, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy._Sweep, "__init__", counting)
        yield started


def on_grid(x):
    """x rounded to multiples of 2**-20, so adding 1.0 to it is exact."""
    return np.round(x * 2.0**20) / 2.0**20


def probes(system, seed, k, scale):
    rng = np.random.default_rng(seed)
    x0 = system.coords.ravel()
    return [on_grid(x0 + scale * rng.standard_normal(x0.size)) for _ in range(k)]


def fresh_gradient(system, x):
    return energy_and_gradient(system, x)[1].tobytes()


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 5), scale=st.sampled_from([1e-3, 0.05]))
def test_kept_sweeps_give_the_bytes_of_a_fresh_sweep(name, seed, k, scale):
    system = SYSTEMS[name]
    xs = probes(system, seed, k, scale)
    oracle = MolecularOracle(system)
    values = grads = 0

    def value_all(extra=()):
        nonlocal values
        fs = [oracle.value(x) for x in (*xs, *extra)]
        values += len(fs)
        return fs

    def gradient(x, reuses):
        nonlocal grads
        with counted_sweeps() as started:
            g = oracle.gradient(x)
        grads += 1
        assert g.tobytes() == fresh_gradient(system, x)
        assert len(started) == (0 if reuses else 1)

    fs = value_all()
    low, last = xs[int(np.argmin(fs))], xs[-1]
    # every coordinate and difference is exact, so a shift by 1.0 ties in f
    twin = low + 1.0
    assert energy_total(system, twin) == energy_total(system, low)

    # the probe valued last, then (the store emptied) the lowest probe valued
    # before a tie with it: only the x valued last reuses its sweep
    gradient(last, reuses=True)
    value_all((twin,))
    gradient(low, reuses=False)
    value_all((twin,))
    gradient(twin, reuses=True)
    # a point never valued
    value_all()
    gradient(on_grid(low + 0.01), reuses=False)
    # the last probe's own array, edited in place after it was valued
    value_all()
    edited = last.copy()
    last[0] += 0.01
    gradient(last, reuses=False)
    assert fresh_gradient(system, last) != fresh_gradient(system, edited)
    # a call a run refuses past either budget (a cap the run has spent, a
    # past deadline) evaluates nothing, counts nothing and keeps the kept sweep
    value_all()
    cap = 2
    for budget, status in ((dict(max_oracle_calls=cap), ORACLE_BUDGET),
                           (dict(max_wall_time=0.0), TIME_BUDGET)):
        run = Run(oracle, StopCriteria(**budget), {})
        run.charge(cap)  # spent before begin() arms the budgets
        run.begin(last, 0.0, math.nan)
        with counted_sweeps() as started, run.budgets():
            run.gradient(last)
        assert run.status == status
        assert started == []
        assert (oracle.value_calls, oracle.grad_calls) == (values, grads)
        assert (run.value_calls, run.grad_calls) == (cap, 0)
    gradient(last, reuses=True)
    assert (oracle.value_calls, oracle.grad_calls) == (values, grads)


def test_fused_call_at_a_kept_point_matches_and_empties_the_store():
    system = SYSTEMS["chain"]
    x = system.coords.ravel().copy()
    oracle = MolecularOracle(system)
    f = oracle.value(x)
    with counted_sweeps() as started:
        f2, g = oracle.value_and_gradient(x)
        assert started == []
        bd, g_ref = energy_and_gradient(system, x)
        assert (f2, g.tobytes()) == (f, g_ref.tobytes()) == (bd.total, g.tobytes())
        oracle.gradient(x)  # nothing is kept any more: a fresh sweep
        assert len(started) == 2


RUNS = {
    "lbfgs-par": lambda orc, x0, stop: lbfgs(orc, x0, m=5, linesearch=make_linesearch("par"),
                                             stop=stop),
    "lbfgs-h": lambda orc, x0, stop: lbfgs(orc, x0, m=5, linesearch=make_linesearch("h"),
                                           stop=stop),
    "cg-prp": lambda orc, x0, stop: cg(orc, x0, CgVariant("prp"), make_linesearch("par"),
                                       stop=stop),
}


@pytest.mark.parametrize("method", sorted(RUNS))
def test_kept_sweeps_are_invisible_to_the_optimizers(method):
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()
    stop = StopCriteria(max_iterations=400, gradient_norm_tol=1e-4, gradient_norm_rtol=0.0)
    plain = FunctionOracle(x0.size, lambda x: energy_total(system, x).total,
                           lambda x: gradient_total(system.with_coords(x)))
    results = [RUNS[method](orc, x0, stop) for orc in (MolecularOracle(system), plain)]
    kept, ref = results
    assert strip_wall_column(trace_text(kept.trace)) == strip_wall_column(trace_text(ref.trace))
    assert kept.x.tobytes() == ref.x.tobytes()
    assert (kept.f, kept.status) == (ref.f, ref.status)


@pytest.mark.parametrize("method", sorted(RUNS))
def test_no_sweep_starts_while_the_store_holds_one(method, monkeypatch):
    system = make_chain_system(12, seed=0, strain=0.3)
    oracle = MolecularOracle(system)
    held = []
    init = energy._Sweep.__init__

    def checked(self, *args):
        held.append(oracle._kept.slot is not None)
        init(self, *args)

    monkeypatch.setattr(energy._Sweep, "__init__", checked)
    stop = StopCriteria(max_iterations=200, gradient_norm_tol=1e-4, gradient_norm_rtol=0.0)
    x0 = system.coords.ravel()
    RUNS[method](oracle, x0, stop)
    # and a gradient at an earlier probe, which sweeps afresh
    oracle.value(x0)
    oracle.value(on_grid(x0 + 0.01))
    oracle.gradient(x0)
    assert len(held) > oracle.value_calls and not any(held)


def test_a_function_oracle_counts_each_call_first_and_converts_its_results():
    oracle = FunctionOracle(2, lambda x: x @ x, lambda x: [int(v) for v in 2 * x])
    f, g = oracle.value_and_gradient([1, 2])
    assert (type(f), f) == (float, 5.0)
    assert g.dtype == np.float64 and g.tolist() == [2.0, 4.0]
    assert oracle.gradient([0.5, 1.0]).tolist() == [1.0, 2.0]
    assert (oracle.value_calls, oracle.grad_calls) == (1, 2)
    # without a gradient, a gradient call is counted and then refused
    oracle = FunctionOracle(2, lambda x: x @ x)
    assert oracle.value([1.0, 2.0]) == 5.0
    for call in (oracle.gradient, oracle.value_and_gradient):
        with pytest.raises(NotImplementedError, match="no gradient supplied"):
            call(np.zeros(2))
    assert (oracle.value_calls, oracle.grad_calls) == (2, 2)
