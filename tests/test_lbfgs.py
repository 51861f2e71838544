import math

import numpy as np
import pytest

import naive_oracles as naive
from ffmin import energy
from ffmin.bench import QuadraticInstance
from ffmin.cli import main
from ffmin.linesearch import NO_RELAXATION, FOUND, LineSearchResult
from ffmin.optimizers import (
    CONVERGED,
    LINESEARCH_FAILURE,
    ORACLE_BUDGET,
    CgVariant,
    StopCriteria,
    cg,
    lbfgs,
    make_linesearch,
    steepest_descent,
)
from ffmin.optimizers.common import (
    ARMIJO_C1,
    BACKTRACK_MAX,
    BACKTRACK_MIN,
    DescentRule,
    LineSearcher,
    descend,
)
from ffmin.optimizers.lbfgs import LbfgsMemory, _LbfgsRule, lbfgs_direction
from ffmin.oracle import FunctionOracle, MolecularOracle
from ffmin.synth import make_chain_system
from ffmin.sysio import load_system

NO_TOL = dict(gradient_norm_rtol=0.0)


# ---------------------------------------------------------------- direction

def test_empty_memory_gives_normalized_antigradient():
    mem = LbfgsMemory(3)
    d = lbfgs_direction(mem, np.array([3.0, 4.0]))
    assert np.array_equal(d, np.array([-0.6, -0.8]))
    assert np.array_equal(lbfgs_direction(mem, np.zeros(2)), np.zeros(2))


def test_single_pair_with_s_equal_y_gives_identity_metric():
    # s = y makes the implied inverse hessian exactly the identity
    mem = LbfgsMemory(2)
    v = np.array([1.0, 2.0, 2.0])
    assert mem.push(v, v)
    g = np.array([0.3, -1.1, 0.7])
    assert np.allclose(lbfgs_direction(mem, g), -g, atol=1e-15)


def test_two_loop_matches_dense_bfgs_reference():
    rng = np.random.default_rng(1)
    pairs = []
    mem = LbfgsMemory(5)
    for _ in range(3):
        s = rng.standard_normal(6)
        y = s + 0.3 * rng.standard_normal(6)
        if float(s @ y) <= 0:
            continue
        pairs.append((s, y))
        assert mem.push(s, y)
    g = rng.standard_normal(6)
    got = lbfgs_direction(mem, g)
    want = naive.dense_bfgs_direction(pairs, g)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_full_memory_of_conjugate_pairs_recovers_newton_direction():
    # hereditary property: after n independent pairs with y = A s the
    # implied metric is exactly the inverse of A, whatever the scaling of
    # H0, because conjugacy makes earlier corrections invisible to later s
    inst = QuadraticInstance.from_spectrum([1.0, 2.5, 6.0, 9.0], seed=2)
    A = inst.A
    mem = LbfgsMemory(4)
    x = inst.x0.copy()
    g = inst.gradient(x)
    p = -g
    for _ in range(4):
        h = -float(g @ p) / float(p @ (A @ p))
        s = h * p
        x = x + s
        g_new = inst.gradient(x)
        assert mem.push(s, A @ s)
        beta = float(g_new @ g_new) / float(g @ g)
        p = -g_new + beta * p
        g = g_new
    rng = np.random.default_rng(3)
    g_test = rng.standard_normal(4)
    d = lbfgs_direction(mem, g_test)
    want = -np.linalg.solve(A, g_test)
    assert np.linalg.norm(d - want) <= 1e-8 * np.linalg.norm(want)


def test_eviction_keeps_only_the_newest_pairs():
    rng = np.random.default_rng(4)
    mem = LbfgsMemory(2)
    pairs = []
    for _ in range(3):
        s = rng.standard_normal(5)
        y = s + 0.2 * rng.standard_normal(5)
        if float(s @ y) <= 0:
            y = s
        pairs.append((s, y))
        mem.push(s, y)
    assert len(mem) == 2
    g = rng.standard_normal(5)
    got = lbfgs_direction(mem, g)
    want = naive.dense_bfgs_direction(pairs[-2:], g)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_memory_rejects_flat_and_negative_curvature():
    mem = LbfgsMemory(2)
    s = np.array([1.0, 0.0])
    assert not mem.push(s, np.array([0.0, 1.0]))  # <s,y> = 0
    assert not mem.push(s, np.array([-1.0, 0.0]))  # negative curvature
    # <s,y> = 1e-9 > 0, but below CURVATURE_RTOL * |s| * |y| ~ 1e-12 * 1 * 1e6
    assert not mem.push(s, np.array([1e-9, 1e6]))
    assert len(mem) == 0
    mem.push(s, s)
    mem.clear()
    assert len(mem) == 0


def test_a_rejected_pair_clears_the_memory():
    rule = _LbfgsRule(3)
    rule.advance(np.zeros(2), np.array([-1.0, 0.0]), np.array([1.0, 0.0]), np.zeros(2))
    assert len(rule.memory) == 1 and rule.natural_step
    # negative curvature along the step: no pair, and the memory goes
    rule.advance(np.array([1.0, 0.0]), np.zeros(2), np.array([2.0, 0.0]),
                 np.array([-1.0, 0.0]))
    assert len(rule.memory) == 0 and not rule.natural_step


def test_memory_depth_validation():
    with pytest.raises(ValueError, match="m"):
        LbfgsMemory(0)


# ------------------------------------------------------------------ driver

def test_lbfgs_requires_a_linesearch():
    inst = QuadraticInstance.isotropic(3)
    with pytest.raises(TypeError, match="linesearch"):
        lbfgs(inst.oracle(), inst.x0, m=3)


def test_lbfgs_small_quadratic_converges_fast():
    inst = QuadraticInstance.random(2, 10.0, seed=5)
    g0 = float(np.linalg.norm(inst.gradient(inst.x0)))
    stop = StopCriteria(max_iterations=10, gradient_norm_tol=1e-8 * g0, **NO_TOL)
    res = lbfgs(inst.oracle(), inst.x0, m=3, linesearch=make_linesearch("par"),
                stop=stop)
    assert res.status == CONVERGED
    assert res.iterations <= 10


def test_lbfgs_handles_ill_conditioned_quadratic():
    inst = QuadraticInstance.random(20, 1000.0, seed=6)
    res = lbfgs(inst.oracle(), inst.x0, m=8, linesearch=make_linesearch("par"))
    assert res.status == CONVERGED
    assert inst.gap(res.x) <= 1e-8 * inst.gap(inst.x0)


def test_lbfgs_accepted_f_is_monotone():
    inst = QuadraticInstance.random(12, 100.0, seed=7)
    res = lbfgs(inst.oracle(), inst.x0, m=5, linesearch=make_linesearch("h"))
    fs = [r.f for r in res.trace.records]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


def pseudo_huber_oracle(n):
    """f = sum(sqrt(1 + x_i^2)): far from 0 the curvature is small, so a
    quasi-Newton step there overshoots the minimum by far."""
    return FunctionOracle(n, lambda x: float(np.sqrt(1.0 + x * x).sum()),
                          lambda x: x / np.sqrt(1.0 + x * x))


def test_lbfgs_clears_memory_once_then_reports_failure():
    class SucceedThenFail:
        def __init__(self):
            self.calls = 0
            self.directions = []

        def describe(self):
            return {"kind": "stub"}

        def search(self, oracle, x, r, f0, g0=None, h=None):
            self.calls += 1
            self.directions.append(np.array(r, copy=True))
            if self.calls == 1:
                h = 0.5
                return LineSearchResult(h, oracle.value(x + h * r), 1, FOUND)
            return LineSearchResult(0.0, f0, 1, NO_RELAXATION)

    oracle = pseudo_huber_oracle(5)
    stub = SucceedThenFail()
    res = lbfgs(oracle, np.array([6.0, -4.0, 5.0, -7.0, 3.0]), m=3, linesearch=stub)
    assert res.status == LINESEARCH_FAILURE
    assert res.iterations == 1
    # the natural step of iteration 2 overshoots, and so does its backtrack
    # (the curvature far out is small), so call 2 runs; it fails with one
    # stored pair -> memory cleared, call 3 retries along the plain
    # antigradient without a natural probe, fails again, run stops
    assert stub.calls == 3
    # start point, call 1's probe, the natural probe and its backtrack
    assert oracle.value_calls == 4
    g1 = oracle.gradient(res.x)
    want = -g1 / np.linalg.norm(g1)
    assert np.allclose(stub.directions[2], want, atol=1e-12)


def test_lbfgs_stationary_start():
    inst = QuadraticInstance.random(4, 5.0, seed=9)
    res = lbfgs(inst.oracle(), inst.x_star, m=3, linesearch=make_linesearch("par"))
    assert res.status == CONVERGED
    assert res.iterations == 0


# ------------------------------------------------------------- natural step

class CountingSearch(LineSearcher):
    """A line searcher that logs the warm start h (None: the configured h0)
    and the value calls of each search it runs. A planted warm start stands
    in for h0, as one left by an earlier search would."""

    def __init__(self, kind, planted=None):
        super().__init__(make_linesearch(kind).config)
        self.planted = planted
        self.starts = []
        self.calls = []

    def search(self, oracle, x, r, f0, g0=None, h=None):
        h = self.planted if h is None else h
        self.starts.append(h)
        res = super().search(oracle, x, r, f0, g0, h)
        self.calls.append(res.oracle_calls)
        return res


def iteration_costs(res):
    """(value calls, gradient calls) spent by each iteration."""
    recs = res.trace.records
    return [(b.value_calls - a.value_calls, b.grad_calls - a.grad_calls)
            for a, b in zip(recs, recs[1:])]


def test_accepted_natural_step_costs_one_value_and_one_kept_gradient(monkeypatch):
    system = make_chain_system(12, seed=0, strain=0.3)
    started = []
    init = energy._Sweep.__init__

    def counting(self, *args):
        started.append(1)
        init(self, *args)

    monkeypatch.setattr(energy._Sweep, "__init__", counting)
    oracle = MolecularOracle(system)
    ls = CountingSearch("par")
    res = lbfgs(oracle, system.coords.ravel(), m=3, linesearch=ls,
                stop=StopCriteria(max_iterations=10, **NO_TOL))
    costs = iteration_costs(res)
    # iteration 1 (empty memory) only searches; iteration 2 takes its natural step
    assert costs[:2] == [(ls.calls[0], 1), (1, 1)]
    # one value sweep per value call: every gradient after the start point
    # finished the sweep of the probe it was asked at
    assert len(started) == oracle.value_calls
    # a natural step leaves the warm start where the last search put it: each
    # search starts from the step of the one before
    searched = [rec.step for rec, (values, _) in zip(res.trace.records[1:], costs)
                if values > 1 or rec.iteration == 1]
    assert len(searched) == len(ls.calls) < res.iterations
    assert ls.starts == [None] + [abs(h) for h in searched[:-1]]


class ScaledAntigradient(DescentRule):
    """d = -t g, offered as a natural step."""

    natural_step = True

    def __init__(self, t):
        self.t = t

    def direction(self, oracle, k, x, f, g, gn):
        return x, f, g, gn, -self.t * g


def half_square_oracle(nan_below=0.0):
    """f = |x|^2 / 2, NaN where |x| < nan_below."""
    return FunctionOracle(3, lambda x: math.nan if x @ x < nan_below ** 2 else 0.5 * float(x @ x),
                          lambda x: x.copy())


X0 = np.array([1.0, -2.0, 0.5])


def one_step(t, ls, stop=None):
    """One descend() iteration with d = -t g on f = |x|^2 / 2 from X0."""
    return descend(half_square_oracle(), X0, stop or StopCriteria(max_iterations=1, **NO_TOL),
                   {}, ScaledAntigradient(t), ls)


@pytest.mark.parametrize("t, natural", [(1.0, True), (2.0 - ARMIJO_C1, False)])
def test_natural_step_needs_armijo(t, natural):
    # on f = |x|^2 / 2 the step |d| with d = -t g lowers f for 0 < t < 2,
    # and meets Armijo's condition only for t <= 2 - 2 * ARMIJO_C1
    ls = CountingSearch("h")
    res = one_step(t, ls)
    (cost,) = iteration_costs(res)
    step = res.trace.records[1].step
    dn = t * np.linalg.norm(X0)
    if natural:
        assert (cost, ls.calls) == ((1, 1), [])
        assert step == dn
    else:
        # a miss costs the natural probe plus one backtrack to the vertex,
        # which lies at |d| / t, past the upper clamp: no search runs
        assert (cost, ls.calls) == ((2, 1), [])
        assert step == BACKTRACK_MAX * dn
    assert res.f < 0.5 * float(X0 @ X0)


@pytest.mark.parametrize("t, fraction", [(2.0 - ARMIJO_C1, BACKTRACK_MAX), (4.0, 0.25),
                                         (12.0, BACKTRACK_MIN)])
def test_a_missed_natural_step_backtracks_to_the_clamped_vertex(t, fraction):
    # the parabola through f(0), the slope and the probe at |d| = t |g| is f
    # itself, so its vertex is the minimizer at |g| = |d| / t, clamped to
    # [BACKTRACK_MIN, BACKTRACK_MAX] |d|; each step meets Armijo's condition
    ls = CountingSearch("h", planted=0.37)  # a warm start left by an earlier search
    res = one_step(t, ls)
    assert iteration_costs(res) == [(2, 1)]
    assert res.trace.records[1].step == pytest.approx(fraction * t * np.linalg.norm(X0),
                                                      rel=1e-12)
    # no search ran, from its warm start or any other
    assert ls.calls == [] and ls.starts == []
    assert res.f < 0.5 * float(X0 @ X0)


class NaturalStepAt(ScaledAntigradient):
    """d = -t g, offered as a natural step at iteration `at` only."""

    def __init__(self, t, at):
        super().__init__(t)
        self.at = at

    def direction(self, oracle, k, x, f, g, gn):
        self.natural_step = k + 1 == self.at
        return super().direction(oracle, k, x, f, g, gn)


@pytest.mark.parametrize("t", [0.5, 2.0 - ARMIJO_C1, 4.0, 12.0])
def test_a_natural_step_leaves_the_warm_start_of_the_last_search(t):
    # iteration 1 searches, iteration 2 takes its natural step (t = 0.5) or
    # the backtrack, and iteration 3 searches from iteration 1's step
    ls = CountingSearch("h")
    res = descend(half_square_oracle(), X0, StopCriteria(max_iterations=3, **NO_TOL), {},
                  NaturalStepAt(t, 2), ls)
    assert iteration_costs(res)[1] == (1 if t == 0.5 else 2, 1)
    assert ls.starts == [None, abs(res.trace.records[1].step)]


def test_a_missed_backtrack_runs_the_search_from_its_warm_start():
    # t = 30 puts the vertex at |d| / 30, below the lower clamp, and the
    # clamped step 3 |g| lands above f(X0)
    ls = CountingSearch("h", planted=0.37)
    res = one_step(30.0, ls)
    (cost,) = iteration_costs(res)
    assert ls.starts == [0.37]
    assert cost == (2 + ls.calls[0], 1)
    assert res.f < 0.5 * float(X0 @ X0)


def test_nan_natural_probe_falls_back_to_the_search():
    # the natural step lands on 0, where f is NaN; ls_h's probes stay clear.
    # A NaN probe makes no backtrack: the search runs at once
    oracle = half_square_oracle(nan_below=1e-3)
    ls = CountingSearch("h")
    res = descend(oracle, X0, StopCriteria(max_iterations=1, **NO_TOL), {},
                  ScaledAntigradient(1.0), ls)
    (cost,) = iteration_costs(res)
    assert len(ls.calls) == 1
    assert cost == (1 + ls.calls[0], 1)
    assert math.isfinite(res.f) and res.f < 0.5 * float(X0 @ X0)
    assert all(math.isfinite(r.f) for r in res.trace.records)


def test_overflowing_natural_probe_falls_back_to_the_search():
    # |d| = 1e150: the natural probe overflows the chain's torsion energy,
    # which MolecularOracle raises; in descend() it is a probe that does not
    # relax, so, as for a NaN, no backtrack is made and the search runs at once
    system = make_chain_system(6)
    x0 = system.coords.ravel()
    g = energy.gradient_total(system)
    t = 1e150 / np.linalg.norm(g)
    with pytest.raises(energy.NonFiniteEnergyError, match="torsion energy is not finite"):
        MolecularOracle(system).value(x0 - t * g)
    ls = CountingSearch("h")
    res = descend(MolecularOracle(system), x0, StopCriteria(max_iterations=1, **NO_TOL), {},
                  ScaledAntigradient(t), ls)
    (cost,) = iteration_costs(res)
    assert len(ls.calls) == 1
    assert cost == (1 + ls.calls[0], 1)
    assert res.f < energy.energy_total(system).total


SEARCH_METHODS = {
    "lbfgs": lambda o, x0, ls, stop: lbfgs(o, x0, m=3, linesearch=ls, stop=stop),
    "sd": lambda o, x0, ls, stop: steepest_descent(o, x0, ls, stop),
    "cg": lambda o, x0, ls, stop: cg(o, x0, CgVariant("prp"), ls, stop),
}


@pytest.mark.parametrize("method", sorted(SEARCH_METHODS))
def test_only_a_nonempty_lbfgs_memory_makes_a_natural_probe(method):
    system = make_chain_system(12, seed=0, strain=0.3)
    ls = CountingSearch("par")
    res = SEARCH_METHODS[method](MolecularOracle(system), system.coords.ravel(), ls,
                                 StopCriteria(max_iterations=20, **NO_TOL))
    value_costs = [v for v, _ in iteration_costs(res)]
    assert value_costs[0] == ls.calls[0]  # the first iteration only searches
    if method != "lbfgs":
        assert sum(value_costs) == sum(ls.calls)
        return
    # no retry on this chain: every later iteration probes its natural step,
    # and each miss (a cost above 1) adds one backtrack; a search runs only
    # where that misses too (a cost above 2)
    backtracks = sum(1 for v in value_costs[1:] if v > 1)
    assert backtracks > 0
    assert sum(value_costs) == sum(ls.calls) + res.iterations - 1 + backtracks
    assert len(ls.calls) == 1 + sum(1 for v in value_costs[1:] if v > 2)


def test_budget_landing_on_the_natural_probe_returns_the_lowest_point():
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()

    def run(**budget):
        return lbfgs(MolecularOracle(system), x0, m=3, linesearch=make_linesearch("par"),
                     stop=StopCriteria(**budget, **NO_TOL))

    free = run(max_iterations=2)
    assert iteration_costs(free)[1] == (1, 1)  # iteration 2 is a natural step
    _, first, second = free.trace.records
    probe_call = first.value_calls + first.grad_calls + 1
    # the natural probe is refused: the last iterate, with its gradient
    res = run(max_iterations=1000, max_oracle_calls=probe_call - 1)
    assert res.status == ORACLE_BUDGET
    assert (res.f, res.grad_norm) == (first.f, first.grad_norm)
    # the natural probe is the last call: it is the lowest point, without |g|
    res = run(max_iterations=1000, max_oracle_calls=probe_call)
    assert res.status == ORACLE_BUDGET
    assert res.f == second.f < first.f
    assert res.x.tobytes() == free.x.tobytes()
    assert math.isnan(res.grad_norm)


@pytest.mark.parametrize("t, probe_is_lowest", [(2.0 - ARMIJO_C1, True), (3.0, False)])
def test_budget_refusing_the_backtrack_returns_the_lowest_point(t, probe_is_lowest):
    # the start point's fused call and the natural probe use the cap of 3.
    # With t just under 2 the missed probe lies below f(X0) and is returned,
    # without |g|; with t = 3 it lies above, and X0 is returned with its |g|
    res = one_step(t, CountingSearch("h"),
                   StopCriteria(max_iterations=1000, max_oracle_calls=3, **NO_TOL))
    assert res.status == ORACLE_BUDGET
    probe = X0 - t * X0
    if probe_is_lowest:
        assert res.f == 0.5 * float(probe @ probe) < 0.5 * float(X0 @ X0)
        assert np.allclose(res.x, probe, rtol=0, atol=1e-15)
        assert math.isnan(res.grad_norm)
    else:
        assert res.x.tobytes() == X0.tobytes()
        assert res.grad_norm == np.linalg.norm(X0)


def test_lbfgs_leaves_a_negative_curvature_region(tmp_path, capsys):
    # make-demo seed 4's cand_03, a scrambled start, with the CLI's defaults.
    # A memory that outlives a rejected pair traps this run: every natural
    # step misses, ls_par meets negative curvature at its warm start (3.85e-6)
    # and returns that step, the pair is rejected, and the direction never
    # changes, so the run crawls to max_iters at f = +64 instead of -76.19
    assert main(["make-demo", str(tmp_path), "--candidates", "4", "--seed", "4"]) == 0
    capsys.readouterr()
    system = load_system(tmp_path / "candidates" / "cand_03.ffs")
    res = lbfgs(MolecularOracle(system), system.coords.ravel(), m=3,
                linesearch=make_linesearch("par"), stop=StopCriteria(max_iterations=1000))
    assert res.status == CONVERGED
    assert res.f < -76.0
