"""The two optimizer loops: the hard oracle-call budget and the failure
branches of the line-search methods."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ffmin.optimizers.common as common
from conftest import record_rows, shifted_clock
from ffmin.energy import (
    EnergyEvaluationError,
    NonFiniteEnergyError,
    energy_total,
    gradient_total,
)
from ffmin.model import AtomSpec, MolecularSystem
from ffmin.oracle import FunctionOracle, MolecularOracle
from ffmin.optimizers import (
    ITERATION_BUDGET,
    LINESEARCH_FAILURE,
    ORACLE_BUDGET,
    TIME_BUDGET,
    CgVariant,
    DivergenceError,
    StopCriteria,
    WiggleConfig,
    atom_wiggle,
    cg,
    fgm,
    gradient_descent_fixed,
    lbfgs,
    make_linesearch,
    ofgm,
    steepest_descent,
)
from ffmin.synth import make_chain_system

NO_TOL = dict(gradient_norm_rtol=0.0)

# ------------------------------------------------- one maker of oracle calls

ORACLE_METHODS = {"value", "gradient", "value_and_gradient", "charge"}


def oracle_calls_outside_run(source):
    """(line, method) of each call of an oracle method on the name `oracle`
    or on `self.oracle` outside class Run."""
    found = []

    def is_oracle(node):
        return (isinstance(node, ast.Name) and node.id == "oracle"
                or isinstance(node, ast.Attribute) and node.attr == "oracle"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    def visit(node, in_run):
        in_run = in_run or isinstance(node, ast.ClassDef) and node.name == "Run"
        if (not in_run and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ORACLE_METHODS and is_oracle(node.func.value)):
            found.append((node.lineno, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, in_run)

    visit(ast.parse(source), False)
    return found


def test_only_run_calls_the_oracle():
    # the budgets are the run's, so a call made past the run is never refused
    modules = sorted(Path(common.__file__).parent.glob("*.py"))
    assert len(modules) >= 7
    found = {m.name: calls for m in modules
             if (calls := oracle_calls_outside_run(m.read_text()))}
    assert found == {}


def test_the_oracle_call_finder_sees_calls_outside_run():
    source = """
class Run:
    def value(self, x):
        return self.oracle.value(x)

class Probe:
    def value(self, x):
        return self.oracle.value(x)

def loop(oracle, run, x):
    oracle.charge(1, 0)
    run.gradient(x)
    return oracle.value_and_gradient(x)
"""
    assert oracle_calls_outside_run(source) == [(8, "value"), (11, "charge"),
                                               (13, "value_and_gradient")]


# ------------------------------------------------------ hard oracle budget

# every run capped by calls also gets max_iterations=1000, far above the
# iterations that its cap of at most 60 calls pays for: a call cap that no
# longer binds then fails the test in seconds instead of hanging it

LS_METHODS = {
    "sd": lambda o, x0, ls, stop: steepest_descent(o, x0, ls, stop),
    "lbfgs": lambda o, x0, ls, stop: lbfgs(o, x0, m=3, linesearch=ls, stop=stop),
    "cg": lambda o, x0, ls, stop: cg(o, x0, CgVariant("prp"), ls, stop),
    "fgm": lambda o, x0, ls, stop: fgm(o, x0, ls, stop),
}
L_CHAIN = 2000.0
FIXED_METHODS = {
    "gd": lambda o, x0, stop: gradient_descent_fixed(o, x0, L_CHAIN, stop),
    "ofgm-L": lambda o, x0, stop: ofgm(o, x0, 100, L=L_CHAIN, stop=stop),
}
CASES = ([(name, ls) for name in LS_METHODS for ls in ("h", "par")]
         + [(name, None) for name in FIXED_METHODS])


@pytest.mark.parametrize("name,ls", CASES, ids=[f"{n}-{ls}" if ls else n for n, ls in CASES])
def test_oracle_budget_is_never_exceeded(name, ls):
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()
    for cap in range(2, 61):
        oracle = MolecularOracle(system)
        stop = StopCriteria(max_iterations=1000, max_oracle_calls=cap, **NO_TOL)
        if ls is None:
            res = FIXED_METHODS[name](oracle, x0, stop)
        else:
            res = LS_METHODS[name](oracle, x0, make_linesearch(ls), stop)
        assert res.status == ORACLE_BUDGET, cap
        assert oracle.value_calls + oracle.grad_calls <= cap, cap
        last = res.trace.records[-1]
        assert last.value_calls + last.grad_calls <= cap, cap
        # the cap was the run's: the reused oracle takes a further call
        oracle.value_and_gradient(x0)


# ----------------------------------------- a run depends only on its inputs

REUSE_CASES = CASES + [("wiggle", None)]


@pytest.mark.parametrize("name,ls", REUSE_CASES,
                         ids=[f"{n}-{ls}" if ls else n for n, ls in REUSE_CASES])
def test_a_run_on_used_objects_matches_a_run_on_fresh_ones(name, ls):
    # the run counts its own calls and keeps its own warm start: what an
    # earlier run spent on the oracle, or left in the searcher, changes nothing
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()
    stop = StopCriteria(max_iterations=200, max_oracle_calls=300, gradient_norm_tol=1e-4,
                        **NO_TOL)

    def solve(oracle, searcher):
        if name == "wiggle":
            return atom_wiggle(system, WiggleConfig(seed=1), stop)
        if ls is None:
            return FIXED_METHODS[name](oracle, x0, stop)
        return LS_METHODS[name](oracle, x0, searcher, stop)

    oracle, searcher = MolecularOracle(system), make_linesearch(ls or "par")
    solve(oracle, searcher)
    again = solve(oracle, searcher)
    fresh = solve(MolecularOracle(system), make_linesearch(ls or "par"))
    assert (again.x.tobytes(), again.f, again.status) == (fresh.x.tobytes(), fresh.f,
                                                          fresh.status)
    assert np.array_equal(record_rows(again), record_rows(fresh), equal_nan=True)


def test_a_used_oracle_gives_a_capped_run_its_full_budget():
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()
    oracle = MolecularOracle(system)
    for _ in range(100):
        oracle.value(x0)
    stop = StopCriteria(max_iterations=1000, max_oracle_calls=50, **NO_TOL)
    res = lbfgs(oracle, x0, m=3, linesearch=make_linesearch("par"), stop=stop)
    assert (res.status, res.iterations) == (ORACLE_BUDGET, 23)
    first = res.trace.records[0]
    assert (first.value_calls, first.grad_calls) == (1, 1)
    fresh = lbfgs(MolecularOracle(system), x0, m=3, linesearch=make_linesearch("par"),
                  stop=stop)
    assert np.array_equal(record_rows(res), record_rows(fresh))


@pytest.mark.parametrize("name", [*LS_METHODS, *FIXED_METHODS])
def test_an_exception_inside_a_run_leaves_the_oracle_disarmed(name):
    d = np.array([1.0, 10.0, 100.0])
    calls = []

    def gradient(x):
        calls.append(x)
        if len(calls) == 3:
            raise ZeroDivisionError("third gradient")
        return d * x

    def solve(oracle, stop):
        if name in LS_METHODS:
            return LS_METHODS[name](oracle, np.ones(3), make_linesearch("par"), stop)
        return FIXED_METHODS[name](oracle, np.ones(3), stop)

    def quadratic(grad):
        return FunctionOracle(3, lambda x: 0.5 * float(x @ (d * x)), grad)

    # every method reaches its third gradient within `cap` calls, and then
    # spends more than that in 40 iterations
    cap = 12
    oracle = quadratic(gradient)
    with pytest.raises(ZeroDivisionError, match="third gradient"):
        solve(oracle, StopCriteria(max_oracle_calls=cap, max_wall_time=3600.0, **NO_TOL))
    # the same oracle then runs an uncapped solve that spends more calls than
    # that cap, exactly as a fresh oracle does
    spent = oracle.value_calls + oracle.grad_calls
    free = StopCriteria(max_iterations=40, **NO_TOL)
    res, ref = solve(oracle, free), solve(quadratic(lambda x: d * x), free)
    assert oracle.value_calls + oracle.grad_calls - spent > cap
    assert (res.x.tobytes(), res.f, res.status) == (ref.x.tobytes(), ref.f, ref.status)


@pytest.mark.parametrize("budgets,match", [
    (dict(max_oracle_calls=1), "max_oracle_calls"),
    (dict(max_iterations=None, max_wall_time=math.nan), "max_wall_time"),
    (dict(max_wall_time=math.nan), "max_wall_time"),
    (dict(max_wall_time=-1.0), "max_wall_time"),
    (dict(max_iterations=None, max_wall_time=math.inf), "must be finite"),
    (dict(max_iterations=-5), "max_iterations"),
    (dict(max_iterations=math.nan), "max_iterations"),
    (dict(max_iterations=math.inf), "must be finite"),
    (dict(max_oracle_calls=math.nan), "max_oracle_calls"),
], ids=["calls=1", "time=nan-alone", "time=nan", "time=-1", "time=inf-alone", "iters=-5",
        "iters=nan", "iters=inf", "calls=nan"])
def test_oracle_budget_below_two_calls_is_rejected(budgets, match):
    with pytest.raises(ValueError, match=match):
        StopCriteria(**budgets)


def test_oracle_budget_returns_best_point_seen():
    system = make_chain_system(12, seed=0, strain=0.3)
    oracle = MolecularOracle(system)
    stop = StopCriteria(max_iterations=1000, max_oracle_calls=37, **NO_TOL)
    res = lbfgs(oracle, system.coords.ravel(), m=3, linesearch=make_linesearch("par"),
                stop=stop)
    assert res.status == ORACLE_BUDGET
    assert res.f == min(r.f for r in res.trace.records)
    assert res.f == MolecularOracle(system).value(res.x)


def test_oracle_budget_reports_the_gradient_norm_of_the_returned_point():
    # |g| at the returned point, or nan where the run evaluated no gradient
    # there; never the norm of another iterate
    system = make_chain_system(12, seed=0, strain=0.3)
    kinds = set()
    for cap in range(2, 61):
        stop = StopCriteria(max_iterations=1000, max_oracle_calls=cap, **NO_TOL)
        res = lbfgs(MolecularOracle(system), system.coords.ravel(), m=3,
                    linesearch=make_linesearch("par"), stop=stop)
        assert res.status == ORACLE_BUDGET, cap
        if math.isnan(res.grad_norm):
            kinds.add("probe")
        else:
            kinds.add("iterate")
            assert res.grad_norm == np.linalg.norm(
                gradient_total(system.with_coords(res.x))), cap
        # the returned point's record carries the same norm
        last = [r for r in res.trace.records if r.f == res.f][-1]
        assert np.array_equal(last.grad_norm, res.grad_norm, equal_nan=True), cap
        if cap == 25:
            # the lowest probe: iteration 11's backtrack, accepted in a free
            # run, whose gradient the cap refuses; the last iterate, recorded
            # before it, has |g| = 98.8 and the probe 103.0
            assert math.isnan(res.grad_norm)
    assert kinds == {"probe", "iterate"}


# --------------------------------------------- line searches that always fail

def uphill_oracle():
    """f = |x|^2 / 2 with a gradient that points uphill: every search fails."""
    return FunctionOracle(3, lambda x: 0.5 * float(x @ x), lambda x: -x)


X0 = np.array([1.0, -2.0, 0.5])
# ls_h from h0 = 1 halves down to eps_h = 1e-12: 40 value calls
LS_H_FAIL_CALLS = 40


def counts(res):
    return [(r.value_calls, r.grad_calls) for r in res.trace.records]


def test_sd_stops_at_first_failed_search():
    oracle = uphill_oracle()
    res = steepest_descent(oracle, X0, make_linesearch("h"))
    assert res.status == LINESEARCH_FAILURE
    assert res.iterations == 0
    assert np.array_equal(res.x, X0)
    assert counts(res) == [(1, 1)]
    assert (oracle.value_calls, oracle.grad_calls) == (1 + LS_H_FAIL_CALLS, 1)


def test_cg_stops_at_first_failed_search_along_the_antigradient():
    # the first search runs along p = -g: a retry would repeat it exactly
    oracle = uphill_oracle()
    res = cg(oracle, X0, CgVariant("prp"), make_linesearch("h"))
    assert res.status == LINESEARCH_FAILURE
    assert res.iterations == 0
    assert np.array_equal(res.x, X0)
    assert counts(res) == [(1, 1)]
    assert (oracle.value_calls, oracle.grad_calls) == (1 + LS_H_FAIL_CALLS, 1)


class LowestValueOracle(MolecularOracle):
    """Tracks the lowest energy any value or fused call computed."""

    lowest = np.inf

    def value(self, x):
        f = super().value(x)
        self.lowest = min(self.lowest, f)
        return f

    def value_and_gradient(self, x):
        f, g = super().value_and_gradient(x)
        self.lowest = min(self.lowest, f)
        return f, g


@pytest.mark.parametrize("name,ls", [(n, ls) for n in ("sd", "lbfgs", "cg", "fgm")
                                     for ls in ("h", "par")])
def test_oracle_budget_keeps_the_lowest_probe(name, ls):
    system = make_chain_system(12, seed=0, strain=0.3)
    x0 = system.coords.ravel()
    for cap in range(2, 61):
        oracle = LowestValueOracle(system)
        stop = StopCriteria(max_iterations=1000, max_oracle_calls=cap, **NO_TOL)
        res = LS_METHODS[name](oracle, x0, make_linesearch(ls), stop)
        assert res.status == ORACLE_BUDGET, cap
        assert oracle.lowest < np.inf, cap  # the overrides above saw every value
        assert res.f <= oracle.lowest, cap
        assert energy_total(system, res.x).total == res.f, cap
        # the returned point is always a recorded one
        assert res.f == min(r.f for r in res.trace.records), cap
        best = [r.best_f for r in res.trace.records]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:])), cap


# ------------------------------------------------ status and the time budget

def run_method(name, system, stop):
    """Run one of the CLI's methods on system: wiggle, or LS_METHODS with ls_par,
    or FIXED_METHODS."""
    if name == "wiggle":
        return atom_wiggle(system, WiggleConfig(seed=1), stop)
    oracle, x0 = MolecularOracle(system), system.coords.ravel()
    if name in LS_METHODS:
        return LS_METHODS[name](oracle, x0, make_linesearch("par"), stop)
    return FIXED_METHODS[name](oracle, x0, stop)


@pytest.mark.parametrize("name", ["gd", "sd", "fgm", pytest.param("ofgm-L", id="ofgm"),
                                  "cg", "lbfgs", "wiggle"])
def test_trace_status_is_the_result_status(name):
    system = make_chain_system(12, seed=0, strain=0.3)
    for stop in (StopCriteria(max_iterations=20),
                 StopCriteria(max_iterations=1000, max_oracle_calls=9, **NO_TOL)):
        res = run_method(name, system, stop)
        assert res.status is not None
        assert res.trace.status == res.status


@pytest.mark.parametrize("name", ["sd", "lbfgs", "gd", "wiggle"])
def test_time_budget_ends_at_the_start_point(name):
    system = make_chain_system(12, seed=0, strain=0.3)
    res = run_method(name, system, StopCriteria(max_iterations=None, max_wall_time=0.0))
    assert res.status == res.trace.status == TIME_BUDGET
    assert len(res.trace.records) == 1
    assert np.array_equal(res.x, system.coords.ravel())
    assert res.f == res.trace.records[0].f == energy_total(system).total


# ----------------------------------- a deadline that falls inside an iteration

# the deadline is an hour off, and DeadlineOracle moves the clock past it;
# the call cap, far above the k <= 40 evaluations a case makes, ends a run
# whose clock never moves in about a second instead of never
TIMED = StopCriteria(max_iterations=None, max_oracle_calls=10_000, max_wall_time=3600.0,
                     **NO_TOL)


class DeadlineOracle(LowestValueOracle):
    """Moves the runs' clock two hours on at its k-th evaluation (the start
    point is the first), so the time budget runs out at a chosen call
    without waiting on a clock."""

    def __init__(self, system, k):
        super().__init__(system)
        self.k = k
        self.evaluations = 0
        self.made = [0, 0]  # the value and gradient calls evaluated
        self.late = 0.0  # seconds the clock reads ahead, for shifted_clock

    def _evaluated(self, values, grads):
        self.evaluations += 1
        self.made[0] += values
        self.made[1] += grads
        if self.evaluations == self.k:
            self.late = 7200.0

    def value(self, x):
        f = super().value(x)
        self._evaluated(1, 0)
        return f

    def gradient(self, x):
        g = super().gradient(x)
        self._evaluated(0, 1)
        return g

    def value_and_gradient(self, x):
        fg = super().value_and_gradient(x)
        self._evaluated(1, 1)
        return fg


def run_to_deadline(name, ls, system, k):
    oracle = DeadlineOracle(system, k)
    x0 = system.coords.ravel()
    with shifted_clock(lambda: oracle.late):
        if ls is None:
            res = FIXED_METHODS[name](oracle, x0, TIMED)
        else:
            res = LS_METHODS[name](oracle, x0, make_linesearch(ls), TIMED)
    assert res.status == res.trace.status == TIME_BUDGET, k
    # the refused call was neither evaluated nor counted, and no call followed
    assert oracle.evaluations == k, k
    assert [oracle.value_calls, oracle.grad_calls] == oracle.made, k
    last = res.trace.records[-1]
    assert last.value_calls + last.grad_calls <= sum(oracle.made), k
    return res, oracle


@pytest.mark.parametrize("name,ls", [(n, ls) for n in ("lbfgs", "sd", "cg")
                                     for ls in ("par", "h")])
def test_deadline_inside_a_line_search_returns_the_lowest_probe(name, ls):
    system = make_chain_system(12, seed=0, strain=0.3)
    ends = set()
    for k in range(2, 41):
        res, oracle = run_to_deadline(name, ls, system, k)
        assert res.f == oracle.lowest == energy_total(system, res.x).total, k
        last = res.trace.records[-1]
        assert last.f == res.f and last.iteration == res.iterations, k
        assert np.array_equal(last.grad_norm, res.grad_norm, equal_nan=True), k
        # nan: the lowest probe of the search the deadline interrupted
        ends.add("probe" if math.isnan(res.grad_norm) else "iterate")
    assert ends == {"probe", "iterate"}


@pytest.mark.parametrize("name,ls", [("gd", None), ("ofgm-L", None)])
def test_deadline_inside_an_iteration_returns_the_last_iterate(name, ls):
    system = make_chain_system(12, seed=0, strain=0.3)
    for k in range(2, 31):
        res, _ = run_to_deadline(name, ls, system, k)
        stop = StopCriteria(max_iterations=res.iterations, **NO_TOL)
        ref = FIXED_METHODS[name](MolecularOracle(system), system.coords.ravel(), stop)
        assert ref.status == ITERATION_BUDGET, k
        assert (res.x.tobytes(), res.f, res.grad_norm) == (ref.x.tobytes(), ref.f,
                                                            ref.grad_norm), k
        assert np.array_equal(record_rows(res), record_rows(ref)), k


# ------------------------------------------------------- overflowing probes

H0_OVERFLOW = 1e300  # a first probe of this length overflows the chain's energy


@pytest.mark.parametrize("name,ls", [(n, ls) for n in ("lbfgs", "sd", "cg")
                                     for ls in ("par", "h")])
def test_an_overflowing_probe_does_not_relax(name, ls):
    system = make_chain_system(6)
    x0 = system.coords.ravel()
    f0 = energy_total(system).total
    oracle = MolecularOracle(system)
    res = LS_METHODS[name](oracle, x0, make_linesearch(ls, h0=H0_OVERFLOW),
                           StopCriteria(max_iterations=20, **NO_TOL))
    if ls == "par":
        # ls_par stops at its first, overflowing, probe: a search that found
        # nothing, at the cost of that one value call
        assert res.status == LINESEARCH_FAILURE and res.iterations == 0
        assert (oracle.value_calls, oracle.grad_calls) == (2, 1)
        assert res.f == f0
    else:
        # ls_h contracts past the overflowing probes to a relaxing step
        assert res.status == ITERATION_BUDGET
        assert res.f < f0
    assert all(math.isfinite(r.f) for r in res.trace.records)


def test_an_overflowing_energy_still_raises_outside_a_probe():
    system = make_chain_system(6)
    g = gradient_total(system)
    x = system.coords.ravel() - H0_OVERFLOW * g / np.linalg.norm(g)
    oracle = MolecularOracle(system)
    for call in (oracle.value, oracle.gradient, oracle.value_and_gradient,
                 lambda x: energy_total(system, x)):
        with pytest.raises(NonFiniteEnergyError, match="energy is not finite"):
            call(x)


@pytest.mark.parametrize("name,match", [("gd", r"non-finite objective or gradient at iteration 1"),
                                        ("ofgm-L", r"ofgm diverged at iteration 1: f=nan")])
def test_an_overflowing_fixed_step_diverges(name, match):
    system = make_chain_system(6)
    run = {"gd": lambda o, x0, stop: gradient_descent_fixed(o, x0, 1e-300, stop),
           "ofgm-L": lambda o, x0, stop: ofgm(o, x0, 5, L=1e-300, stop=stop)}[name]
    with pytest.raises(DivergenceError, match=match):
        run(MolecularOracle(system), system.coords.ravel(), StopCriteria(max_iterations=20))


def test_a_degenerate_probe_still_raises():
    # two opposite charges 2 A apart: the first probe of ls_h puts them on
    # top of each other, a named fault of the geometry, not an overflow
    pair = MolecularSystem(
        atoms=(AtomSpec(0, "A", 1.0, 3.0, 0.0), AtomSpec(1, "B", -1.0, 3.0, 0.0)),
        coords=np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    x0 = pair.coords.ravel()
    g = gradient_total(pair)
    h0 = 1.0 / (-g[0] / np.linalg.norm(g))  # the step that closes the 2 A gap
    with pytest.raises(EnergyEvaluationError, match=r"nonbonded pair \(0,1\): coincident") as exc:
        steepest_descent(MolecularOracle(pair), x0, make_linesearch("h", h0=h0),
                         StopCriteria(max_iterations=5))
    assert not isinstance(exc.value, NonFiniteEnergyError)
