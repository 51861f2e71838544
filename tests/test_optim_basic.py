import math

import numpy as np
import pytest

from ffmin.bench import QuadraticInstance, gd_bound
from ffmin.oracle import FunctionOracle
from ffmin.optimizers import (
    CONVERGED,
    ITERATION_BUDGET,
    LINESEARCH_FAILURE,
    DivergenceError,
    StopCriteria,
    gradient_descent_fixed,
    make_linesearch,
    steepest_descent,
)

NO_TOL = dict(gradient_norm_rtol=0.0)


def iso_oracle(L=4.0, n=2):
    return FunctionOracle(
        n,
        lambda x: 0.5 * L * float(x @ x),
        lambda x: L * x,
    )


def trace_fields(res):
    return [
        (r.iteration, r.f, r.grad_norm, r.step, r.value_calls, r.grad_calls, r.best_f)
        for r in res.trace.records
    ]


# ------------------------------------------------------------ fixed-step gd

def test_gd_isotropic_converges_in_one_exact_step():
    res = gradient_descent_fixed(iso_oracle(), np.array([1.0, 2.0]), L=4.0)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert np.array_equal(res.x, np.zeros(2))
    assert res.f == 0.0
    assert len(res.trace.records) == 2
    assert res.trace.records[0].f == pytest.approx(10.0)


def test_gd_meets_its_rate_bound():
    inst = QuadraticInstance.random(20, 10.0, seed=1)
    for n_iters in (1, 2, 5, 10, 25, 50):
        stop = StopCriteria(max_iterations=n_iters, **NO_TOL)
        res = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
        assert res.status == ITERATION_BUDGET
        bound = gd_bound(inst.L, inst.R, n_iters, inst.chi)
        assert inst.gap(res.x) <= 1.05 * bound


def test_gd_stops_immediately_inside_tolerance():
    orc = iso_oracle()
    res = gradient_descent_fixed(
        orc, np.array([1.0, 2.0]), L=4.0,
        stop=StopCriteria(gradient_norm_tol=1e6, gradient_norm_rtol=0.0),
    )
    assert res.status == CONVERGED
    assert res.iterations == 0
    assert np.array_equal(res.x, np.array([1.0, 2.0]))


def test_gd_input_validation():
    with pytest.raises(ValueError, match="L"):
        gradient_descent_fixed(iso_oracle(), np.zeros(2), L=0.0)
    with pytest.raises(ValueError, match="entries"):
        gradient_descent_fixed(iso_oracle(), np.zeros(3), L=1.0)


def test_gd_raises_on_divergence():
    orc = FunctionOracle(2, lambda x: -float(x @ x), lambda x: -2.0 * x)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            gradient_descent_fixed(
                orc, np.ones(2), L=1.0,
                stop=StopCriteria(max_iterations=10_000, **NO_TOL),
            )


def test_gd_trace_counts_fused_calls():
    orc = iso_oracle(L=1.0, n=3)
    inst_stop = StopCriteria(max_iterations=5, **NO_TOL)
    res = gradient_descent_fixed(orc, np.ones(3), L=2.0, stop=inst_stop)
    # one fused call at the start plus one per iteration
    assert orc.value_calls == orc.grad_calls == res.iterations + 1
    assert res.trace.records[-1].value_calls == orc.value_calls
    counts = [r.value_calls for r in res.trace.records]
    assert counts == sorted(counts)


def test_gd_is_deterministic():
    inst = QuadraticInstance.random(8, 30.0, seed=2)
    stop = StopCriteria(max_iterations=25, **NO_TOL)
    a = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    b = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    assert np.array_equal(a.x, b.x)
    assert trace_fields(a) == trace_fields(b)


# -------------------------------------------------------- steepest descent

def test_sd_exact_linesearch_solves_isotropic_in_one_move():
    inst = QuadraticInstance.isotropic(5, seed=3)
    res = steepest_descent(inst.oracle(), inst.x0, inst.exact_linesearch())
    assert res.status == CONVERGED
    assert res.iterations <= 2
    assert np.linalg.norm(res.x - inst.x_star) <= 1e-8


def test_sd_best_f_never_increases():
    inst = QuadraticInstance.random(10, 100.0, seed=4)
    stop = StopCriteria(max_iterations=60, **NO_TOL)
    res = steepest_descent(inst.oracle(), inst.x0, make_linesearch("h"), stop)
    best = [r.best_f for r in res.trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert inst.gap(res.x) < 1e-2 * inst.gap(inst.x0)


def test_sd_with_parabolic_search_converges():
    inst = QuadraticInstance.random(4, 10.0, seed=5)
    res = steepest_descent(inst.oracle(), inst.x0, make_linesearch("par"),
                           StopCriteria(max_iterations=10_000))
    assert res.status == CONVERGED
    assert res.grad_norm <= 1e-6 * max(1.0, np.linalg.norm(inst.gradient(inst.x0)))


def test_sd_reports_linesearch_failure_on_flat_objective():
    orc = FunctionOracle(2, lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
    res = steepest_descent(orc, np.zeros(2), make_linesearch("h"))
    assert res.status == LINESEARCH_FAILURE


# ------------------------------------------------------------ stop criteria

def test_stop_criteria_requires_a_budget():
    with pytest.raises(ValueError, match="budget"):
        StopCriteria(max_iterations=None, max_oracle_calls=None,
                     max_wall_time=None)


def test_stop_criteria_threshold_formula():
    s = StopCriteria(gradient_norm_tol=0.5, gradient_norm_rtol=1e-3)
    assert s.threshold(2000.0) == 2.0
    assert s.threshold(0.1) == 0.5
    assert StopCriteria().threshold(0.5) == 1e-6


def test_stop_criteria_rejects_negative_tolerances():
    with pytest.raises(ValueError):
        StopCriteria(gradient_norm_tol=-1.0)
    # NaN fails every comparison, so it would switch the gradient test off
    with pytest.raises(ValueError, match="gradient_norm_tol must be >= 0, got nan"):
        StopCriteria(gradient_norm_tol=math.nan)
    with pytest.raises(ValueError, match="gradient_norm_rtol must be >= 0, got nan"):
        StopCriteria(gradient_norm_rtol=math.nan)


def test_oracle_call_budget_halts_run():
    inst = QuadraticInstance.random(6, 50.0, seed=14)
    stop = StopCriteria(max_iterations=None, max_oracle_calls=12, **NO_TOL)
    res = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    assert res.status == "oracle_budget"
    assert res.trace.records[-1].value_calls + res.trace.records[-1].grad_calls >= 12
