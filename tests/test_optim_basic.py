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
    heavy_ball,
    make_linesearch,
    nesterov_momentum,
    nesterov_strongly_convex,
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


# -------------------------------------------------------------- heavy ball

def test_heavy_ball_zero_momentum_matches_gd_bitwise():
    inst = QuadraticInstance.random(12, 50.0, seed=6)
    stop = StopCriteria(max_iterations=40, **NO_TOL)
    a = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    b = heavy_ball(inst.oracle(), inst.x0, alpha=1.0 / inst.L, beta=0.0, stop=stop)
    assert np.array_equal(a.x, b.x)
    assert a.f == b.f


def test_heavy_ball_beats_plain_gd_on_ill_conditioned_quadratic():
    inst = QuadraticInstance.random(16, 400.0, seed=7)
    stop = StopCriteria(max_iterations=150, **NO_TOL)
    plain = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    kappa = inst.chi
    beta = ((np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)) ** 2
    alpha = 4.0 / (np.sqrt(inst.L) + np.sqrt(inst.mu)) ** 2
    fast = heavy_ball(inst.oracle(), inst.x0, alpha, beta, stop)
    assert inst.gap(fast.x) < 1e-3 * inst.gap(plain.x)


def test_heavy_ball_stationary_start_converges_at_once():
    inst = QuadraticInstance.random(6, 5.0, seed=8)
    res = heavy_ball(inst.oracle(), inst.x_star, 1.0 / inst.L, 0.5)
    assert res.status == CONVERGED
    assert res.iterations == 0


def test_heavy_ball_diverges_with_oversized_step():
    inst = QuadraticInstance.isotropic(4, seed=9)
    with pytest.raises(DivergenceError, match="reduce alpha"):
        heavy_ball(inst.oracle(), inst.x0, alpha=10.0 / inst.L, beta=0.0,
                   stop=StopCriteria(max_iterations=500, **NO_TOL))


def test_heavy_ball_input_validation():
    inst = QuadraticInstance.isotropic(3)
    with pytest.raises(ValueError, match="alpha"):
        heavy_ball(inst.oracle(), inst.x0, alpha=0.0, beta=0.5)
    with pytest.raises(ValueError, match="beta"):
        heavy_ball(inst.oracle(), inst.x0, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError, match="beta"):
        heavy_ball(inst.oracle(), inst.x0, alpha=0.1, beta=-0.1)


# ------------------------------------------------------- nesterov momentum

def test_nag_first_iterate_equals_gd_step():
    inst = QuadraticInstance.random(7, 20.0, seed=10)
    one = StopCriteria(max_iterations=1, **NO_TOL)
    a = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, one)
    b = nesterov_momentum(inst.oracle(), inst.x0, inst.L, one)
    assert np.array_equal(a.x, b.x)


def test_nag_gap_respects_accelerated_envelope():
    inst = QuadraticInstance.random(30, 1000.0, seed=4)
    stop = StopCriteria(max_iterations=300, **NO_TOL)
    res = nesterov_momentum(inst.oracle(), inst.x0, inst.L, stop)
    for rec in res.trace.records[1:]:
        gap = rec.f - inst.f_star
        assert gap <= 4.0 * inst.L * inst.R**2 / rec.iteration**2


def test_nag_is_non_monotone_but_best_f_is():
    inst = QuadraticInstance.random(30, 1000.0, seed=4)
    stop = StopCriteria(max_iterations=300, **NO_TOL)
    res = nesterov_momentum(inst.oracle(), inst.x0, inst.L, stop)
    fs = [r.f for r in res.trace.records]
    assert any(b > a for a, b in zip(fs, fs[1:]))  # overshoot happens
    best = [r.best_f for r in res.trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_nag_validation_and_divergence():
    inst = QuadraticInstance.isotropic(4, seed=11)
    with pytest.raises(ValueError, match="L"):
        nesterov_momentum(inst.oracle(), inst.x0, L=0.0)
    with pytest.raises(DivergenceError):
        nesterov_momentum(inst.oracle(), inst.x0, L=inst.L / 50.0,
                          stop=StopCriteria(max_iterations=2000, **NO_TOL))


# -------------------------------------------- nesterov, strongly convex

def test_nag_sc_with_mu_equal_L_matches_gd_bitwise():
    inst = QuadraticInstance.isotropic(6, seed=12)
    stop = StopCriteria(max_iterations=20, **NO_TOL)
    a = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    b = nesterov_strongly_convex(inst.oracle(), inst.x0, inst.L, inst.L, stop)
    assert np.array_equal(a.x, b.x)


def test_nag_sc_linear_rate_matches_sqrt_chi_envelope():
    inst = QuadraticInstance.random(20, 100.0, seed=5)
    stop = StopCriteria(max_iterations=80, **NO_TOL)
    res = nesterov_strongly_convex(inst.oracle(), inst.x0, inst.L, inst.mu, stop)
    ks, logs = [], []
    # fit before the gap decays into f_star's roundoff floor
    for rec in res.trace.records:
        if 10 <= rec.iteration <= 60:
            gap = rec.f - inst.f_star
            assert gap > 0
            ks.append(rec.iteration)
            logs.append(np.log(gap))
    slope = np.polyfit(ks, logs, 1)[0]
    target = -1.0 / np.sqrt(inst.chi)
    assert 0.5 * abs(target) <= abs(slope) <= 2.0 * abs(target)
    assert slope < 0


def test_nag_sc_stationary_start():
    inst = QuadraticInstance.random(5, 8.0, seed=13)
    res = nesterov_strongly_convex(inst.oracle(), inst.x_star, inst.L, inst.mu)
    assert res.status == CONVERGED
    assert res.iterations == 0


def test_nag_sc_validation():
    inst = QuadraticInstance.isotropic(3)
    with pytest.raises(ValueError):
        nesterov_strongly_convex(inst.oracle(), inst.x0, L=1.0, mu=0.0)
    with pytest.raises(ValueError, match="exceed"):
        nesterov_strongly_convex(inst.oracle(), inst.x0, L=1.0, mu=2.0)


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


def test_oracle_call_budget_halts_run():
    inst = QuadraticInstance.random(6, 50.0, seed=14)
    stop = StopCriteria(max_iterations=None, max_oracle_calls=12, **NO_TOL)
    res = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop)
    assert res.status == "oracle_budget"
    assert res.trace.records[-1].value_calls + res.trace.records[-1].grad_calls >= 12
