import math
import warnings

import numpy as np
import pytest

from ffmin.bench import (
    QuadraticInstance,
    WorstCaseFunction,
    ofgm_bound,
    worstcase_report,
)
from ffmin.oracle import FunctionOracle
from ffmin.optimizers import (
    CONVERGED,
    HORIZON_COMPLETE,
    LINESEARCH_FAILURE,
    DivergenceError,
    StopCriteria,
    fgm,
    make_linesearch,
    ofgm,
    ofgm_schedule,
    steepest_descent,
)

NO_TOL = dict(gradient_norm_rtol=0.0)


# ------------------------------------------------------------------- fgm

def test_fgm_first_iteration_has_zero_extrapolation():
    # theta_{-1} = 1 makes beta_0 = 0, so iteration one is plain steepest
    # descent from x0 with the same line search
    inst = QuadraticInstance.random(6, 30.0, seed=5)
    one = StopCriteria(max_iterations=1, **NO_TOL)
    a = fgm(inst.oracle(), inst.x0, make_linesearch("h"), one)
    b = steepest_descent(inst.oracle(), inst.x0, make_linesearch("h"), one)
    assert np.array_equal(a.x, b.x)


def test_fgm_converges_on_well_conditioned_quadratic():
    inst = QuadraticInstance.random(8, 10.0, seed=1)
    res = fgm(inst.oracle(), inst.x0, inst.exact_linesearch())
    assert res.status == CONVERGED
    assert res.grad_norm <= 1e-6 * max(1.0, np.linalg.norm(inst.gradient(inst.x0)))


def test_fgm_returns_best_point_of_non_monotone_run():
    inst = QuadraticInstance.random(30, 1000.0, seed=6)
    stop = StopCriteria(max_iterations=200, **NO_TOL)
    res = fgm(inst.oracle(), inst.x0, make_linesearch("h"), stop)
    fs = [r.f for r in res.trace.records]
    assert any(b > a for a, b in zip(fs, fs[1:]))  # extrapolation overshoots
    best = [r.best_f for r in res.trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert res.f <= min(fs)
    assert inst.gap(res.x) < 1e-2 * inst.gap(inst.x0)


def test_fgm_stops_on_linesearch_failure():
    orc = FunctionOracle(2, lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
    res = fgm(orc, np.zeros(2), make_linesearch("h"))
    assert res.status == LINESEARCH_FAILURE


def test_fgm_stationary_start_converges_immediately():
    inst = QuadraticInstance.random(5, 8.0, seed=7)
    res = fgm(inst.oracle(), inst.x_star, inst.exact_linesearch())
    assert res.status == CONVERGED
    assert res.iterations == 0


def test_fgm_converged_run_returns_the_point_that_met_the_tolerance():
    # the run converges at an extrapolated point w, not at an iterate: it
    # returns w, recorded as one more iteration of step 0, with |g(w)|
    inst = QuadraticInstance.random(8, 10.0, seed=1)
    res = fgm(inst.oracle(), inst.x0, inst.exact_linesearch())
    assert res.status == CONVERGED
    assert res.grad_norm == np.linalg.norm(inst.gradient(res.x))
    last = res.trace.records[-1]
    assert (last.f, last.grad_norm, last.step) == (res.f, res.grad_norm, 0.0)
    assert res.f == inst.value(res.x)


def test_fgm_records_the_gradient_norm_at_each_search_origin():
    # fgm takes no gradient at its iterates: record k's grad_norm is |g(w)|
    # at the origin w of search k, the point of the k-th fused call (the
    # first is the start point); the converged run's last record is w itself
    inst = QuadraticInstance.random(8, 10.0, seed=1)
    origins = []

    def value_and_gradient(x):
        origins.append(np.array(x, copy=True))
        return inst.value(x), inst.gradient(x)

    oracle = inst.oracle()
    oracle._value_and_gradient = value_and_gradient
    res = fgm(oracle, inst.x0, inst.exact_linesearch())
    assert res.status == CONVERGED
    records = res.trace.records[1:]
    assert len(records) == len(origins) >= 10
    for rec, w in zip(records, origins):
        assert rec.grad_norm == np.linalg.norm(inst.gradient(w))
    assert records[-1].f == inst.value(origins[-1])


# -------------------------------------------------------------- schedule

def test_ofgm_schedule_known_prefix():
    t, theta = ofgm_schedule(3)
    assert t[0] == 1.0 and theta[0] == 1.0
    assert t[1] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    assert theta[1] == 2.0  # sqrt(8 + 1) = 3 exactly
    assert theta[2] == pytest.approx((1.0 + math.sqrt(33.0)) / 2.0, rel=1e-15)


def test_ofgm_schedule_matches_independent_recurrences():
    N = 40
    t, theta = ofgm_schedule(N)
    tk, thk = 1.0, 1.0
    for k in range(1, N + 1):
        thk = 0.5 * (1.0 + math.sqrt(8.0 * thk * thk + 1.0))
        assert theta[k] == pytest.approx(thk, rel=1e-15)
        if k < N:
            tk = 0.5 * (1.0 + math.sqrt(4.0 * tk * tk + 1.0))
            assert t[k] == pytest.approx(tk, rel=1e-15)
    assert t[N] == theta[N]  # last step weight ties to the fast schedule


def test_ofgm_schedule_growth_and_validation():
    _, theta = ofgm_schedule(30)
    ratios = theta[2:] / theta[1:-1]
    assert np.all(ratios >= math.sqrt(2.0))
    with pytest.raises(ValueError):
        ofgm_schedule(0)
    # the largest horizon whose theta_N is finite, and the first past it,
    # which is refused before the recurrence overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(ofgm_schedule(1019)[1][-1])
        with pytest.raises(ValueError, match="N = 1020 .* largest horizon is 1019"):
            ofgm_schedule(1020)


# ------------------------------------------------------------------ ofgm

def test_ofgm_requires_exactly_one_step_rule():
    inst = QuadraticInstance.isotropic(4, seed=2)
    with pytest.raises(ValueError, match="L"):
        ofgm(inst.oracle(), inst.x0, 8, L=0.0)


def test_ofgm_completes_horizon_with_full_trace():
    inst = QuadraticInstance.isotropic(20, seed=3)
    res = ofgm(inst.oracle(), inst.x0, 8, L=inst.L,
               stop=StopCriteria(max_iterations=8, **NO_TOL))
    assert res.status == HORIZON_COMPLETE
    assert res.iterations == 8
    assert len(res.trace.records) == 9


def test_ofgm_isotropic_gap_is_quarter_of_bound():
    # on an isotropic quadratic the final gap sits at bound/4 exactly: the
    # schedule's contraction telescopes with no spectrum spread to blur it
    for N in (4, 8):
        inst = QuadraticInstance.isotropic(20, seed=3)
        _, theta = ofgm_schedule(N)
        bound = ofgm_bound(inst.L, inst.R, float(theta[-1]))
        res = ofgm(inst.oracle(), inst.x0, N, L=inst.L,
                   stop=StopCriteria(max_iterations=N, **NO_TOL))
        assert inst.gap(res.x) / bound == pytest.approx(0.25, rel=1e-9)


def test_ofgm_meets_bound_on_random_quadratics():
    for seed in range(5):
        inst = QuadraticInstance.isotropic(30, seed=seed)
        _, theta = ofgm_schedule(16)
        bound = ofgm_bound(inst.L, inst.R, float(theta[-1]))
        res = ofgm(inst.oracle(), inst.x0, 16, L=inst.L,
                   stop=StopCriteria(max_iterations=16, **NO_TOL))
        assert inst.gap(res.x) <= 1.05 * bound


def test_ofgm_stationary_start():
    inst = QuadraticInstance.random(5, 5.0, seed=8)
    res = ofgm(inst.oracle(), inst.x_star, 10, L=inst.L)
    assert res.status == CONVERGED
    assert res.iterations == 0


def test_ofgm_raises_on_a_finite_blow_up():
    # the guard's finite branch: f is finite but past DIVERGENCE_FACTOR * max(1, |f0|)
    inst = QuadraticInstance.isotropic(4, seed=11)
    with pytest.raises(DivergenceError, match="ofgm diverged at iteration 1") as exc:
        ofgm(inst.oracle(), inst.x0, 50, L=inst.L / 50.0,
             stop=StopCriteria(max_iterations=2000, **NO_TOL))
    assert math.isfinite(float(str(exc.value).split("f=")[1]))


# -------------------------------------------------------- worst-case family

def test_worstcase_function_shape():
    wc = WorstCaseFunction(L=2.0, R=1.5, N=8)
    assert wc.f_star == 0.0
    assert wc.bound() == pytest.approx(2.0 * 2.0 * 1.5**2 / wc.theta_N**2,
                                       rel=1e-15)
    _, theta = ofgm_schedule(8)
    assert wc.theta_N == float(theta[-1])
    assert wc.seam == pytest.approx(1.5 / wc.theta_N**2, rel=1e-15)


def test_worstcase_function_is_c1_at_the_seam():
    wc = WorstCaseFunction(L=1.0, R=1.0, N=6)
    u = np.array([1.0, 0.0, 0.0])
    s = wc.seam
    eps = 1e-9 * s
    inner, outer = wc.value((s - eps) * u), wc.value((s + eps) * u)
    assert outer - inner == pytest.approx(0.0, abs=1e-10 * max(1.0, abs(inner)))
    gi, go = wc.gradient((s - eps) * u), wc.gradient((s + eps) * u)
    assert np.linalg.norm(gi - go) <= 1e-8 * np.linalg.norm(gi)


def test_worstcase_gradient_is_linear_inside_the_ball():
    wc = WorstCaseFunction(L=3.0, R=1.0, N=4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5)
    x *= 0.5 * wc.seam / np.linalg.norm(x)
    assert np.array_equal(wc.gradient(x), 3.0 * x)
    assert wc.value(x) == pytest.approx(1.5 * float(x @ x), rel=1e-15)


def test_worstcase_start_point_sits_at_radius_R():
    wc = WorstCaseFunction(L=1.0, R=2.5, N=4)
    x0 = wc.start_point(16, seed=1)
    assert np.linalg.norm(x0) == pytest.approx(2.5, rel=1e-12)


def test_worstcase_validation():
    with pytest.raises(ValueError):
        WorstCaseFunction(L=0.0, R=1.0, N=4)
    with pytest.raises(ValueError):
        WorstCaseFunction(L=1.0, R=1.0, N=0)
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        worstcase_report(n=0)


def test_worstcase_ratio_is_near_one_half():
    # the instance is built to make the horizon bound nearly tight; from
    # N = 510 theta_N**4 is past the largest float
    for N in (8, 16, 510, 1019):
        rep = worstcase_report(n=32, N=N)
        assert 0.4 <= rep["ratio"] <= 1.05
        assert rep["bound"] == pytest.approx(
            2.0 / rep["theta_N"] ** 2, rel=1e-12)
