import numpy as np
import pytest

import naive_oracles as naive
from ffmin.bench import QuadraticInstance
from ffmin.linesearch import NO_RELAXATION, FOUND, LineSearchResult
from ffmin.optimizers import (
    CONVERGED,
    LINESEARCH_FAILURE,
    StopCriteria,
    lbfgs,
    make_linesearch,
)
from ffmin.optimizers.lbfgs import LbfgsMemory, lbfgs_direction

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
    assert len(mem) == 0
    mem.push(s, s)
    mem.clear()
    assert len(mem) == 0


def test_memory_depth_validation():
    with pytest.raises(ValueError, match="m"):
        LbfgsMemory(0)


# ------------------------------------------------------------------ driver

def test_lbfgs_requires_a_linesearch():
    inst = QuadraticInstance.isotropic(3)
    with pytest.raises(ValueError, match="line search"):
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


def test_lbfgs_clears_memory_once_then_reports_failure():
    class SucceedThenFail:
        needs_gradient = False

        def __init__(self):
            self.calls = 0
            self.directions = []

        def describe(self):
            return {"kind": "stub"}

        def search(self, oracle, x, r, f0, g0=None):
            self.calls += 1
            self.directions.append(np.array(r, copy=True))
            if self.calls == 1:
                h = 0.5
                return LineSearchResult(h, oracle.value(x + h * r), 1, FOUND)
            return LineSearchResult(0.0, f0, 1, NO_RELAXATION)

    inst = QuadraticInstance.random(5, 10.0, seed=8)
    stub = SucceedThenFail()
    res = lbfgs(inst.oracle(), inst.x0, m=3, linesearch=stub)
    assert res.status == LINESEARCH_FAILURE
    assert res.iterations == 1
    # call 2 fails with one stored pair -> memory cleared, call 3 retries
    # along the plain antigradient, fails again, run stops
    assert stub.calls == 3
    g1 = inst.gradient(res.x)
    want = -g1 / np.linalg.norm(g1)
    assert np.allclose(stub.directions[2], want, atol=1e-12)


def test_lbfgs_failure_can_be_nonfatal():
    from ffmin.oracle import FunctionOracle

    orc = FunctionOracle(2, lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
    stop = StopCriteria(max_iterations=2, stop_on_linesearch_failure=False,
                        **NO_TOL)
    res = lbfgs(orc, np.zeros(2), m=2, linesearch=make_linesearch("h"),
                stop=stop)
    assert res.status == "iteration_budget"
    assert res.iterations == 2


def test_lbfgs_stationary_start():
    inst = QuadraticInstance.random(4, 5.0, seed=9)
    res = lbfgs(inst.oracle(), inst.x_star, m=3, linesearch=make_linesearch("par"))
    assert res.status == CONVERGED
    assert res.iterations == 0
