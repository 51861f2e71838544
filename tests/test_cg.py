import math

import numpy as np
import pytest

from ffmin.bench import QuadraticInstance
from ffmin.oracle import FunctionOracle, MolecularOracle
from ffmin.optimizers import (
    CONVERGED,
    ITERATION_BUDGET,
    LINESEARCH_FAILURE,
    CgVariant,
    StopCriteria,
    cg,
    make_linesearch,
    steepest_descent,
)
from ffmin.optimizers.cg import VARIANTS, _CgRule, canonical_variant, cg_beta
from ffmin.synth import make_chain_system

NO_TOL = dict(gradient_norm_rtol=0.0)


# ------------------------------------------------------------ variant names

def test_variant_names_are_the_seven_short_ones():
    assert canonical_variant(" DY ") == "dy"
    assert canonical_variant("PRP+") == "prp+"
    for k in VARIANTS:
        assert canonical_variant(k) == k
    for name in ("Fletcher-Reeves", "polak-ribiere-polyak", "PolakRibierePlus",
                 "hestenes-stiefel", "conjugate-descent", "liu-storey", "daiyuan"):
        with pytest.raises(ValueError, match="unknown cg variant"):
            canonical_variant(name)


def test_variant_validation():
    with pytest.raises(ValueError, match="unknown cg variant"):
        canonical_variant("bogus")
    with pytest.raises(ValueError, match="restart_period"):
        CgVariant("fr", restart_period=0)
    assert CgVariant(" FR ").kind == "fr"
    with pytest.raises(ValueError, match="unknown cg variant"):
        CgVariant("fletcher-reeves")


# ------------------------------------------------------------------- betas

def test_cg_beta_hand_values():
    g_old = np.array([1.0, 0.0])
    g_new = np.array([0.5, 0.5])
    p = np.array([-1.0, 0.25])
    # y = (-0.5, 0.5); <g_new,y> = 0 kills the prp-family numerators
    assert cg_beta("fr", g_new, g_old, p) == 0.5
    assert cg_beta("prp", g_new, g_old, p) == 0.0
    assert cg_beta("prp+", g_new, g_old, p) == 0.0
    assert cg_beta("hs", g_new, g_old, p) == 0.0
    assert cg_beta("cd", g_new, g_old, p) == 0.5
    assert cg_beta("ls", g_new, g_old, p) == 0.0
    assert cg_beta("dy", g_new, g_old, p) == pytest.approx(0.8, rel=1e-15)


def test_cg_beta_prp_plus_clips_negative_numerator():
    g_old = np.array([1.0, 0.0])
    g_new = np.array([0.5, -0.1])  # <g_new, y> = -0.25 + 0.01 < 0
    p = -g_old
    assert cg_beta("prp", g_new, g_old, p) < 0.0
    assert cg_beta("prp+", g_new, g_old, p) == 0.0


def test_cg_beta_zero_denominator_is_nan():
    z = np.zeros(2)
    assert math.isnan(cg_beta("fr", np.ones(2), z, -z))
    # p orthogonal to y
    g_old = np.array([1.0, 0.0])
    g_new = np.array([2.0, 1.0])  # y = (1, 1)
    p = np.array([1.0, -1.0])
    assert math.isnan(cg_beta("hs", g_new, g_old, p))


def test_cg_beta_unknown_kind():
    with pytest.raises(ValueError):
        cg_beta("xx", np.ones(2), np.ones(2), np.ones(2))


# ------------------------------------------------- quadratic exact-LS runs

@pytest.mark.parametrize("kind", VARIANTS)
def test_finite_termination_all_variants(kind):
    for n in (10, 30):
        inst = QuadraticInstance.random(n, 100.0, seed=n)
        g0 = float(np.linalg.norm(inst.gradient(inst.x0)))
        stop = StopCriteria(max_iterations=n + 5, gradient_norm_tol=1e-8 * g0,
                            **NO_TOL)
        res = cg(inst.oracle(), inst.x0, CgVariant(kind, restart_period=10**9),
                 inst.exact_linesearch(), stop)
        assert res.status == CONVERGED
        assert res.iterations <= n + 5


def test_fr_and_prp_betas_agree_on_quadratics():
    # successive exact-LS gradients are orthogonal, which collapses the two
    # formulas onto each other
    inst = QuadraticInstance.random(20, 10.0, seed=3)
    x = inst.x0.copy()
    g = inst.gradient(x)
    p = -g
    for _ in range(15):
        h = -float(g @ p) / float(p @ (inst.A @ p))
        x = x + h * p
        g_new = inst.gradient(x)
        b_fr = cg_beta("fr", g_new, g, p)
        b_prp = cg_beta("prp", g_new, g, p)
        assert abs(b_fr - b_prp) <= 1e-10 * max(1.0, abs(b_fr))
        p = -g_new + b_fr * p
        g = g_new


def test_an_update_orthogonal_to_the_gradient_restarts_along_it():
    # FR's beta = |g_new|^2 / |g|^2 = 2 gives p = -g_new + 2 p = (-1, -1), and
    # <p, -g_new> = 0 exactly fails the descent test <p, -g_new> > 0
    rule = _CgRule(CgVariant("fr"))
    rule.p, rule.since_restart = np.array([-1.0, 0.0]), 0
    g, g_new = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
    rule.advance(np.zeros(2), g, np.ones(2), g_new)
    assert rule.p.tolist() == [1.0, -1.0] and rule.since_restart == 0


def test_restart_every_iteration_reduces_to_steepest_descent():
    inst = QuadraticInstance.random(8, 50.0, seed=9)
    stop = StopCriteria(max_iterations=10, **NO_TOL)
    a = cg(inst.oracle(), inst.x0, CgVariant("fr", restart_period=1),
           make_linesearch("h"), stop)
    b = steepest_descent(inst.oracle(), inst.x0, make_linesearch("h"), stop)
    assert np.array_equal(a.x, b.x)


def test_cg_beats_steepest_descent_when_ill_conditioned():
    inst = QuadraticInstance.random(20, 1000.0, seed=10)
    stop = StopCriteria(max_iterations=40, **NO_TOL)
    fast = cg(inst.oracle(), inst.x0, CgVariant("prp"),
              inst.exact_linesearch(), stop)
    slow = steepest_descent(inst.oracle(), inst.x0, inst.exact_linesearch(),
                            stop)
    assert inst.gap(fast.x) < 1e-3 * inst.gap(slow.x)


def test_cg_string_variant_shorthand():
    inst = QuadraticInstance.random(6, 10.0, seed=11)
    res = cg(inst.oracle(), inst.x0, CgVariant("dy"), inst.exact_linesearch())
    assert res.status == CONVERGED
    assert res.trace.meta["variant"] == "dy"


# ---------------------------------------------------------- general convex

def test_cg_minimizes_nonquadratic_convex():
    def f(x):
        return float(x @ x) + 0.1 * float((x**4).sum())

    def g(x):
        return 2.0 * x + 0.4 * x**3

    orc = FunctionOracle(6, f, g)
    x0 = np.linspace(-2.0, 2.0, 6)
    res = cg(orc, x0, CgVariant("prp"), make_linesearch("par"))
    assert res.status == CONVERGED
    assert np.linalg.norm(res.x) <= 1e-4


def test_cg_best_so_far_on_budget_exit():
    inst = QuadraticInstance.random(30, 1000.0, seed=12)
    stop = StopCriteria(max_iterations=30, **NO_TOL)
    res = cg(inst.oracle(), inst.x0, CgVariant("fr"), make_linesearch("h"),
             stop)
    assert res.status == ITERATION_BUDGET
    fs = [r.f for r in res.trace.records]
    assert res.f <= min(fs)
    best = [r.best_f for r in res.trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


# ------------------------------------------------------ line-search failure

def flat_oracle():
    return FunctionOracle(2, lambda x: 1.0, lambda x: np.array([1.0, 0.0]))


def test_second_consecutive_failure_stops_the_run():
    res = cg(flat_oracle(), np.zeros(2), CgVariant("prp"), make_linesearch("h"))
    assert res.status == LINESEARCH_FAILURE
    assert res.iterations == 0  # the failed search ran along -g: no retry
    assert np.array_equal(res.x, np.zeros(2))


def test_single_failure_recovers_by_restarting():
    from ffmin.linesearch import NO_RELAXATION as NR
    from ffmin.linesearch import LineSearchResult

    class FailSecond:
        """Fails its second search, the first along a conjugate direction,
        and defers every other search to a real searcher."""

        def __init__(self, inner):
            self.inner = inner
            self.origins = []
            self.directions = []

        def describe(self):
            return {"kind": "fail-second"}

        def search(self, oracle, x, r, f0, g0=None, h=None):
            self.origins.append(np.array(x, copy=True))
            self.directions.append(np.array(r, copy=True))
            if len(self.directions) == 2:
                return LineSearchResult(0.0, f0, 1, NR)
            return self.inner.search(oracle, x, r, f0, g0, h)

    inst = QuadraticInstance.random(6, 10.0, seed=13)
    searcher = FailSecond(inst.exact_linesearch())
    res = cg(inst.oracle(), inst.x0, CgVariant("prp"), searcher)
    assert res.status == CONVERGED
    # the failed search ran along a conjugate direction, not -g; the retry
    # goes from the same point along the restart direction -g
    g1 = inst.gradient(searcher.origins[1])
    want = -g1 / np.linalg.norm(g1)
    assert not np.allclose(searcher.directions[1], want, atol=1e-3)
    assert np.array_equal(searcher.origins[2], searcher.origins[1])
    assert np.allclose(searcher.directions[2], want, atol=1e-15)
    assert inst.gap(res.x) <= 1e-10 * max(1.0, inst.gap(inst.x0))


def test_cg_prp_with_ls_par_counts_on_a_chain():
    # ls_par stops at the first sample that meets Armijo's condition; refining
    # every search to its cap took 327 iterations and 2071 + 328 calls here
    system = make_chain_system(12, seed=0, strain=0.3)
    res = cg(MolecularOracle(system), system.coords.ravel(), CgVariant("prp"),
             make_linesearch("par"),
             StopCriteria(gradient_norm_tol=1e-4, max_iterations=10_000, **NO_TOL))
    last = res.trace.records[-1]
    assert res.status == CONVERGED and res.grad_norm <= 1e-4
    assert (res.iterations, last.value_calls, last.grad_calls) == (454, 909, 455)
