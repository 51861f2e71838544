import math

import numpy as np
import pytest

from ffmin.bench import (
    BOUND_SLACK,
    ExactQuadraticLineSearch,
    QuadraticInstance,
    cg_bound,
    gd_bound,
    ofgm_bound,
    worstcase_report,
)
from ffmin.linesearch import FOUND, NO_RELAXATION
from ffmin.optimizers import CgVariant, StopCriteria, cg


def test_instance_construction_invariants():
    inst = QuadraticInstance.random(12, 100.0, seed=1)
    assert np.all(np.diff(inst.spectrum) >= 0)
    assert np.array_equal(inst.A, inst.A.T)
    eigs = np.linalg.eigvalsh(inst.A)
    assert np.allclose(np.sort(eigs), inst.spectrum, rtol=1e-10, atol=1e-12)
    assert inst.L == inst.spectrum[-1]
    assert inst.mu == inst.spectrum[0]
    assert inst.chi == pytest.approx(100.0, rel=1e-12)
    assert np.allclose(inst.A @ inst.x_star, inst.b, atol=1e-10)
    assert inst.f_star == pytest.approx(inst.value(inst.x_star), abs=1e-10)
    assert inst.R == pytest.approx(np.linalg.norm(inst.x0 - inst.x_star))


def test_instance_gradient_and_gap():
    inst = QuadraticInstance.random(6, 10.0, seed=2)
    assert np.linalg.norm(inst.gradient(inst.x_star)) <= 1e-10
    assert inst.gap(inst.x_star) <= 1e-20
    # far from the optimum the quadratic-form gap and the subtraction form
    # agree; near it only the quadratic form survives cancellation
    naive_gap = inst.value(inst.x0) - inst.f_star
    assert inst.gap(inst.x0) == pytest.approx(naive_gap, rel=1e-9)
    rng = np.random.default_rng(3)
    x = inst.x_star + 1e-9 * rng.standard_normal(6)
    assert 0.0 < inst.gap(x) < 1e-15


def test_instance_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadraticInstance.from_spectrum([0.0, 1.0])
    with pytest.raises(ValueError, match="chi"):
        QuadraticInstance.random(4, 0.5)


def test_isotropic_spectrum_is_flat():
    inst = QuadraticInstance.isotropic(5, seed=4, L=2.5)
    assert np.all(inst.spectrum == 2.5)
    assert inst.chi == 1.0


def test_bound_formulas():
    assert gd_bound(2.0, 3.0, 10, 5.0) == pytest.approx(0.9, rel=1e-12)
    # small-N regime where the linear rate term is the binding one
    assert gd_bound(2.0, 3.0, 2, 100.0) == pytest.approx(
        9.0 * min(0.5, math.exp(-0.02)), rel=1e-12)
    assert cg_bound(2.0, 3.0, 10) == pytest.approx(9.0 / 441.0, rel=1e-12)
    assert ofgm_bound(2.0, 3.0, 7.0) == pytest.approx(36.0 / 49.0, rel=1e-12)


def test_exact_linesearch_matches_analytic_argmin():
    inst = QuadraticInstance.random(7, 50.0, seed=5)
    ls = ExactQuadraticLineSearch(inst)
    x = inst.x0
    g = inst.gradient(x)
    r = -g / np.linalg.norm(g)
    res = ls.search(inst.oracle(), x, r, inst.value(x), g)
    assert res.status == FOUND
    want = -float(g @ r) / float(r @ (inst.A @ r))
    assert res.h == pytest.approx(want, rel=1e-15)
    assert res.f_at_step < inst.value(x)
    assert res.oracle_calls == 1


def test_exact_linesearch_reports_no_relaxation_at_stationarity():
    inst = QuadraticInstance.random(4, 5.0, seed=6)
    ls = inst.exact_linesearch()
    g = inst.gradient(inst.x_star)
    r = np.zeros(4)
    r[0] = 1.0
    res = ls.search(inst.oracle(), inst.x_star, r, inst.value(inst.x_star), g)
    assert res.status == NO_RELAXATION
    assert res.h == 0.0


def test_exact_linesearch_reports_no_relaxation_without_positive_curvature():
    # an indefinite A, built directly: the ray has zero or negative curvature
    # and no minimum, so the search makes no call
    A = np.diag([1.0, 0.0, -1.0])
    inst = QuadraticInstance(np.diag(A), A, np.ones(3), np.zeros(3), 0.0, np.ones(3))
    ls = inst.exact_linesearch()
    x = inst.x0
    for r in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])):
        oracle = inst.oracle()
        res = ls.search(oracle, x, r, inst.value(x), inst.gradient(x))
        assert (res.h, res.f_at_step, res.oracle_calls, res.status) == (
            0.0, inst.value(x), 0, NO_RELAXATION)
        assert oracle.value_calls == 0


def test_cg_meets_its_bound_with_the_exact_linesearch():
    for N in (4, 8):
        for seed in range(3):
            inst = QuadraticInstance.random(8, 100.0, seed=seed)
            res = cg(inst.oracle(), inst.x0, CgVariant("fr", restart_period=10**9),
                     inst.exact_linesearch(),
                     StopCriteria(max_iterations=N, gradient_norm_rtol=0.0))
            ratio = inst.gap(res.x) / cg_bound(inst.L, inst.R, N)
            assert ratio <= BOUND_SLACK, (N, seed, ratio)


def test_worstcase_report_fields():
    rep = worstcase_report(n=16, N=8, L=1.0, R=1.0, seed=0)
    assert rep["bound"] == pytest.approx(2.0 / rep["theta_N"] ** 2, rel=1e-12)
    assert 0.0 < rep["gap"] <= rep["bound"] * BOUND_SLACK
    assert 0.4 <= rep["ratio"] <= BOUND_SLACK
