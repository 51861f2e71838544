import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmin.linesearch import (
    FOUND,
    NO_RELAXATION,
    LineSearchResult,
    LsHConfig,
    LsParConfig,
    fit_parabola,
    ls_h,
    ls_par,
    parabola_min,
)


class Phi:
    """1-D counting oracle over the first coordinate."""

    def __init__(self, fn):
        self.fn = fn
        self.value_calls = 0
        self.seen = []

    def value(self, x):
        self.value_calls += 1
        self.seen.append(np.array(x, copy=True))
        return float(self.fn(float(np.asarray(x).ravel()[0])))


X0 = np.zeros(1)
R = np.ones(1)


# ------------------------------------------------------------ parabola fit

def test_parabola_min_recovers_exact_vertex():
    assert parabola_min([(0.0, 11.0), (1.0, 6.0), (5.0, 6.0)]) == pytest.approx(
        3.0, abs=1e-12)


def test_parabola_min_rejects_duplicate_abscissae():
    with pytest.raises(ValueError, match="distinct"):
        parabola_min([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)])


def test_parabola_min_negative_curvature_is_none():
    assert parabola_min([(-1.0, -1.0), (0.0, 0.0), (1.0, -1.0)]) is None


def test_parabola_min_collinear_points_is_none():
    assert parabola_min([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]) is None


def test_fit_parabola_reports_curvature_sign():
    fit = fit_parabola([(-1.0, -1.0), (0.0, 0.0), (1.0, -1.0)])
    assert fit.vertex is None and not fit.curvature_positive


@given(
    a=st.floats(1e-2, 1e2),
    v=st.floats(-50.0, 50.0),
    c=st.floats(-100.0, 100.0),
    x1=st.floats(-10.0, 10.0),
    dx2=st.floats(0.5, 5.0),
    dx3=st.floats(0.5, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_parabola_min_property(a, v, c, x1, dx2, dx3):
    xs = [x1, x1 + dx2, x1 + dx2 + dx3]
    pts = [(x, a * (x - v) ** 2 + c) for x in xs]
    got = parabola_min(pts)
    assert got is not None
    assert got == pytest.approx(v, rel=1e-6, abs=1e-6)


# ------------------------------------------------------------------- ls_h

def test_ls_h_accepts_probe_when_expansion_worse():
    phi = Phi(lambda h: (h - 1.0) ** 2)
    res = ls_h(phi, X0, R, LsHConfig(h0=1.0), f0=phi.fn(0.0))
    assert res == LineSearchResult(1.0, 0.0, 2, FOUND)


def test_ls_h_takes_expansion_when_it_helps():
    phi = Phi(lambda h: (h - 2.0) ** 2)
    res = ls_h(phi, X0, R, LsHConfig(h0=1.0), f0=4.0)
    assert res == LineSearchResult(2.0, 0.0, 2, FOUND)


def test_ls_h_contracts_past_nonstrict_step():
    # phi(0.5) equals f0 exactly; strict relaxation forces one more halving
    phi = Phi(lambda h: (h - 0.25) ** 2)
    res = ls_h(phi, X0, R, LsHConfig(h0=1.0), f0=0.0625)
    assert res == LineSearchResult(0.25, 0.0, 3, FOUND)


def test_ls_h_no_relaxation_exhausts_budget():
    phi = Phi(lambda h: h)
    cfg = LsHConfig()
    res = ls_h(phi, X0, R, cfg, f0=0.0)
    assert res.status == NO_RELAXATION
    assert res.h == 0.0 and res.f_at_step == 0.0
    budget = 2 + math.ceil(math.log(cfg.h0 / cfg.eps_h, 1.0 / cfg.k_minus))
    assert budget == 42
    assert res.oracle_calls == phi.value_calls <= budget


def test_ls_h_evaluates_along_the_given_ray():
    phi = Phi(lambda h: (h - 1.0) ** 2)
    x0 = np.array([3.0, -1.0, 2.0, 0.0])
    r = np.zeros(4)
    r[0] = 1.0
    ls_h(phi, x0, r, LsHConfig(h0=1.0), f0=phi.fn(3.0))
    for x in phi.seen:
        assert np.array_equal(x[1:], x0[1:])


def test_ls_h_rejects_non_unit_direction():
    phi = Phi(lambda h: h * h)
    with pytest.raises(ValueError, match="unit"):
        ls_h(phi, X0, np.array([2.0]), LsHConfig(), f0=0.0)


def test_ls_h_config_validation():
    with pytest.raises(ValueError):
        LsHConfig(h0=0.0)
    with pytest.raises(ValueError):
        LsHConfig(eps_h=1.5)
    with pytest.raises(ValueError):
        LsHConfig(k_plus=1.0)
    with pytest.raises(ValueError):
        LsHConfig(k_minus=1.0)


@given(t=st.floats(-3.0, 3.0), a=st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_ls_h_invariants(t, a):
    phi = Phi(lambda h: a * (h - t) ** 2)
    f0 = phi.fn(0.0)
    res = ls_h(phi, X0, R, LsHConfig(), f0=f0)
    assert res.oracle_calls <= 42
    if res.status == FOUND:
        assert res.h > 0.0
        assert res.f_at_step < f0
        assert res.f_at_step == phi.fn(res.h)
    else:
        assert res.h == 0.0 and res.f_at_step == f0


# ------------------------------------------------------------------ ls_par

def test_ls_par_gradient_start_nails_quadratic_vertex():
    phi = Phi(lambda h: 5.0 * (h - 0.3) ** 2 + 7.0)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=6), f0=phi.fn(0.0),
                 g0=np.array([-3.0]))
    assert res.status == FOUND
    assert res.h == pytest.approx(0.3, rel=1e-10)
    assert res.f_at_step == pytest.approx(7.0, rel=1e-10)
    assert res.oracle_calls == 2  # vertex found once, refit only duplicates


def test_ls_par_without_gradient_hand_trace():
    # samples at +-h0/2 bracket the quadratic, one refit lands the vertex
    phi = Phi(lambda h: (h - 1.0) ** 2)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=2, use_gradient_start=False),
                 f0=1.0)
    assert res == LineSearchResult(1.0, 0.0, 3, FOUND)


def test_ls_par_can_return_negative_step():
    phi = Phi(lambda h: (h + 0.5) ** 2)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=3, use_gradient_start=False),
                 f0=0.25)
    assert res.status == FOUND
    assert res.h == -0.5
    assert res.f_at_step == 0.0


def test_ls_par_no_relaxation_at_a_minimum():
    phi = Phi(lambda h: h * h)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=4), f0=0.0,
                 g0=np.array([0.0]))
    assert res.status == NO_RELAXATION
    assert res.h == 0.0
    assert res.oracle_calls <= 6


def test_ls_par_clamps_vertex_to_trust_region():
    phi = Phi(lambda h: (h - 100.0) ** 2)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=5, trust=10.0), f0=1e4,
                 g0=np.array([-200.0]))
    assert res.status == FOUND
    assert res.h == 10.0
    assert res.f_at_step == 8100.0


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e9]), st.floats(-1e12, 1e12)),
       offsets=st.lists(st.one_of(st.floats(-3e-13, 3e-13), st.floats(-10.0, 10.0)),
                        min_size=1, max_size=6))
def test_clamp_vertex_rejects_exactly_the_near_duplicates(v, offsets):
    from ffmin.linesearch import _DUP_TOL, _clamp_vertex
    points = [(v + o * max(1.0, abs(v)), 0.0) for o in offsets]
    near = any(abs(v - h) <= _DUP_TOL * max(1.0, abs(v), abs(h)) for h, _ in points)
    assert _clamp_vertex(v, -math.inf, math.inf, points) == (None if near else v)


def test_ls_par_requires_g0_with_gradient_start():
    phi = Phi(lambda h: h * h)
    with pytest.raises(ValueError, match="g0"):
        ls_par(phi, X0, R, LsParConfig(), f0=0.0)


def test_ls_par_config_validation():
    with pytest.raises(ValueError):
        LsParConfig(h0=-1.0)
    with pytest.raises(ValueError):
        LsParConfig(K=1)
    with pytest.raises(ValueError):
        LsParConfig(trust=0.0)


@given(
    t=st.floats(-3.0, 3.0),
    a=st.floats(0.1, 10.0),
    b=st.floats(-1.0, 1.0),
    k=st.integers(2, 8),
    g0_mode=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_ls_par_invariants(t, a, b, k, g0_mode):
    fn = lambda h: a * (h - t) ** 2 + b * math.sin(h)
    phi = Phi(fn)
    f0 = fn(0.0)
    slope = -2.0 * a * t + b  # analytic derivative at 0
    cfg = LsParConfig(h0=1.0, K=k, use_gradient_start=g0_mode)
    res = ls_par(phi, X0, R, cfg, f0=f0,
                 g0=np.array([slope]) if g0_mode else None)
    assert res.oracle_calls == phi.value_calls <= k + 2
    if res.status == FOUND:
        assert res.h != 0.0
        assert res.f_at_step < f0
        if g0_mode:
            assert res.h > 0.0
    else:
        assert res.h == 0.0 and res.f_at_step == f0


# ------------------------------------------------------------------ result

def test_result_rejects_inconsistent_no_relaxation():
    with pytest.raises(ValueError):
        LineSearchResult(0.5, 1.0, 1, NO_RELAXATION)
    with pytest.raises(ValueError):
        LineSearchResult(0.0, 1.0, 1, "bogus")
