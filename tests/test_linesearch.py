import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmin.linesearch import (
    _DUP_TOL,
    ARMIJO_C1,
    FOUND,
    NO_RELAXATION,
    LineSearchResult,
    LsHConfig,
    LsParConfig,
    ls_h,
    ls_par,
    parabola_min,
)
from ffmin.optimizers import LineSearcher, StopCriteria, make_linesearch, steepest_descent
from ffmin.oracle import FunctionOracle


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
    assert res.oracle_calls == 2  # the vertex meets Armijo's condition: no refit


def test_ls_par_fits_a_first_parabola_whose_curvature_is_the_flatness_tolerance():
    # phi(1) = f0, so a = (f1 - f0 - slope * h0) / h0^2 = 1e-12 equals
    # tol = 1e-12 * max(|f0|, |f1|) exactly: only a curvature below tol is
    # too flat to fit, so the vertex -slope / (2a) = 0.5 is probed
    phi = Phi(lambda h: 1.0 + h * (h - 1.0))
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=6), f0=1.0, g0=np.array([-1e-12]))
    assert res == LineSearchResult(0.5, 0.75, 2, FOUND)


def test_ls_par_stops_at_a_first_vertex_that_meets_armijo():
    # not a quadratic: the line minimum is near h = 0.5003, and refining
    # towards it took 7 calls before the search stopped at sufficient decrease
    fn = lambda h: (h - 0.4) ** 2 + 0.05 * math.sin(5.0 * h)
    phi, f0, slope = Phi(fn), fn(0.0), -0.55  # slope = fn'(0)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=6), f0=f0, g0=np.array([slope]))
    a = fn(1.0) - f0 - slope
    assert res == LineSearchResult(-slope / (2.0 * a), phi.fn(-slope / (2.0 * a)), 2, FOUND)
    assert res.f_at_step <= f0 + ARMIJO_C1 * res.h * slope
    assert fn(0.5) < res.f_at_step


def test_ls_par_refines_while_its_best_sample_fails_armijo():
    # g0 far steeper than fn'(0) = -1.5 asks for f <= f0 - 10 at h = 1, which
    # no sample meets, so the search refines as it did without the stop
    fn = lambda h: (h - 1.0) ** 2 + 0.1 * math.sin(5.0 * h)
    phi = Phi(fn)
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=6), f0=fn(0.0), g0=np.array([-1e5]))
    assert res == LineSearchResult(0.9680767612020627, -0.09816289074501029, 7, FOUND)


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
    res = ls_par(phi, X0, R, LsParConfig(h0=1.0, K=5), f0=1e4,
                 g0=np.array([-200.0]))
    assert res.status == FOUND
    assert res.h == 10.0
    assert res.f_at_step == 8100.0


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e9]), st.floats(-1e12, 1e12)),
       offsets=st.lists(st.one_of(st.floats(-3e-13, 3e-13), st.floats(-10.0, 10.0)),
                        min_size=1, max_size=6))
def test_clamp_vertex_rejects_exactly_the_near_duplicates(v, offsets):
    from ffmin.linesearch import _clamp_vertex
    hs = [v + o * max(1.0, abs(v)) for o in offsets]
    near = any(abs(v - h) <= _DUP_TOL * max(1.0, abs(v), abs(h)) for h in hs)
    assert _clamp_vertex(v, -math.inf, math.inf, hs) == (None if near else v)


def test_clamp_vertex_rejects_a_non_finite_vertex():
    from ffmin.linesearch import _clamp_vertex
    for v in (math.nan, math.inf, -math.inf):
        assert _clamp_vertex(v, 0.0, 10.0, [0.0]) is None


def test_ls_par_requires_g0_with_gradient_start():
    phi = Phi(lambda h: h * h)
    with pytest.raises(ValueError, match="g0"):
        ls_par(phi, X0, R, LsParConfig(), f0=0.0)


def test_ls_par_config_validation():
    with pytest.raises(ValueError):
        LsParConfig(h0=-1.0)
    with pytest.raises(ValueError):
        LsParConfig(K=1)
    # the gradient-started fit divides by h0 * h0, which underflows to 0 here
    with pytest.raises(ValueError, match="h0 \\* h0 underflows to 0"):
        LsParConfig(h0=1e-300)
    assert LsParConfig(h0=1e-154).h0 == 1e-154


def test_make_linesearch_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown line search kind 'bogus'"):
        make_linesearch("bogus")


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


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-4.0, 4.0), a=st.floats(-2.0, 10.0), nan_at=st.floats(-4.0, 4.0),
       nan_width=st.sampled_from([0.0, 0.05, 0.5, 2.0]), k=st.integers(2, 8),
       gradient_start=st.booleans(), h0=st.one_of(st.none(), st.floats(1e-3, 4.0)),
       slope=st.floats(-20.0, 5.0))
def test_ls_par_probes_each_abscissa_once(t, a, nan_at, nan_width, k, gradient_start, h0,
                                         slope):
    # a vertex near any sampled h, 0 included, is rejected, so the best three
    # samples of a refit never share an h
    def fn(h):
        return math.nan if nan_at < h < nan_at + nan_width else a * (h - t) ** 2

    phi = Phi(fn)
    cfg = LsParConfig(h0=1.0, K=k, use_gradient_start=gradient_start)
    ls_par(phi, X0, R, cfg, a * t * t, np.array([slope]), h0=h0)
    hs = [float(x[0]) for x in phi.seen]  # x0 = 0 and r = 1, so x is h
    assert 0.0 not in hs
    assert len(set(hs)) == len(hs)


# -------------------------------------------------------------- NaN probes

def nan_on(lo, hi, fn):
    """A 1-D FunctionOracle objective, fn(x) outside (lo, hi) and NaN inside."""
    def f(x):
        t = float(x[0])
        return math.nan if lo < t < hi else fn(t)
    return f


def test_ls_h_contracts_past_a_nan_probe():
    # h = 2 does not relax, h = 1 lands on NaN, h = 0.5 relaxes
    oracle = FunctionOracle(1, nan_on(0.5, 1.0, lambda t: t * t))
    res = ls_h(oracle, np.array([-0.3]), R, LsHConfig(h0=2.0), f0=0.09)
    assert res == LineSearchResult(0.5, 0.2 * 0.2, 3, FOUND)


def test_steepest_descent_steps_past_a_nan_probe():
    oracle = FunctionOracle(1, nan_on(0.5, 1.0, lambda t: t * t), lambda x: 2.0 * x)
    res = steepest_descent(oracle, np.array([-0.3]), make_linesearch("h", h0=2.0),
                           StopCriteria(max_iterations=3))
    assert res.trace.records[1].step == 0.5
    assert res.trace.records[1].f == 0.2 * 0.2


def test_ls_par_stops_at_a_nan_first_probe():
    oracle = FunctionOracle(1, nan_on(0.5, 1.5, lambda t: (t - 0.2) ** 2))
    res = ls_par(oracle, X0, R, LsParConfig(h0=1.0), f0=0.04, g0=np.array([-0.4]))
    assert res == LineSearchResult(0.0, 0.04, 1, NO_RELAXATION)
    # without the gradient start the search stops before its second sample
    oracle = FunctionOracle(1, nan_on(-1.0, -0.1, lambda t: (t - 0.2) ** 2))
    res = ls_par(oracle, X0, R, LsParConfig(h0=1.0, use_gradient_start=False), f0=0.04)
    assert res == LineSearchResult(0.0, 0.04, 1, NO_RELAXATION)


def test_ls_par_keeps_its_best_finite_probe_at_a_nan_vertex():
    # the gradient-started vertex is h = 1, inside the NaN interval
    oracle = FunctionOracle(1, nan_on(0.9, 1.2, lambda t: (t - 1.0) ** 2))
    res = ls_par(oracle, X0, R, LsParConfig(h0=0.5), f0=1.0, g0=np.array([-2.0]))
    assert res == LineSearchResult(0.5, 0.25, 2, FOUND)


def _ls_par_reference(oracle, x0, r, config, f0, g0, h0):
    """ls_par as a plain loop: every sample in one list, re-sorted by (f, |h|)
    for each refit, until a gradient-started search's best sample meets
    Armijo's condition. Finite objectives only."""
    calls, points = 0, [(0.0, f0)]

    def phi(h):
        nonlocal calls
        calls += 1
        f = oracle.value(x0 + h * r)
        points.append((h, f))
        return f

    def clamp(v):
        v = min(max(v, lo), hi)
        near = any(abs(v - h) <= _DUP_TOL * max(1.0, abs(v), abs(h)) for h, _ in points)
        return None if near or not math.isfinite(v) else v

    def rank(p):
        return p[1], abs(p[0])

    lo = 0.0 if config.use_gradient_start else -config.trust * h0
    hi = config.trust * h0
    refine = True
    if config.use_gradient_start:
        slope = float(g0 @ r)
        f1 = phi(h0)
        a = (f1 - f0 - slope * h0) / (h0 * h0)
        v = None if a <= 0.0 or abs(a) < 1e-12 * max(abs(f0), abs(f1)) else clamp(-slope / (2 * a))
        refine = v is not None
        if refine:
            phi(v)
    else:
        phi(-h0 / 2.0)
        phi(h0 / 2.0)
    for _ in range(2, config.K + 1 if refine else 2):
        best3 = sorted(points, key=rank)[:3]
        h, f = best3[0]
        if config.use_gradient_start and f < f0 and f <= f0 + ARMIJO_C1 * h * slope:
            break
        if len({h for h, _ in best3}) < 3:
            break
        v = parabola_min(best3)
        v = None if v is None else clamp(v)
        if v is None:
            break
        phi(v)
    h, f = sorted(points, key=rank)[0]
    if h != 0.0 and f < f0:
        return LineSearchResult(h, f, calls, FOUND)
    return LineSearchResult(0.0, f0, calls, NO_RELAXATION)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-4.0, 4.0), a=st.floats(-2.0, 10.0), b=st.floats(-3.0, 3.0),
       w=st.floats(0.1, 5.0), quantum=st.sampled_from([0.0, 0.5, 0.05, 1e-3]),
       even=st.booleans(), k=st.integers(2, 8), gradient_start=st.booleans(),
       h0=st.one_of(st.none(), st.floats(1e-3, 4.0)), slope=st.floats(-20.0, 5.0))
def test_ls_par_equals_a_re_sorting_reference(t, a, b, w, quantum, even, k, gradient_start,
                                              h0, slope):
    # quantized and even objectives give exact ties in f, at equal and at
    # different |h|
    def fn(h):
        h = abs(h) if even else h
        f = a * (h - t) ** 2 + b * math.sin(w * h)
        return math.floor(f / quantum) * quantum if quantum else f

    cfg = LsParConfig(h0=1.0, K=k, use_gradient_start=gradient_start)
    f0, g0 = fn(0.0), np.array([slope])
    got, want = Phi(fn), Phi(fn)
    res = ls_par(got, X0, R, cfg, f0, g0, h0=h0)
    ref = _ls_par_reference(want, X0, R, cfg, f0, g0, cfg.h0 if h0 is None else h0)
    assert res == ref
    assert [x.tobytes() for x in got.seen] == [x.tobytes() for x in want.seen]


# ---------------------------------------------------------------- searcher

@pytest.mark.parametrize("config,described", [
    (LsHConfig(), {"kind": "h", "h0": 1.0}),
    (LsParConfig(K=3, use_gradient_start=False),
     {"kind": "par", "h0": 1.0, "K": 3, "use_gradient_start": False}),
    (LsParConfig(), {"kind": "par", "h0": 1.0, "K": 6, "use_gradient_start": True}),
], ids=["h", "par-K3-no-g0", "par"])
def test_line_searcher_takes_its_kind_from_the_config(config, described):
    searcher = LineSearcher(config)
    assert searcher.describe() == described
    overrides = {k: v for k, v in described.items() if k != "kind"}
    assert make_linesearch(described["kind"], **overrides).describe() == described


# ------------------------------------------------------------------ result

def test_result_rejects_inconsistent_no_relaxation():
    with pytest.raises(ValueError):
        LineSearchResult(0.5, 1.0, 1, NO_RELAXATION)
    with pytest.raises(ValueError):
        LineSearchResult(0.0, 1.0, 1, "bogus")
