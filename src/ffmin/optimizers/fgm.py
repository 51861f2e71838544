"""Accelerated first-order methods: adaptive FGM and a fixed-horizon
variant driven by a weighted running gradient sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common import (
    CONVERGED,
    HORIZON_COMPLETE,
    LINESEARCH_FAILURE,
    NO_RELAXATION,
    DivergenceError,
    LineSearcher,
    OptimizeResult,
    Run,
    StopCriteria,
    check_finite,
)
from .gradient import DIVERGENCE_FACTOR, _start


@dataclass
class FgmState:
    theta_prev: float
    theta: float
    x_prev: np.ndarray
    x: np.ndarray


def fgm(oracle, x0, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    """Extrapolation with the theta recurrence, line search along the
    normalized antigradient at the extrapolated point w_k. Iterates may be
    non-monotone; the best observed point is returned.
    """
    run, x, f, g, gn = _start(
        oracle, x0, stop, {"method": "fgm", "linesearch": linesearch.describe()}
    )
    st = FgmState(theta_prev=1.0, theta=1.0, x_prev=x.copy(), x=x)
    status = CONVERGED if gn <= run.threshold else None
    k = 0
    while status is None:
        status = run.budget_status(k)
        if status:
            break
        tp = st.theta_prev
        theta = 0.5 * tp * (math.sqrt(tp * tp + 4.0) - tp)
        assert 0.0 < theta < 1.0 and theta < tp
        beta = tp * (1.0 - tp) / (tp * tp + theta)
        w = st.x + beta * (st.x - st.x_prev)
        if k == 0:
            f_w, g_w = f, g
        else:
            f_w, g_w = oracle.value_and_gradient(w)
        check_finite(f_w, g_w, f"iteration {k}")
        run.update_best(w, f_w)
        gn = float(np.linalg.norm(g_w))
        if gn <= run.threshold:
            status = CONVERGED
            break
        r = -g_w / gn
        res = linesearch.search(oracle, w, r, f_w, g_w)
        if res.status == NO_RELAXATION:
            if run.stop.stop_on_linesearch_failure:
                status = LINESEARCH_FAILURE
                break
            k += 1
            run.record(k, f_w, gn, 0.0)
            st.x_prev, st.x = st.x, w
            st.theta_prev, st.theta = theta, theta
            continue
        x_new = w + res.h * r
        f = res.f_at_step
        st.x_prev, st.x = st.x, x_new
        st.theta_prev, st.theta = theta, theta
        k += 1
        run.update_best(x_new, f)
        run.record(k, f, gn, res.h)
    return run.finish_best(status, st.x, f, gn)


@dataclass
class OfgmState:
    horizon: int
    t: np.ndarray
    theta: np.ndarray
    anchor: np.ndarray
    grad_sum: np.ndarray = field(default=None)


def ofgm_schedule(N: int):
    """(t, theta) arrays of length N+1 with t[N] tied to theta[N].

    t follows t_{k+1} = (1 + sqrt(4 t_k^2 + 1))/2 from t_0 = 1 except for
    the last entry, which is set to theta_N from the faster recurrence
    theta_{k+1} = (1 + sqrt(8 theta_k^2 + 1))/2, theta_0 = 1.
    """
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    t = np.empty(N + 1)
    theta = np.empty(N + 1)
    t[0] = 1.0
    theta[0] = 1.0
    for k in range(N):
        theta[k + 1] = 0.5 * (1.0 + math.sqrt(8.0 * theta[k] ** 2 + 1.0))
    for k in range(N - 1):
        t[k + 1] = 0.5 * (1.0 + math.sqrt(4.0 * t[k] ** 2 + 1.0))
    t[N] = theta[N]
    return t, theta


def ofgm(oracle, x0, N, L=None, linesearch=None, stop=None) -> OptimizeResult:
    """Fixed-horizon accelerated method with a weighted gradient sum.

    Exactly one of L / linesearch selects the step rule. With L the update
    is x_{k+1} = y_k - (1/L) d_{k+1}; in line-search mode the 1/L factor is
    replaced by a search along the normalized -d_{k+1} starting from y_k
    (a failed search keeps x_{k+1} = y_k and the schedule continues).
    Returns the final iterate x_N, not the best-so-far.
    """
    if (L is None) == (linesearch is None):
        raise ValueError("pass exactly one of L or linesearch")
    if L is not None and not L > 0:
        raise ValueError("L must be positive")
    t, theta = ofgm_schedule(N)
    meta = {"method": "ofgm", "N": N}
    if L is not None:
        meta["L"] = L
    else:
        meta["linesearch"] = linesearch.describe()
    run, x, f, g, gn = _start(oracle, x0, stop, meta)
    f_init = f
    st = OfgmState(horizon=N, t=t, theta=theta, anchor=x.copy(),
                   grad_sum=np.zeros_like(x))
    status = CONVERGED if gn <= run.threshold else None
    k = 0
    while status is None:
        if k >= N:
            status = HORIZON_COMPLETE
            break
        status = run.budget_status(k)
        if status:
            break
        st.grad_sum += t[k] * g
        tk1 = t[k + 1]
        d = (1.0 - 1.0 / tk1) * g + (2.0 / tk1) * st.grad_sum
        y = (1.0 - 1.0 / tk1) * x + (1.0 / tk1) * st.anchor
        if L is not None:
            x = y - (1.0 / L) * d
            f, g = oracle.value_and_gradient(x)
            step = 1.0 / L
        else:
            dn = float(np.linalg.norm(d))
            if dn == 0.0:
                x, step = y, 0.0
                f = oracle.value(x)
            else:
                r = -d / dn
                f_y = oracle.value(y)
                g_y = oracle.gradient(y) if linesearch.needs_gradient else None
                res = linesearch.search(oracle, y, r, f_y, g_y)
                if res.status == NO_RELAXATION:
                    x, step, f = y, 0.0, f_y
                else:
                    x = y + res.h * r
                    step, f = res.h, res.f_at_step
            g = oracle.gradient(x)
        if (
            not math.isfinite(f)
            or f > DIVERGENCE_FACTOR * max(1.0, abs(f_init))
            or not np.all(np.isfinite(g))
        ):
            raise DivergenceError(f"ofgm diverged at iteration {k + 1}: f={f!r}")
        gn = float(np.linalg.norm(g))
        k += 1
        run.update_best(x, f)
        run.record(k, f, gn, step)
        if gn <= run.threshold:
            status = CONVERGED
    return run.finish(status, x, f, gn)
