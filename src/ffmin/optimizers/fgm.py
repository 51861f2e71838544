"""Accelerated first-order methods: adaptive FGM and a fixed-horizon
variant driven by a weighted running gradient sum.
"""

from __future__ import annotations

import math

import numpy as np

from ..linesearch import norm
from .common import DescentRule, LineSearcher, OptimizeResult, check_finite, descend, iterate


class _FgmRule(DescentRule):
    """Theta recurrence; the search starts at the extrapolated point w_k."""

    takes_gradient = False
    theta_prev = 1.0
    x_prev = None

    def direction(self, run, k, x, f, g, gn):
        tp = self.theta_prev
        theta = 0.5 * tp * (math.sqrt(tp * tp + 4.0) - tp)
        assert 0.0 < theta < 1.0 and theta < tp
        beta = tp * (1.0 - tp) / (tp * tp + theta)
        w = x + beta * (x - (x if self.x_prev is None else self.x_prev))
        # the next iterate is either the searched point or w itself
        self.x_prev, self.theta_prev = x, theta
        f_w, g_w = (f, g) if k == 0 else run.value_and_gradient(w)
        check_finite(f_w, g_w, k)
        return w, f_w, g_w, norm(g_w), -g_w


def fgm(oracle, x0, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    """Extrapolation with the theta recurrence, line search along the
    normalized antigradient at the extrapolated point w_k. Iterates may be
    non-monotone; the best observed point is returned.

    The method takes no gradient at its iterates x_k, so the trace's
    grad_norm column reports, in record k, |grad f(w)| at the origin of
    search k (x0 for the first search), beside f(x_k): the gradient the
    method evaluated. A run that converges at w records w itself, with
    step 0.
    """
    meta = {"method": "fgm", "linesearch": linesearch.describe()}
    return descend(oracle, x0, stop, meta, _FgmRule(), linesearch)


# theta_1020 overflows a float64 (theta grows by about sqrt(2) a step)
OFGM_MAX_HORIZON = 1019


def ofgm_schedule(N: int):
    """(t, theta) arrays of length N+1 with t[N] tied to theta[N].

    t follows t_{k+1} = (1 + sqrt(4 t_k^2 + 1))/2 from t_0 = 1 except for
    the last entry, which is set to theta_N from the faster recurrence
    theta_{k+1} = (1 + sqrt(8 theta_k^2 + 1))/2, theta_0 = 1.
    """
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    if N > OFGM_MAX_HORIZON:
        raise ValueError(f"horizon N = {N} overflows theta_N; "
                         f"the largest horizon is {OFGM_MAX_HORIZON}")
    t = np.empty(N + 1)
    theta = np.empty(N + 1)
    t[0] = theta[0] = 1.0
    for k in range(N):
        theta[k + 1] = 0.5 * (1.0 + math.sqrt(8.0 * theta[k] ** 2 + 1.0))
    for k in range(N - 1):
        t[k + 1] = 0.5 * (1.0 + math.sqrt(4.0 * t[k] ** 2 + 1.0))
    t[N] = theta[N]
    return t, theta


def ofgm(oracle, x0, N, L, stop=None) -> OptimizeResult:
    """Fixed-horizon accelerated method with a weighted gradient sum:
    x_{k+1} = y_k - (1/L) d_{k+1}. Returns the final iterate x_N, not the
    best-so-far.
    """
    t, _ = ofgm_schedule(N)
    anchor = np.array(x0, dtype=np.float64).reshape(-1)
    grad_sum = np.zeros_like(anchor)

    def step(k, x, g):
        nonlocal grad_sum
        grad_sum += t[k] * g
        tk1 = t[k + 1]
        d = (1.0 - 1.0 / tk1) * g + (2.0 / tk1) * grad_sum
        y = (1.0 - 1.0 / tk1) * x + (1.0 / tk1) * anchor
        return y - (1.0 / L) * d

    return iterate(oracle, x0, stop, {"method": "ofgm", "N": N}, L, step, horizon=N,
                   diverged="ofgm diverged at iteration {k}: f={f!r}")
