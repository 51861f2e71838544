"""First-order drivers: fixed-step descent, steepest descent, momentum."""

from __future__ import annotations

import math

from .common import DescentRule, LineSearcher, OptimizeResult, descend, iterate


def gradient_descent_fixed(oracle, x0, L, stop=None) -> OptimizeResult:
    """x_{k+1} = x_k - (1/L) grad f(x_k)."""
    if not L > 0:
        raise ValueError("L must be positive")

    def step(k, x, x_prev, g):
        x_new = x - (1.0 / L) * g
        return (x_new, *oracle.value_and_gradient(x_new), 1.0 / L)

    return iterate(oracle, x0, stop, {"method": "gd", "L": L}, step)


def steepest_descent(oracle, x0, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    """Line search along the normalized antigradient each iteration."""
    meta = {"method": "sd", "linesearch": linesearch.describe()}
    return descend(oracle, x0, stop, meta, DescentRule(), linesearch)


def heavy_ball(oracle, x0, alpha, beta, stop=None) -> OptimizeResult:
    """Polyak momentum: x_{k+1} = x_k - alpha g_k + beta (x_k - x_{k-1})."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")

    def step(k, x, x_prev, g):
        x_new = x - alpha * g + beta * (x - x_prev)
        return (x_new, *oracle.value_and_gradient(x_new), alpha)

    return iterate(
        oracle, x0, stop, {"method": "hb", "alpha": alpha, "beta": beta}, step,
        diverged="heavy ball diverged at iteration {k}: f={f!r} (start f={f0!r}); "
                 "reduce alpha or beta",
    )


def _nesterov_step(oracle, L, momentum):
    """One step shared by both Nesterov variants; momentum(k) is the schedule.

    The gradient is taken at the extrapolated point w_k (at k = 0, where
    w_0 = x_0, the start gradient is reused) and is what the step reports.
    """

    def step(k, x, x_prev, g):
        w = x + momentum(k) * (x - x_prev)
        gw = g if k == 0 else oracle.gradient(w)
        x_new = w - (1.0 / L) * gw
        return x_new, oracle.value(x_new), gw, 1.0 / L

    return step


def nesterov_momentum(oracle, x0, L, stop=None) -> OptimizeResult:
    """Accelerated descent for convex f with the (k-1)/(k+2) schedule.

    The gradient is taken at the extrapolated point w_k, and the trace's
    grad_norm column reports |grad f(w_k)| since that is what the method
    evaluates.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    step = _nesterov_step(oracle, L, lambda k: (k - 1.0) / (k + 2.0))
    return iterate(oracle, x0, stop, {"method": "nag", "L": L}, step,
                   diverged="nesterov momentum diverged at iteration {k}: f={f!r}")


def nesterov_strongly_convex(oracle, x0, L, mu, stop=None) -> OptimizeResult:
    """Constant-momentum variant for mu-strongly convex objectives."""
    if not L > 0 or not mu > 0:
        raise ValueError("L and mu must be positive")
    if mu > L:
        raise ValueError("mu must not exceed L")
    m = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    step = _nesterov_step(oracle, L, lambda k: m)
    return iterate(
        oracle, x0, stop, {"method": "nag-sc", "L": L, "mu": mu}, step,
        diverged="strongly convex nesterov diverged at iteration {k}: f={f!r}",
    )
