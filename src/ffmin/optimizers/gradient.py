"""First-order drivers: fixed-step descent and steepest descent."""

from __future__ import annotations

from .common import DescentRule, LineSearcher, OptimizeResult, descend, iterate


def gradient_descent_fixed(oracle, x0, L, stop=None) -> OptimizeResult:
    """x_{k+1} = x_k - (1/L) grad f(x_k)."""
    return iterate(oracle, x0, stop, {"method": "gd"}, L, lambda k, x, g: x - (1.0 / L) * g)


def steepest_descent(oracle, x0, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    """Line search along the normalized antigradient each iteration."""
    meta = {"method": "sd", "linesearch": linesearch.describe()}
    return descend(oracle, x0, stop, meta, DescentRule(), linesearch)
