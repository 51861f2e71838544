"""Nonlinear conjugate gradients with pluggable beta formulas.

The running direction p is kept unnormalized; the line search always
receives a unit-norm copy. Restarts (p <- -g) happen every restart_period
iterations, whenever the updated direction fails the descent test
<p, -g> > 0, and after a line-search failure along a conjugate direction,
whose search is retried along -g. A failed search along -g ends the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..linesearch import norm
from .common import DescentRule, LineSearcher, OptimizeResult, descend

VARIANTS = ("fr", "prp", "prp+", "hs", "cd", "ls", "dy")


def canonical_variant(kind: str) -> str:
    """kind stripped and lower-cased; ValueError unless it is one of VARIANTS."""
    k = kind.strip().lower()
    if k not in VARIANTS:
        raise ValueError(f"unknown cg variant {kind!r}; expected one of {VARIANTS}")
    return k


@dataclass(frozen=True)
class CgVariant:
    kind: str = "prp"
    restart_period: int = 100

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_variant(self.kind))
        if self.restart_period < 1:
            raise ValueError("restart_period must be >= 1")


def cg_beta(kind, g_new, g_old, p):
    """Positive-sign beta for the update p+ = -g_new + beta * p.

    The four variants whose textbook denominators involve the previous
    step use p here; since the step is a positive multiple of p, the
    product beta * p is identical either way.
    """
    y = g_new - g_old
    if kind == "fr":
        num, den = float(g_new @ g_new), float(g_old @ g_old)
    elif kind == "prp":
        num, den = float(g_new @ y), float(g_old @ g_old)
    elif kind == "prp+":
        num, den = max(float(g_new @ y), 0.0), float(g_old @ g_old)
    elif kind == "hs":
        num, den = float(g_new @ y), float(p @ y)
    elif kind == "cd":
        num, den = float(g_new @ g_new), -float(p @ g_old)
    elif kind == "ls":
        num, den = float(g_new @ y), -float(p @ g_old)
    elif kind == "dy":
        num, den = float(g_new @ g_new), float(p @ y)
    else:
        raise ValueError(f"unknown cg variant {kind!r}")
    if den == 0.0:
        return math.nan
    return num / den


class _CgRule(DescentRule):
    """The running direction p, its restarts and the retry along -g."""

    def __init__(self, variant: CgVariant):
        self.variant = variant
        self.p = None
        self.since_restart = 0

    def direction(self, run, k, x, f, g, gn):
        if self.p is None or norm(self.p) == 0.0:
            self.p, self.since_restart = -g, 0
        return x, f, g, gn, self.p

    def retry(self, g):
        # right after a restart p already is -g, and its search would repeat
        if self.since_restart == 0:
            return False
        self.p, self.since_restart = -g, 0
        return True

    def advance(self, x, g, x_new, g_new):
        self.since_restart += 1
        beta = (cg_beta(self.variant.kind, g_new, g, self.p)
                if self.since_restart < self.variant.restart_period else math.nan)
        p = -g_new + beta * self.p if math.isfinite(beta) else None
        if p is None or float(p @ -g_new) <= 0.0:
            p, self.since_restart = -g_new, 0
        self.p = p


def cg(oracle, x0, variant: CgVariant, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    meta = {"method": "cg", "variant": variant.kind,
            "restart_period": variant.restart_period,
            "linesearch": linesearch.describe()}
    return descend(oracle, x0, stop, meta, _CgRule(variant), linesearch)
