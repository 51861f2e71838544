"""Limited-memory BFGS with a two-loop direction: its natural step first,
then an inexact line search when that step misses Armijo's condition."""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ..linesearch import norm
from .common import DescentRule, LineSearcher, OptimizeResult, descend

CURVATURE_RTOL = 1e-12


class LbfgsMemory:
    """Ring buffer of the last m curvature pairs (s, y, rho, gamma), oldest
    first: rho = 1/<s,y>, and gamma = <s,y>/<y,y> scales H0 after the pair."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("memory depth m must be >= 1")
        self.m = m
        self.pairs = deque(maxlen=m)

    def __len__(self):
        return len(self.pairs)

    def clear(self):
        self.pairs.clear()

    def push(self, s, y) -> bool:
        """Store the pair, not a copy, unless its curvature is too small; True if stored."""
        s, y = np.asarray(s, dtype=np.float64), np.asarray(y, dtype=np.float64)
        sy, yy = float(s.dot(y)), float(y.dot(y))
        # math.sqrt(yy) is norm(y)
        if sy <= CURVATURE_RTOL * norm(s) * math.sqrt(yy):
            return False
        self.pairs.append((s, y, 1.0 / sy, sy / yy))
        return True


def lbfgs_direction(memory: LbfgsMemory, g) -> np.ndarray:
    """Two-loop recursion. Empty memory gives the normalized antigradient;
    otherwise the raw (unscaled) quasi-Newton direction is returned.
    """
    g = np.asarray(g, dtype=np.float64)
    pairs = memory.pairs
    if not pairs:
        gn = norm(g)
        return -g if gn == 0.0 else -g / gn
    q = g.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        alpha = rho * float(s.dot(q))
        alphas.append(alpha)
        q -= alpha * y
    q *= pairs[-1][3]
    for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y.dot(q))) * s
    return -q


class _LbfgsRule(DescentRule):
    """Two-loop direction; on a failed search the memory is dropped once."""

    def __init__(self, m: int):
        self.memory = LbfgsMemory(m)

    @property
    def natural_step(self):
        # the two-loop direction is scaled; the normalized antigradient is not
        return len(self.memory) > 0

    def direction(self, run, k, x, f, g, gn):
        return x, f, g, gn, lbfgs_direction(self.memory, g)

    def retry(self, g):
        # a stale metric can produce a bad direction; drop it and retry from
        # the plain antigradient (an empty memory cannot be dropped again)
        if len(self.memory) == 0:
            return False
        self.memory.clear()
        return True

    def advance(self, x, g, x_new, g_new):
        # a step without positive curvature leaves no pair; the memory that
        # chose it goes too, so its direction cannot repeat
        if not self.memory.push(x_new - x, g_new - g):
            self.memory.clear()


def lbfgs(oracle, x0, m: int = 3, *, linesearch: LineSearcher, stop=None) -> OptimizeResult:
    rule = _LbfgsRule(m)
    meta = {"method": "lbfgs", "m": m, "linesearch": linesearch.describe()}
    return descend(oracle, x0, stop, meta, rule, linesearch)
