"""Inexact one-dimensional searches along a normalized descent direction.

Two procedures with hard oracle-call budgets, whose constants are class
attributes of LsHConfig and LsParConfig:

  ls_h    probe/expand/contract on raw function values: it expands by
          k_plus = 2 and contracts by k_minus = 0.5 down to the floor
          eps_h = 1e-12. At most 2 + ceil(log_2(h0/eps_h)) calls.
  ls_par  parabolic interpolation, optionally seeded with the directional
          derivative at the start point, with vertices clamped to
          trust * h0 = 10 h0. At most K + 2 calls; seeded so, it stops
          refining once its best sample meets Armijo's condition with
          ARMIJO_C1. It keeps its samples ranked as it takes them
          (bisect.insort on tuples whose order is the ranking), and its
          refits run parabola_min's arithmetic (_fit) without its check.

Both either find a strictly relaxing step or report no_relaxation with
h = 0. The step returned by ls_par may be negative when the search sampled
behind the start point (the G0 = false branch does so by construction);
ls_h steps are always positive.

A NaN value never relaxes: ls_h contracts past it, and ls_par stops at it
and decides from its finite samples. MolecularOracle raises instead of
returning NaN; the descent loops (optimizers.common.descend) value every
probe through a wrapper that turns an overflowing energy
(NonFiniteEnergyError) into NaN, so such a probe does not relax either,
while a degenerate term at a probe still raises.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

FOUND = "found"
NO_RELAXATION = "no_relaxation"

# vertices this close to an already-sampled abscissa are treated as
# duplicates: refitting through them can only reproduce the same parabola
_DUP_TOL = 1e-13
# Armijo's sufficient-decrease constant: LBFGS's natural step and ls_par's stop
ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class LsHConfig:
    kind: ClassVar[str] = "h"
    eps_h: ClassVar[float] = 1e-12  # contraction floor
    k_plus: ClassVar[float] = 2.0  # expansion factor
    k_minus: ClassVar[float] = 0.5  # contraction factor

    h0: float = 1.0

    def __post_init__(self):
        if not 0 < self.h0 < math.inf:
            raise ValueError(f"h0 must be finite and > 0, got {self.h0}")


@dataclass(frozen=True)
class LsParConfig:
    kind: ClassVar[str] = "par"
    trust: ClassVar[float] = 10.0  # vertex steps clamped to trust*h0

    h0: float = 1.0
    K: int = 6
    use_gradient_start: bool = True

    def __post_init__(self):
        if not 0 < self.h0 < math.inf:
            raise ValueError(f"h0 must be finite and > 0, got {self.h0}")
        if self.h0 * self.h0 == 0.0:  # the gradient-started fit divides by it
            raise ValueError(f"h0 = {self.h0} is too small for ls_par: h0 * h0 underflows to 0")
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")


@dataclass(frozen=True)
class LineSearchResult:
    h: float
    f_at_step: float
    oracle_calls: int
    status: str

    def __post_init__(self):
        if self.status not in (FOUND, NO_RELAXATION):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == NO_RELAXATION and self.h != 0.0:
            raise ValueError("no_relaxation implies h = 0")


def _fit(x0, f0, x1, f1, x2, f2):
    """parabola_min's vertex, or None, without its check of the abscissae."""
    # Newton divided differences: a is half the second derivative
    d01 = (f1 - f0) / (x1 - x0)
    d12 = (f2 - f1) / (x2 - x1)
    a = (d12 - d01) / (x2 - x0)
    tol = 1e-12 * max(abs(f0), abs(f1), abs(f2))
    if a <= 0.0 or abs(a) < tol:
        return None
    # vertex of f0 + d01 (x-x0) + a (x-x0)(x-x1)
    return (x0 + x1) / 2.0 - d01 / (2.0 * a)


def parabola_min(points):
    """Vertex of the parabola through three (h, f) points, or None on failure.

    Failure means non-positive or numerically negligible curvature.
    Duplicate abscissae are an input error.
    """
    (x0, f0), (x1, f1), (x2, f2) = points
    if x0 == x1 or x0 == x2 or x1 == x2:
        raise ValueError("parabola fit needs pairwise distinct abscissae")
    return _fit(x0, f0, x1, f1, x2, f2)


def norm(v):
    """|v| of a 1-D float64 vector: the float np.linalg.norm gives, without
    its dispatch."""
    return math.sqrt(float(v.dot(v)))


def _check_direction(r):
    r = np.asarray(r, dtype=np.float64)
    nrm = norm(r.reshape(-1))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"direction must be unit length, got norm {nrm}")
    return r


def ls_h(oracle, x0, r, config: LsHConfig, f0: float, h0=None) -> LineSearchResult:
    """Step-halving search: probe h0, expand once if it relaxes, else contract.

    Contraction keeps halving (factor k_minus) until a strictly relaxing
    step appears or the step falls to eps_h, which reports no_relaxation;
    a NaN probe does not relax, so contraction goes on past it. h0
    (default config.h0) is a warm start's first step.
    """
    r = _check_direction(r)
    x0 = np.asarray(x0, dtype=np.float64)
    calls = 0

    def phi(h):
        nonlocal calls
        calls += 1
        return oracle.value(x0 + h * r)

    h0 = config.h0 if h0 is None else h0
    f_probe = phi(h0)
    if f_probe < f0:
        h_up = config.k_plus * h0
        f_up = phi(h_up)
        if f_up < f_probe:
            return LineSearchResult(h_up, f_up, calls, FOUND)
        return LineSearchResult(h0, f_probe, calls, FOUND)

    h = config.k_minus * h0
    f_c = phi(h)
    while not f_c < f0:  # relaxation must be strict, and NaN never relaxes
        h = config.k_minus * h
        if h <= config.eps_h:
            return LineSearchResult(0.0, f0, calls, NO_RELAXATION)
        f_c = phi(h)
    return LineSearchResult(h, f_c, calls, FOUND)


def ls_par(oracle, x0, r, config: LsParConfig, f0: float, g0=None,
           h0=None) -> LineSearchResult:
    """Parabolic-interpolation search with at most K + 2 oracle calls.

    With use_gradient_start the first parabola comes from the directional
    derivative at h = 0 plus the sample at h0, all steps stay forward, and
    refining stops once the best sample h meets Armijo's condition
    f <= f0 + ARMIJO_C1 * h * (g0 . r). Without it the search samples +-h0/2
    and may return a negative step. Each refinement fits the best three
    samples, ranked by the lower f, then the shorter step, then the earlier
    sample, and evaluates the clamped vertex; a degenerate fit stops
    refining. A NaN probe stops the search where it is and is left out of
    the samples. The best sample then decides the outcome. h0 (default
    config.h0) is a warm start's first step; the trust interval scales with
    it.
    """
    r = _check_direction(r)
    x0 = np.asarray(x0, dtype=np.float64)
    hs = [0.0]  # every abscissa sampled, h = 0 included
    # the finite samples as (f, |h|, sample number, h), kept sorted: tuple
    # order is the ranking, with no key function to call
    points = [(f0, 0.0, 0, 0.0)]

    def phi(h):
        """The value at step h, or None when it is NaN."""
        f = oracle.value(x0 + h * r)
        hs.append(h)
        if f != f:
            return None
        insort(points, (f, abs(h), len(hs), h))
        return f

    h0 = config.h0 if h0 is None else h0
    lo = 0.0 if config.use_gradient_start else -config.trust * h0
    hi = config.trust * h0

    if config.use_gradient_start:
        if g0 is None:
            raise ValueError("use_gradient_start requires g0")
        slope = float(np.asarray(g0, dtype=np.float64).dot(r))
        f1 = phi(h0)
        if f1 is None:
            failed = True
        else:
            a = (f1 - f0 - slope * h0) / (h0 * h0)
            tol = 1e-12 * max(abs(f0), abs(f1))
            v = None if a <= 0.0 or abs(a) < tol else _clamp_vertex(-slope / (2.0 * a), lo, hi,
                                                                      hs)
            failed = v is None or phi(v) is None
    else:
        failed = phi(-h0 / 2.0) is None or phi(h0 / 2.0) is None

    if not failed:
        for _ in range(2, config.K + 1):
            (f0_, _, _, x0_), (f1, _, _, x1), (f2, _, _, x2) = points[:3]
            if config.use_gradient_start and f0_ < f0 \
                    and f0_ <= f0 + ARMIJO_C1 * x0_ * slope:
                break
            v = _fit(x0_, f0_, x1, f1, x2, f2)
            if v is None:
                break
            v = _clamp_vertex(v, lo, hi, hs)
            if v is None or phi(v) is None:
                break

    f_best, _, _, h_best = points[0]
    calls = len(hs) - 1
    if h_best != 0.0 and f_best < f0:
        return LineSearchResult(h_best, f_best, calls, FOUND)
    return LineSearchResult(0.0, f0, calls, NO_RELAXATION)


def _clamp_vertex(v, lo, hi, hs):
    """Clamp to the trust interval; None for a near duplicate of a sampled
    abscissa in hs."""
    if not math.isfinite(v):
        return None
    v = min(max(v, lo), hi)
    scale = max(1.0, abs(v))
    # only an h within 2 * _DUP_TOL * scale of v can be a near duplicate
    near = 2.0 * _DUP_TOL * scale
    for h in hs:
        d = abs(v - h)
        if d <= near and d <= _DUP_TOL * max(scale, abs(h)):
            return None
    return v
