"""Synthetic convex benchmarks with known optima and rate bounds.

Quadratic instances f(x) = 1/2 <Ax, x> - <b, x> are built from a chosen
spectrum with a random orthogonal basis; the minimizer comes from a direct
solve, so optimality gaps are exact. The piecewise worst-case function is
the construction on which the fixed-horizon accelerated method's bound is
tight (quadratic inside a small ball, linear ramp outside, continuously
differentiable at the seam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linesearch import FOUND, NO_RELAXATION, LineSearchResult
from .oracle import FunctionOracle
from .optimizers import StopCriteria, ofgm, ofgm_schedule


@dataclass(frozen=True)
class QuadraticInstance:
    spectrum: np.ndarray  # ascending; [0] = mu, [-1] = L
    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    f_star: float
    x0: np.ndarray

    @property
    def n(self):
        return self.b.size

    @property
    def L(self):
        return float(self.spectrum[-1])

    @property
    def mu(self):
        return float(self.spectrum[0])

    @property
    def chi(self):
        return self.L / self.mu

    @property
    def R(self):
        return float(np.linalg.norm(self.x0 - self.x_star))

    @staticmethod
    def from_spectrum(spectrum, seed=0) -> "QuadraticInstance":
        spectrum = np.sort(np.asarray(spectrum, dtype=np.float64))
        if spectrum[0] <= 0:
            raise ValueError("spectrum must be positive")
        n = spectrum.size
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * spectrum) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        x_star = np.linalg.solve(a, b)
        f_star = -0.5 * float(b @ x_star)
        x0 = rng.standard_normal(n)
        return QuadraticInstance(spectrum, a, b, x_star, f_star, x0)

    @staticmethod
    def random(n, chi, seed=0, L=1.0) -> "QuadraticInstance":
        """Random spectrum with endpoints L/chi and L."""
        if chi < 1:
            raise ValueError("chi must be >= 1")
        mu = L / chi
        rng = np.random.default_rng(seed)
        interior = rng.uniform(mu, L, max(n - 2, 0))
        spectrum = np.concatenate(([mu], interior, [L]))[:n]
        return QuadraticInstance.from_spectrum(spectrum, seed=seed)

    @staticmethod
    def isotropic(n, seed=0, L=1.0) -> "QuadraticInstance":
        return QuadraticInstance.from_spectrum(np.full(n, L), seed=seed)

    def value(self, x):
        return 0.5 * float(x @ (self.A @ x)) - float(self.b @ x)

    def gradient(self, x):
        return self.A @ x - self.b

    def gap(self, x):
        # algebraically value(x) - f_star, but evaluated through the
        # quadratic form in (x - x_star): the subtraction form loses the
        # gap to cancellation once it drops below ~1e-15 of |f_star|
        d = np.asarray(x, dtype=np.float64) - self.x_star
        return 0.5 * float(d @ (self.A @ d))

    def oracle(self) -> FunctionOracle:
        return FunctionOracle(self.n, self.value, self.gradient)

    def exact_linesearch(self) -> "ExactQuadraticLineSearch":
        return ExactQuadraticLineSearch(self)


class ExactQuadraticLineSearch:
    """Analytic argmin along a ray for a known quadratic: h = -<g,r>/<r,Ar>.

    Drop-in for the inexact searchers, warm start h aside; spends one value
    call to report the objective at the accepted step so traces stay honest.
    """

    def __init__(self, instance: QuadraticInstance):
        self.instance = instance

    def describe(self):
        return {"kind": "exact-quadratic"}

    def search(self, oracle, x, r, f0, g0=None, h=None) -> LineSearchResult:
        g = self.instance.gradient(x) if g0 is None else g0
        curv = float(r @ (self.instance.A @ r))
        slope = float(g @ r)
        if curv <= 0.0:
            return LineSearchResult(0.0, f0, 0, NO_RELAXATION)
        h = -slope / curv
        if h == 0.0:
            return LineSearchResult(0.0, f0, 0, NO_RELAXATION)
        # h is the analytic argmin, so it is reported even when roundoff
        # makes the evaluated decrease vanish near machine precision
        f_new = oracle.value(x + h * r)
        return LineSearchResult(h, f_new, 1, FOUND)


@dataclass(frozen=True)
class WorstCaseFunction:
    """Quadratic inside ||x|| < R/theta_N^2, linear ramp outside, C^1 seam."""

    L: float
    R: float
    N: int
    theta_N: float = field(init=False)

    def __post_init__(self):
        if self.L <= 0 or self.R <= 0 or self.N < 1:
            raise ValueError("L, R must be positive and N >= 1")
        _, theta = ofgm_schedule(self.N)
        object.__setattr__(self, "theta_N", float(theta[-1]))

    @property
    def seam(self):
        return self.R / self.theta_N**2

    @property
    def f_star(self):
        return 0.0

    def bound(self):
        return ofgm_bound(self.L, self.R, self.theta_N)

    def value(self, x):
        nx = float(np.linalg.norm(x))
        if nx < self.seam:
            return 0.5 * self.L * nx * nx
        slope = self.L * self.R / self.theta_N**2
        # seam**2, not R**2 / theta_N**4: theta_N**4 overflows from N = 510
        return slope * nx - 0.5 * self.L * self.seam**2

    def gradient(self, x):
        x = np.asarray(x, dtype=np.float64)
        nx = float(np.linalg.norm(x))
        if nx < self.seam:
            return self.L * x
        return (self.L * self.R / self.theta_N**2) * (x / nx)

    def oracle(self, n) -> FunctionOracle:
        return FunctionOracle(n, self.value, self.gradient)

    def start_point(self, n, seed=0):
        """Random direction at distance exactly R from the minimizer."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        return self.R * v / np.linalg.norm(v)


def gd_bound(L, R, N, chi):
    return 0.5 * L * R * R * min(1.0 / N, math.exp(-N / chi))


def cg_bound(L, R, N):
    return 0.5 * L * R * R / (2.0 * N + 1.0) ** 2


def ofgm_bound(L, R, theta_N):
    return 2.0 * L * R * R / theta_N**2


# bound tables hold within this multiplicative slack (roundoff allowance)
BOUND_SLACK = 1.05


def worstcase_report(n=64, N=16, L=1.0, R=1.0, seed=0):
    """Run the fixed-horizon method on the tight instance; report the ratio."""
    if n < 1:
        raise ValueError(f"worstcase_report needs n >= 1, got {n}")
    wc = WorstCaseFunction(L=L, R=R, N=N)
    x0 = wc.start_point(n, seed=seed)
    stop = StopCriteria(max_iterations=N, gradient_norm_rtol=0.0)
    res = ofgm(wc.oracle(n), x0, N, L=L, stop=stop)
    gap = wc.value(res.x) - wc.f_star
    bound = wc.bound()
    return {"theta_N": wc.theta_N, "gap": gap, "bound": bound, "ratio": gap / bound}
