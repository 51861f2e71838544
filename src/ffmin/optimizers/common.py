"""Shared optimizer plumbing: stop criteria, traces, line-search adapters,
and the two loops of the gradient methods, descend() and iterate().

Every driver in this package follows the same bookkeeping contract:

  * one trace record per iteration (plus record 0 at the start point),
  * the record's cumulative oracle-call counts are snapshots of the run's
    own counters, which start at 0, at the moment the record is appended,
  * best-so-far f is non-increasing along the records,
  * identical inputs give identical traces except for wall-clock columns,
  * a Run makes and counts every oracle call and owns max_oracle_calls and
    max_wall_time: after the start point it refuses any call past either,
    and the run ends with status oracle_budget or time_budget; so a reused
    oracle or line searcher carries nothing from one run to the next.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ..linesearch import (
    ARMIJO_C1,
    NO_RELAXATION,
    LineSearchResult,
    LsHConfig,
    LsParConfig,
    ls_h,
    ls_par,
    norm,
)
from ..energy import NonFiniteEnergyError
from ..kernels import all_finite

CONVERGED = "converged"
ORACLE_BUDGET = "oracle_budget"
TIME_BUDGET = "time_budget"
ITERATION_BUDGET = "iteration_budget"
LINESEARCH_FAILURE = "linesearch_failure"
HORIZON_COMPLETE = "horizon_complete"

# a missed natural step backtracks to the parabola's vertex, clamped to
# these fractions of |d| (Dennis & Schnabel, Alg. A6.3.1)
BACKTRACK_MIN = 0.1
BACKTRACK_MAX = 0.5

# iterate() aborts once f exceeds this multiple of max(1, |f(x0)|), for a
# caller that passes diverged= (ofgm does; gd checks only for non-finite values)
DIVERGENCE_FACTOR = 1e3


class DivergenceError(RuntimeError):
    """Objective blew up or became non-finite during a fixed-step run."""


class _BudgetExhausted(Exception):
    """A call would pass a budget; args[0] is ORACLE_BUDGET or TIME_BUDGET."""


@dataclass(frozen=True)
class StopCriteria:
    """Termination bounds: at least one budget finite, none negative or NaN.

    The gradient test is ||g|| <= max(gradient_norm_tol,
    gradient_norm_rtol * max(1, ||g(x0)||)); pass gradient_norm_rtol=0 to
    disable the relative part (useful when running to a fixed horizon).
    max_oracle_calls counts value plus gradient calls (a fused call is two)
    and must be at least 2, the cost of the start point. Both it and
    max_wall_time (seconds from the run's start) bind each later call. A
    failed line search that the method does not retry ends the run.
    """

    max_iterations: int | None = 10_000
    max_oracle_calls: int | None = None
    gradient_norm_tol: float = 0.0
    gradient_norm_rtol: float = 1e-6
    max_wall_time: float | None = None

    def __post_init__(self):
        t = self.max_wall_time
        if t is not None and not t >= 0:
            raise ValueError(f"max_wall_time must be >= 0 seconds, got {t}")
        if self.max_iterations is not None and not self.max_iterations >= 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if all(b in (None, math.inf) for b in (self.max_iterations, self.max_oracle_calls, t)):
            raise ValueError("at least one of the iteration/oracle/time budgets must be finite")
        if self.max_oracle_calls is not None and not self.max_oracle_calls >= 2:
            raise ValueError("max_oracle_calls must be >= 2 (the start point costs 2 calls)")
        for name in ("gradient_norm_tol", "gradient_norm_rtol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def threshold(self, g0_norm: float) -> float:
        return max(self.gradient_norm_tol, self.gradient_norm_rtol * max(1.0, g0_norm))


@dataclass(frozen=True, slots=True)  # slots: a long run holds one per iteration
class TraceRecord:
    iteration: int
    f: float
    grad_norm: float
    step: float
    value_calls: int
    grad_calls: int
    wall_seconds: float
    best_f: float


@dataclass
class OptimizerTrace:
    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    status: str | None = None

    @property
    def iterations(self):
        return self.records[-1].iteration if self.records else 0


@dataclass
class OptimizeResult:
    x: np.ndarray
    f: float
    grad_norm: float
    status: str
    trace: OptimizerTrace

    @property
    def iterations(self):
        return self.trace.iterations


class Run:
    """A run's lifecycle and the maker and counter of all its oracle calls,
    shared by all methods: begin() records the start point and arms the
    budgets, which each call method enforces on the run's counts, budgets()
    turns a refusal into the status, steps() counts the iterations, and
    finish() or finish_best() reports the status that ended the run. A call
    counts once admitted, before it is made, so one that raises counts too."""

    def __init__(self, oracle, stop: StopCriteria, meta: dict):
        self.oracle = oracle
        self.stop = stop
        self.value_calls = self.grad_calls = 0
        self.trace = OptimizerTrace(meta=dict(meta))
        self.t0 = time.perf_counter()
        self.best_f = math.inf
        self.best = None  # (x, |g| at x or nan, the step that reached x)
        self.probe_f, self.probe_x = math.inf, None  # the lowest value() and its x
        # value + gradient calls allowed and the perf_counter() deadline,
        # armed by begin(): the start point lies outside the budgets
        self.call_limit = self.deadline = None
        self.threshold = 0.0
        self.status = None

    def begin(self, x, f, grad_norm):
        """Record iteration 0 at x, set the gradient threshold from |g| there
        (wiggle passes nan, which never meets it), and the status converged
        if x already meets it; then arm the budgets."""
        t = self.stop.max_wall_time
        self.call_limit = self.stop.max_oracle_calls
        self.deadline = None if t is None else self.t0 + t
        self.threshold = self.stop.threshold(grad_norm)
        self.update_best(x, f, grad_norm)
        self.record(0, f, grad_norm, 0.0)
        if grad_norm <= self.threshold:
            self.status = CONVERGED

    def update_best(self, x, f, grad_norm=math.nan, step=0.0):
        """Remember x, by reference, if f is the lowest yet: the loops never
        write into an x in place, and finish copies the x it returns."""
        if f < self.best_f:
            self.best_f = f
            self.best = (x, grad_norm, step)

    def record(self, iteration, f, grad_norm, step):
        self.best_f = min(self.best_f, f)
        self.trace.records.append(TraceRecord(
            int(iteration), float(f), float(grad_norm), float(step), self.value_calls,
            self.grad_calls, time.perf_counter() - self.t0, self.best_f))

    def _admit(self, calls):
        """Refuse a call of `calls` evaluations that would pass a budget."""
        if (self.call_limit is not None
                and self.value_calls + self.grad_calls + calls > self.call_limit):
            raise _BudgetExhausted(ORACLE_BUDGET)
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise _BudgetExhausted(TIME_BUDGET)

    def value(self, x):
        """A probe: an overflowing energy (NonFiniteEnergyError) values as NaN,
        which does not relax, and a degenerate term raises. The lowest probe is
        kept by reference, as its array becomes the next iterate (KeptSweep)."""
        self._admit(1)
        self.value_calls += 1
        try:
            f = self.oracle.value(x)
        except NonFiniteEnergyError:
            return math.nan
        if f < self.probe_f:
            self.probe_f, self.probe_x = f, x
        return f

    def gradient(self, x):
        self._admit(1)
        self.grad_calls += 1
        return self.oracle.gradient(x)

    def value_and_gradient(self, x):
        self._admit(2)
        self.value_calls += 1
        self.grad_calls += 1
        return self.oracle.value_and_gradient(x)

    def charge(self, values):
        """Count wiggle's delta evaluations, before they are made."""
        self._admit(values)
        self.value_calls += values

    @contextmanager
    def budgets(self):
        """A budget refusal inside the block ends it and becomes the status."""
        try:
            yield
        except _BudgetExhausted as refusal:
            self.status = refusal.args[0]

    def steps(self, horizon=None):
        """Yield k, the iterations recorded so far, until the status is set,
        or set it to horizon_complete or iteration_budget once k reaches the
        horizon or max_iterations; a pass that records nothing (a retried
        search) yields the same k again."""
        m = self.stop.max_iterations
        while self.status is None:
            k = self.trace.iterations
            if horizon is not None and k >= horizon:
                self.status = HORIZON_COMPLETE
            elif m is not None and k >= m:
                self.status = ITERATION_BUDGET
            else:
                yield k

    def finish(self, x, f, grad_norm) -> OptimizeResult:
        self.trace.status = self.status
        return OptimizeResult(
            x=np.array(x, dtype=np.float64, copy=True),
            f=float(f),
            grad_norm=float(grad_norm),
            status=self.status,
            trace=self.trace,
        )

    def finish_best(self, fallback_x, fallback_f, grad_norm) -> OptimizeResult:
        """Like finish, but report the best-so-far point and |g| there, after
        recording it as one more iteration if it lies below every record (a
        search's lowest probe, fgm's extrapolated point).

        A converged run returns the final iterate: that is the point whose
        gradient satisfied the stop test, and near machine precision the
        lowest recorded f can belong to an earlier, less stationary point.
        """
        if self.status != CONVERGED and self.best is not None and self.best_f <= fallback_f:
            x, best_grad_norm, step = self.best
            if self.best_f < min(r.f for r in self.trace.records):
                self.record(self.trace.iterations + 1, self.best_f, best_grad_norm, step)
            return self.finish(x, self.best_f, best_grad_norm)
        return self.finish(fallback_x, fallback_f, grad_norm)


def check_finite(f, g, k=None):
    """Raise DivergenceError unless f and g are finite; k is the iteration,
    None for the start point."""
    if not (math.isfinite(f) and all_finite(g)):
        where = "the start point" if k is None else f"iteration {k}"
        raise DivergenceError(f"non-finite objective or gradient at {where}")


class LineSearcher:
    """Wrapper around ls_h / ls_par, chosen by the config's kind.

    search() starts from the warm start h its caller passes (descend()'s
    last accepted |h|), or from the configured h0 when h is None. A
    warm-started search that fails retries once from h0 before reporting it.
    """

    def __init__(self, config: LsHConfig | LsParConfig):
        self.config = config

    def describe(self):
        return {"kind": self.config.kind, **vars(self.config)}

    def _invoke(self, oracle, x, r, f0, g0, h0):
        if self.config.kind == "h":
            return ls_h(oracle, x, r, self.config, f0, h0=h0)
        return ls_par(oracle, x, r, self.config, f0, g0, h0=h0)

    def search(self, oracle, x, r, f0, g0=None, h=None) -> LineSearchResult:
        h0 = self.config.h0
        res = self._invoke(oracle, x, r, f0, g0, h0 if h is None else h)
        if res.status == NO_RELAXATION and h not in (None, h0):
            retry = self._invoke(oracle, x, r, f0, g0, h0)
            return replace(retry, oracle_calls=res.oracle_calls + retry.oracle_calls)
        return res


def make_linesearch(kind: str, **overrides) -> LineSearcher:
    """Build a LineSearcher from a kind string and config field overrides."""
    configs = {"h": LsHConfig, "par": LsParConfig}
    if kind not in configs:
        raise ValueError(f"unknown line search kind {kind!r}")
    return LineSearcher(configs[kind](**overrides))


def start(oracle, x0, stop, meta):
    """Make the run and begin it at x0, with one fused call there."""
    x = np.array(x0, dtype=np.float64).reshape(-1)
    if x.size != oracle.n:
        raise ValueError(f"x0 has {x.size} entries, oracle expects {oracle.n}")
    run = Run(oracle, stop or StopCriteria(), meta)
    f, g = run.value_and_gradient(x)
    check_finite(f, g)
    gn = norm(g)
    run.begin(x, f, gn)
    return run, x, f, g, gn


class DescentRule:
    """Steepest descent's direction rule, and the defaults other rules keep."""

    # False: an accepted step is recorded without a gradient at the new point
    takes_gradient = True
    # True while |d| is a step worth trying before the line search
    natural_step = False

    def direction(self, run, k, x, f, g, gn):
        """(origin, f, g, |g| at the origin, d) for iteration k + 1.

        descend() searches from the origin along d / |d|, after trying the
        step |d| when natural_step is set; it stops as converged when |g|
        meets the tolerance or d is zero.
        """
        return x, f, g, gn, -g

    def retry(self, g):
        """True to retry a failed search at once, without a record."""
        return False

    def advance(self, x, g, x_new, g_new):
        """Update the rule's state after an accepted step from x to x_new."""


def _natural_step(run, y, f_y, g_y, r, dn):
    """(h, f, x) of descend()'s natural step or its backtrack, whichever is
    taken, or None when the line search must run. A miss along a descent
    direction implies positive curvature, so the parabola's vertex exists."""
    slope = float(g_y.dot(r))
    h = dn
    # the searches' y + h * r, so a kept sweep finishes the gradient; an
    # accepted probe's own array is the new iterate
    f = run.value(x := y + h * r)
    if not (f < f_y and f <= f_y + ARMIJO_C1 * h * slope):
        curv = f - f_y - slope * dn  # a dn^2 of the parabola f_y + slope h + a h^2
        if not 0.0 < curv < math.inf:
            return None
        h = dn * min(max(-slope * dn / (2.0 * curv), BACKTRACK_MIN), BACKTRACK_MAX)
        f = run.value(x := y + h * r)
        if not (f < f_y and f <= f_y + ARMIJO_C1 * h * slope):
            return None
    return h, f, x


def descend(oracle, x0, stop, meta, rule, linesearch) -> OptimizeResult:
    """The line-search loop: direction, search, failure policy, record.

    When the rule has a natural step (LBFGS with a non-empty memory), the
    full step |d| is probed first, with one value call inside the oracle
    budget. It is taken if it lowers f and meets Armijo's condition with
    ARMIJO_C1. A finite probe that misses is backtracked once: one more
    value call at the vertex of the parabola through f, the slope and the
    probe, with the step clamped to [BACKTRACK_MIN, BACKTRACK_MAX] = [0.1,
    0.5] times |d|, taken on the same test. Either step leaves the warm
    start, the run's last accepted |h| (h0 at first and after a failed
    search), as it is. A probe that is not finite, or a
    backtrack that misses, runs the line search as it would have. Every
    probe is valued through Run.value, so one whose energy overflows does
    not relax.

    A failed search that the rule does not retry ends the run with status
    linesearch_failure. Returns the best point seen unless the run converged; a
    run that converges at a search origin other than its iterate (fgm's
    extrapolated point) records that origin as one more iteration, with step
    0, and returns it. When a budget refusal interrupts an iteration that
    probed below every point seen, the lowest probe is that best point, with
    no gradient (nan).
    """
    run, x, f, g, gn = start(oracle, x0, stop, meta)
    warm = None  # the search's warm start; None: the configured h0
    with run.budgets():
        for k in run.steps():
            y, f_y, g_y, gn, d = rule.direction(run, k, x, f, g, gn)
            run.update_best(y, f_y, gn)
            dn = norm(d)
            if gn <= run.threshold or dn == 0.0:
                run.status = CONVERGED
                if not np.array_equal(y, x):
                    x, f = y, f_y
                    run.record(k + 1, f, gn, 0.0)
                break
            r = d / dn
            if rule.natural_step and (step := _natural_step(run, y, f_y, g_y, r, dn)):
                h, f_new, x_new = step
            else:
                res = linesearch.search(run, y, r, f_y, g_y, warm)
                if res.status == NO_RELAXATION:
                    warm = None
                    if rule.retry(g_y):
                        continue
                    run.status = LINESEARCH_FAILURE
                    break
                h, f_new = res.h, res.f_at_step
                warm = abs(h)
                x_new = y + h * r  # the search's own probe, so a kept sweep is finished
            if rule.takes_gradient:
                g_new = run.gradient(x_new)
                check_finite(f_new, g_new, k + 1)
                rule.advance(x, g, x_new, g_new)
                g, gn = g_new, norm(g_new)
            x, f = x_new, f_new
            # gn is |g| at x unless the rule stepped there without a gradient
            run.update_best(x, f, gn if rule.takes_gradient else math.nan, h)
            run.record(k + 1, f, gn, h)
            if gn <= run.threshold:
                run.status = CONVERGED
    if run.status in (ORACLE_BUDGET, TIME_BUDGET) and run.probe_f < run.best_f:
        run.update_best(run.probe_x, run.probe_f, step=float((run.probe_x - y) @ r))
    return run.finish_best(x, f, gn)


def iterate(oracle, x0, stop, meta, L, step, horizon=None, diverged=None) -> OptimizeResult:
    """The fixed-step loop: x_{k+1} = step(k, x_k, g_k), then one fused
    value_and_gradient call there; meta gains L, and every record's step
    is 1/L.

    DivergenceError is raised for non-finite values, an energy that
    overflows included, and with a message template diverged ({k}, {f})
    also once f exceeds DIVERGENCE_FACTOR * max(1, |f0|). Returns the final
    iterate, after at most horizon steps when one is given.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if L == math.inf:
        raise ValueError("L must be finite, got inf")
    run, x, f, g, gn = start(oracle, x0, stop, {**meta, "L": L})
    f0 = f
    with run.budgets():
        for k in run.steps(horizon):
            x_new = step(k, x, g)
            try:
                f_new, g_new = run.value_and_gradient(x_new)
            except NonFiniteEnergyError:  # diverged, as a NaN value would have
                f_new, g_new = math.nan, g
            if diverged is None:
                check_finite(f_new, g_new, k + 1)
            elif (not math.isfinite(f_new)
                  or f_new > DIVERGENCE_FACTOR * max(1.0, abs(f0))
                  or not all_finite(g_new)):
                raise DivergenceError(diverged.format(k=k + 1, f=f_new))
            x, f, g = x_new, f_new, g_new
            gn = norm(g)
            run.record(k + 1, f, gn, 1.0 / L)
            if gn <= run.threshold:
                run.status = CONVERGED
    return run.finish(x, f, gn)
