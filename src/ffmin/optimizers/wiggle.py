"""Derivative-free relaxation by wiggling one random atom at a time.

Each iteration probes the chosen atom at +-h along each axis (six moved
positions plus the unmoved center), fits a parabola per axis through that
axis's three energies, and combines the per-axis vertices into an eighth
candidate. The atom moves to the best candidate only if the move strictly
lowers the energy.

With use_incremental_coulomb the probe energies come from the cheap
delta evaluation around a far-field linearization (exact bonded and near
terms, linearized far Coulomb, far vdW dropped), so the winning candidate
is re-checked with an exact O(n) delta before the move is accepted. The
running energy is resynced against a full recompute every epoch.

Every probe, exact delta and resync counts as one value call, and
max_oracle_calls is hard: an evaluation that would pass it is not made, and
the run ends with status oracle_budget at its last accepted configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..energy import (
    EnergyEvaluationError,
    delta_energy_atom_move,
    energy_total,
    exact_delta_atom_move,
    linearize_farfield_coulomb,
)
from ..linesearch import parabola_min
from ..model import ModelError
from ..oracle import _BudgetExhausted
from .common import ORACLE_BUDGET, OptimizerTrace, Run, StopCriteria

# accepted moves must beat the current energy by this margin so the
# strict-decrease audit survives resummation noise
ACCEPT_MARGIN = 1e-9


@dataclass(frozen=True)
class WiggleConfig:
    h: float = 0.05
    seed: int = 0
    epoch_iterations: int = 100
    use_incremental_coulomb: bool = True
    cutoff: float = 7.0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"probe step h must be > 0, got {self.h}")
        if self.epoch_iterations < 1:
            raise ValueError("epoch_iterations must be >= 1")
        if not self.cutoff > 0:
            raise ValueError("cutoff must be > 0")


@dataclass
class WiggleResult:
    system: object
    x: np.ndarray
    f: float
    grad_norm: float
    status: str
    trace: OptimizerTrace

    @property
    def iterations(self):
        return self.trace.iterations


class _EvalCounter:
    """Duck-typed stand-in for an oracle's call counters in the trace.

    Like an oracle's call_limit, limit is hard: spend() refuses to count an
    evaluation past it.
    """

    def __init__(self, limit):
        self.value_calls = 0
        self.grad_calls = 0
        self.limit = limit

    def can_spend(self):
        return self.limit is None or self.value_calls < self.limit

    def spend(self):
        """Count one evaluation before it is made."""
        if not self.can_spend():
            raise _BudgetExhausted
        self.value_calls += 1


_AXIS_OFFSETS = ((0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0), (2, -1.0), (2, 1.0))


def atom_wiggle(system, config: WiggleConfig, stop=None) -> WiggleResult:
    if config.use_incremental_coulomb and system.nonbonded.cutoff is not None:
        raise ModelError(
            "incremental probes require a system without a nonbonded cutoff"
        )
    stop = stop or StopCriteria()
    counter = _EvalCounter(stop.max_oracle_calls)
    run = Run(counter, stop, {
        "method": "wiggle", "h": config.h, "seed": config.seed,
        "epoch_iterations": config.epoch_iterations,
        "use_incremental_coulomb": config.use_incremental_coulomb,
        "cutoff": config.cutoff,
    })
    rng = np.random.default_rng(config.seed)
    sys_cur = system
    counter.spend()
    e_run = energy_total(sys_cur).total
    run.update_best(sys_cur.coords.ravel(), e_run)
    run.record(0, e_run, math.nan, 0.0)
    h = config.h
    status = None
    k = 0

    def probe_incremental(lin, delta):
        counter.spend()
        try:
            return delta_energy_atom_move(sys_cur, lin, delta)
        except EnergyEvaluationError:
            return math.inf

    def probe_full(atom, delta):
        moved = sys_cur.coords.copy()
        moved[atom] += delta
        counter.spend()
        try:
            return energy_total(sys_cur, moved).total - e_run
        except EnergyEvaluationError:
            return math.inf

    try:
        while status is None:
            status = run.budget_status(k)
            if status:
                break
            atom = int(rng.integers(sys_cur.natoms))
            if config.use_incremental_coulomb:
                lin = linearize_farfield_coulomb(sys_cur, atom, config.cutoff)
                probe = lambda delta: probe_incremental(lin, delta)
            else:
                probe = lambda delta: probe_full(atom, delta)

            # six displaced probes; the unmoved center has delta energy 0
            deltas = np.zeros((3, 2))
            for idx, (axis, sign) in enumerate(_AXIS_OFFSETS):
                step_vec = np.zeros(3)
                step_vec[axis] = sign * h
                deltas[axis, 0 if sign < 0 else 1] = probe(step_vec)

            # per-axis parabola vertex, falling back to the best probe offset
            # when the fit has no interior minimum; vertices clamped to +-10h
            vertex = np.zeros(3)
            for axis in range(3):
                dm, dp = deltas[axis]
                if math.isfinite(dm) and math.isfinite(dp):
                    v = parabola_min([(-h, dm), (0.0, 0.0), (h, dp)])
                else:
                    v = None
                if v is None:
                    choices = [(0.0, 0.0)]
                    if math.isfinite(dm):
                        choices.append((dm, -h))
                    if math.isfinite(dp):
                        choices.append((dp, h))
                    vertex[axis] = min(choices)[1]
                else:
                    vertex[axis] = min(max(v, -10.0 * h), 10.0 * h)

            candidates = []
            for axis, sign in _AXIS_OFFSETS:
                d = deltas[axis, 0 if sign < 0 else 1]
                if math.isfinite(d):
                    step_vec = np.zeros(3)
                    step_vec[axis] = sign * h
                    candidates.append((d, step_vec))
            if np.any(vertex != 0.0):
                d_vertex = probe(vertex)
                if math.isfinite(d_vertex):
                    candidates.append((d_vertex, vertex))

            moved = False
            if candidates:
                est, delta = min(candidates, key=lambda c: c[0])
                if est < -ACCEPT_MARGIN:
                    counter.spend()
                    try:
                        exact = exact_delta_atom_move(sys_cur, atom, delta)
                    except EnergyEvaluationError:
                        exact = math.inf
                    if exact < -ACCEPT_MARGIN:
                        coords = sys_cur.coords.copy()
                        coords[atom] += delta
                        sys_cur = sys_cur.with_coords(coords)
                        e_run += exact
                        moved = True
            k += 1
            if config.use_incremental_coulomb and k % config.epoch_iterations == 0:
                # a refused resync still records the move this iteration made
                if counter.can_spend():
                    counter.spend()
                    e_run = energy_total(sys_cur).total
                else:
                    status = ORACLE_BUDGET
            run.update_best(sys_cur.coords.ravel(), e_run)
            run.record(k, e_run, math.nan,
                       float(np.linalg.norm(delta)) if moved else 0.0)
    except _BudgetExhausted:
        # the interrupted iteration moved nothing: the run ends where it stands
        status = ORACLE_BUDGET
    return WiggleResult(
        system=sys_cur,
        x=sys_cur.coords.ravel().copy(),
        f=float(e_run),
        grad_norm=math.nan,
        status=status,
        trace=run.trace,
    )
