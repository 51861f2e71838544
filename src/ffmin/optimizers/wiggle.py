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

Every probe, exact delta and resync counts as one value call of an
ObjectiveOracle, armed after the start energy with the run's call and time
budgets (Run.arm_budgets): an evaluation past max_oracle_calls, or starting
past max_wall_time, is not made, and the run ends with status oracle_budget
or time_budget at its last accepted configuration.
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
from ..oracle import ObjectiveOracle, _BudgetExhausted
from .common import OptimizeResult, Run, StopCriteria

# accepted moves must beat the current energy by this margin so the
# strict-decrease audit survives resummation noise
ACCEPT_MARGIN = 1e-9

# the six probe displacements in units of h, in probe order -x, +x, -y, +y,
# -z, +z; written out, as np.eye times signs would hold -0.0 entries
_PROBE_STEPS = np.array([
    [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0], [0.0, 1.0, 0.0],
    [0.0, 0.0, -1.0], [0.0, 0.0, 1.0],
])


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
class WiggleResult(OptimizeResult):
    system: object


def atom_wiggle(system, config: WiggleConfig, stop=None) -> WiggleResult:
    if config.use_incremental_coulomb and system.nonbonded.cutoff is not None:
        raise ModelError("incremental probes require a system without a nonbonded cutoff")
    oracle = ObjectiveOracle(3 * system.natoms)
    run = Run(oracle, stop or StopCriteria(), {
        "method": "wiggle", "h": config.h, "seed": config.seed,
        "epoch_iterations": config.epoch_iterations,
        "use_incremental_coulomb": config.use_incremental_coulomb,
        "cutoff": config.cutoff,
    })
    rng = np.random.default_rng(config.seed)
    h = config.h
    steps = h * _PROBE_STEPS
    sys_cur = system
    oracle.charge(1, 0)
    e_run = energy_total(sys_cur).total
    run.best_f = min(run.best_f, e_run)
    run.record(0, e_run, math.nan, 0.0)
    run.arm_budgets()
    status = None
    k = 0

    def evaluate(fn, *args):
        """One counted value call; degenerate geometry reads as inf."""
        oracle.charge(1, 0)
        try:
            return fn(*args)
        except EnergyEvaluationError:
            return math.inf

    def full_delta(atom, delta):
        moved = sys_cur.coords.copy()
        moved[atom] += delta
        return energy_total(sys_cur, moved).total - e_run

    try:
        while status is None:
            status = run.budget_status(k)
            if status:
                break
            atom = int(rng.integers(sys_cur.natoms))
            if config.use_incremental_coulomb:
                lin = linearize_farfield_coulomb(sys_cur, atom, config.cutoff)
                probe = lambda delta: evaluate(delta_energy_atom_move, sys_cur, lin, delta)
            else:
                probe = lambda delta: evaluate(full_delta, atom, delta)

            # six displaced probes; the unmoved center has delta energy 0
            deltas = np.array([probe(step) for step in steps])

            # per-axis parabola vertex, falling back to the best probe offset
            # when the fit has no interior minimum; vertices clamped to +-10h
            vertex = np.zeros(3)
            for axis, (dm, dp) in enumerate(deltas.reshape(3, 2)):
                choices = [(0.0, 0.0)] + [(d, s) for d, s in ((dm, -h), (dp, h))
                                          if math.isfinite(d)]
                v = parabola_min([(-h, dm), (0.0, 0.0), (h, dp)]) if len(choices) == 3 else None
                vertex[axis] = min(choices)[1] if v is None else min(max(v, -10.0 * h), 10.0 * h)

            candidates = [(d, step) for d, step in zip(deltas, steps) if math.isfinite(d)]
            if np.any(vertex != 0.0):
                d_vertex = probe(vertex)
                if math.isfinite(d_vertex):
                    candidates.append((d_vertex, vertex))

            step_norm = 0.0
            est, delta = min(candidates, key=lambda c: c[0], default=(math.inf, None))
            if est < -ACCEPT_MARGIN:
                exact = evaluate(exact_delta_atom_move, sys_cur, atom, delta)
                if exact < -ACCEPT_MARGIN:
                    coords = sys_cur.coords.copy()
                    coords[atom] += delta
                    sys_cur = sys_cur.with_coords(coords)
                    e_run += exact
                    step_norm = float(np.linalg.norm(delta))
            k += 1
            if config.use_incremental_coulomb and k % config.epoch_iterations == 0:
                # a refused resync still records the move this iteration made
                try:
                    oracle.charge(1, 0)
                    e_run = energy_total(sys_cur).total
                except _BudgetExhausted as refusal:
                    status = refusal.args[0]
            run.best_f = min(run.best_f, e_run)
            run.record(k, e_run, math.nan, step_norm)
    except _BudgetExhausted as refusal:
        # the interrupted iteration moved nothing: the run ends where it stands
        status = refusal.args[0]
    result = run.finish(status, sys_cur.coords.ravel(), e_run, math.nan)
    return WiggleResult(**vars(result), system=sys_cur)
