"""Derivative-free relaxation by wiggling one random atom at a time.

Each iteration probes the chosen atom at +-h along each axis (six moved
positions, in one stacked call, plus the unmoved center), fits a parabola
per axis through that axis's three energies, and combines the per-axis
vertices into an eighth candidate. The atom moves to the best candidate
only if its exact delta strictly lowers the energy.

Every probe is a single-atom delta, O(n), and the branches differ only in
its model. With use_incremental_coulomb it models the far field (exact
bonded and near terms, linearized far Coulomb, far vdW dropped), so one more
exact delta confirms the best candidate, and the running energy is resynced
against a full recompute every epoch; without it, every probe is the exact
delta over all partners, so the best candidate's value is already exact.

Every probe, exact delta and resync is one value call that the run counts
(Run.charge), the six axis probes together, before they are made; the run
has no oracle. After the start energy, a call past max_oracle_calls
or starting past max_wall_time is not made, and the run ends with status
oracle_budget or time_budget at its last accepted configuration.
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
from .common import OptimizeResult, Run, StopCriteria, _BudgetExhausted

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
        if not 0 < self.h < math.inf:
            raise ValueError(f"probe step h must be finite and > 0, got {self.h}")
        if self.seed < 0:
            raise ValueError(f"wiggle seed must be >= 0, got {self.seed}")
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
    if system.natoms == 0:
        raise ModelError("atom_wiggle needs a system with at least one atom")
    run = Run(None, stop or StopCriteria(), {"method": "wiggle", **vars(config)})
    rng = np.random.default_rng(config.seed)
    h = config.h
    steps = h * _PROBE_STEPS
    sys_cur = system
    run.charge(1)
    e_run = energy_total(sys_cur).total
    run.begin(sys_cur.coords.ravel(), e_run, math.nan)

    def evaluate(fn, args, delta, charge=True):
        """One value call per displacement in delta, (3,) or (6, 3), charged
        before any is made; degenerate geometry reads as inf, row by row."""
        if charge:
            run.charge(delta.size // 3)
        try:
            return fn(*args, delta)
        except EnergyEvaluationError:
            if delta.ndim == 1:
                return math.inf
            return np.array([evaluate(fn, args, row, False) for row in delta])

    with run.budgets():
        for k in run.steps():
            atom = int(rng.integers(sys_cur.natoms))
            if config.use_incremental_coulomb:
                lin = linearize_farfield_coulomb(sys_cur, atom, config.cutoff)
                fn, args = delta_energy_atom_move, (sys_cur, lin)
            else:
                fn, args = exact_delta_atom_move, (sys_cur, atom)

            # six displaced probes; the unmoved center has delta energy 0
            deltas = evaluate(fn, args, steps)

            # per-axis parabola vertex, falling back to the best probe offset
            # when the fit has no interior minimum; vertices clamped to +-10h;
            # a probe that reads inf is never the lowest candidate
            vertex = np.zeros(3)
            for axis, (dm, dp) in enumerate(deltas.reshape(3, 2)):
                fit = math.isfinite(max(dm, dp))  # probes are finite or inf
                v = parabola_min([(-h, dm), (0.0, 0.0), (h, dp)]) if fit else None
                vertex[axis] = (min((0.0, 0.0), (dm, -h), (dp, h))[1] if v is None
                                else min(max(v, -10.0 * h), 10.0 * h))

            candidates = list(zip(deltas, steps))
            if np.any(vertex != 0.0):
                candidates.append((evaluate(fn, args, vertex), vertex))

            step_norm = 0.0
            est, delta = min(candidates, key=lambda c: c[0])
            if est < -ACCEPT_MARGIN:
                exact = float(est)
                if config.use_incremental_coulomb:
                    exact = evaluate(exact_delta_atom_move, (sys_cur, atom), delta)
                if exact < -ACCEPT_MARGIN:
                    coords = sys_cur.coords.copy()
                    coords[atom] += delta
                    sys_cur = sys_cur.with_coords(coords)
                    e_run += exact
                    step_norm = float(np.linalg.norm(delta))
            if config.use_incremental_coulomb and (k + 1) % config.epoch_iterations == 0:
                # a refused resync still records the move this iteration made
                try:
                    run.charge(1)
                    e_run = energy_total(sys_cur).total
                except _BudgetExhausted as refusal:
                    run.status = refusal.args[0]
            run.record(k + 1, e_run, math.nan, step_norm)
    # a refusal elsewhere moved nothing: the run ends where it stands
    result = run.finish(sys_cur.coords.ravel(), e_run, math.nan)
    return WiggleResult(**vars(result), system=sys_cur)
