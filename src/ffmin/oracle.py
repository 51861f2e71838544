"""Objective oracles: the only interface optimizers see.

An oracle evaluates and counts, and nothing else: it subclasses
ObjectiveOracle and defines value(x), gradient(x) and value_and_gradient(x),
each of which counts its call before it evaluates (a fused call increments
both counters by one), for callers outside a run.

A run's counts and budgets (its call cap and deadline) belong to the run:
optimizers.common.Run makes and counts every call of a run, from 0, and
refuses one past either budget before the oracle sees it. So an oracle
serves any number of runs, and its counters change nothing a run does.

An oracle may reuse work between calls (MolecularOracle finishes the value
sweep of the point it valued last when asked for the gradient there), but
never so that a result or a count differs from plain evaluation.
"""

from __future__ import annotations

import numpy as np

from .energy import KeptSweep, energy_and_gradient, energy_total


class ObjectiveOracle:
    """Base class: the dimension n and the two call counters. A subclass
    defines value, gradient and value_and_gradient, each counting first."""

    def __init__(self, n):
        self.n = int(n)
        self.value_calls = 0
        self.grad_calls = 0

    def reset_counters(self):
        self.value_calls = 0
        self.grad_calls = 0


class FunctionOracle(ObjectiveOracle):
    """Wrap plain callables f(x) and its gradient g(x) as an oracle."""

    def __init__(self, n, f, grad):
        super().__init__(n)
        self._f = f
        self._g = grad

    def value(self, x) -> float:
        self.value_calls += 1
        return float(self._f(np.asarray(x, dtype=np.float64)))

    def gradient(self, x):
        self.grad_calls += 1
        return np.asarray(self._g(np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def value_and_gradient(self, x):
        self.value_calls += 1
        self.grad_calls += 1
        x = np.asarray(x, dtype=np.float64)
        return float(self._f(x)), np.asarray(self._g(x), dtype=np.float64)


class MolecularOracle(ObjectiveOracle):
    """Total force-field energy as a function of flattened coordinates.

    Coordinates are in angstrom, values in kJ/mol, gradient in
    kJ/(mol*angstrom). Every call evaluates the system's plan at x directly;
    an x of the wrong length or with a non-finite entry raises ModelError.

    An optimizer nearly always asks for the gradient at the point it valued
    last: its accepted natural step, or the probe its line search stopped
    at. So the oracle keeps the sweep valued last (KeptSweep), and a
    gradient at exactly that x only runs its gradient halves; every other
    call sweeps afresh. Counts and results are the same either way.
    """

    def __init__(self, system):
        super().__init__(3 * system.natoms)
        self.system = system
        self._kept = KeptSweep()

    def value(self, x) -> float:
        self.value_calls += 1
        return energy_total(self.system, x, self._kept).total

    def gradient(self, x):
        self.grad_calls += 1
        return energy_and_gradient(self.system, x, self._kept)[1]

    def value_and_gradient(self, x):
        self.value_calls += 1
        self.grad_calls += 1
        bd, g = energy_and_gradient(self.system, x, self._kept)
        return bd.total, g
