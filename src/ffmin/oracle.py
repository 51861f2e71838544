"""Objective oracles: the only interface optimizers see.

An oracle evaluates and counts, and nothing else. Every optimizer trace
snapshots value_calls/grad_calls, and value(), gradient() and
value_and_gradient() each count the call they make: a fused call increments
both counters by one. atom_wiggle, whose evaluations are energy deltas
rather than values at an x, counts each one as a value call on a base
ObjectiveOracle through charge(), its six axis probes at once.

The budgets of a run (its call cap and deadline) belong to the run, not the
oracle: optimizers.common.Run makes every call of a run and refuses one
past either budget before the oracle sees it.

An oracle may reuse work between calls (MolecularOracle finishes the value
sweep of the point it valued last when asked for the gradient there), but
never so that a result or a count differs from plain evaluation.
"""

from __future__ import annotations

import numpy as np

from .energy import KeptSweep, energy_and_gradient, energy_total


class ObjectiveOracle:
    """Base class; subclasses implement _value/_gradient/_value_and_gradient."""

    def __init__(self, n):
        self.n = int(n)
        self.value_calls = 0
        self.grad_calls = 0

    def reset_counters(self):
        self.value_calls = 0
        self.grad_calls = 0

    def charge(self, values, grads):
        """Count evaluations made outside value/gradient (wiggle's deltas)."""
        self.value_calls += values
        self.grad_calls += grads

    def value(self, x) -> float:
        self.value_calls += 1
        return float(self._value(np.asarray(x, dtype=np.float64)))

    def gradient(self, x):
        self.grad_calls += 1
        return np.asarray(self._gradient(np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def value_and_gradient(self, x):
        self.value_calls += 1
        self.grad_calls += 1
        f, g = self._value_and_gradient(np.asarray(x, dtype=np.float64))
        return float(f), np.asarray(g, dtype=np.float64)

    # default fused path; subclasses with a cheaper joint evaluation override
    def _value_and_gradient(self, x):
        return self._value(x), self._gradient(x)

    def _value(self, x):
        raise NotImplementedError

    def _gradient(self, x):
        raise NotImplementedError


class FunctionOracle(ObjectiveOracle):
    """Wrap plain callables f(x) and optionally g(x) as an oracle."""

    def __init__(self, n, f, grad=None):
        super().__init__(n)
        self._f = f
        self._g = grad

    def _value(self, x):
        return self._f(x)

    def _gradient(self, x):
        if self._g is None:
            raise NotImplementedError("no gradient supplied for this oracle")
        return self._g(x)


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

    def _value(self, x):
        return energy_total(self.system, x, self._kept).total

    def _gradient(self, x):
        _, g = energy_and_gradient(self.system, x, self._kept)
        return g

    def _value_and_gradient(self, x):
        bd, g = energy_and_gradient(self.system, x, self._kept)
        return bd.total, g
