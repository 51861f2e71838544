"""Minimize-then-rank workflow: sort candidates by final energy and find
the first near-native one.

RMSD is the direct formula over matched atom order with the 3 * natoms
normalization; no superposition is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEAR_NATIVE_RMSD = 10.0
SUCCESS_RANK = 30


def rmsd(v, w) -> float:
    """sqrt( sum_a ||v_a - w_a||^2 / (3 * natoms) ), and 0 without atoms."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"conformation shapes differ or are not (n,3): {v.shape} vs {w.shape}")
    d = v - w
    return math.sqrt(float(np.sum(d * d)) / (3.0 * max(v.shape[0], 1)))


@dataclass(frozen=True)
class CandidateResult:
    id: str
    energy: float
    rmsd: float
    status: str

    @property
    def failed(self):
        return not math.isfinite(self.energy)


@dataclass(frozen=True)
class RankingReport:
    candidates: tuple  # CandidateResult, sorted by (energy, id), failures last
    first_near_native: int | None
    success: bool

    @staticmethod
    def build(results) -> "RankingReport":
        ordered = sorted(
            results, key=lambda c: (c.failed, c.energy if not c.failed else 0.0, c.id)
        )
        first = None
        for idx, cand in enumerate(ordered):
            if not cand.failed and cand.rmsd < NEAR_NATIVE_RMSD:
                first = idx
                break
        success = first is not None and first < SUCCESS_RANK
        return RankingReport(tuple(ordered), first, success)
