"""tools/identity.py, the digest that shows a refactor changed no result:
its digests repeat exactly, one ulp of input shows in them, and its
degenerate start points hash the one fault each geometry gets."""

import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from ffmin.oracle import MolecularOracle
from ffmin.optimizers import StopCriteria, lbfgs, make_linesearch
from ffmin.synth import make_chain_system

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def some_runs(identity):
    """The grid's n=8, s=0 block (every method, both wiggle branches) and
    every method under a cap of 25 calls."""
    runs = identity.runs()
    return [*itertools.islice(runs, 14), *((n, m) for n, m in runs if n.endswith(" cap=25"))]


def test_digests_repeat_exactly(identity):
    first = [(name, identity.outcome(make)) for name, make in some_runs(identity)]
    again = [(name, identity.outcome(make)) for name, make in some_runs(identity)]
    assert len(first) == 26
    assert {status for _, (status, _, _) in first} >= {"converged", "oracle_budget"}
    assert first == again


def test_degenerate_starts_hash_the_fault_the_energy_names(identity):
    faults = {"n=6 s=1 x1=x0": "bend term 0 (atoms 0-1-2): zero-length arm",
              "n=6 s=1 x4=x0": "nonbonded pair (0,4): coincident atoms",
              "n=6 s=1 x3=x2": "bend term 1 (atoms 1-2-3): zero-length arm",
              "n=6 s=1 x5=x0": "nonbonded pair (0,5): coincident atoms",
              # a zero-length bond has an energy, so only wiggle, which needs
              # no gradient, runs from it
              "n=2 s=0 x1=x0": "stretch term 0 (atoms 0-1): coincident endpoints"}
    seen = {}
    for name, make in identity.runs():
        words = name.split()
        tag = " ".join(words[-3:])
        if tag in faults and not (tag.startswith("n=2") and words[0] == "wiggle"):
            text = f"EnergyEvaluationError: {faults[tag]}"
            assert identity.outcome(make) == ("raised", -1, hashlib.sha256(
                text.encode()).hexdigest()), name
            seen[tag] = seen.get(tag, 0) + 1
    # gd, ofgm, four search methods with two searches each, two wiggle branches
    assert seen == {tag: 10 if tag.startswith("n=2") else 12 for tag in faults}


def test_one_ulp_of_x0_changes_the_digest(identity):
    system = make_chain_system(8, 0, 0.3)
    x0 = system.coords.ravel()
    nudged = x0.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)

    def digest(x):
        stop = StopCriteria(max_iterations=20, gradient_norm_rtol=0.0)
        return identity.digest(lbfgs(MolecularOracle(system), x, m=5,
                                     linesearch=make_linesearch("par"), stop=stop))

    assert digest(x0) == digest(x0.copy())
    assert digest(nudged) != digest(x0)


def test_main_prints_a_line_per_run_and_the_total(identity, monkeypatch, capsys):
    selected = some_runs(identity)[:3]
    monkeypatch.setattr(identity, "runs", lambda: iter(selected))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the src dir first
    identity.main(["identity.py", str(ROOT / "src")])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("gd n=8 s=0 L=20000.0")
    assert lines[-1].startswith("3 runs, total ")
    assert len(lines[-1].split()[-1]) == 64
